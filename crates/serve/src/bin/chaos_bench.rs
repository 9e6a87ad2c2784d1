//! Chaos benchmark: sweeps fault intensity x defence configuration over
//! the pinned gate stream and writes `chaos_report.json`, then exports the
//! fleet timeline of one observed cell to `serve_timeline.json`, both in
//! the working directory.
//!
//! Usage: `chaos_bench` (no arguments; any argument exits 2 and writes
//! nothing). Both output paths are checked before the sweep starts, so an
//! unwritable one fails the run at once.
//!
//! The sweep first measures the chaos-off p99 on the same stream (the
//! anchor every deadline, backoff and hedge delay derives from), then
//! runs three fault intensities (low/mid/high) against three defence
//! arms: `none` (deadline accounting only), `retries` (bounded retries
//! with exponential backoff), and `full` (retries + hedging +
//! quarantine).
//!
//! The binary enforces the headline claim: at every swept intensity the
//! fully defended arm must attain a strictly higher overall SLO
//! per-mille than the undefended arm, or the run exits non-zero.
//!
//! After the sweep, the mid-intensity/full-defence cell runs once more
//! with the observability layer on, and its fleet timeline (Chrome trace
//! JSON, openable in `chrome://tracing` or Perfetto) goes to
//! `serve_timeline.json`. The sweep itself stays untraced, so
//! `chaos_report.json` does not depend on the observed run. Both files
//! and stdout are byte-identical at any `REPRO_THREADS` setting; the
//! tier-1 test `chaos_report_is_byte_identical_across_worker_counts` pins
//! the report to the committed file and pins the `[trace]` lines.

use pudiannao_accel::json::{self, Value};
use pudiannao_accel::profile::export_timeline;
use pudiannao_serve::sweep::{chaos_fleet, chaos_sweep, gate_generator, ChaosCell, CHAOS_SEED};
use pudiannao_serve::{fleet_timeline, serve, serve_observed, ChaosConfig, Defense, ObserveConfig};

/// The sweep's report.
const REPORT: &str = "chaos_report.json";
/// The observed cell's fleet timeline.
const TIMELINE: &str = "serve_timeline.json";

fn print_cell(cell: &ChaosCell) {
    let res = cell.report.resilience.as_ref().expect("chaos cells are resilient runs");
    let o = &res.outcomes;
    println!(
        "[chaos] cell {} {} completed {} retried_ok {} hedge_won {} timed_out {} failed {} \
         shed {} slo_overall_permille {}",
        ChaosConfig::intensity_label(cell.intensity),
        cell.defense,
        o.completed_total(),
        o.retried_ok,
        o.hedge_won,
        o.timed_out,
        o.failed,
        o.shed,
        res.overall_slo_permille()
    );
    let tiers: Vec<String> = pudiannao_serve::Priority::ALL
        .iter()
        .map(|p| format!("{} {}", p.label(), res.tiers[p.index()].slo_met_permille))
        .collect();
    println!(
        "[chaos] slo {} {} {}",
        ChaosConfig::intensity_label(cell.intensity),
        cell.defense,
        tiers.join(" ")
    );
}

fn main() {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!("error: unexpected argument {arg:?} (usage: chaos_bench, no arguments)");
        std::process::exit(2);
    }
    for path in [REPORT, TIMELINE] {
        or_exit(json::check_writable(path));
    }
    let gen = gate_generator();

    // Anchor: the chaos-off p99 of the same stream on the same fleet.
    let baseline = serve(&chaos_fleet(), &gen);
    let p99 = baseline.p99_ns;
    println!("[chaos] mode full");
    println!("[chaos] baseline_p99_ns {p99}");

    let cells = chaos_sweep(&gen, p99);
    for cell in &cells {
        print_cell(cell);
    }

    // The headline gate: full defences strictly beat no defences on
    // overall SLO attainment at every fault intensity.
    let mut ok = true;
    for intensity in 0..3u32 {
        let slo_of = |arm: &str| {
            cells
                .iter()
                .find(|c| c.intensity == intensity && c.defense == arm)
                .and_then(|c| c.report.resilience.as_ref())
                .map_or(0, |r| r.overall_slo_permille())
        };
        let none = slo_of("none");
        let full = slo_of("full");
        let diff = full as i64 - none as i64;
        println!("[chaos] defended_minus_none {} {diff}", ChaosConfig::intensity_label(intensity));
        if full <= none {
            eprintln!(
                "error: defended SLO attainment {full} does not beat undefended {none} at \
                 intensity {}",
                ChaosConfig::intensity_label(intensity)
            );
            ok = false;
        }
    }

    let mut arr = Value::array(Vec::new());
    for cell in &cells {
        arr.push(cell.to_json());
    }
    let doc = Value::object()
        .with("mode", "full")
        .with("chaos_seed", CHAOS_SEED)
        .with("baseline_p99_ns", p99)
        .with("cells", arr);
    or_exit(json::write_file(REPORT, &doc));
    println!("[chaos] wrote {REPORT}");

    // One extra run of the mid-intensity/full-defence cell with spans and
    // windowed metrics on. The sweep above ran untraced, so the report
    // does not depend on it.
    let traced = serve_observed(
        &chaos_fleet(),
        &gen,
        &ChaosConfig::intensity(CHAOS_SEED, 1),
        &Defense::full(p99),
        &ObserveConfig::full(gen.requests),
    );
    let timeline = fleet_timeline(&traced).expect("observed run carries a trace");
    let check = export_timeline(&timeline, TIMELINE).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let obs = traced.observability.as_ref().expect("observed run carries observability");
    let metrics = obs.metrics.as_ref().expect("observed run carries metrics");
    println!("[trace] cell mid full");
    println!("[trace] spans {} instants {} tracks {}", check.spans, check.instants, check.tracks);
    println!("[trace] events_dropped {}", obs.events_dropped);
    println!(
        "[trace] windows {} windowed_p99_max_ns {}",
        metrics.windows.len(),
        metrics.windowed_p99_max_ns
    );
    println!("[trace] wrote {TIMELINE}");

    if !ok {
        std::process::exit(1);
    }
}

fn or_exit(result: Result<(), String>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
