//! Chaos benchmark: sweeps fault intensity x defence configuration over
//! the pinned gate stream and writes `chaos_report.json`.
//!
//! ```text
//! chaos_bench [--smoke] [--out PATH] [--trace] [--trace-out PATH]
//! ```
//!
//! The sweep first measures the chaos-off p99 on the same stream (the
//! anchor every deadline, backoff and hedge delay derives from), then
//! runs three fault intensities (low/mid/high) against three defence
//! arms: `none` (deadline accounting only), `retries` (bounded retries
//! with exponential backoff), and `full` (retries + hedging +
//! quarantine). Lines tagged `[chaos]` are pinned by
//! `scripts/check.sh --chaos`; the JSON file is compared byte-for-byte
//! across `REPRO_THREADS` settings.
//!
//! The binary enforces the headline claim: at every swept intensity the
//! fully defended arm must attain a strictly higher overall SLO
//! per-mille than the undefended arm, or the run exits non-zero.
//!
//! `--trace` re-runs the mid-intensity/full-defence cell with the
//! observability layer on and writes its fleet timeline (Chrome trace
//! JSON, openable in `chrome://tracing` or Perfetto) to `--trace-out`
//! (default `serve_timeline.json`). The sweep itself stays untraced, so
//! `chaos_report.json` is byte-identical with or without `--trace`.
//! Lines tagged `[trace]` are pinned by `scripts/check.sh
//! --serve-trace`.

use std::path::PathBuf;

use pudiannao_accel::json::{self, Value};
use pudiannao_accel::profile::export_timeline;
use pudiannao_serve::sweep::{chaos_fleet, chaos_sweep, gate_generator, ChaosCell, CHAOS_SEED};
use pudiannao_serve::{
    fleet_timeline, serve, serve_observed, ChaosConfig, Defense, GeneratorConfig, ObserveConfig,
};

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
    let mut smoke = false;
    let mut trace = false;
    let mut out = PathBuf::from("chaos_report.json");
    let mut trace_out = PathBuf::from("serve_timeline.json");
    let mut args = std::env::args_os().skip(1);
    while let Some(arg) = args.next() {
        match arg.to_str() {
            Some("--smoke") => smoke = true,
            Some("--trace") => trace = true,
            Some("--out") => {
                out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                });
            }
            Some("--trace-out") => {
                trace_out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("error: --trace-out needs a path");
                    std::process::exit(2);
                });
            }
            _ => {
                eprintln!(
                    "error: unknown argument {arg:?} (usage: chaos_bench [--smoke] [--out PATH] \
                     [--trace] [--trace-out PATH])"
                );
                std::process::exit(2);
            }
        }
    }

    let mode = if smoke { "smoke" } else { "full" };
    let gen = if smoke {
        GeneratorConfig { requests: 2_000, ..gate_generator() }
    } else {
        gate_generator()
    };

    // Anchor: the chaos-off p99 of the same stream on the same fleet.
    let baseline = serve(&chaos_fleet(), &gen);
    let p99 = baseline.p99_ns;
    println!("[chaos] mode {mode}");
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
        .with("mode", mode)
        .with("chaos_seed", CHAOS_SEED)
        .with("baseline_p99_ns", p99)
        .with("cells", arr);
    if let Err(e) = json::write_file(&out, &doc) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("[chaos] wrote {}", out.display());

    // `--trace`: one extra run of the mid-intensity/full-defence cell
    // with spans and windowed metrics on. The sweep above already ran
    // untraced, so the report file is byte-identical either way.
    if trace {
        let traced = serve_observed(
            &chaos_fleet(),
            &gen,
            &ChaosConfig::intensity(CHAOS_SEED, 1),
            &Defense::full(p99),
            &ObserveConfig::full(gen.requests),
        );
        let timeline = fleet_timeline(&traced).expect("observed run carries a trace");
        let check = export_timeline(&timeline, &trace_out).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        let obs = traced.observability.as_ref().expect("observed run carries observability");
        let metrics = obs.metrics.as_ref().expect("observed run carries metrics");
        println!("[trace] cell mid full");
        println!(
            "[trace] spans {} instants {} tracks {}",
            check.spans, check.instants, check.tracks
        );
        println!("[trace] events_dropped {}", obs.events_dropped);
        println!(
            "[trace] windows {} windowed_p99_max_ns {}",
            metrics.windows.len(),
            metrics.windowed_p99_max_ns
        );
        println!("[trace] wrote {}", trace_out.display());
    }

    if !ok {
        std::process::exit(1);
    }
}
