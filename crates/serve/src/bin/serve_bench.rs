//! Serving-fleet benchmark: drives the heavy open-loop request stream
//! (100k requests) through a 4-shard pool of simulated PuDianNao devices,
//! runs the 1/2/4/8-shard scaling sweep, and writes `serve_report.json`
//! to the working directory.
//!
//! Usage: `serve_bench` (no arguments; any argument exits 2 and writes
//! nothing). An unwritable report path fails the run before the fleet
//! starts. The report is byte-identical at any `REPRO_THREADS` setting;
//! the tier-1 test `report_is_byte_identical_across_worker_counts` pins
//! it to the committed file and pins the `[serve] trace_cache` line.
//! `chaos_bench` writes the fleet timeline.

use pudiannao_accel::json::{self, Value};
use pudiannao_serve::{scaling_sweep, serve, sweep, FleetConfig, GeneratorConfig, ServeReport};

/// The report this binary writes.
const REPORT: &str = "serve_report.json";

/// Seed of the heavy request stream (arbitrary but pinned: the committed
/// `serve_report.json` depends on it).
const STREAM_SEED: u64 = 0xd1a0_2015;

fn print_summary(report: &ServeReport) {
    println!("[serve] mode heavy");
    println!("[serve] shards {}", report.shards_configured);
    println!("[serve] offered {}", report.counters.offered);
    println!("[serve] admitted {}", report.counters.admitted);
    println!("[serve] shed {}", report.counters.shed);
    println!("[serve] rejected {}", report.counters.rejected);
    println!("[serve] completed {}", report.completed);
    println!("[serve] shed_permille {}", report.shed_permille);
    println!(
        "[serve] latency_ns p50 {} p99 {} p999 {} max {}",
        report.p50_ns, report.p99_ns, report.p999_ns, report.max_ns
    );
    println!("[serve] throughput_rps {:.1}", report.throughput_rps);
    // Deterministic (slot decisions depend only on the trace shapes and
    // the byte budget), and no report holds it, so the tier-1 test pins
    // this line.
    if let Some(tc) = &report.trace_cache {
        println!(
            "[serve] trace_cache hits {} misses {} hit_permille {} resident_kb {} ready {} \
             too_big {}",
            tc.hits,
            tc.misses,
            tc.hit_permille(),
            tc.resident_bytes / 1024,
            tc.ready_slots,
            tc.too_big_slots
        );
    }
    for (i, s) in report.shards.iter().enumerate() {
        println!(
            "[serve] shard {i} requests {} batches {} reconfigs {} utilization_permille {}",
            s.requests, s.batches, s.reconfigs, s.utilization_permille
        );
    }
}

fn main() {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!("error: unexpected argument {arg:?} (usage: serve_bench, no arguments)");
        std::process::exit(2);
    }
    or_exit(json::check_writable(REPORT));

    let report = serve(&FleetConfig::paper_default(), &GeneratorConfig::heavy(STREAM_SEED));
    print_summary(&report);

    let mut sweep_json = Value::array(Vec::new());
    for p in &scaling_sweep(&sweep::gate_generator()) {
        println!(
            "[serve] sweep shards {} completed {} throughput_rps {:.1} p99_ns {} util_permille {}",
            p.shards, p.completed, p.throughput_rps, p.p99_ns, p.util_permille
        );
        sweep_json.push(p.to_json());
    }
    let doc = Value::object()
        .with("mode", "heavy")
        .with("report", report.to_json())
        .with("scaling_sweep", sweep_json);
    or_exit(json::write_file(REPORT, &doc));
    println!("[serve] wrote {REPORT}");
}

fn or_exit(result: Result<(), String>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
