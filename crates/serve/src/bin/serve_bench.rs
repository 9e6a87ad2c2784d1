//! Serving-fleet benchmark: drives an open-loop request stream through a
//! pool of simulated PuDianNao devices and writes `serve_report.json`.
//!
//! ```text
//! serve_bench [--smoke] [--out PATH]
//! ```
//!
//! Default mode runs the heavy 100k-request stream on a 4-shard fleet
//! plus the 1/2/4/8-shard scaling sweep; `--smoke` runs the scaled-down
//! CI stream (4k requests, 2 shards, no sweep). Lines tagged `[serve]`
//! are pinned by `scripts/check.sh --serve`; the JSON file is compared
//! byte-for-byte across `REPRO_THREADS` settings. `chaos_bench --trace`
//! writes the fleet timeline.

use std::path::PathBuf;

use pudiannao_accel::json::{self, Value};
use pudiannao_serve::{scaling_sweep, serve, sweep, FleetConfig, GeneratorConfig, ServeReport};

/// Seed for the default request stream (arbitrary but pinned: the smoke
/// counts in `scripts/check.sh` and the determinism test depend on it).
const STREAM_SEED: u64 = 0xd1a0_2015;

fn print_summary(mode: &str, report: &ServeReport) {
    println!("[serve] mode {mode}");
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
    // the byte budget), so check.sh pins this line like the counters.
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
    let mut smoke = false;
    let mut out = PathBuf::from("serve_report.json");
    let mut args = std::env::args_os().skip(1);
    while let Some(arg) = args.next() {
        match arg.to_str() {
            Some("--smoke") => smoke = true,
            Some("--out") => {
                out = args.next().map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                });
            }
            _ => {
                eprintln!(
                    "error: unknown argument {arg:?} (usage: serve_bench [--smoke] [--out PATH])"
                );
                std::process::exit(2);
            }
        }
    }

    let (gen, fleet, mode) = if smoke {
        (GeneratorConfig::smoke(STREAM_SEED), FleetConfig::with_shards(2), "smoke")
    } else {
        (GeneratorConfig::heavy(STREAM_SEED), FleetConfig::paper_default(), "heavy")
    };

    let report = serve(&fleet, &gen);
    print_summary(mode, &report);

    let mut doc = Value::object().with("mode", mode).with("report", report.to_json());
    if !smoke {
        let points = scaling_sweep(&sweep::gate_generator());
        let mut arr = Value::array(Vec::new());
        for p in &points {
            println!(
                "[serve] sweep shards {} completed {} throughput_rps {:.1} p99_ns {} \
                 util_permille {}",
                p.shards, p.completed, p.throughput_rps, p.p99_ns, p.util_permille
            );
            arr.push(p.to_json());
        }
        doc.set("scaling_sweep", arr);
    }

    if let Err(e) = json::write_file(&out, &doc) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("[serve] wrote {}", out.display());
}
