//! Seeded fault-injection campaign across the seven ML kernels; see
//! `pudiannao_bench::fault_campaign`.
//!
//! Usage: `fault_campaign` (no arguments; any argument exits 2 and writes
//! nothing). Writes `fault_campaign.json` to the working directory and
//! prints per-class outcome totals; an unwritable report path fails the
//! run before any trial. The report is a pure function of the built-in
//! seed: byte-identical at any `REPRO_THREADS` setting.

use pudiannao_accel::json;
use pudiannao_bench::fault_campaign::{run_campaign, OutcomeCounts};

/// The report this binary writes.
const REPORT: &str = "fault_campaign.json";

fn main() {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!("error: unexpected argument {arg:?} (usage: fault_campaign, no arguments)");
        std::process::exit(2);
    }
    or_exit(json::check_writable(REPORT));

    pudiannao_bench::banner("faults", "fault-injection campaign");
    let (doc, totals) = run_campaign();

    let mut all = OutcomeCounts::default();
    for (arm, counts) in &totals {
        println!(
            "  {arm:<12} masked {:>4}  corrected {:>4}  detected {:>4}  sdc {:>4}  crash {:>4}",
            counts.masked, counts.corrected, counts.detected, counts.sdc, counts.crash
        );
        all.add(counts);
    }
    println!("[faults] masked {}", all.masked);
    println!("[faults] corrected {}", all.corrected);
    println!("[faults] detected {}", all.detected);
    println!("[faults] sdc {}", all.sdc);
    println!("[faults] crash {}", all.crash);

    or_exit(json::write_file(REPORT, &doc));
    println!("  wrote {REPORT}");
}

fn or_exit(result: Result<(), String>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
