//! Seeded fault-injection campaign across the seven ML kernels; see
//! `pudiannao_bench::fault_campaign`.
//!
//! Usage: `fault_campaign [--smoke] [--out PATH]`. Writes the campaign
//! report (default `fault_campaign.json`) and prints per-class outcome
//! totals. The report is a pure function of the built-in seed:
//! byte-identical at any `REPRO_THREADS` setting.

use std::path::PathBuf;

use pudiannao_bench::fault_campaign::{run_campaign, CampaignConfig};

fn main() {
    let mut smoke = false;
    let mut out = PathBuf::from("fault_campaign.json");
    let mut args = std::env::args_os().skip(1);
    while let Some(arg) = args.next() {
        match arg.to_str() {
            Some("--smoke") => smoke = true,
            Some("--out") => match args.next() {
                Some(path) => out = path.into(),
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("error: unknown argument {arg:?} (expected --smoke / --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let config = if smoke { CampaignConfig::smoke() } else { CampaignConfig::full() };
    pudiannao_bench::banner(
        "faults",
        if smoke { "fault-injection smoke campaign" } else { "fault-injection campaign" },
    );
    let (json, totals) = run_campaign(&config);

    let mut all = pudiannao_bench::fault_campaign::OutcomeCounts::default();
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

    if let Err(e) = pudiannao_accel::json::write_file(&out, &json) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("  wrote {}", out.display());
}
