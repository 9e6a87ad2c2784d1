//! Timeline profiler and bottleneck report; see `pudiannao_bench::profile`.
//!
//! Usage: `profile [--out-dir DIR]`. Writes `trace_timeline.json`, the
//! Chrome Trace Event JSON of a traced, functionally executed k-Means
//! distance phase (open it in `chrome://tracing` or
//! <https://ui.perfetto.dev>), then prints the bottleneck verdict of each
//! of the 13 Figure-15 phases (`repro_all` writes their reports to
//! `phase_reports.json`). The written timeline is parsed back and
//! structurally validated before the run reports success. All output is
//! deterministic: byte-identical at any `REPRO_THREADS` setting.

use pudiannao_accel::profile::{chrome_trace, export_timeline};
use pudiannao_accel::ArchConfig;
use pudiannao_bench::{evaluation, profile};

fn main() {
    let mut dir = String::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => match args.next() {
                Some(path) => dir = path,
                None => {
                    eprintln!("error: --out-dir needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?} (expected --out-dir DIR)");
                std::process::exit(2);
            }
        }
    }

    pudiannao_bench::banner("profile", "timeline export and bottleneck attribution");

    let traced = profile::traced_phase();
    let trace = traced.report.trace.as_ref().expect("traced run carries a trace");
    let doc = chrome_trace(&traced.config, &traced.program, trace, &traced.labels);
    let timeline_path = std::path::Path::new(&dir).join("trace_timeline.json");
    match export_timeline(&doc, &timeline_path) {
        Ok(check) => println!(
            "[profile] timeline valid: {} spans, {} instants, {} tracks",
            check.spans, check.instants, check.tracks
        ),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!("  wrote {}", timeline_path.display());

    let reports = evaluation::phase_run_reports();
    let cfg = ArchConfig::paper_default();
    print!("{}", profile::summary(&reports, &cfg, trace.events_dropped()));
}
