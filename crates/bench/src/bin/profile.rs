//! Timeline profiler and bottleneck report; see `pudiannao_bench::profile`.
//!
//! Usage: `profile` (no arguments; any argument exits 2 and writes
//! nothing). Writes `trace_timeline.json` to the working directory, the
//! Chrome Trace Event JSON of a traced, functionally executed k-Means
//! distance phase (open it in `chrome://tracing` or
//! <https://ui.perfetto.dev>), then prints the bottleneck verdict of each
//! of the 13 Figure-15 phases (`repro_all` writes their reports to
//! `phase_reports.json`). An unwritable timeline path fails the run
//! before any phase runs. The written timeline is parsed back and
//! structurally validated before the run reports success. All output is
//! deterministic: byte-identical at any `REPRO_THREADS` setting.

use pudiannao_accel::json;
use pudiannao_accel::profile::{chrome_trace, export_timeline};
use pudiannao_accel::ArchConfig;
use pudiannao_bench::{evaluation, profile};

/// The timeline this binary writes.
const TIMELINE: &str = "trace_timeline.json";

fn main() {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!("error: unexpected argument {arg:?} (usage: profile, no arguments)");
        std::process::exit(2);
    }
    if let Err(e) = json::check_writable(TIMELINE) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    pudiannao_bench::banner("profile", "timeline export and bottleneck attribution");

    let traced = profile::traced_phase();
    let trace = traced.report.trace.as_ref().expect("traced run carries a trace");
    let doc = chrome_trace(&traced.config, &traced.program, trace, &traced.labels);
    match export_timeline(&doc, TIMELINE) {
        Ok(check) => println!(
            "[profile] timeline valid: {} spans, {} instants, {} tracks",
            check.spans, check.instants, check.tracks
        ),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!("  wrote {TIMELINE}");

    let reports = evaluation::phase_run_reports();
    let cfg = ArchConfig::paper_default();
    print!("{}", profile::summary(&reports, &cfg, trace.events_dropped()));
}
