//! Host wall-clock benchmark of the PuDianNao reproduction.
//!
//! ```text
//! perfbench --workload <repro-all|serve-heavy|accel-exec> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (it reads the committed
//! `repro_summary.json`, `phase_reports.json` and `serve_report.json`
//! to check outputs). Everything runs on one thread: `REPRO_THREADS` is
//! forced to 1, since on a small host a second worker makes the fleet
//! slower and noisier, not faster.
//!
//! `--trace 0` measures the end-to-end metrics of one workload, repeating
//! set-up and timed body for `--seconds`: host seconds of the body and
//! of the set-up (each scored best-of, see `measure`), peak memory and
//! work per second. `--trace 1` measures
//! the per-layer split of all three workloads — each timed from outside,
//! around calls into the crates' public functions — so every per-layer
//! metric is reported by every traced run; `--workload` then only picks
//! which workload's split runs first.
//!
//! The last stdout line is the result: `{"correct", "attempted",
//! "failed", "metrics"}`, where `attempted`/`failed` count the output
//! checks. The line before it records provenance: seed, thread count,
//! host parallelism, the architecture fingerprint, and each metric's
//! unit and work counter.

mod accel_exec;
mod measure;
mod repro_all;
mod serve_heavy;

use measure::{Checks, Metric};
use pudiannao_accel::json::Value;
use pudiannao_accel::ArchConfig;

const WORKLOADS: [&str; 3] = ["repro-all", "serve-heavy", "accel-exec"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?} (one of {WORKLOADS:?})")
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end metrics of one untraced workload run, and the seconds
/// of each timed pass.
fn end_to_end(args: &Args, checks: &mut Checks) -> (Vec<Metric>, Vec<f64>) {
    let m = match args.workload {
        "repro-all" => repro_all::run(args.seconds, checks),
        "serve-heavy" => serve_heavy::run(args.seed, args.seconds, checks),
        _ => accel_exec::run(args.seed, args.seconds, checks),
    };
    let wall_s = m.wall_s();
    let (counter, count) = m.work;
    let work = format!("{counter}={count}");
    let metrics = vec![
        Metric::new("wall_s", wall_s, "s", &work),
        Metric::new("setup_s", m.setup_s(), "s", &work),
        Metric::new("peak_rss_mib", m.peak_rss_mib, "MiB", "passes=1"),
        Metric::new("work_per_s", count as f64 / wall_s, "1/s", work),
    ];
    (metrics, m.pass_seconds())
}

/// The per-layer metrics of all three workloads, each split given an
/// equal share of `--seconds` (and at least one round).
fn per_layer(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let share = args.seconds / WORKLOADS.len() as f64;
    let first = WORKLOADS.iter().position(|w| *w == args.workload).expect("parsed workload");
    let mut metrics = Vec::new();
    for i in 0..WORKLOADS.len() {
        metrics.extend(match WORKLOADS[(first + i) % WORKLOADS.len()] {
            "repro-all" => repro_all::trace(share, checks),
            "serve-heavy" => serve_heavy::trace(args.seed, share, checks),
            _ => accel_exec::trace(args.seed, share, checks),
        });
    }
    metrics
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // Before any worker pool reads it; nothing else runs yet.
    std::env::set_var("REPRO_THREADS", "1");

    let mut checks = Checks::default();
    let (metrics, passes) = if args.trace {
        (per_layer(&args, &mut checks), Vec::new())
    } else {
        end_to_end(&args, &mut checks)
    };

    let mut units = Value::object();
    let mut values = Value::object();
    for m in &metrics {
        units.set(&m.name, Value::object().with("unit", m.unit).with("work", m.work.as_str()));
        values.set(&m.name, Value::object().with("value", m.value).with("unit", m.unit));
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let provenance = Value::object()
        .with("workload", args.workload)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("repro_threads", 1u64)
        .with("nproc", nproc)
        .with("arch_fingerprint", ArchConfig::paper_default().fingerprint())
        .with("pass_seconds", Value::array(passes.into_iter().map(Value::from).collect()))
        .with("metrics", units);
    println!("{}", Value::object().with("provenance", provenance));
    let result = Value::object()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("metrics", values);
    println!("{result}");
}
