//! The profiler pipeline and the model's headline numbers are pure
//! functions of the built-in workloads: the timeline and the reports
//! `repro_all` writes are byte-identical whether the experiments run on
//! one worker or many, and every headline equals its committed value
//! exactly.

use std::process::Command;

use pudiannao_accel::json::{self, Value};
use pudiannao_bench::evaluation;
use pudiannao_serve::sweep::{chaos_fleet, gate_generator};
use pudiannao_serve::{
    scaling_sweep, serve_observed, ChaosConfig, Defense, GeneratorConfig, MetricsConfig,
    ObserveConfig, SweepPoint,
};

/// The names of the files in `dir`, sorted.
fn files_in(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn run_profile(threads: &str, dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    std::fs::create_dir_all(dir).unwrap();
    // Run from inside `dir` with the default out-dir so the printed
    // paths (and therefore the stdout bytes) are directory-independent.
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .current_dir(dir)
        .env("REPRO_THREADS", threads)
        .output()
        .expect("profile binary runs");
    assert!(out.status.success(), "profile failed with REPRO_THREADS={threads}");
    // `phase_reports.json` is `repro_all`'s alone.
    assert_eq!(files_in(dir), ["trace_timeline.json"], "profile writes only its timeline");
    (out.stdout, std::fs::read(dir.join("trace_timeline.json")).expect("timeline written"))
}

#[test]
fn profile_outputs_are_identical_at_any_thread_count() {
    let root = std::env::temp_dir().join(format!("profile_determinism_{}", std::process::id()));
    let serial = run_profile("1", &root.join("serial"));
    let parallel = run_profile("4", &root.join("parallel"));
    assert!(!serial.1.is_empty());
    assert_eq!(serial.0, parallel.0, "worker count changed the summary bytes");
    assert_eq!(serial.1, parallel.1, "worker count changed trace_timeline.json");
    let stdout = String::from_utf8(serial.0).unwrap();
    // 15 marker lines: the timeline check, one verdict per Figure-15
    // phase (13), and the surfaced drop count.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("[profile] ")).count(), 15);
    assert!(stdout.contains("[profile] events_dropped 0"));
    let _ = std::fs::remove_dir_all(&root);
}

/// The committed report `name` at the repository root.
fn committed(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_owned() + name;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `repro_all` writes the committed `repro_summary.json` and
/// `phase_reports.json` byte for byte, on one worker or four.
#[test]
fn repro_all_writes_the_committed_reports_at_any_thread_count() {
    let root = std::env::temp_dir().join(format!("repro_determinism_{}", std::process::id()));
    for threads in ["1", "4"] {
        let dir = root.join(threads);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .current_dir(&dir)
            .env("REPRO_THREADS", threads)
            .output()
            .expect("repro_all runs");
        assert!(out.status.success(), "repro_all failed with REPRO_THREADS={threads}");
        assert_eq!(files_in(&dir), ["phase_reports.json", "repro_summary.json"]);
        for name in ["repro_summary.json", "phase_reports.json"] {
            let fresh = std::fs::read_to_string(dir.join(name)).unwrap();
            assert_same_text(
                &format!("{name} (REPRO_THREADS={threads})"),
                &fresh,
                &committed(name),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Asserts `fresh` equals the committed text, naming the first line that
/// differs instead of printing both documents.
fn assert_same_text(name: &str, fresh: &str, committed: &str) {
    for (i, (f, c)) in fresh.lines().zip(committed.lines()).enumerate() {
        assert_eq!(f, c, "{name} line {} differs from a fresh run", i + 1);
    }
    assert!(fresh == committed, "{name} differs from a fresh run in length");
}

/// The model is deterministic, so its headline numbers are pinned by
/// equality, not within a tolerance: any change to them fails here, and a
/// deliberate change re-pins by regenerating the committed report.
#[test]
fn model_headlines_equal_the_committed_reports() {
    // Cycles and joules of the 13 Figure-15 phases.
    assert_same_text(
        "phase_reports.json",
        &evaluation::phase_reports_json().to_string_pretty(),
        &committed("phase_reports.json"),
    );

    // Throughput, p99 and utilisation of the 1/2/4/8-shard sweep.
    let report = json::parse(&committed("serve_report.json")).expect("committed report parses");
    let sweep = report.get("scaling_sweep").expect("committed report has a scaling sweep");
    let fresh: Vec<Value> =
        scaling_sweep(&gate_generator()).iter().map(SweepPoint::to_json).collect();
    assert_same_text(
        "serve_report.json scaling_sweep",
        &Value::array(fresh).to_string_pretty(),
        &sweep.to_string_pretty(),
    );

    // Windowed latency of the 2k-request gate stream on the widest sweep
    // fleet, chaos off.
    let gen = GeneratorConfig { requests: 2_000, ..gate_generator() };
    let observe = ObserveConfig { trace: None, metrics: Some(MetricsConfig::default()) };
    let report =
        serve_observed(&chaos_fleet(), &gen, &ChaosConfig::off(), &Defense::off(), &observe);
    let m = report.observability.as_ref().and_then(|o| o.metrics.as_ref()).expect("metrics on");
    assert_eq!(
        (m.window_ns, m.overall_p99_ns, m.windowed_p99_max_ns, m.windows.len()),
        (100_000, 63_487, 90_111, 13),
        "(window_ns, overall_p99_ns, windowed_p99_max_ns, windows)"
    );
}
