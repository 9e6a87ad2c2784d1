//! The profiler and the reproduction binaries are pure functions of their
//! built-in workloads: the timeline and the reports they write are
//! byte-identical whether the work runs on one worker or many, and every
//! committed report equals a fresh run exactly.

use pudiannao_serve::sweep::{chaos_fleet, gate_generator};
use pudiannao_serve::{
    serve_observed, ChaosConfig, Defense, GeneratorConfig, MetricsConfig, ObserveConfig,
};

#[path = "../../serve/tests/common/mod.rs"]
mod common;

/// `profile` writes the same timeline and stdout on one worker or four,
/// and the timeline shape and all 13 bottleneck verdicts, which no
/// committed file holds, are pinned here.
#[test]
fn profile_outputs_are_identical_at_any_thread_count() {
    let [one, four] =
        common::full_runs(env!("CARGO_BIN_EXE_profile"), &[], &["trace_timeline.json"]);
    assert_eq!(one, four, "stdout differs between REPRO_THREADS=1 and 4");
    // The profile binary re-parsed and structurally validated the written
    // timeline (the "timeline valid" line is missing otherwise). A drift
    // means the timing model or the analyzer taxonomy moved: re-pin
    // deliberately, never silently.
    let profile: Vec<&str> = one.lines().filter(|l| l.starts_with("[profile] ")).collect();
    assert_eq!(
        profile,
        [
            "[profile] timeline valid: 58 spans, 7 instants, 9 tracks",
            "[profile] kNN pipeline-bound",
            "[profile] k-Means pipeline-bound",
            "[profile] DNN-pred pipeline-bound",
            "[profile] DNN-pre pipeline-bound",
            "[profile] DNN-train pipeline-bound",
            "[profile] LR-train dma-bound",
            "[profile] LR-pred dma-bound",
            "[profile] SVM-train pipeline-bound",
            "[profile] SVM-pred pipeline-bound",
            "[profile] NB-train pipeline-bound",
            "[profile] NB-pred pipeline-bound",
            "[profile] CT-train pipeline-bound",
            "[profile] CT-pred reconfiguration-bound",
            "[profile] events_dropped 0",
        ]
    );
}

/// `repro_all` writes the committed `repro_summary.json` and
/// `phase_reports.json` byte for byte, on one worker or four. Its stdout
/// interleaves the experiments' progress lines, so it is not compared.
#[test]
fn repro_all_writes_the_committed_reports_at_any_thread_count() {
    common::full_runs(
        env!("CARGO_BIN_EXE_repro_all"),
        &["phase_reports.json", "repro_summary.json"],
        &[],
    );
}

/// The windowed latency metrics are in no committed report, so they are
/// pinned by equality here: a model change fails this test, and a
/// deliberate change re-pins the tuple.
#[test]
fn windowed_metrics_of_the_gate_stream_are_pinned() {
    // The 2k-request gate stream on the widest sweep fleet, chaos off.
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
