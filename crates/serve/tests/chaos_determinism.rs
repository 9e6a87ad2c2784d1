//! `chaos_bench` writes the committed `chaos_report.json` byte for byte,
//! and the same `serve_timeline.json`, whatever `REPRO_THREADS` says:
//! fault draws are per-shard state probed in dispatch order or pure
//! hashes of stable identifiers, never shared RNG, and every span is
//! recorded from the sequential wave-order result loop. This drives the
//! real binary the way a reader runs it, so the files on disk are what's
//! actually guaranteed.

mod common;

#[test]
fn chaos_report_is_byte_identical_across_worker_counts() {
    let [one, four] = common::full_runs(
        env!("CARGO_BIN_EXE_chaos_bench"),
        &["chaos_report.json"],
        &["serve_timeline.json"],
    );
    // Every line is printed from the main thread after the runs.
    assert_eq!(one, four, "stdout differs between REPRO_THREADS=1 and 4");
    // The observed cell's timeline shape and windowed p99 are in no
    // committed file, so they are pinned here.
    let trace: Vec<&str> = one.lines().filter(|l| l.starts_with("[trace] ")).collect();
    assert_eq!(
        trace,
        [
            "[trace] cell mid full",
            "[trace] spans 17801 instants 136 tracks 15",
            "[trace] events_dropped 0",
            "[trace] windows 45 windowed_p99_max_ns 270335",
            "[trace] wrote serve_timeline.json",
        ]
    );
}
