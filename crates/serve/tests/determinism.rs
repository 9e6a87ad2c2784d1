//! `serve_bench` writes the committed `serve_report.json` byte for byte
//! whatever `REPRO_THREADS` says: the fleet's wave execution is the only
//! parallel part, and its results are committed in wave order. This
//! drives the real binary the way a reader runs it, so the file on disk
//! is what's actually guaranteed.

mod common;

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let [one, four] =
        common::full_runs(env!("CARGO_BIN_EXE_serve_bench"), &["serve_report.json"], &[]);
    // The [serve] summary lines are all printed from the main thread.
    assert_eq!(one, four, "stdout differs between REPRO_THREADS=1 and 4");
    // The template-cache counters are in no report, so the line is pinned
    // here. `resident_kb` is the four shards' stripped templates.
    let cache: Vec<&str> = one.lines().filter(|l| l.starts_with("[serve] trace_cache ")).collect();
    assert_eq!(
        cache,
        ["[serve] trace_cache hits 95687 misses 156 hit_permille 998 resident_kb 5159 ready \
             156 too_big 0"]
    );
}
