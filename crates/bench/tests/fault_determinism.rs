//! The fault campaign is a pure function of its seed: `fault_campaign`
//! writes the committed `fault_campaign.json` byte for byte whether the
//! cells run on one worker or many.

use std::process::Command;

#[path = "../../serve/tests/common/mod.rs"]
mod common;

#[test]
fn campaign_json_is_identical_at_any_thread_count() {
    let [one, four] =
        common::full_runs(env!("CARGO_BIN_EXE_fault_campaign"), &["fault_campaign.json"], &[]);
    assert_eq!(one, four, "stdout differs between REPRO_THREADS=1 and 4");
}

#[test]
fn invalid_repro_threads_warns_but_still_runs() {
    let dir = std::env::temp_dir().join(format!("fault_threads_warn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fault_campaign"))
        .current_dir(&dir)
        .env("REPRO_THREADS", "lots")
        .output()
        .expect("fault_campaign binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid REPRO_THREADS"), "stderr was: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
