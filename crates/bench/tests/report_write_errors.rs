//! The bench binaries fail cleanly: a report they cannot write is an
//! error line naming the file and exit status 1, and a bad command line
//! is an error line and exit status 2 with nothing written — never a
//! panic.

use std::process::{Command, Output};

/// Runs `exe args` in a fresh directory named after `tag` that holds a
/// directory where the `blocked` report (if any) would go; returns the
/// output and how many files the run left there.
fn run_in_fresh_dir(tag: &str, exe: &str, args: &[&str], blocked: Option<&str>) -> (Output, usize) {
    let dir = std::env::temp_dir().join(format!("bench_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(blocked.unwrap_or_default())).unwrap();
    let out = Command::new(exe).args(args).current_dir(&dir).output().expect("binary runs");
    let written = std::fs::read_dir(&dir).unwrap().count() - usize::from(blocked.is_some());
    let _ = std::fs::remove_dir_all(&dir);
    (out, written)
}

#[test]
fn unwritable_reports_exit_1_without_panicking() {
    // (binary, arguments, the report blocked by a directory, its path as printed)
    for (i, (exe, args, blocked, shown)) in [
        (env!("CARGO_BIN_EXE_repro_all"), &[][..], "repro_summary.json", "repro_summary.json"),
        (env!("CARGO_BIN_EXE_repro_all"), &[], "phase_reports.json", "phase_reports.json"),
        (env!("CARGO_BIN_EXE_profile"), &[], "trace_timeline.json", "./trace_timeline.json"),
        (
            env!("CARGO_BIN_EXE_fault_campaign"),
            &["--smoke"],
            "fault_campaign.json",
            "fault_campaign.json",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, _) = run_in_fresh_dir(&format!("write{i}"), exe, args, Some(blocked));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(stderr.contains(&format!("error: cannot write {shown}: ")), "{exe}: {stderr}");
        assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
    }
}

#[test]
fn bad_arguments_exit_2_without_panicking_or_writing() {
    for (i, (exe, args)) in [
        (env!("CARGO_BIN_EXE_repro_all"), &["fig09"][..]),
        (env!("CARGO_BIN_EXE_repro_all"), &["--only"]),
        (env!("CARGO_BIN_EXE_profile"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_profile"), &["--out-dir"]),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--smoke", "--out"]),
    ]
    .into_iter()
    .enumerate()
    {
        let (out, written) = run_in_fresh_dir(&format!("args{i}"), exe, args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{exe} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
        assert_eq!(written, 0, "{exe} {args:?} wrote a file");
    }
}
