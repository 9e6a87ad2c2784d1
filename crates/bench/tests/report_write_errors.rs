//! The bench binaries fail cleanly: a report they cannot write is an
//! error line naming the file and exit status 1, and a bad command line
//! (an unknown flag, a flag missing its value, or an argument that is not
//! valid UTF-8) is an error line and exit status 2 with nothing written —
//! never a panic.

use std::ffi::OsStr;
use std::process::{Command, Output};

/// Runs `exe args` in a fresh directory named after `tag` that holds a
/// directory where the `blocked` report (if any) would go; returns the
/// output and how many files the run left there.
fn run_in_fresh_dir<S: AsRef<OsStr>>(
    tag: &str,
    exe: &str,
    args: &[S],
    blocked: Option<&str>,
) -> (Output, usize) {
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

/// Asserts the usage-error contract for `exe args`: exit 2, an `error:`
/// line, no panic, no file written.
fn assert_usage_error<S: AsRef<OsStr> + std::fmt::Debug>(tag: &str, exe: &str, args: &[S]) {
    let (out, written) = run_in_fresh_dir(tag, exe, args, None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
    assert_eq!(written, 0, "{exe} {args:?} wrote a file");
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
        assert_usage_error(&format!("args{i}"), exe, args);
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_2_without_panicking_or_writing() {
    use std::os::unix::ffi::OsStrExt;
    let bad = OsStr::from_bytes(b"\xff");
    for (i, exe) in [
        env!("CARGO_BIN_EXE_repro_all"),
        env!("CARGO_BIN_EXE_profile"),
        env!("CARGO_BIN_EXE_fault_campaign"),
    ]
    .into_iter()
    .enumerate()
    {
        assert_usage_error(&format!("utf8_{i}"), exe, &[bad]);
    }
}

/// Output paths stay paths: a report path that is not valid UTF-8 is
/// written where it points (a directory blocks the default path).
#[cfg(unix)]
#[test]
fn non_utf8_output_paths_are_written() {
    use std::os::unix::ffi::OsStrExt;
    let args = [OsStr::new("--smoke"), OsStr::new("--out"), OsStr::from_bytes(b"\xff.json")];
    let exe = env!("CARGO_BIN_EXE_fault_campaign");
    let (out, written) = run_in_fresh_dir("utf8_out", exe, &args, Some("fault_campaign.json"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!((out.status.code(), written), (Some(0), 1), "{stderr}");
}
