//! The command-line contract every report binary keeps: it takes no
//! arguments, and it finds an output it cannot write before doing any
//! work. The bench crate's CLI tests include this file by path.

use std::ffi::OsStr;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `exe args` in a fresh directory that holds a directory where the
/// `blocked` output (if any) would go; returns the output and how many
/// files the run left there.
fn run_in_fresh_dir<S: AsRef<OsStr>>(
    exe: &str,
    args: &[S],
    blocked: Option<&str>,
) -> (Output, usize) {
    // Tests run on parallel threads: each run gets its own directory.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cli_{}_{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(blocked.unwrap_or_default())).unwrap();
    let out = Command::new(exe).args(args).current_dir(&dir).output().expect("binary runs");
    let written = std::fs::read_dir(&dir).unwrap().count() - usize::from(blocked.is_some());
    let _ = std::fs::remove_dir_all(&dir);
    (out, written)
}

/// Asserts that `exe`, run where a directory blocks its output `blocked`,
/// exits 1 with `error: cannot write <blocked>: `, without panicking,
/// writing a file or printing any work output first.
pub fn assert_unwritable(exe: &str, blocked: &str) {
    let (out, written) = run_in_fresh_dir(exe, &[] as &[&str], Some(blocked));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
    assert!(stderr.contains(&format!("error: cannot write {blocked}: ")), "{exe}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
    assert_eq!(written, 0, "{exe} wrote a file next to the blocked {blocked}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{exe} did work before checking {blocked}:\n{stdout}");
}

/// Asserts that `exe args` exits 2 with an `error:` line, without
/// panicking or writing a file.
pub fn assert_usage_error<S: AsRef<OsStr> + std::fmt::Debug>(exe: &str, args: &[S]) {
    let (out, written) = run_in_fresh_dir(exe, args, None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
    assert_eq!(written, 0, "{exe} {args:?} wrote a file");
}
