//! A bad command line is an error line and exit status 2 with nothing
//! written, never a panic: an unknown flag, a flag missing its value, or
//! an argument that is not valid UTF-8.

use std::ffi::OsStr;
use std::process::Command;

/// Runs `exe args` in a fresh directory and asserts the usage-error
/// contract: exit 2, an `error:` line, no panic, no file written.
fn assert_usage_error<S: AsRef<OsStr> + std::fmt::Debug>(tag: &str, exe: &str, args: &[S]) {
    let dir = std::env::temp_dir().join(format!("serve_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe).args(args).current_dir(&dir).output().expect("binary runs");
    let written = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{exe} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
    assert_eq!(written, 0, "{exe} {args:?} wrote a file");
}

#[test]
fn bad_arguments_exit_2_without_panicking_or_writing() {
    for (i, (exe, args)) in [
        (env!("CARGO_BIN_EXE_serve_bench"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_serve_bench"), &["--trace"]),
        (env!("CARGO_BIN_EXE_serve_bench"), &["--smoke", "--out"]),
        (env!("CARGO_BIN_EXE_chaos_bench"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_chaos_bench"), &["--smoke", "--out"]),
        (env!("CARGO_BIN_EXE_chaos_bench"), &["--smoke", "--trace", "--trace-out"]),
    ]
    .into_iter()
    .enumerate()
    {
        assert_usage_error(&i.to_string(), exe, args);
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_2_without_panicking_or_writing() {
    use std::os::unix::ffi::OsStrExt;
    let bad = OsStr::from_bytes(b"\xff");
    for (i, exe) in [env!("CARGO_BIN_EXE_serve_bench"), env!("CARGO_BIN_EXE_chaos_bench")]
        .into_iter()
        .enumerate()
    {
        assert_usage_error(&format!("utf8_{i}"), exe, &[bad]);
    }
}
