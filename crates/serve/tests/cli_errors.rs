//! The serving binaries fail cleanly. Each takes no arguments, so any
//! argument (an unknown flag, a positional, or one that is not valid
//! UTF-8) is an error line and exit status 2 with nothing written. An
//! output path it cannot write is an error line naming the file and exit
//! status 1, found before the fleet runs, with nothing written. Never a
//! panic.

#[path = "common/cli.rs"]
mod cli;

#[test]
fn unwritable_reports_exit_1_without_panicking() {
    for (exe, blocked) in [
        (env!("CARGO_BIN_EXE_serve_bench"), "serve_report.json"),
        (env!("CARGO_BIN_EXE_chaos_bench"), "chaos_report.json"),
        (env!("CARGO_BIN_EXE_chaos_bench"), "serve_timeline.json"),
    ] {
        cli::assert_unwritable(exe, blocked);
    }
}

#[test]
fn bad_arguments_exit_2_without_panicking_or_writing() {
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_serve_bench"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_serve_bench"), &["heavy"]),
        (env!("CARGO_BIN_EXE_chaos_bench"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_chaos_bench"), &["full", "--bogus"]),
    ] {
        cli::assert_usage_error(exe, args);
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_2_without_panicking_or_writing() {
    use std::os::unix::ffi::OsStrExt;
    let bad = std::ffi::OsStr::from_bytes(b"\xff");
    for exe in [env!("CARGO_BIN_EXE_serve_bench"), env!("CARGO_BIN_EXE_chaos_bench")] {
        cli::assert_usage_error(exe, &[bad]);
    }
}
