//! The bench binaries fail cleanly. Each takes no arguments, so any
//! argument (an unknown flag, a positional, or one that is not valid
//! UTF-8) is an error line and exit status 2 with nothing written. An
//! output path it cannot write is an error line naming the file and exit
//! status 1, found before any experiment runs, with nothing written.
//! Never a panic.

#[path = "../../serve/tests/common/cli.rs"]
mod cli;

#[test]
fn unwritable_reports_exit_1_without_panicking() {
    for (exe, blocked) in [
        (env!("CARGO_BIN_EXE_repro_all"), "repro_summary.json"),
        (env!("CARGO_BIN_EXE_repro_all"), "phase_reports.json"),
        (env!("CARGO_BIN_EXE_profile"), "trace_timeline.json"),
        (env!("CARGO_BIN_EXE_fault_campaign"), "fault_campaign.json"),
    ] {
        cli::assert_unwritable(exe, blocked);
    }
}

#[test]
fn bad_arguments_exit_2_without_panicking_or_writing() {
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_repro_all"), &["fig09"][..]),
        (env!("CARGO_BIN_EXE_repro_all"), &["--only"]),
        (env!("CARGO_BIN_EXE_profile"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_profile"), &["."]),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["full", "--bogus"]),
    ] {
        cli::assert_usage_error(exe, args);
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_2_without_panicking_or_writing() {
    use std::os::unix::ffi::OsStrExt;
    let bad = std::ffi::OsStr::from_bytes(b"\xff");
    for exe in [
        env!("CARGO_BIN_EXE_repro_all"),
        env!("CARGO_BIN_EXE_profile"),
        env!("CARGO_BIN_EXE_fault_campaign"),
    ] {
        cli::assert_usage_error(exe, &[bad]);
    }
}
