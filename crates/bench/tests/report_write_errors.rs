//! The report-writing binaries fail cleanly when they cannot write a
//! report: an error line naming the file and exit status 1, not a panic.

use std::process::Command;

#[test]
fn unwritable_reports_exit_1_without_panicking() {
    for (exe, blocked) in [
        (env!("CARGO_BIN_EXE_repro_all"), "repro_summary.json"),
        (env!("CARGO_BIN_EXE_repro_fig15_speedup"), "phase_reports.json"),
    ] {
        // A directory where the report file should go makes the write fail.
        let dir = std::env::temp_dir()
            .join(format!("report_write_errors_{}_{blocked}", std::process::id()));
        std::fs::create_dir_all(dir.join(blocked)).unwrap();
        let out = Command::new(exe).current_dir(&dir).output().expect("binary runs");
        let _ = std::fs::remove_dir_all(&dir);

        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(stderr.contains(&format!("error: cannot write {blocked}: ")), "{exe}: {stderr}");
        assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
    }
}
