//! A bad command line is an error line and exit status 2 with nothing
//! written, never a panic: an unknown flag or a flag missing its value.

use std::process::Command;

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
        let dir = std::env::temp_dir().join(format!("serve_cli_{}_{i}", std::process::id()));
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
}
