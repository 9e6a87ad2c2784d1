//! One full run of a report binary at each worker count, pinned to the
//! committed reports. The bench crate's binary tests include this file by
//! path, so every binary is pinned the same way.

use std::path::Path;
use std::process::Command;

/// The repository root, where the committed reports live (both crates
/// sit two levels below it).
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");

/// Runs `exe` (no arguments, as a reader does) from a fresh directory at
/// `REPRO_THREADS=1` and at `4`. Each run must exit 0 and write exactly
/// the `committed` and `generated` files. Each `committed` file must equal
/// the file of that name at the repository root byte for byte, and each
/// `generated` file must be the same in both runs. Returns the stdout of
/// the two runs.
pub fn full_runs(exe: &str, committed: &[&str], generated: &[&str]) -> [String; 2] {
    let name = Path::new(exe).file_name().unwrap().to_string_lossy().into_owned();
    let root = std::env::temp_dir().join(format!("full_runs_{name}_{}", std::process::id()));
    let mut expected: Vec<&str> = committed.iter().chain(generated).copied().collect();
    expected.sort_unstable();
    let stdout = ["1", "4"].map(|threads| {
        let dir = root.join(threads);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(exe)
            .current_dir(&dir)
            .env("REPRO_THREADS", threads)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name} failed with REPRO_THREADS={threads}: {stderr}");
        assert_eq!(files_in(&dir), expected, "{name} with REPRO_THREADS={threads}");
        for file in committed {
            assert_same_text(
                &format!("{file} (REPRO_THREADS={threads})"),
                &read(&dir.join(file)),
                &read(&Path::new(REPO).join(file)),
            );
        }
        String::from_utf8(out.stdout).expect("stdout is UTF-8")
    });
    for file in generated {
        let [one, four] = ["1", "4"].map(|threads| read(&root.join(threads).join(file)));
        assert!(one == four, "{file} differs between REPRO_THREADS=1 and 4");
    }
    let _ = std::fs::remove_dir_all(&root);
    stdout
}

/// The names of the files in `dir`, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts `fresh` equals the committed text, naming the first line that
/// differs instead of printing both documents.
fn assert_same_text(name: &str, fresh: &str, committed: &str) {
    for (i, (f, c)) in fresh.lines().zip(committed.lines()).enumerate() {
        assert_eq!(f, c, "{name} line {} differs from a fresh run", i + 1);
    }
    assert!(fresh == committed, "{name} differs from a fresh run in length");
}
