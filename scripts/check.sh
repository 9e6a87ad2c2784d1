#!/usr/bin/env bash
# Tier-1 gate: perf-table drift, formatting, lints, build, tests. Run before every commit.
#
#   scripts/check.sh             # full gate
#   scripts/check.sh --fast      # skip the release build
#
# Takes no argument or `--fast`; anything else is a usage error (exit 2).
# The workspace tests run every binary and pin each committed report.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$#:$mode" in
    0: | 1:--fast) ;;
    *)
        echo "usage: scripts/check.sh [--fast]" >&2
        exit 2
        ;;
esac

echo "==> perf tables match perf_record.jsonl"
scripts/perf_table.sh --check

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$mode" != --fast ]]; then
    echo "==> cargo build --release"
    cargo build --workspace --release
fi

echo "==> cargo test"
cargo test --workspace -q

echo "OK: all checks passed"
