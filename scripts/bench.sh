#!/usr/bin/env bash
# Re-measures host time: runs the repo benchmark (perfbench, see
# BENCHMARK.json) with its per-layer split, records its two output lines
# (provenance, then result) in perf_record.jsonl at the repo root, and
# renders the README/DESIGN/ROADMAP perf tables from that record. Commit
# the record and the docs together.
#
# The pinned model reports (repro_summary.json, phase_reports.json,
# serve_report.json, chaos_report.json, fault_campaign.json) are not
# touched: they are deterministic, and scripts/check.sh compares fresh
# runs with them byte for byte.
#
# Usage: scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

record=perf_record.jsonl
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "== perfbench: repro-all first, per-layer split of all three workloads (30 s) =="
python3 perfbench/run.py --workload repro-all --seed 1 --seconds 30 --trace 1 > "$tmp"
cat "$tmp" > "$record"

echo "== perf tables =="
scripts/perf_table.sh

echo "OK: wrote $record and regenerated the perf tables"
