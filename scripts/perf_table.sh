#!/usr/bin/env bash
# Regenerates the locality-engine performance tables embedded in
# README.md, DESIGN.md and ROADMAP.md from the machine-readable
# BENCH_repro.json, so the prose never drifts from the measurement
# again. Each doc carries a block delimited by
#
#   <!-- perf-table:begin ... -->
#   <!-- perf-table:end -->
#
# whose contents this script owns; everything outside the markers is
# untouched. Run scripts/bench.sh first (it writes BENCH_repro.json),
# then this script, and commit both.
#
# Usage: scripts/perf_table.sh           # rewrite the tables in place
#        scripts/perf_table.sh --check   # regenerate into temp copies and
#                                        # fail on any difference (drift gate)
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
[[ "${1:-}" == "--check" ]] && check=1

json=BENCH_repro.json
if [[ ! -s "$json" ]]; then
    echo "error: $json missing or empty — run scripts/bench.sh first" >&2
    exit 1
fi

# metric <row-name> <field>: value of "field" inside the memsim row
# whose "name" is <row-name>. Relies on the repo's own pretty-printer
# (one key per line), which is the only producer of this file.
metric() {
    awk -v name="\"$1\"" -v field="\"$2\":" '
        index($0, "\"name\": " name) { hot = 1; next }
        hot && index($0, field) {
            v = $NF; gsub(/,$/, "", v); print v; exit
        }
        hot && index($0, "\"name\":") { exit }
    ' "$json"
}

require() {
    if [[ -z "$2" ]]; then
        echo "error: $json has no memsim/$1 row — rerun scripts/bench.sh from this tree" >&2
        exit 1
    fi
}

scalar=$(metric cache_scalar maccesses_per_s)
coalesced=$(metric cache_coalesced maccesses_per_s)
simd=$(metric cache_simd maccesses_per_s)
soa=$(metric batch_soa maccesses_per_s)
batch=$(metric batch_traces mops_per_s)
build=$(metric engine_build ns_per_iter)
reset=$(metric engine_reset ns_per_iter)
require cache_scalar "$scalar"
require cache_coalesced "$coalesced"
require cache_simd "$simd"
require batch_soa "$soa"
require batch_traces "$batch"
require engine_build "$build"
require engine_reset "$reset"

fmt1() { awk -v x="$1" 'BEGIN { printf "%.1f", x }'; }

table=$(cat <<EOF
| memsim path (k-NN-shaped operand stream) | measured on the bench host |
|---|---|
| \`Cache::access_scalar\` — per-access full tag scan | $(fmt1 "$scalar") Maccesses/s |
| \`Cache::access_run\` — per-op coalesced groups | $(fmt1 "$coalesced") Maccesses/s |
| \`Cache::access_block\` — batched block pass (SWAR probe) | $(fmt1 "$simd") Maccesses/s |
| \`Cache::access_soa\` — SoA pass over a packed \`AccessBlock\` | $(fmt1 "$soa") Maccesses/s |
| \`commit_block\` — three tiled kernel templates, packed once, SoA replay | $(fmt1 "$batch") Mops/s |
| \`SimdEngine\` build vs pooled reset | $(fmt1 "$build") vs $(fmt1 "$reset") ns |
EOF
)

drift=0
splice() {
    local doc="$1"
    if ! grep -q 'perf-table:begin' "$doc"; then
        echo "error: $doc has no perf-table markers" >&2
        exit 1
    fi
    local tmp
    tmp=$(mktemp)
    awk -v table="$table" '
        /perf-table:begin/ { print; print table; skipping = 1; next }
        /perf-table:end/ { skipping = 0 }
        !skipping { print }
    ' "$doc" > "$tmp"
    if [[ $check -eq 0 ]]; then
        mv "$tmp" "$doc"
        echo "updated $doc"
    elif cmp -s "$tmp" "$doc"; then
        rm -f "$tmp"
        echo "$doc matches $json"
    else
        echo "error: the perf table in $doc differs from what $json regenerates:" >&2
        diff -u "$doc" "$tmp" >&2 || true
        rm -f "$tmp"
        drift=1
    fi
}

splice README.md
splice DESIGN.md
splice ROADMAP.md
if [[ $check -eq 1 ]]; then
    if [[ $drift -ne 0 ]]; then
        echo "error: perf tables drifted; run scripts/perf_table.sh and commit the docs" >&2
        exit 1
    fi
    echo "OK: perf tables match $json"
else
    echo "OK: perf tables regenerated from $json"
fi
