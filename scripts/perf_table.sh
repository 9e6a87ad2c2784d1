#!/usr/bin/env bash
# Renders the per-layer host-time tables embedded in README.md, DESIGN.md
# and ROADMAP.md from perf_record.jsonl, the committed record of one
# perfbench `--trace 1` run, so the prose never drifts from the
# measurement. Each doc carries a block delimited by
#
#   <!-- perf-table:begin ... -->
#   <!-- perf-table:end -->
#
# whose contents this script owns; everything outside the markers is
# untouched. scripts/bench.sh re-measures the record and then runs this
# script; commit the record and the docs together. A record whose output
# checks failed is refused in both modes.
#
# Usage: scripts/perf_table.sh           # rewrite the tables in place
#        scripts/perf_table.sh --check   # regenerate into temp copies and
#                                        # fail on any difference (drift gate)
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "$*" in
    "") ;;
    --check) check=1 ;;
    *)
        echo "usage: scripts/perf_table.sh [--check]" >&2
        exit 2
        ;;
esac

record=perf_record.jsonl
if [[ ! -s "$record" ]]; then
    echo "error: $record missing or empty — run scripts/bench.sh first" >&2
    exit 1
fi
# perfbench's stdout: a provenance line, then the result line.
provenance=$(sed -n 1p "$record")
result=$(sed -n 2p "$record")

# get <line> <key> [<field>]: the scalar at "key" (or at "field" inside
# the object at "key") in one compact JSON line, quotes stripped. Relies
# on perfbench's printer: no whitespace, and no quote or brace inside the
# values read here.
get() {
    awk -v key="$2" -v field="${3:-}" '
        function after(s, k,   i) {
            i = index(s, "\"" k "\":")
            return i ? substr(s, i + length(k) + 3) : ""
        }
        {
            s = after($0, key)
            if (field != "") s = after(substr(s, 1, index(s, "}")), field)
            if (s == "") exit
            if (substr(s, 1, 1) == "\"") {
                s = substr(s, 2)
                print substr(s, 1, index(s, "\"") - 1)
            } else {
                match(s, /^[^,}]*/)
                print substr(s, 1, RLENGTH)
            }
        }' <<< "$1"
}

require() {
    if [[ -z "$2" ]]; then
        echo "error: $record has no $1 — rerun scripts/bench.sh from this tree" >&2
        exit 1
    fi
    printf '%s\n' "$2"
}

# A result value and the work counter the provenance line gives it.
value() { require "$1" "$(get "$result" "$1" value)"; }
work() { require "$1 work counter" "$(get "$provenance" "$1" work)"; }

# Plain assignments, not expansions inside the table, so that a missing
# value stops the script (set -e) instead of rendering an empty cell.
trace=$(require trace "$(get "$provenance" trace)")
seed=$(require seed "$(get "$provenance" seed)")
seconds=$(require seconds "$(get "$provenance" seconds)")
nproc=$(require nproc "$(get "$provenance" nproc)")
arch=$(require arch_fingerprint "$(get "$provenance" arch_fingerprint)")
attempted=$(require attempted "$(get "$result" attempted)")
failed=$(require failed "$(get "$result" failed)")
if [[ "$trace" != true ]]; then
    echo "error: $record is not a --trace 1 run; rerun scripts/bench.sh" >&2
    exit 1
fi
if [[ "$failed" != 0 || "$(get "$result" correct)" != true ]]; then
    echo "error: $record failed $failed of $attempted output checks; rerun scripts/bench.sh" >&2
    exit 1
fi

gen=$(value memsim.gen_maccesses_per_s)
pack=$(value memsim.pack_maccesses_per_s)
cache=$(value memsim.cache_maccesses_per_s)
accesses=$(work memsim.cache_maccesses_per_s)
table1=$(value mlkit.table1_s)
table1_work=$(work mlkit.table1_s)
widen=$(value softfp.widen_ns)
narrow=$(value softfp.narrow_ns)
quantize=$(value softfp.quantize_ns)
conversions=$(work softfp.quantize_ns)
model=$(value codegen.model_s)
model_work=$(work codegen.model_s)
mops=$(value accel.mlu_mops_per_s)
ops=$(work accel.mlu_mops_per_s)
event_loop=$(value serve.loop_s)
legs=$(work serve.loop_s)

# fmt <decimals> <value> [<scale>]
fmt() { awk -v d="$1" -v x="$2" -v k="${3:-1}" 'BEGIN { printf "%.*f", d, x * k }'; }

table=$(cat <<EOF
perfbench \`--trace 1\`, seed $seed, $seconds s, nproc $nproc, \`$arch\`: $attempted output checks, 0 failed.

| layer | timed (best pass) | measured | work per pass |
|---|---|---|---|
| memsim | fig09 operand stream: generation / SoA packing / cache pass | $(fmt 1 "$gen") / $(fmt 1 "$pack") / $(fmt 1 "$cache") Maccesses/s | \`$accesses\` |
| mlkit | Table 1 training, every technique and precision | $(fmt 3 "$table1") s | \`$table1_work\` |
| softfp | binary16 widen / f32 narrow / batch quantize | $(fmt 2 "$widen") / $(fmt 2 "$narrow") / $(fmt 2 "$quantize") ns per conversion | \`$conversions\` |
| codegen | analytic model of one program per technique | $(fmt 3 "$model" 1e3) ms | \`$model_work\` |
| accel | functional executor, one program per technique | $(fmt 1 "$mops") Mops/s | \`$ops\` |
| serve | fleet event loop (fleet minus memsim replay) | $(fmt 3 "$event_loop") s | \`$legs\` |
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
        echo "$doc matches $record"
    else
        echo "error: the perf table in $doc differs from what $record regenerates:" >&2
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
    echo "OK: perf tables match $record"
else
    echo "OK: perf tables regenerated from $record"
fi
