#!/usr/bin/env bash
# Tier-1 gate: perf-table drift, formatting, lints, build, tests. Run before every commit.
#
#   scripts/check.sh             # full gate
#   scripts/check.sh --fast      # skip the release build
#   scripts/check.sh --bench     # parallel determinism + committed repro reports
#   scripts/check.sh --faults    # fault-campaign smoke + pinned outcomes + committed full report
#   scripts/check.sh --profile   # timeline smoke + pinned bottleneck verdicts
#   scripts/check.sh --serve     # serving-fleet smoke + pinned admission counts + committed full report
#   scripts/check.sh --chaos     # chaos smoke: fault x defence sweep + pinned outcomes + committed full report
#   scripts/check.sh --serve-trace # fleet timeline smoke + pinned span/track counts
#
# Takes no argument or exactly one of the modes above; anything else is a
# usage error (exit 2). Binaries run from ${CARGO_TARGET_DIR:-target}/release.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$#:$mode" in
    0: | 1:--fast | 1:--bench | 1:--faults | 1:--profile | 1:--serve | 1:--chaos | 1:--serve-trace) ;;
    *)
        echo "usage: scripts/check.sh [--fast|--bench|--faults|--profile|--serve|--chaos|--serve-trace]" >&2
        exit 2
        ;;
esac

# One absolute directory for every binary a mode runs, wherever cargo
# builds (a relative CARGO_TARGET_DIR is relative to the repo root here).
bin="${CARGO_TARGET_DIR:-target}/release"
[[ "$bin" == /* ]] || bin="$PWD/$bin"

if [[ "$mode" == "--profile" ]]; then
    echo "==> cargo build --release -p pudiannao-bench"
    cargo build --release -q -p pudiannao-bench

    echo "==> profile (timeline export + bottleneck attribution)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    (cd "$tmp" && "$bin/profile") | grep '^\[profile\]' > "$tmp/got.txt"
    cat "$tmp/got.txt"
    test -s "$tmp/trace_timeline.json"

    # Pinned timeline shape and per-phase verdicts. The profile binary
    # already re-parsed and structurally validated the written timeline
    # (the "timeline valid" line below would be missing otherwise). Any
    # drift here means the timing model or the analyzer taxonomy moved —
    # update deliberately, never silently.
    cat > "$tmp/want.txt" <<'EOF'
[profile] timeline valid: 58 spans, 7 instants, 9 tracks
[profile] kNN pipeline-bound
[profile] k-Means pipeline-bound
[profile] DNN-pred pipeline-bound
[profile] DNN-pre pipeline-bound
[profile] DNN-train pipeline-bound
[profile] LR-train dma-bound
[profile] LR-pred dma-bound
[profile] SVM-train pipeline-bound
[profile] SVM-pred pipeline-bound
[profile] NB-train pipeline-bound
[profile] NB-pred pipeline-bound
[profile] CT-train pipeline-bound
[profile] CT-pred reconfiguration-bound
[profile] events_dropped 0
EOF
    cmp "$tmp/want.txt" "$tmp/got.txt"
    echo "    timeline and all 13 verdicts match the pinned expectation"

    echo "==> determinism: REPRO_THREADS=1 vs 4"
    mkdir "$tmp/seq" "$tmp/par"
    (cd "$tmp/seq" && REPRO_THREADS=1 "$bin/profile" >/dev/null)
    (cd "$tmp/par" && REPRO_THREADS=4 "$bin/profile" >/dev/null)
    cmp "$tmp/seq/trace_timeline.json" "$tmp/par/trace_timeline.json"
    echo "    trace_timeline.json byte-identical"

    echo "OK: profile smoke passed"
    exit 0
fi

if [[ "$mode" == "--faults" ]]; then
    echo "==> cargo build --release -p pudiannao-bench"
    cargo build --release -q -p pudiannao-bench

    echo "==> fault_campaign --smoke (fixed seed)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    "$bin/fault_campaign" --smoke --out "$tmp/fault_campaign.json" \
        | grep '^\[faults\]' > "$tmp/got.txt"
    cat "$tmp/got.txt"

    # Pinned outcome classification for the built-in smoke seed. Any
    # change here means the fault layer's seeded behaviour shifted —
    # update deliberately, never silently.
    cat > "$tmp/want.txt" <<'EOF'
[faults] masked 19
[faults] corrected 3
[faults] detected 12
[faults] sdc 21
[faults] crash 1
EOF
    cmp "$tmp/want.txt" "$tmp/got.txt"
    echo "    outcome counts match the pinned expectation"

    echo "==> determinism: REPRO_THREADS=1 vs 4"
    REPRO_THREADS=1 "$bin/fault_campaign" --smoke \
        --out "$tmp/seq.json" >/dev/null
    REPRO_THREADS=4 "$bin/fault_campaign" --smoke \
        --out "$tmp/par.json" >/dev/null
    cmp "$tmp/seq.json" "$tmp/par.json"
    echo "    fault_campaign.json byte-identical"

    # The committed report is the full campaign's output: a fresh run must
    # reproduce it byte for byte, pinning the outcome classification of
    # every arm, rate and kernel (regenerate deliberately, never silently).
    echo "==> full campaign vs committed fault_campaign.json"
    "$bin/fault_campaign" --out "$tmp/full.json" >/dev/null
    cmp fault_campaign.json "$tmp/full.json"
    echo "    committed fault_campaign.json reproduced"

    echo "OK: fault campaign smoke passed"
    exit 0
fi

if [[ "$mode" == "--serve" ]]; then
    echo "==> cargo build --release -p pudiannao-serve"
    cargo build --release -q -p pudiannao-serve

    echo "==> serve_bench --smoke (fixed seed)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    "$bin/serve_bench" --smoke --out "$tmp/serve_report.json" \
        | grep -E '^\[serve\] (mode|shards|offered|admitted|shed|rejected|completed|shed_permille|trace_cache) ' \
        > "$tmp/got.txt"
    cat "$tmp/got.txt"

    # Pinned admission/completion counts and trace-template-cache
    # counters for the built-in smoke stream. Any change here means the
    # generator, the admission policy, the scheduler's batching, or the
    # cache's slot/budget decisions shifted — update deliberately, never
    # silently.
    cat > "$tmp/want.txt" <<'EOF'
[serve] mode smoke
[serve] shards 2
[serve] offered 4000
[serve] admitted 2406
[serve] shed 1580
[serve] rejected 14
[serve] completed 2406
[serve] shed_permille 395
[serve] trace_cache hits 2328 misses 78 hit_permille 967 resident_kb 8013 ready 78 too_big 0
EOF
    cmp "$tmp/want.txt" "$tmp/got.txt"
    echo "    admission, completion and trace-cache counts match the pinned expectation"

    echo "==> determinism: REPRO_THREADS=1 vs 4"
    REPRO_THREADS=1 "$bin/serve_bench" --smoke \
        --out "$tmp/seq.json" >/dev/null
    REPRO_THREADS=4 "$bin/serve_bench" --smoke \
        --out "$tmp/par.json" >/dev/null
    cmp "$tmp/seq.json" "$tmp/par.json"
    echo "    serve_report.json byte-identical"

    # The committed report is the full run's output (heavy stream plus the
    # scaling sweep): a fresh run must reproduce it byte for byte
    # (regenerate deliberately, never silently).
    echo "==> full serve_bench vs committed serve_report.json"
    "$bin/serve_bench" --out "$tmp/full.json" >/dev/null
    cmp serve_report.json "$tmp/full.json"
    echo "    committed serve_report.json reproduced"

    echo "OK: serving smoke passed"
    exit 0
fi

if [[ "$mode" == "--chaos" ]]; then
    echo "==> cargo build --release -p pudiannao-serve"
    cargo build --release -q -p pudiannao-serve

    echo "==> chaos_bench --smoke (pinned fault plans x defence arms)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    "$bin/chaos_bench" --smoke --out "$tmp/chaos_report.json" \
        | grep -E '^\[chaos\] (mode|baseline|cell|slo|defended)' > "$tmp/got.txt"
    cat "$tmp/got.txt"

    # Pinned outcome classification and SLO attainment for the built-in
    # smoke stream. The chaos_bench binary already enforces the headline
    # claim (defended strictly beats undefended at every intensity, or
    # exit 1); this pins the exact numbers too. Any change here means the
    # chaos plans, the defence policy, or the scheduler shifted — update
    # deliberately, never silently.
    cat > "$tmp/want.txt" <<'EOF'
[chaos] mode smoke
[chaos] baseline_p99_ns 62950
[chaos] cell low none completed 1944 retried_ok 0 hedge_won 0 timed_out 0 failed 14 shed 32 slo_overall_permille 976
[chaos] slo low none bronze 958 silver 996 gold 990
[chaos] cell low retries completed 1950 retried_ok 6 hedge_won 0 timed_out 0 failed 8 shed 32 slo_overall_permille 979
[chaos] slo low retries bronze 958 silver 1000 gold 1000
[chaos] cell low full completed 1950 retried_ok 0 hedge_won 6 timed_out 0 failed 8 shed 32 slo_overall_permille 979
[chaos] slo low full bronze 958 silver 1000 gold 1000
[chaos] cell mid none completed 1896 retried_ok 0 hedge_won 0 timed_out 0 failed 62 shed 32 slo_overall_permille 951
[chaos] slo mid none bronze 940 silver 961 gold 960
[chaos] cell mid retries completed 1928 retried_ok 34 hedge_won 0 timed_out 0 failed 30 shed 32 slo_overall_permille 968
[chaos] slo mid retries bronze 935 silver 1000 gold 1000
[chaos] cell mid full completed 1932 retried_ok 4 hedge_won 32 timed_out 0 failed 26 shed 32 slo_overall_permille 969
[chaos] slo mid full bronze 939 silver 1000 gold 992
[chaos] cell high none completed 1690 retried_ok 0 hedge_won 0 timed_out 4 failed 211 shed 85 slo_overall_permille 841
[chaos] slo high none bronze 825 silver 864 gold 844
[chaos] cell high retries completed 1771 retried_ok 107 hedge_won 0 timed_out 35 failed 76 shed 108 slo_overall_permille 882
[chaos] slo high retries bronze 809 silver 998 gold 876
[chaos] cell high full completed 1756 retried_ok 6 hedge_won 107 timed_out 37 failed 107 shed 90 slo_overall_permille 873
[chaos] slo high full bronze 795 silver 1000 gold 864
[chaos] defended_minus_none low 3
[chaos] defended_minus_none mid 18
[chaos] defended_minus_none high 32
EOF
    cmp "$tmp/want.txt" "$tmp/got.txt"
    echo "    outcome counts and SLO attainment match the pinned expectation"

    echo "==> determinism: REPRO_THREADS=1 vs 4"
    REPRO_THREADS=1 "$bin/chaos_bench" --smoke \
        --out "$tmp/seq.json" >/dev/null
    REPRO_THREADS=4 "$bin/chaos_bench" --smoke \
        --out "$tmp/par.json" >/dev/null
    cmp "$tmp/seq.json" "$tmp/par.json"
    echo "    chaos_report.json byte-identical"

    # The committed report is the full sweep's output: a fresh run must
    # reproduce it byte for byte (regenerate deliberately, never silently).
    echo "==> full chaos_bench vs committed chaos_report.json"
    "$bin/chaos_bench" --out "$tmp/full.json" >/dev/null
    cmp chaos_report.json "$tmp/full.json"
    echo "    committed chaos_report.json reproduced"

    echo "OK: chaos smoke passed"
    exit 0
fi

if [[ "$mode" == "--serve-trace" ]]; then
    echo "==> cargo build --release -p pudiannao-serve"
    cargo build --release -q -p pudiannao-serve

    echo "==> chaos_bench --smoke --trace (observed mid/full cell -> fleet timeline)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    "$bin/chaos_bench" --smoke --trace \
        --out "$tmp/chaos_report.json" --trace-out "$tmp/serve_timeline.json" \
        | grep -E '^\[trace\] (cell|spans|events_dropped|windows)' > "$tmp/got.txt"
    cat "$tmp/got.txt"
    test -s "$tmp/serve_timeline.json"

    # Pinned timeline shape for the built-in smoke stream. The binary
    # already re-read and structurally validated the written file (the
    # spans/tracks counts below come from that validation pass). Any
    # drift means the span lifecycle, the scheduler, or the chaos plans
    # shifted — update deliberately, never silently.
    cat > "$tmp/want.txt" <<'EOF'
[trace] cell mid full
[trace] spans 4920 instants 19 tracks 15
[trace] events_dropped 0
[trace] windows 14 windowed_p99_max_ns 233471
EOF
    cmp "$tmp/want.txt" "$tmp/got.txt"
    echo "    span, track and windowed-metric counts match the pinned expectation"

    echo "==> tracing is additive: chaos_report.json matches the untraced run"
    "$bin/chaos_bench" --smoke --out "$tmp/plain_report.json" >/dev/null
    cmp "$tmp/plain_report.json" "$tmp/chaos_report.json"
    echo "    report byte-identical with and without --trace"

    echo "==> determinism: REPRO_THREADS=1 vs 4"
    REPRO_THREADS=1 "$bin/chaos_bench" --smoke --trace \
        --out "$tmp/seq.json" --trace-out "$tmp/seq_timeline.json" >/dev/null
    REPRO_THREADS=4 "$bin/chaos_bench" --smoke --trace \
        --out "$tmp/par.json" --trace-out "$tmp/par_timeline.json" >/dev/null
    cmp "$tmp/seq_timeline.json" "$tmp/par_timeline.json"
    echo "    serve_timeline.json byte-identical"

    echo "OK: serve-trace smoke passed"
    exit 0
fi

if [[ "$mode" == "--bench" ]]; then
    echo "==> cargo build --release"
    cargo build --workspace --release -q

    echo "==> cache differential suite (access and access_soa vs the reference model)"
    cargo test -q --test cache_matches_reference

    echo "==> trace-template-cache equivalence suite (cached replay vs fresh generation)"
    cargo test -q -p pudiannao-serve --test trace_cache

    echo "==> determinism: sequential vs REPRO_THREADS=4"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    (cd "$tmp" && REPRO_THREADS=1 "$bin/repro_all" >/dev/null)
    mv "$tmp/repro_summary.json" "$tmp/seq_summary.json"
    mv "$tmp/phase_reports.json" "$tmp/seq_phases.json"
    (cd "$tmp" && REPRO_THREADS=4 "$bin/repro_all" >/dev/null)
    cmp "$tmp/seq_summary.json" "$tmp/repro_summary.json"
    cmp "$tmp/seq_phases.json" "$tmp/phase_reports.json"
    echo "    repro_summary.json and phase_reports.json byte-identical"

    # The committed reports are repro_all's output: a fresh run must
    # reproduce them byte for byte (regenerate deliberately, never silently).
    echo "==> fresh repro_all vs committed repro_summary.json and phase_reports.json"
    cmp repro_summary.json "$tmp/repro_summary.json"
    cmp phase_reports.json "$tmp/phase_reports.json"
    echo "    committed reports reproduced"

    echo "OK: determinism and committed repro reports passed"
    exit 0
fi

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
