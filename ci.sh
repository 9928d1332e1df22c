#!/usr/bin/env bash
# Tier-1 verification gate. Everything here runs offline: the workspace
# has no registry dependencies, so no network access is needed beyond a
# stock Rust toolchain.
#
#   ./ci.sh          # full gate: fmt, clippy, build, tests
#   ./ci.sh quick    # skip the release build (debug tests only)
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# The campaign benchmark is its own package (outside the workspace) that
# drives only public entry points; building it catches an API change that
# breaks it even in quick mode.
echo "==> cargo check (campaign_bench)"
cargo check --offline --manifest-path campaign_bench/Cargo.toml

if [ "$mode" != "quick" ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test -q under CSE_VERIFY_IR=each (IR verifier after every pass)"
CSE_VERIFY_IR=each cargo test -q

# Translation validation: the corpus and 2^n plan-space soundness tests,
# corruption-injection sensitivity, and digest invariance run with the
# refinement checker armed after every pass. The pass-table completeness
# gate (every registered pass declares a TV contract) runs in the
# workspace unit suite above.
echo "==> translation-validation smoke (CSE_TV=each on corpus + plan space)"
CSE_TV=each cargo test -q --test tv_checker

if [ "$mode" != "quick" ]; then
    echo "==> parallel-engine digest equality under --release"
    cargo test --release -q --test parallel_determinism

    # Oracle memory gate: the guided workload runs both static oracles
    # (TV and IR verifier at boundary). Its output checks must pass and
    # its peak RSS must stay bounded — rendering TV counterexamples once
    # per divergence or holding compiled code across seeds breaks 200 MB.
    echo "==> oracle memory gate (campaign_openj9_guided: correct, peak RSS <= 200 MB)"
    bench_json=$(cargo run --release -q --offline --manifest-path campaign_bench/Cargo.toml -- \
        --workload campaign_openj9_guided --seed 1 --seconds 1 --trace 0 | tail -n 1) || true
    peak_rss=$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p' <<< "$bench_json")
    echo "    peak_rss_mb: ${peak_rss:-missing}"
    if ! grep -q '"correct": true' <<< "$bench_json" || [ -z "$peak_rss" ] \
        || awk -v rss="$peak_rss" 'BEGIN { exit !(rss > 200) }'; then
        echo "error: oracle memory gate failed: $bench_json" >&2
        exit 1
    fi

    echo "==> triage smoke (seeded-fault campaign; every incident reduced, deduped, classified)"
    cargo test --release -q --test triage chaos_campaign_triage_is_complete_and_job_count_invariant

    # Coverage smoke: the same seed budget under uniform sampling
    # (CSE_COVERAGE=off digests are byte-compatible with collect, so
    # collect doubles as the uniform reference) and under the feedback
    # scheduler. Guidance must strictly increase covered cells — this is
    # the subsystem's payoff gate, not just a does-it-run check.
    echo "==> coverage smoke (CSE_COVERAGE=guide must beat collect at equal budget)"
    collect_cells=$(CSE_COVERAGE=collect CSE_SEEDS=12 \
        cargo run --release -q --bin coverage | awk '/^cells /{print $2}')
    guide_cells=$(CSE_COVERAGE=guide CSE_SEEDS=12 \
        cargo run --release -q --bin coverage | awk '/^cells /{print $2}')
    echo "    collect: ${collect_cells} cells   guide: ${guide_cells} cells"
    if [ -z "$collect_cells" ] || [ -z "$guide_cells" ] \
        || [ "$guide_cells" -le "$collect_cells" ]; then
        echo "error: coverage guidance did not increase covered cells" >&2
        exit 1
    fi
fi

echo "==> OK"
