#!/usr/bin/env bash
# Tier-1 verification gate. Everything here runs offline: the workspace
# has no registry dependencies, so no network access is needed beyond a
# stock Rust toolchain.
#
#   ./ci.sh          # full gate: fmt, clippy, rustdoc, build, tests
#   ./ci.sh quick    # skip the release build (debug tests only)
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"

# A run may not dirty the tree: a leg that rewrites committed files (or
# leaves untracked output outside .gitignore) fails CI instead of being
# found by hand. Comparing against the start state keeps ./ci.sh usable
# on an uncommitted working tree.
tree_at_start=$(git status --porcelain)

# Runs one campaign_bench workload for a second at seed 1 and fails
# unless its output checks pass ("correct": true) and, when a limit is
# given as the third argument, its peak RSS is at most that many MB.
bench_gate() {
    local workload=$1 trace=$2 max_rss=${3:-} json rss
    json=$(cargo run --release -q --offline --manifest-path campaign_bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1) || true
    if ! grep -q '"correct": true' <<< "$json"; then
        echo "error: $workload output checks failed: $json" >&2
        exit 1
    fi
    if [ -n "$max_rss" ]; then
        rss=$(sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p' <<< "$json")
        echo "    peak_rss_mb: ${rss:-missing}"
        if [ -z "$rss" ] || awk -v rss="$rss" -v max="$max_rss" 'BEGIN { exit !(rss > max) }'; then
            echo "error: $workload peak RSS above $max_rss MB: $json" >&2
            exit 1
        fi
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Java's integer semantics (wrapping arithmetic, div/rem with the
# zero-divisor exception, shift masking) have one definition,
# cse_bytecode::arith, that the interpreter, the IR executor, constant
# folding and translation validation all call. A private copy elsewhere
# in non-test code could drift from it and make the oracles report
# phantom discrepancies.
echo "==> integer semantics defined only in cse_bytecode::arith"
arith_copies=$(find crates -path '*/src/*' -name '*.rs' ! -path crates/bytecode/src/arith.rs -print0 \
    | sort -z | xargs -0 awk '
        FNR == 1 { attr = 0 }
        /^#\[cfg\(test\)\]/ { attr = FNR; next }
        attr && FNR == attr + 1 && /^mod tests/ { nextfile }
        /wrapping_(div|rem|shl|shr)/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$arith_copies" ]; then
    echo "error: integer arithmetic outside crates/bytecode/src/arith.rs:" >&2
    echo "$arith_copies" >&2
    exit 1
fi

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# Doc links must resolve to public items: a link to a private or deleted
# item is an error, not a warning. Output goes to the ignored target/.
echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The campaign benchmark is its own package (outside the workspace) that
# drives only public entry points; building it catches an API change that
# breaks it even in quick mode.
echo "==> cargo check (campaign_bench)"
cargo check --offline --manifest-path campaign_bench/Cargo.toml

if [ "$mode" != "quick" ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

# The test profile has debug assertions, so every compile in these tests
# also checks the IR after build and after every JIT pass and panics on a
# defect (see cse_vm::jit::verify::assert_well_formed).
echo "==> cargo test --workspace -q"
cargo test --workspace -q

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

    # The static oracles' reports (TV at each and at boundary, the IR
    # verifier at boundary, plus corrupted IR) are pinned byte for byte;
    # checking the pins in the optimized build is checking the code the
    # benchmark runs.
    echo "==> static-oracle report pins under --release"
    cargo test --release -q --test tv_report_pins

    # Likewise the front end's and the JIT's output: every JoNM mutant's
    # source, bytecode and digests, and the compiled IR, are pinned, and
    # the benchmark runs the optimized build of the code that makes them.
    echo "==> mutant pipeline and compiled IR pins under --release"
    cargo test --release -q --test mutant_pipeline_pins --test jit_compile_pins

    # The pinned digests set every budget explicitly, so budget
    # variables in the environment must not move them.
    echo "==> pinned digests under non-default VM budget variables"
    CSE_FUEL=40000001 CSE_HEAP_LIMIT=1000000 CSE_STACK_LIMIT=100 \
        cargo test --release -q --test parallel_determinism digests_match

    # Oracle memory gate: the guided workload runs both static oracles
    # (TV and IR verifier at boundary). Its output checks must pass and
    # its peak RSS must stay bounded. Campaigns keep a TV finding's
    # divergence lines only, and a printed program only for the first
    # finding of each signature (about 23 MB peak). Keeping a program
    # for every one of its 182 TV incidents breaks 30 MB (about 36 MB),
    # and so do the two IR dumps of every failing check (about 87 MB).
    echo "==> oracle memory gate (campaign_openj9_guided: correct, peak RSS <= 30 MB)"
    bench_gate campaign_openj9_guided 0 30

    # The traced replay re-runs each seed's and mutant's steps outside
    # validation and checks them against validation's own counts, and
    # checks that the per-seed `validate_with` totals (seeds, mutants,
    # vm invocations) add up to `run_campaign`'s. Nothing else runs it.
    echo "==> traced campaign replay (campaign_hotspot --trace 1: correct)"
    bench_gate campaign_hotspot 1

    # Compilation-space enumeration: every pass over the 240 programs
    # must give the same space digest, all 240 must pass the front end,
    # and every attributed bug must be in the default set. Nothing else
    # runs these output checks. It is also the seed memory gate: the 240
    # programs' bytecode stays resident for the whole run (about 36 MB
    # peak with 16-byte instructions stored at their exact length; a
    # 24-byte `Insn` reads about 48 MB).
    echo "==> compilation-space workload and seed memory gate (space_hotspot: correct, peak RSS <= 40 MB)"
    bench_gate space_hotspot 0 40

    # The findings workflow end to end: the default hunt's first
    # reproducer must shrink under reduction, whatever its symptom (a
    # predicate that only recognizes crashes leaves a mis-compilation
    # reproducer at its original size).
    echo "==> bughunt (the first reproducer must shrink under reduction)"
    reduction=$(cargo run --release -q --example bughunt \
        | sed -n 's/^reduced from \([0-9]*\) to \([0-9]*\) lines:$/\1 \2/p')
    echo "    lines before and after: ${reduction:-missing}"
    read -r lines_before lines_after <<< "${reduction:-0 0}"
    if [ -z "$reduction" ] || [ "$lines_after" -ge "$lines_before" ]; then
        echo "error: bughunt did not shrink its reproducer" >&2
        exit 1
    fi

    # Mutator soundness on a correct VM: JoNM must never change a
    # program's behavior, and the same oracle must catch a deliberately
    # non-neutral mutator (a check that catches nothing proves nothing).
    # Campaigns report crashing mutants without a neutrality rerun, so
    # this is where a non-neutral JoNM would show.
    echo "==> neutrality ablation (JoNM false positives 0, literal-flip false positives > 0)"
    ablation=$(CSE_SEEDS=100 cargo run --release -q -p cse-bench --bin ablation_neutrality) || true
    jonm_fp=$(awk '/^JoNM \(semantics-preserving\)/ { print $NF }' <<< "$ablation")
    flip_fp=$(awk '/^literal-flip \(non-neutral\)/ { print $NF }' <<< "$ablation")
    echo "    JoNM: ${jonm_fp:-missing}   literal-flip: ${flip_fp:-missing}"
    if [ "$jonm_fp" != "0" ] || ! [[ "$flip_fp" =~ ^[1-9][0-9]*$ ]]; then
        echo "error: neutrality ablation failed: $ablation" >&2
        exit 1
    fi

    # Mutant preparation cost by layer: JoNM and the front end every
    # mutant passes before it runs. Each layer must report a positive
    # time, so a layer that silently drops out of the split (or a harness
    # that stops timing it) fails here rather than reading as free.
    echo "==> mutation cost layers (table3_mutation_cost: every layer line positive)"
    table3=$(CSE_SEEDS=20 cargo run --release -q -p cse-bench --bin table3_mutation_cost) || true
    for layer in JoNM type-check lowering verification attach; do
        ms=$(awk -v name="$layer" '$1 == "layer" && $2 == name { print $3 }' <<< "$table3")
        echo "    $layer: ${ms:-missing} ms"
        if ! awk -v ms="$ms" 'BEGIN { exit !(ms ~ /^[0-9]+(\.[0-9]+)?$/ && ms > 0) }'; then
            echo "error: mutation cost layer $layer did not report a positive time: $table3" >&2
            exit 1
        fi
    done

    echo "==> triage suite (seeded-fault campaign, replay verdicts, the triage binary)"
    cargo test --release -q --test triage

    # Yield gate: every arm of the experiment harness runs its campaigns
    # to completion (the harness itself exits non-zero on a non-neutral
    # mutant or a bug outside the seeded set), and each profile's `off`
    # arm finds at least the bugs this seed budget has found since the
    # harness replaced the per-table drivers. A trigger or oracle change
    # that loses one of them fails here.
    echo "==> yield gate (yield_harness at 32 seeds: every arm sound and complete, off finds its pins)"
    yield_out=$(CSE_SEEDS=32 cargo run --release -q -p cse-bench --bin yield_harness) || {
        echo "error: yield_harness failed: $yield_out" >&2
        exit 1
    }
    if grep -q PARTIAL <<< "$yield_out"; then
        echo "error: a yield_harness campaign did not finish: $yield_out" >&2
        exit 1
    fi
    for pins in \
        "HotSpot HsInlineHandlerAssert HsGraphBlockBudget HsLoopUnrollStep HsEscapeLoopStore HsCodegenMultiArray" \
        "OpenJ9 J9DeoptStaleLocal J9CodegenLongMul J9CodegenConcatLoop J9RecompOsrPromote J9JitIntCallAssert J9OtherNestedTry" \
        "ART ArtOptCompHandlerAssert ArtOptCompSwitchAssert"; do
        read -r profile pinned <<< "$pins"
        found=$(awk -v p="$profile" '$1 == "bugs" && $2 == p && $3 == "off:"' <<< "$yield_out")
        echo "    $profile: ${found#*off: }"
        for bug in $pinned; do
            if ! grep -qw "$bug" <<< "$found"; then
                echo "error: the $profile off arm lost $bug: $found" >&2
                exit 1
            fi
        done
    done
fi

echo "==> working tree unchanged by the run"
tree_at_end=$(git status --porcelain)
if [ "$tree_at_end" != "$tree_at_start" ]; then
    echo "error: the run changed the working tree:" >&2
    diff <(echo "$tree_at_start") <(echo "$tree_at_end") >&2 || true
    exit 1
fi

echo "==> OK"
