//! Warmth-aware plan-space pruning: the optimisation contract.
//!
//! Pruning serves plan-space points from a proven-identical representative
//! run instead of executing them (see `cse_core::space`). Its soundness
//! rests on inlining monotonicity of the all-interpreted profiling run;
//! these tests pin the user-visible consequence — pruned and exhaustive
//! enumerations are **bit-identical** — across a fuzzed program corpus,
//! not just the hand-written examples in the module's unit tests.

use cse_bytecode::program::MethodId;
use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::space::{
    enumerate_space_with, find_space_discrepancy, space_digest, PrunePlans, SpacePoint,
};
use cse_core::validate::try_compile_checked;
use cse_vm::{VmConfig, VmKind};

/// Builds a plan-space coordinate list for a fuzzed program: the first few
/// methods, each at a likely-live invocation (0) and, for the first one, a
/// certainly-dead invocation (beyond any reachable count). Dead
/// coordinates are what pruning collapses, so every space here exercises
/// the representative-sharing path.
fn corpus_calls(num_methods: usize) -> Vec<(MethodId, u64)> {
    let mut calls: Vec<(MethodId, u64)> = Vec::new();
    for m in 0..num_methods.min(4) {
        calls.push((MethodId(m as u32), 0));
    }
    calls.push((MethodId(0), 1 << 40));
    calls
}

fn assert_points_identical(pruned: &[SpacePoint], exhaustive: &[SpacePoint], label: &str) {
    assert_eq!(pruned.len(), exhaustive.len(), "{label}: point count");
    for (i, (p, e)) in pruned.iter().zip(exhaustive).enumerate() {
        assert_eq!(p.choices, e.choices, "{label}: point {i} choices");
        assert_eq!(p.result.output, e.result.output, "{label}: point {i} output");
        assert_eq!(p.result.outcome, e.result.outcome, "{label}: point {i} outcome");
    }
    assert_eq!(
        space_digest(pruned),
        space_digest(exhaustive),
        "{label}: pruned and exhaustive digests must be bit-identical"
    );
}

/// The headline property over a fuzzed corpus: for every program and VM
/// kind, `PrunePlans::On` and `PrunePlans::Off` enumerate bit-identical
/// spaces (same outputs, same outcomes, same digest), and neither exposes
/// a cross-point discrepancy on a correct VM.
#[test]
fn pruned_enumeration_matches_exhaustive_across_fuzz_corpus() {
    let fuzz = cse_fuzz::FuzzConfig::default();
    let kinds = [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike];
    for seed in 0..6u64 {
        let program = cse_fuzz::generate(seed, &fuzz);
        let bytecode = match try_compile_checked(&program) {
            Ok(b) => b,
            Err(_) => continue,
        };
        let calls = corpus_calls(bytecode.methods.len());
        let kind = kinds[seed as usize % kinds.len()];
        let config = VmConfig::correct(kind);
        let pruned = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::On);
        let exhaustive = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::Off);
        let label = format!("seed {seed} ({kind:?})");
        assert_eq!(pruned.len(), 1 << calls.len(), "{label}: full space");
        assert_points_identical(&pruned, &exhaustive, &label);
        assert_eq!(
            find_space_discrepancy(&exhaustive),
            None,
            "{label}: a correct VM must have a consistent space"
        );
    }
}

/// Hand-written programs whose coordinate lists mix live invocations with
/// dead ones (indices the program never reaches), so pruning has real
/// work to do: pruned and exhaustive enumerations must still agree bit
/// for bit. Each case is a name, a source with class `T`, and
/// `(method, invocation)` coordinates.
#[test]
fn pruned_enumeration_matches_exhaustive_on_hand_picked_coordinates() {
    type Case = (&'static str, &'static str, &'static [(&'static str, u64)]);
    let cases: [Case; 2] = [
        (
            "loop_calls",
            r#"class T {
                static int step(int x) { return x * 3 + 1; }
                static void main() {
                    int acc = 0;
                    for (int i = 0; i < 6; i++) { acc = acc + step(i); }
                    println(acc);
                }
            }"#,
            // step runs 6 times: invocations 0, 2, 5 are live, 9 is dead.
            &[("step", 0), ("step", 2), ("step", 5), ("step", 9), ("main", 0)],
        ),
        (
            "strings_switch",
            r#"class T {
                static String label(int x) {
                    switch (x) {
                        case 0: return "zero";
                        case 1: return "one";
                        default: return "many:" + x;
                    }
                }
                static void main() {
                    for (int i = 0; i < 4; i++) { println(label(i)); }
                }
            }"#,
            // label runs 4 times: invocations 0 and 3 are live, 8 is dead.
            &[("label", 0), ("label", 3), ("label", 8), ("main", 0)],
        ),
    ];
    let config = VmConfig::correct(VmKind::HotSpotLike);
    for (name, source, coordinates) in cases {
        let program = cse_lang::parse_and_check(source).expect("case source is valid");
        let bytecode = try_compile_checked(&program).expect("case compiles");
        let calls: Vec<(MethodId, u64)> = coordinates
            .iter()
            .map(|&(method, invocation)| {
                (bytecode.find_method("T", method).expect("case method"), invocation)
            })
            .collect();
        let pruned = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::On);
        let exhaustive = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::Off);
        assert_eq!(pruned.len(), 1 << calls.len(), "{name}: full space");
        assert_points_identical(&pruned, &exhaustive, name);
    }
}

/// Pruning with a certainly-dead coordinate must still enumerate every
/// point (the space's *shape* is an API contract; only the executions are
/// shared), and re-enumeration is deterministic.
#[test]
fn pruned_enumeration_is_deterministic() {
    let fuzz = cse_fuzz::FuzzConfig::default();
    let program = cse_fuzz::generate(1, &fuzz);
    let bytecode = try_compile_checked(&program).expect("corpus seed 1 compiles");
    let calls = corpus_calls(bytecode.methods.len());
    let config = VmConfig::correct(VmKind::HotSpotLike);
    let first = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::On);
    let second = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::On);
    assert_eq!(space_digest(&first), space_digest(&second));
}

/// Campaign digests are independent of plan-space pruning and of the
/// worker count. Pruning lives in `cse_core::space`, which the campaign's
/// validation loop never consults; jobs invariance is pinned here by
/// running the same campaign at jobs = 1 and jobs = 4 (complementing
/// `parallel_determinism.rs`, which sweeps jobs ∈ {2, 4, 8}) and checking
/// the digest is bit-identical.
#[test]
fn campaign_digest_invariant_across_jobs_one_and_four() {
    let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 5);
    let serial = run_campaign(&config);
    let parallel_config = config.clone().with_jobs(4);
    let parallel = run_campaign(&parallel_config);
    assert_eq!(
        serial.digest(&config),
        parallel.digest(&parallel_config),
        "campaign digest must not depend on jobs"
    );
    assert_eq!(serial.totals.seeds, 5);
}
