//! Branch coverage for the `validate` oracles that long campaigns rely
//! on: timeout classification (genuine performance bug vs discard), the
//! 8x-operations performance-anomaly oracle, neutrality-violation
//! skipping, and the disjoint-counter invariant.

use cse_core::validate::{
    is_performance_anomaly, timeout_is_performance_bug, validate, validate_with, DiscrepancyKind,
    ValidateConfig,
};
use cse_vm::{
    BugId, CoverageMap, ExecStats, ExecutionResult, FaultInjector, Outcome, Vm, VmConfig, VmKind,
};

fn completed(total_ops: u64) -> ExecutionResult {
    ExecutionResult {
        output: String::new(),
        outcome: Outcome::Completed { uncaught_exception: false },
        events: Vec::new(),
        ir_verify: Vec::new(),
        tv: Vec::new(),
        coverage: CoverageMap::default(),
        stats: ExecStats { interp_ops: total_ops, ..ExecStats::default() },
    }
}

fn timed_out() -> ExecutionResult {
    ExecutionResult {
        output: String::new(),
        outcome: Outcome::Timeout,
        events: Vec::new(),
        ir_verify: Vec::new(),
        tv: Vec::new(),
        coverage: CoverageMap::default(),
        stats: ExecStats::default(),
    }
}

/// A mutant timeout is the JIT's fault only when the reference
/// interpreter finished the same program comfortably (< fuel/4).
#[test]
fn timeout_classification_branches() {
    const FUEL: u64 = 40_000_000;
    // No reference (neutrality off, or the reference run panicked):
    // never a performance verdict.
    assert!(!timeout_is_performance_bug(None, FUEL));
    // Reference finished comfortably: the slowness is the JIT's.
    assert!(timeout_is_performance_bug(Some(&completed(FUEL / 4 - 1)), FUEL));
    // Reference needed a quarter of the budget or more: the program is
    // just expensive — discard.
    assert!(!timeout_is_performance_bug(Some(&completed(FUEL / 4)), FUEL));
    assert!(!timeout_is_performance_bug(Some(&completed(FUEL)), FUEL));
    // Reference timed out too: definitely just expensive.
    assert!(!timeout_is_performance_bug(Some(&timed_out()), FUEL));
}

/// The explicit anomaly oracle fires strictly above `8x + 1M` reference
/// operations.
#[test]
fn performance_anomaly_boundary() {
    assert!(!is_performance_anomaly(0, 0));
    assert!(!is_performance_anomaly(8 * 500_000 + 1_000_000, 500_000));
    assert!(is_performance_anomaly(8 * 500_000 + 1_000_001, 500_000));
    // Saturates instead of overflowing on huge reference counts.
    assert!(!is_performance_anomaly(u64::MAX, u64::MAX / 2));
}

/// A seeded performance bug must surface as a `Performance` discrepancy
/// (not a discard, not a mis-compilation): compiled code blows the step
/// budget or the 8x oracle while interpretation stays cheap.
#[test]
fn performance_bug_yields_performance_discrepancy() {
    // Calibrated deterministic exhibit: fuzzer seed 8, rng seed 8.
    let seed = cse_fuzz::generate(8, &cse_fuzz::FuzzConfig::default());
    let vm = VmConfig::correct(VmKind::HotSpotLike)
        .with_faults(FaultInjector::with([BugId::HsPerfQuadraticLoop]));
    let config = ValidateConfig::paper_defaults(vm);
    let outcome = validate(&seed, &config, 8);
    let perf = outcome
        .discrepancies
        .iter()
        .filter(|d| matches!(d.kind, DiscrepancyKind::Performance))
        .count();
    assert!(perf > 0, "expected a Performance discrepancy, got {:?}", outcome.discrepancies);
    for d in &outcome.discrepancies {
        assert_eq!(d.kind.symptom(), cse_vm::Symptom::Performance);
        assert_eq!(d.culprit, Some(BugId::HsPerfQuadraticLoop));
    }
}

/// On a *correct* VM with a tight step budget, expensive mutants are
/// discarded — never reported as performance bugs (the reference is just
/// as slow, so the timeout carries no blame).
#[test]
fn expensive_mutants_are_discarded_not_reported() {
    // Calibrated deterministic exhibit: fuzzer seed 1 completes in ~97k
    // ops; its hot-loop mutants exceed twice that.
    let seed = cse_fuzz::generate(1, &cse_fuzz::FuzzConfig::default());
    let baseline = Vm::run_program(
        &cse_core::validate::compile_checked(&seed),
        VmConfig::correct(VmKind::HotSpotLike),
    );
    assert!(baseline.outcome.is_completed());
    let mut vm = VmConfig::correct(VmKind::HotSpotLike);
    vm.fuel = baseline.stats.total_ops() * 2;
    let config = ValidateConfig::paper_defaults(vm);
    let outcome = validate(&seed, &config, 1);
    assert!(outcome.discarded > 0, "expected timeout discards: {outcome:?}");
    assert!(
        outcome.discrepancies.is_empty(),
        "a correct VM must produce no discrepancies: {:?}",
        outcome.discrepancies
    );
    assert_eq!(outcome.mutants_run, outcome.completed + outcome.discarded);
}

/// A non-neutral mutation (injected via the chaos knob) must be detected
/// against the reference interpreter and skipped — counted as a
/// neutrality violation, never reported as a VM bug.
#[test]
fn non_neutral_mutants_are_detected_and_skipped() {
    let source = r#"
    class T {
        static int v() {
            int x = 0;
            x = 41;
            return x + 1;
        }
        static void main() {
            println(T.v());
        }
    }
    "#;
    let seed = cse_lang::parse_and_check(source).expect("seed parses");
    let config = ValidateConfig::paper_defaults(VmConfig::correct(VmKind::HotSpotLike));
    let outcome = validate_with(&seed, &config, 7, |artemis| {
        artemis.chaos_break_neutrality = true;
    });
    assert!(outcome.neutrality_violations > 0, "the flipped literal must be caught: {outcome:?}");
    assert!(
        outcome.discrepancies.is_empty(),
        "non-neutral mutants must never be reported as VM bugs"
    );
    // Violations are one discard reason; counters stay disjoint.
    assert!(outcome.neutrality_violations <= outcome.discarded);
    assert_eq!(outcome.mutants_run, outcome.completed + outcome.discarded);

    // The same seed without the chaos knob validates cleanly.
    let clean = validate(&seed, &config, 7);
    assert_eq!(clean.neutrality_violations, 0);
    assert!(clean.discrepancies.is_empty());
}

/// The seed timing out is a seed-level discard: no mutants attempted, no
/// mutant counters touched.
#[test]
fn seed_timeout_is_a_seed_level_discard() {
    let seed = cse_fuzz::generate(1, &cse_fuzz::FuzzConfig::default());
    let mut vm = VmConfig::correct(VmKind::HotSpotLike);
    vm.fuel = 100; // Nothing completes in 100 ops.
    let config = ValidateConfig::paper_defaults(vm);
    let outcome = validate(&seed, &config, 1);
    assert!(outcome.seed_discarded);
    assert_eq!(outcome.mutants_run, 0);
    assert_eq!(outcome.discarded, 0, "seed discards must not pollute mutant counters");
    assert_eq!(outcome.vm_invocations, 1);
}
