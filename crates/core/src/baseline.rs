//! The comparison baselines of §4.3 and §3.2.
//!
//! * **Traditional approach** — treat the JIT as a static compiler: run
//!   the seed once with the default trace and once with every method
//!   force-compiled before its first call (`-Xjit:count=0`), and compare
//!   (the paper's dexfuzz/Yoshikawa-style baseline).
//! * **Option fuzzing** — JOpFuzzer-style: randomize the VM's compilation
//!   thresholds and compare runs across option sets (the realization the
//!   paper tried for a week without interesting findings, §3.2).

use cse_bytecode::BProgram;
use cse_lang::Program;
use cse_rng::Rng64;
#[cfg(test)]
use cse_vm::VmKind;
use cse_vm::{BugId, ForcedPlan, Outcome, Vm, VmConfig};

use crate::validate::compile_checked;

/// The result of a baseline check on one seed.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Whether the baseline spotted a discrepancy on this seed.
    pub discrepancy: bool,
    /// Ground-truth culprit when the discrepancy was a crash.
    pub culprit: Option<BugId>,
    pub vm_invocations: usize,
}

/// Traditional approach: default trace vs force-compile-all (§4.3).
pub fn traditional(seed: &Program, vm: &VmConfig) -> BaselineOutcome {
    traditional_compiled(&compile_checked(seed), vm)
}

/// [`traditional`] for a seed that is already compiled — the campaign
/// driver compiles each seed once and shares the bytecode between
/// validation and this baseline.
pub fn traditional_compiled(bytecode: &BProgram, vm: &VmConfig) -> BaselineOutcome {
    let default_run = Vm::run_program(bytecode, vm.clone());
    // The forced run is the VM under test with every call compiled: its
    // budgets, tiers and oracle modes are the default run's.
    let forced = vm.clone().with_plan(ForcedPlan::all(vm.top_tier()));
    let forced_run = Vm::run_program(bytecode, forced);
    // Resource-exhausted runs are discarded, mirroring the paper's cutoff.
    if default_run.outcome.is_resource_exhausted() || forced_run.outcome.is_resource_exhausted() {
        return BaselineOutcome { discrepancy: false, culprit: None, vm_invocations: 2 };
    }
    let discrepancy = default_run.observable() != forced_run.observable();
    let culprit = match (&default_run.outcome, &forced_run.outcome) {
        (_, Outcome::Crash(info)) | (Outcome::Crash(info), _) => Some(info.bug),
        _ => None,
    };
    BaselineOutcome { discrepancy, culprit, vm_invocations: 2 }
}

/// JOpFuzzer-style option fuzzing: `option_sets` random threshold
/// configurations, outputs cross-compared against the default run.
pub fn option_fuzz(
    seed: &Program,
    vm: &VmConfig,
    option_sets: usize,
    rng_seed: u64,
) -> BaselineOutcome {
    let bytecode = compile_checked(seed);
    let mut rng = Rng64::seed_from_u64(rng_seed);
    let reference = Vm::run_program(&bytecode, vm.clone());
    let mut vm_invocations = 1;
    if reference.outcome.is_resource_exhausted() {
        return BaselineOutcome { discrepancy: false, culprit: None, vm_invocations };
    }
    for _ in 0..option_sets {
        let mut config = vm.clone();
        for tier in &mut config.tiers {
            // Scale each threshold by a random factor in [1/16, 4].
            let num = rng.gen_range(1..=64u64);
            tier.invocations = (tier.invocations * num / 16).max(1);
            let num = rng.gen_range(1..=64u64);
            tier.backedge = (tier.backedge * num / 16).max(1);
        }
        let run = Vm::run_program(&bytecode, config);
        vm_invocations += 1;
        if run.outcome.is_resource_exhausted() {
            continue;
        }
        if run.observable() != reference.observable() {
            let culprit = match &run.outcome {
                Outcome::Crash(info) => Some(info.bug),
                _ => None,
            };
            return BaselineOutcome { discrepancy: true, culprit, vm_invocations };
        }
    }
    BaselineOutcome { discrepancy: false, culprit: None, vm_invocations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_silent_on_correct_vm() {
        for seed_value in 0..4u64 {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let vm = VmConfig::correct(VmKind::HotSpotLike);
            let outcome = traditional(&seed, &vm);
            assert!(!outcome.discrepancy, "seed {seed_value}: false positive");
            assert_eq!(outcome.vm_invocations, 2);
        }
    }

    /// The forced run must use the VM under test, not a profile default:
    /// recursion deeper than the default call depth but within the
    /// configured one is no discrepancy.
    #[test]
    fn traditional_forced_run_keeps_the_vm_under_test() {
        let seed = cse_lang::parse_and_check(
            "class T { static int down(int n) { if (n == 0) { return 0; } \
             return down(n - 1) + 1; } \
             static void main() { println(down(200)); } }",
        )
        .unwrap();
        let mut vm = VmConfig::correct(VmKind::HotSpotLike);
        vm.max_call_depth = 1000;
        let outcome = traditional(&seed, &vm);
        assert!(!outcome.discrepancy, "false positive on a correct VM");
    }

    #[test]
    fn option_fuzz_silent_on_correct_vm() {
        for seed_value in 0..3u64 {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let vm = VmConfig::correct(VmKind::OpenJ9Like);
            let outcome = option_fuzz(&seed, &vm, 4, seed_value);
            assert!(!outcome.discrepancy, "seed {seed_value}: false positive");
        }
    }

    #[test]
    fn option_fuzz_is_deterministic() {
        let seed = cse_fuzz::generate(9, &cse_fuzz::FuzzConfig::default());
        let vm = VmConfig::for_kind(VmKind::OpenJ9Like);
        let a = option_fuzz(&seed, &vm, 4, 123);
        let b = option_fuzz(&seed, &vm, 4, 123);
        assert_eq!(a.discrepancy, b.discrepancy);
        assert_eq!(a.vm_invocations, b.vm_invocations);
    }
}
