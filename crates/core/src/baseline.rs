//! The comparison baseline of §4.3, the **traditional approach**: treat
//! the JIT as a static compiler, run the seed once with the default
//! trace and once with every method force-compiled before its first call
//! (`-Xjit:count=0`), and compare (the paper's dexfuzz/Yoshikawa-style
//! baseline). Campaigns run it on every seed when
//! `CampaignConfig::run_traditional` is set.

use cse_bytecode::BProgram;
use cse_vm::{ForcedPlan, Vm, VmConfig};

/// The result of a baseline check on one seed.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Whether the baseline spotted a discrepancy on this seed.
    pub discrepancy: bool,
    pub vm_invocations: usize,
}

/// Traditional approach: default trace vs force-compile-all (§4.3), on
/// a compiled seed. The campaign driver compiles each seed once and
/// shares the bytecode between validation and this baseline.
pub fn traditional_compiled(bytecode: &BProgram, vm: &VmConfig) -> BaselineOutcome {
    let default_run = Vm::run_program(bytecode, vm.clone());
    // The forced run is the VM under test with every call compiled: its
    // budgets, tiers and oracle modes are the default run's.
    let forced = vm.clone().with_plan(ForcedPlan::all(vm.top_tier()));
    let forced_run = Vm::run_program(bytecode, forced);
    // Resource-exhausted runs are discarded, mirroring the paper's cutoff.
    if default_run.outcome.is_resource_exhausted() || forced_run.outcome.is_resource_exhausted() {
        return BaselineOutcome { discrepancy: false, vm_invocations: 2 };
    }
    let discrepancy = default_run.observable() != forced_run.observable();
    BaselineOutcome { discrepancy, vm_invocations: 2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::compile_checked;
    use cse_vm::VmKind;

    #[test]
    fn traditional_silent_on_correct_vm() {
        for seed_value in 0..4u64 {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let vm = VmConfig::correct(VmKind::HotSpotLike);
            let outcome = traditional_compiled(&compile_checked(&seed), &vm);
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
        let outcome = traditional_compiled(&compile_checked(&seed), &vm);
        assert!(!outcome.discrepancy, "false positive on a correct VM");
    }
}
