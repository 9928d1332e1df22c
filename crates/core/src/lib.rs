//! Compilation Space Exploration (CSE) and the Artemis/JoNM mutators —
//! the primary contribution of *"Validating JIT Compilers via Compilation
//! Space Exploration"* (SOSP '23), reproduced on the `cse-vm` substrate.
//!
//! * [`space`] — the formal backbone: temperatures, JIT-traces, and
//!   exhaustive compilation-space enumeration (Definitions 3.1–3.3,
//!   Figure 1).
//! * [`synth`] / [`skeleton`] — loop/expression/statement synthesis
//!   (Algorithm 2, Figure 3) over a statement-skeleton corpus.
//! * [`mutate`] — JIT-op neutral mutation with the LI/SW/MI mutators
//!   (§3.3–3.4, Algorithm 1's `JoNM`).
//! * [`validate`] — the `Validate` driver and metamorphic oracle
//!   (Algorithm 1), plus ground-truth bug attribution.
//! * [`baseline`] — the traditional (`count=0`) and option-fuzzing
//!   baselines (§3.2, §4.3).
//! * [`campaign`] — multi-seed fuzzing campaigns with Table 1/2-style
//!   aggregation.
//! * [`coverage`] — JIT-behavior coverage feedback: merged coverage
//!   maps, the minimized live corpus, and the deterministic round
//!   scheduler behind `CSE_COVERAGE=guide`.
//! * [`executor`] — the one campaign engine behind
//!   `CampaignConfig::jobs`: the calling thread processes seeds beside
//!   `jobs - 1` helpers and merges them in seed order.
//! * [`supervisor`] — crash isolation for long campaigns: harness
//!   incidents, checkpoint/resume, and quarantine of crashing inputs.
//! * [`triage`] — automated incident triage: in-campaign reduction,
//!   signature-based dedup, and flakiness re-execution under the VM's
//!   deterministic resource budgets.
//!
//! # Examples
//!
//! ```
//! use cse_core::mutate::Artemis;
//! use cse_core::synth::SynthParams;
//! use cse_vm::VmKind;
//!
//! let seed = cse_fuzz::generate(1, &cse_fuzz::FuzzConfig::default());
//! let mut artemis = Artemis::new(7, SynthParams::for_kind(VmKind::HotSpotLike));
//! let (mutant, applied) = artemis.jonm(&seed);
//! // The mutant is a valid program (and, by construction, semantics-
//! // preserving — the crate's tests check that against the interpreter).
//! let mut checked = mutant.clone();
//! cse_lang::typeck::check(&mut checked).unwrap();
//! assert!(applied.len() <= seed.method_count());
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod campaign;
pub mod coverage;
pub mod executor;
pub mod mutate;
pub mod skeleton;
pub mod space;
pub mod supervisor;
pub mod synth;
pub mod triage;
pub mod validate;

pub use coverage::{CoverageMode, CoveragePolicy, CoverageState, PlanVariant};
pub use mutate::{AppliedMutation, Artemis, Mutator};
pub use supervisor::{ChaosConfig, HarnessIncident, IncidentPhase, SupervisorConfig};
pub use synth::SynthParams;
pub use triage::{
    shrink_plan, signature_of, triage_campaign, triage_incidents, BugSignature, OracleKind,
    TriageConfig, TriageReport, TriagedReport, Verdict,
};
pub use validate::{Discrepancy, DiscrepancyKind, ValidateConfig, ValidationOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use cse_vm::{Outcome, Vm, VmConfig, VmKind};

    /// Neutrality — the heart of JoNM (§3.3): a mutant must behave exactly
    /// like its seed under the reference interpreter.
    #[test]
    fn mutants_are_semantics_preserving() {
        let fuzz = cse_fuzz::FuzzConfig::default();
        let mut checked_mutants = 0;
        for seed_value in 0..12u64 {
            let seed = cse_fuzz::generate(seed_value, &fuzz);
            let seed_bc = validate::compile_checked(&seed);
            let seed_run =
                Vm::run_program(&seed_bc, VmConfig::interpreter_only(VmKind::HotSpotLike));
            let mut artemis =
                Artemis::new(seed_value * 31 + 7, SynthParams::for_kind(VmKind::HotSpotLike));
            for _ in 0..3 {
                let (mutant, applied) = artemis.jonm(&seed);
                if applied.is_empty() {
                    continue;
                }
                let mutant_bc = validate::compile_checked(&mutant);
                let mutant_run =
                    Vm::run_program(&mutant_bc, VmConfig::interpreter_only(VmKind::HotSpotLike));
                // Over-heavy mutants are discarded, mirroring the paper's
                // two-minute cutoff (§4.3); every finishing mutant must
                // agree with its seed exactly.
                if matches!(mutant_run.outcome, Outcome::Timeout) {
                    continue;
                }
                assert_eq!(
                    mutant_run.observable(),
                    seed_run.observable(),
                    "non-neutral mutation (seed {seed_value}, {applied:?}):\n{}",
                    cse_lang::pretty::print(&mutant),
                );
                checked_mutants += 1;
            }
        }
        assert!(checked_mutants >= 20, "only {checked_mutants} mutants exercised");
    }

    /// Mutants must actually *heat up* the VM — the point of JoNM is to
    /// trigger JIT compilation that the cold seed never reaches.
    #[test]
    fn mutants_trigger_jit_compilation() {
        let fuzz = cse_fuzz::FuzzConfig::default();
        let mut heated = 0;
        let mut total = 0;
        for seed_value in 0..10u64 {
            let seed = cse_fuzz::generate(seed_value, &fuzz);
            let mut artemis = Artemis::new(seed_value, SynthParams::for_kind(VmKind::HotSpotLike));
            // The paper runs MAX_ITER mutants per seed precisely because a
            // single mutation can land in code the seed never executes.
            for _ in 0..3 {
                let (mutant, applied) = artemis.jonm(&seed);
                if applied.is_empty() {
                    continue;
                }
                let bc = validate::compile_checked(&mutant);
                let run = Vm::run_program(&bc, VmConfig::correct(VmKind::HotSpotLike));
                // Over-heavy mutants are discarded (the paper's cutoff).
                if matches!(run.outcome, Outcome::Timeout) {
                    continue;
                }
                total += 1;
                if run.stats.compilations + run.stats.osr_compilations > 0 {
                    heated += 1;
                }
            }
        }
        assert!(heated * 2 >= total, "only {heated}/{total} mutants reached the JIT");
    }

    /// Mutants under correct VMs agree across all engines (no injected
    /// bugs → no discrepancies, ever).
    #[test]
    fn correct_vm_never_reports_discrepancies() {
        let fuzz = cse_fuzz::FuzzConfig::default();
        for seed_value in 0..6u64 {
            let seed = cse_fuzz::generate(seed_value, &fuzz);
            let config = ValidateConfig {
                max_iter: 3,
                ..ValidateConfig::paper_defaults(VmConfig::correct(VmKind::HotSpotLike))
            };
            let outcome = validate::validate(&seed, &config, seed_value);
            assert_eq!(outcome.neutrality_violations, 0, "seed {seed_value}");
            assert!(
                outcome.discrepancies.is_empty(),
                "false positive on a correct VM (seed {seed_value}): {:?}",
                outcome.discrepancies[0].kind
            );
        }
    }

    #[test]
    fn jonm_is_deterministic() {
        let seed = cse_fuzz::generate(3, &cse_fuzz::FuzzConfig::default());
        let params = SynthParams::for_kind(VmKind::OpenJ9Like);
        let (a, _) = Artemis::new(99, params.clone()).jonm(&seed);
        let (b, _) = Artemis::new(99, params).jonm(&seed);
        assert_eq!(a, b);
    }

    #[test]
    fn mutator_restriction_is_honored() {
        let seed = cse_fuzz::generate(5, &cse_fuzz::FuzzConfig::default());
        let mut artemis = Artemis::new(1, SynthParams::for_kind(VmKind::HotSpotLike));
        artemis.enabled = vec![Mutator::Li];
        let (_, applied) = artemis.jonm(&seed);
        assert!(applied.iter().all(|a| a.mutator == Mutator::Li));
    }
}
