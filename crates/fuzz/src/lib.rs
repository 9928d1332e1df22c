//! Random, type-correct, terminating MiniJava seed programs — the
//! JavaFuzzer analog (paper §4.1).
//!
//! Matching the shapes the paper relies on:
//!
//! * programs are *complex* (nested loops, switches with fall-through,
//!   field traffic, byte arithmetic, arrays, try/catch), giving JoNM rich
//!   mutation opportunities;
//! * loops are *short* — "existing LVM testing techniques like JavaFuzzer
//!   intentionally try to avoid lengthy loops" (§2.2) — so seeds rarely
//!   reach any JIT threshold on their own, which is exactly the blind spot
//!   CSE exploits;
//! * every generated program is valid by construction (the crate tests
//!   re-check each one), terminates (all loops are bounded counters, the
//!   call graph is acyclic), and ends by printing a field checksum.
//!
//! # Examples
//!
//! ```
//! use cse_fuzz::{FuzzConfig, generate};
//!
//! let program = generate(42, &FuzzConfig::default());
//! // Generated programs always pass the front end.
//! let printed = cse_lang::pretty::print(&program);
//! cse_lang::parse_and_check(&printed).unwrap();
//! ```

#![forbid(unsafe_code)]

mod gen;

pub use gen::{generate, FuzzConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use cse_vm::{Outcome, Vm, VmConfig, VmKind};

    #[test]
    fn seeds_are_valid_and_round_trip() {
        for seed in 0..60 {
            let program = generate(seed, &FuzzConfig::default());
            let printed = cse_lang::pretty::print(&program);
            let reparsed = cse_lang::parse_and_check(&printed)
                .unwrap_or_else(|e| panic!("seed {seed} invalid: {e}\n---\n{printed}"));
            assert_eq!(program, reparsed, "print/parse must round-trip (seed {seed})");
        }
    }

    #[test]
    fn seeds_compile_verify_and_terminate() {
        for seed in 0..40 {
            let program = generate(seed, &FuzzConfig::default());
            let compiled = cse_bytecode::compile(&program).unwrap();
            cse_bytecode::verify::verify_program(&compiled)
                .unwrap_or_else(|e| panic!("seed {seed} failed verification: {e}"));
            let result =
                Vm::run_program(&compiled, VmConfig::interpreter_only(VmKind::HotSpotLike));
            assert!(
                matches!(result.outcome, Outcome::Completed { .. }),
                "seed {seed} did not complete: {:?}",
                result.outcome
            );
            assert!(!result.output.is_empty(), "seed {seed} printed no checksum");
        }
    }

    /// Folds the printed programs of seeds 0–299 into one FNV-1a hash.
    /// A change that only makes the generator cheaper must not move it:
    /// every campaign, pin and benchmark starts from these programs.
    #[test]
    fn printed_programs_match_the_pin() {
        let mut hash = cse_bytecode::Fnv::new();
        for seed in 0..300 {
            hash.str(&cse_lang::pretty::print(&generate(seed, &FuzzConfig::default())));
        }
        assert_eq!(hash.finish(), 0x6be4_b88d_3258_f46a, "printed programs of seeds 0-299 moved");
    }

    /// The generator writes every name resolved, so the front end checks
    /// its programs without copying them.
    #[test]
    fn seeds_hold_no_bare_names() {
        for seed in 0..60 {
            let program = generate(seed, &FuzzConfig::default());
            assert!(
                matches!(cse_lang::typeck::checked(&program), Ok(std::borrow::Cow::Borrowed(_))),
                "seed {seed} needs name resolution"
            );
        }
    }

    #[test]
    fn seeds_are_deterministic_and_diverse() {
        let a = generate(7, &FuzzConfig::default());
        let b = generate(7, &FuzzConfig::default());
        assert_eq!(a, b, "same seed, same program");
        let c = generate(8, &FuzzConfig::default());
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn seeds_rarely_reach_jit_thresholds() {
        // The JavaFuzzer property the paper leans on: cold seeds. A few
        // may warm into the quick tier, but the optimizing tier — where
        // the deep bugs live — must stay out of reach for most seeds.
        let mut top_tier_runs = 0;
        let total = 30;
        for seed in 0..total {
            let program = generate(seed, &FuzzConfig::default());
            let bprog = cse_bytecode::compile(&program).unwrap();
            let result = Vm::run_program(&bprog, VmConfig::correct(VmKind::HotSpotLike));
            let reached_top = result.events.iter().any(|e| {
                matches!(
                    e,
                    cse_vm::TraceEvent::Compiled { tier, .. } if tier.0 >= 2
                )
            });
            if reached_top {
                top_tier_runs += 1;
            }
        }
        assert!(
            top_tier_runs * 4 < total,
            "{top_tier_runs}/{total} seeds reached the optimizing tier — seeds are too hot"
        );
    }

    #[test]
    fn interpreter_and_jit_agree_on_seeds_without_bugs() {
        // Substrate soundness over random programs (not just hand-written
        // tests): fuzzed seeds must behave identically in every mode.
        for seed in 100..130 {
            let program = generate(seed, &FuzzConfig::default());
            let bprog = cse_bytecode::compile(&program).unwrap();
            let reference =
                Vm::run_program(&bprog, VmConfig::interpreter_only(VmKind::HotSpotLike));
            for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
                let jit = Vm::run_program(
                    &bprog,
                    VmConfig::force_compile_all(kind).with_faults(Default::default()),
                );
                assert_eq!(
                    jit.observable(),
                    reference.observable(),
                    "seed {seed} diverged under force-compile-all {kind}"
                );
            }
        }
    }
}
