//! Mutants as edits of their seed: a JoNM mutant shares every method body
//! it does not edit with its seed, and the per-method digests a VM computes
//! on first use equal the all-at-once ones.
//!
//! Both run fuzzer seeds 0–39 through [`Artemis`] with each profile's
//! [`SynthParams`], 8 JoNM iterations per seed, the way
//! `tests/mutant_pipeline_pins.rs` derives its mutants.

use std::rc::Rc;

use artemis_cse::bytecode::{BProgram, LazyDigests, ProgramDigests};
use artemis_cse::core::mutate::Artemis;
use artemis_cse::core::synth::SynthParams;
use artemis_cse::core::validate::{try_compile_checked, try_compile_checked_mut};
use artemis_cse::lang::Program;
use artemis_cse::vm::VmKind;

/// Seeds fed through the fuzzer and JoNM per profile.
const SEEDS: std::ops::Range<u64> = 0..40;
/// JoNM iterations per seed (the paper's `MAX_ITER`).
const ITERATIONS: usize = 8;
const KINDS: [VmKind; 3] = [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike];

/// Calls `f` with every mutant that carries a mutation, and its seed, for
/// every profile.
fn for_each_mutant(mut f: impl FnMut(&str, &Program, Program)) {
    let fuzz = artemis_cse::fuzz::FuzzConfig::default();
    let seeds: Vec<Program> = SEEDS.map(|seed| artemis_cse::fuzz::generate(seed, &fuzz)).collect();
    for kind in KINDS {
        for (seed, program) in SEEDS.zip(&seeds) {
            let mut artemis = Artemis::new(seed, SynthParams::for_kind(kind));
            for iteration in 0..ITERATIONS {
                let (mutant, mutations) = artemis.jonm(program);
                if !mutations.is_empty() {
                    f(&format!("{kind:?} seed {seed} i{iteration}"), program, mutant);
                }
            }
        }
    }
}

/// Counts the mutant's method bodies that are shared with the seed and
/// those it edited, asserting that a body is shared exactly when it is
/// unedited.
fn shared_and_edited(what: &str, seed: &Program, mutant: &Program) -> (usize, usize) {
    let (mut shared, mut edited) = (0, 0);
    for (seed_class, class) in seed.classes.iter().zip(&mutant.classes) {
        for (seed_method, method) in seed_class.methods.iter().zip(&class.methods) {
            let same = Rc::ptr_eq(&seed_method.body, &method.body);
            let unedited = seed_method.body == method.body;
            assert_eq!(same, unedited, "{what}: {}.{} shared={same}", class.name, method.name);
            if same {
                shared += 1;
            } else {
                edited += 1;
            }
        }
    }
    (shared, edited)
}

/// Every method body a mutant left unedited is the seed's body, pointer
/// for pointer, and every edited body is its own; both still hold after
/// the front end resolves the mutant in place.
#[test]
fn jonm_shares_the_bodies_it_does_not_edit() {
    let (mut shared, mut edited) = (0, 0);
    for_each_mutant(|what, seed, mut mutant| {
        let before = shared_and_edited(what, seed, &mutant);
        try_compile_checked_mut(&mut mutant).expect("mutants compile");
        let after = shared_and_edited(&format!("{what}, resolved"), seed, &mutant);
        assert_eq!(before, after, "{what}: resolving changed what is shared");
        shared += after.0;
        edited += after.1;
    });
    // Calibration: JoNM edits some methods and leaves others alone.
    assert!(shared > 0 && edited > 0, "shared {shared}, edited {edited}");
}

/// Asserts that every method key and unit digest of `program`, asked for
/// in reverse order through [`LazyDigests`] (units first, so a unit
/// computes its members' keys), equals [`ProgramDigests::compute`].
fn assert_lazy_digests_match(what: &str, program: &BProgram) {
    let eager = ProgramDigests::compute(program);
    let lazy = LazyDigests::new(program);
    for idx in (0..program.methods.len()).rev() {
        assert_eq!(lazy.unit(program, idx), eager.units[idx], "{what}: unit of m{idx}");
    }
    for idx in (0..program.methods.len()).rev() {
        let key = lazy.method_key(program, idx);
        assert_eq!(key, eager.methods[idx].key(), "{what}: key of m{idx}");
    }
}

/// The digests a VM computes on first use equal the all-at-once ones, on
/// every seed and every mutant.
#[test]
fn lazy_digests_equal_the_all_at_once_ones() {
    let fuzz = artemis_cse::fuzz::FuzzConfig::default();
    for seed in SEEDS {
        let program = try_compile_checked(&artemis_cse::fuzz::generate(seed, &fuzz)).expect("seed");
        assert_lazy_digests_match(&format!("seed {seed}"), &program);
    }
    let mut mutants = 0;
    for_each_mutant(|what, _, mut mutant| {
        assert_lazy_digests_match(what, &try_compile_checked_mut(&mut mutant).expect("mutant"));
        mutants += 1;
    });
    assert!(mutants > 0, "calibration: no mutant carried a mutation");
}
