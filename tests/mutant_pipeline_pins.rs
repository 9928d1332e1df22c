//! Mutant-pipeline pins: a change to JoNM or to the mutant front end
//! (type checker, lowering, bytecode verifier, content digests) that
//! alters what a campaign would run moves one of these hashes.
//!
//! For each VM profile, fuzzer seeds 0–39 and [`SCOPES`] each get an
//! [`Artemis`] engine seeded with the program's seed and the profile's
//! [`SynthParams`], which derives 8 JoNM mutants, as Algorithm 1 does
//! with `MAX_ITER = 8`. Each
//! mutant's printed source, the `Debug` form of its checked, compiled
//! and verified `BProgram` (or the front end's failure message), and
//! every method's [`MethodDigest::key`](artemis_cse::bytecode::MethodDigest::key)
//! are folded into one FNV-1a hash per profile. Refactors that only make
//! the pipeline cheaper must leave all three pins where they are.

use artemis_cse::bytecode::{Fnv, ProgramDigests};
use artemis_cse::core::mutate::Artemis;
use artemis_cse::core::synth::SynthParams;
use artemis_cse::core::validate::try_compile_checked_mut;
use artemis_cse::vm::VmKind;

/// Seeds fed through the fuzzer and JoNM per profile.
const SEEDS: std::ops::Range<u64> = 0..40;
/// A program whose sibling scopes reuse local names with other types,
/// mutated with the seed after [`SEEDS`]. The fuzzer and JoNM give every
/// local of a method a fresh name, so without it no pinned program tells
/// the front end's scope rules apart: a closed scope's locals must be
/// gone, and a use must resolve to the declaration in scope.
const SCOPES: &str = r#"
class S {
    int acc;
    static long mix(int n) {
        long out = 0L;
        for (int i = 0; i < n; i++) { out += i; }
        for (int i = n; i > 0; i--) { long w = i * 3L; out += w; }
        if (n > 2) { int w = n * 2; out += w; } else { long w = 7L; out -= w; }
        switch (n % 3) {
            case 0: int k = n; out += k; break;
            case 1: long k = 5L; out += k; break;
            default: boolean k = n > 4; if (k) { out += 1L; }
        }
        { String s = "n=" + n; println(s); }
        int s = n + 1;
        out += s;
        return out;
    }
    int scale(int v) {
        { int t = v * 2; acc += t; }
        { long t = 3L; acc += (int) t; }
        int t = acc - v;
        return t;
    }
    static void main() {
        S o = new S();
        for (int r = 0; r < 4; r++) {
            println(mix(r));
            println(o.scale(r));
        }
    }
}
"#;
/// JoNM iterations per seed (the paper's `MAX_ITER`).
const ITERATIONS: usize = 8;

/// Hash of every mutant the profile's engine derives over [`SEEDS`] and
/// [`SCOPES`], the number of mutants that carried at least one mutation,
/// and the number that failed the front end.
fn pipeline_pin(kind: VmKind) -> (u64, usize, usize) {
    let mut hash = Fnv::new();
    let (mut mutated, mut failed) = (0, 0);
    let fuzz = artemis_cse::fuzz::FuzzConfig::default();
    let programs = SEEDS
        .map(|seed| (seed, artemis_cse::fuzz::generate(seed, &fuzz)))
        .chain([(SEEDS.end, artemis_cse::lang::parse_and_check(SCOPES).expect("SCOPES checks"))]);
    for (seed, program) in programs {
        let mut artemis = Artemis::new(seed, SynthParams::for_kind(kind));
        for iteration in 0..ITERATIONS {
            let (mut mutant, mutations) = artemis.jonm(&program);
            mutated += usize::from(!mutations.is_empty());
            hash.raw(
                format!("seed {seed} i{iteration} {} mutations\n", mutations.len()).as_bytes(),
            );
            hash.raw(artemis_cse::lang::pretty::print(&mutant).as_bytes());
            match try_compile_checked_mut(&mut mutant) {
                Ok(bytecode) => {
                    hash.raw(format!("{bytecode:?}").as_bytes());
                    for digest in &ProgramDigests::compute(&bytecode).methods {
                        hash.u64(digest.key());
                    }
                }
                Err(message) => {
                    failed += 1;
                    hash.raw(format!("front end: {message}\n").as_bytes());
                }
            }
        }
    }
    (hash.finish(), mutated, failed)
}

#[test]
fn mutant_pipeline_matches_the_pins() {
    // A change that moves a pin changed a mutant, its bytecode or its
    // cache keys.
    let pins = [
        (VmKind::HotSpotLike, 0x2e3f_ca03_7252_5cde, 306),
        (VmKind::OpenJ9Like, 0xa9b4_e22f_4694_059a, 306),
        (VmKind::ArtLike, 0x3a59_e9f8_8dfe_4aa3, 306),
    ];
    let actual: Vec<(u64, usize, usize)> =
        pins.iter().map(|&(kind, _, _)| pipeline_pin(kind)).collect();
    for (&(kind, _, _), &(hash, mutated, failed)) in pins.iter().zip(&actual) {
        println!(
            "{kind}: {hash:#018x} over {mutated} mutated programs, {failed} front-end failures"
        );
    }
    for (&(kind, pin, pinned_mutated), &(hash, mutated, failed)) in pins.iter().zip(&actual) {
        assert_eq!(failed, 0, "{kind}: JoNM mutants must pass the front end");
        assert_eq!(mutated, pinned_mutated, "{kind}: mutated-program count moved");
        assert_eq!(hash, pin, "{kind}: mutant pipeline output moved (got {hash:#018x})");
    }
}
