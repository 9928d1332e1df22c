//! Seed-scoped, content-addressed artifact cache.
//!
//! A [`Vm`](crate::Vm) already memoizes compiled code *within* one run.
//! But validating one seed executes a **family of near-identical
//! programs**: every JoNM mutant differs from its seed in exactly one
//! method, and attribution reruns repeat a mutant under ablated fault
//! sets, so a per-run cache re-compiles and re-decodes the same methods
//! over and over. [`SharedArtifactCache`] is the program-*agnostic*
//! replacement: the campaign executor creates one cache per seed and
//! drops it with the seed, and every program of that seed attaches to
//! it, keyed by the content digests of [`cse_bytecode::digest`] so any
//! two programs share artifacts exactly when a fresh compilation could
//! not tell them apart. Scoping the cache to one seed bounds its memory
//! by one seed's working set and makes its hit pattern a function of the
//! seed alone, independent of `jobs` and of which seeds ran before.
//!
//! It caches three artifact kinds:
//!
//! * **Compiled IR** (and injected compile-time crashes), keyed by
//!   [`ArtifactKey`]: the root method's *compilation-unit digest* (its
//!   static call closure to [`cse_bytecode::digest::INLINE_CLOSURE_DEPTH`]
//!   — everything the inliner can read) plus the coordinates
//!   `(tier, osr, speculate, has_osr_code, profile_fp, env_fp)`.
//! * **Decoded methods** ([`DecodedMethod`]), keyed by the method digest.
//! * **Whole decoded programs**, keyed by the whole-program digest.
//!
//! # Soundness
//!
//! A cache hit must be indistinguishable from a fresh compilation — not
//! just in the returned code, but in every *observable side effect* of
//! compiling, because the hit/miss pattern of a run depends on which
//! programs of the seed ran earlier:
//!
//! * The compiled IR itself: every compile input is part of the key.
//!   `jit::compile` is a pure function of the compilation unit's code
//!   (unit digest; the digest's *linkage* layer also pins the numeric
//!   `MethodId`/`StrId`/`ClassId` operands the IR embeds), the root
//!   profile fingerprint (all profile reads in the JIT are root-method
//!   reads), the compile-mode flags, and the environment fingerprint
//!   (VM kind, inline budget, fault set, IR-verify mode).
//! * Oracle defects: IR-verifier and translation-validation reports are
//!   harvested at compile time, *stored with the entry and replayed on
//!   every hit*, so a hit bumps `ir_verify_defects` / `tv_defects` and
//!   appends the same rendered reports a fresh compile would. TV reports
//!   are shared `Rc<str>` text, so a replay copies a pointer, not the
//!   IR dumps.
//! * Injected compile-time crashes are cached as `Err` and re-raised.
//!
//! The VM still records the `Compiled` trace event and bumps
//! `stats.compilations` on a hit — the cache saves the *work*, never the
//! observable semantics.
//!
//! The cache is deliberately single-threaded (`Rc` + `RefCell`): a seed
//! runs on one worker thread, which keeps the hot path lock-free.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use cse_bytecode::{BProgram, DecodedMethod, DecodedProgram, ProgramDigests};

use crate::config::{Tier, VmConfig};
use crate::exec::CrashInfo;
use crate::jit::ir::IrFunc;
use crate::profile::Fnv;

/// Everything that distinguishes one compilation from another, across
/// arbitrary programs (see the module docs for the soundness argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ArtifactKey {
    /// `ProgramDigests::units[root]` — the content digest of the whole
    /// compilation unit (root + static call closure, both digest layers).
    pub unit: u64,
    pub tier: Tier,
    pub osr: Option<u32>,
    pub speculate: bool,
    pub has_osr_code: bool,
    /// `MethodProfile::compile_fingerprint` of the root method at compile
    /// time (the JIT reads no other method's profile).
    pub profile_fp: u64,
    /// [`SharedArtifactCache::env_fingerprint`] of the executing
    /// configuration.
    pub env_fp: u64,
}

/// One cached compilation: the outcome plus every observable side effect
/// of compiling, so hits can replay what a fresh compile would have done.
#[derive(Clone)]
pub(crate) struct CachedCompile {
    /// Rendered IR-verifier defect reports harvested during this
    /// compilation (compile crashes can still report defects first).
    pub defects: Rc<Vec<String>>,
    /// Rendered translation-validation reports (one per failing check),
    /// replayed on hits like `defects` but shared rather than copied.
    pub tv: Vec<Rc<str>>,
    /// Divergences across `tv` (what `stats.tv_defects` counts).
    pub tv_defects: u32,
    /// The compile's fired-bug mask (`CompileCtx::fired`), replayed into
    /// `stats.fired_bugs` on every hit.
    pub fired: u64,
    pub result: Result<Rc<IrFunc>, CrashInfo>,
}

/// The artifact cache of one seed; see the module docs. Create with
/// [`SharedArtifactCache::new`], then attach to programs via
/// [`SharedArtifactCache::attach`].
pub struct SharedArtifactCache {
    code: RefCell<HashMap<ArtifactKey, CachedCompile>>,
    /// Decoded method bodies, keyed by `MethodDigest::key()` (a decoded
    /// body is a pure re-layout of the code, which the digest pins).
    decoded_methods: RefCell<HashMap<u64, Rc<DecodedMethod>>>,
    /// Fully-assembled decoded programs, keyed by the whole-program
    /// digest.
    decoded_programs: RefCell<HashMap<u64, Rc<DecodedProgram>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl SharedArtifactCache {
    /// An empty cache.
    pub fn new() -> Rc<SharedArtifactCache> {
        Rc::new(SharedArtifactCache {
            code: RefCell::new(HashMap::new()),
            decoded_methods: RefCell::new(HashMap::new()),
            decoded_programs: RefCell::new(HashMap::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
        })
    }

    /// Binds this cache to one program: computes the program's content
    /// digests and assembles its decoded form, sharing per-method decoded
    /// bodies (and whole decoded programs) with every program this cache
    /// has seen before.
    pub fn attach(self: &Rc<Self>, program: &BProgram) -> ProgramArtifacts {
        let digests = Rc::new(ProgramDigests::compute(program));
        let decoded = self.decoded_program(program, &digests);
        ProgramArtifacts { cache: self.clone(), digests, decoded }
    }

    /// Fingerprint of the compilation-relevant configuration facets: VM
    /// kind, inline budget, the active fault set (buggy passes compile
    /// *differently* when their bug is seeded), and the IR-verify and
    /// translation-validation modes (cached entries replay harvested
    /// defects, so entries compiled with a checker off must not serve a
    /// checking config).
    pub(crate) fn env_fingerprint(config: &VmConfig) -> u64 {
        let mut fp = Fnv::new();
        fp.u64(config.kind as u64);
        fp.u64(config.inline_limit as u64);
        fp.u64(config.faults.fingerprint());
        fp.u64(config.verify_ir as u64);
        fp.u64(config.tv as u64);
        fp.u64(u64::from(config.coverage));
        fp.finish()
    }

    fn decoded_program(&self, program: &BProgram, digests: &ProgramDigests) -> Rc<DecodedProgram> {
        if let Some(found) = self.decoded_programs.borrow().get(&digests.program) {
            return found.clone();
        }
        let mut methods_cache = self.decoded_methods.borrow_mut();
        let methods = program
            .methods
            .iter()
            .zip(&digests.methods)
            .map(|(method, digest)| {
                methods_cache
                    .entry(digest.key())
                    .or_insert_with(|| Rc::new(DecodedMethod::decode(&method.code)))
                    .clone()
            })
            .collect();
        drop(methods_cache);
        let decoded = Rc::new(DecodedProgram {
            methods,
            strings: program.strings.iter().map(|s| Rc::new(s.clone())).collect(),
        });
        self.decoded_programs.borrow_mut().insert(digests.program, decoded.clone());
        decoded
    }

    pub(crate) fn lookup(&self, key: &ArtifactKey) -> Option<CachedCompile> {
        let entry = self.code.borrow().get(key).cloned();
        match &entry {
            Some(_) => self.hits.set(self.hits.get() + 1),
            None => self.misses.set(self.misses.get() + 1),
        }
        entry
    }

    pub(crate) fn insert(&self, key: ArtifactKey, value: CachedCompile) {
        self.code.borrow_mut().insert(key, value);
    }

    /// Cached compilations (successful and crashing).
    pub fn len(&self) -> usize {
        self.code.borrow().len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.code.borrow().is_empty()
    }

    /// `(hits, misses)` over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

/// One program bound to a [`SharedArtifactCache`]: the cache handle, the
/// program's content digests, and its (shared) decoded form. Cheap to
/// clone; everything inside is refcounted.
#[derive(Clone)]
pub struct ProgramArtifacts {
    pub(crate) cache: Rc<SharedArtifactCache>,
    /// The program's content digests (the cache keys).
    pub(crate) digests: Rc<ProgramDigests>,
    pub(crate) decoded: Rc<DecodedProgram>,
}

impl ProgramArtifacts {
    /// Convenience: a fresh single-program cache, for callers that only
    /// ever run one program (tests, examples). Campaign code creates one
    /// [`SharedArtifactCache`] per seed and `attach`es each of the seed's
    /// programs to it.
    pub fn for_program(program: &BProgram) -> ProgramArtifacts {
        SharedArtifactCache::new().attach(program)
    }

    /// The cache this program is bound to.
    pub fn cache(&self) -> &Rc<SharedArtifactCache> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Vm, VmConfig, VmKind};

    fn compile(source: &str) -> BProgram {
        let program = cse_lang::parse_and_check(source).unwrap();
        cse_bytecode::compile(&program).unwrap()
    }

    const HOT: &str = r#"
    class T {
        static int f(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) { acc += i; }
            return acc;
        }
        static void main() {
            int total = 0;
            for (int i = 0; i < 3000; i++) { total = f(100); }
            println(total);
        }
    }
    "#;

    #[test]
    fn cached_runs_are_observably_identical() {
        let program = compile(HOT);
        let config = VmConfig::for_kind(VmKind::HotSpotLike);
        let plain = Vm::run_program(&program, config.clone());
        let artifacts = ProgramArtifacts::for_program(&program);
        let first = Vm::run_program_cached(&program, config.clone(), &artifacts);
        let second = Vm::run_program_cached(&program, config, &artifacts);
        assert_eq!(plain.observable(), first.observable());
        assert_eq!(plain.observable(), second.observable());
        assert_eq!(plain.output, second.output);
        assert_eq!(plain.events, first.events);
        assert_eq!(plain.events, second.events);
        assert_eq!(plain.stats.compilations, second.stats.compilations);
    }

    #[test]
    fn second_run_hits_the_cache() {
        let program = compile(HOT);
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let artifacts = ProgramArtifacts::for_program(&program);
        let first = Vm::run_program_cached(&program, config.clone(), &artifacts);
        assert!(first.stats.compilations > 0, "calibration: HOT must trigger the JIT");
        assert_eq!(first.stats.code_cache_hits, 0, "an empty cache cannot hit");
        let (_, misses_after_first) = artifacts.cache().stats();
        assert!(misses_after_first > 0);
        let second = Vm::run_program_cached(&program, config, &artifacts);
        assert_eq!(
            second.stats.code_cache_hits,
            second.stats.compilations + second.stats.osr_compilations,
            "a deterministic re-run must be served entirely from the cache"
        );
        let (hits, _) = artifacts.cache().stats();
        assert!(hits >= second.stats.code_cache_hits as u64);
    }

    #[test]
    fn different_fault_sets_do_not_share_code() {
        use crate::faults::{BugId, FaultInjector};
        let program = compile(HOT);
        let shard = SharedArtifactCache::new();
        let artifacts = shard.attach(&program);
        let correct = VmConfig::correct(VmKind::HotSpotLike);
        let buggy = correct.clone().with_faults(FaultInjector::with([BugId::HsGcmStoreSink]));
        assert_ne!(
            SharedArtifactCache::env_fingerprint(&correct),
            SharedArtifactCache::env_fingerprint(&buggy)
        );
        let a = Vm::run_program_cached(&program, correct, &artifacts);
        let b = Vm::run_program_cached(&program, buggy, &artifacts);
        // The second config must not be served the first config's code.
        assert_eq!(b.stats.code_cache_hits, 0);
        assert!(a.outcome.is_completed() && b.outcome.is_completed());
    }

    #[test]
    fn mutants_share_unmutated_method_code() {
        // Two programs that differ in one method body: the unchanged hot
        // method's compilation must be served from the cache when the
        // second program runs.
        let seed = compile(HOT);
        let mutant = compile(&HOT.replace("total = f(100);", "total = f(100) + 1;"));
        let shard = SharedArtifactCache::new();
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let a = Vm::run_program_cached(&seed, config.clone(), &shard.attach(&seed));
        assert!(a.stats.compilations > 0);
        let b = Vm::run_program_cached(&mutant, config, &shard.attach(&mutant));
        assert!(
            b.stats.code_cache_hits > 0,
            "unmutated f must be shared across the mutant boundary: {:?}",
            b.stats
        );
    }

    #[test]
    fn decoded_methods_are_shared_across_programs() {
        let seed = compile(HOT);
        let mutant = compile(&HOT.replace("total = f(100);", "total = f(100) + 1;"));
        let shard = SharedArtifactCache::new();
        let a = shard.attach(&seed);
        let b = shard.attach(&mutant);
        let f = seed.find_method("T", "f").unwrap();
        let f_mut = mutant.find_method("T", "f").unwrap();
        assert!(
            Rc::ptr_eq(&a.decoded.methods[f.0 as usize], &b.decoded.methods[f_mut.0 as usize]),
            "unchanged method bodies must decode once per cache"
        );
        let main = seed.find_method("T", "main").unwrap();
        let main_mut = mutant.find_method("T", "main").unwrap();
        assert!(
            !Rc::ptr_eq(
                &a.decoded.methods[main.0 as usize],
                &b.decoded.methods[main_mut.0 as usize]
            ),
            "the mutated method must not be shared"
        );
        // Re-attaching an identical program shares the whole decoded form.
        let c = shard.attach(&seed);
        assert!(Rc::ptr_eq(&a.decoded, &c.decoded));
    }
}
