//! Seed-scoped, content-addressed cache of compiled code.
//!
//! A [`Vm`](crate::Vm) already memoizes compiled code *within* one run.
//! But validating one seed executes a **family of near-identical
//! programs**: every JoNM mutant differs from its seed in exactly one
//! method, and attribution reruns repeat a mutant under ablated fault
//! sets, so a per-run cache re-compiles the same methods over and over.
//! [`SharedArtifactCache`] is the program-*agnostic* replacement: the
//! campaign executor creates one cache per seed and drops it with the
//! seed, and every program of that seed attaches to it, keyed by the
//! content digests of [`cse_bytecode::digest`] so any two programs share
//! code exactly when a fresh compilation could not tell them apart.
//! Scoping the cache to one seed bounds its memory by one seed's working
//! set and makes its hit pattern a function of the seed alone,
//! independent of `jobs` and of which seeds ran before.
//!
//! The cache holds compiled IR (and injected compile-time crashes),
//! keyed by the root method's *compilation-unit digest* (its static call
//! closure to [`cse_bytecode::digest::INLINE_CLOSURE_DEPTH`] — everything
//! the inliner can read) plus the coordinates `(tier, osr, speculate,
//! has_osr_code, profile_fp, env_fp)`. Decoding is not cached across
//! programs: [`SharedArtifactCache::attach`] decodes its program once,
//! and every run of that program shares the result.
//!
//! Attaching computes nothing else. The cache keys (unit digests), the
//! method keys coverage features name, and the operand-stack depths the
//! IR builder and OSR checks read are per-method facts of the attached
//! program (`ProgramFacts`): each is computed the first time a run of
//! the program asks for it, and kept for every later run. A run compiles
//! a few methods of its program, so most facts are never computed.
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
//!   appends the same defect and divergence lines a fresh compile would.
//!   TV findings are shared `Rc<str>` text, so a replay copies a
//!   pointer.
//! * Injected compile-time crashes are cached as `Err` and re-raised.
//!
//! The VM still records the `Compiled` trace event and bumps
//! `stats.compilations` on a hit — the cache saves the *work*, never the
//! observable semantics.
//!
//! The cache is deliberately single-threaded (`Rc` + `RefCell`): a seed
//! runs on one worker thread, which keeps the hot path lock-free.

use std::cell::RefCell;
use std::rc::Rc;

use cse_bytecode::{BProgram, DecodedProgram, Fnv, LazyDigests};

use crate::config::{Tier, VmConfig};
use crate::exec::CrashInfo;
use crate::jit::hash::FastMap;
use crate::jit::ir::IrFunc;
use crate::jit::StackDepths;

/// Everything that distinguishes one compilation from another, across
/// arbitrary programs (see the module docs for the soundness argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ArtifactKey {
    /// `ProgramDigests::units[root]` (read through `LazyDigests::unit`) —
    /// the content digest of the whole compilation unit (root + static
    /// call closure, both digest layers).
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
    /// IR-verifier defect lines harvested during this compilation
    /// (compile crashes can still report defects first).
    pub defects: Rc<Vec<String>>,
    /// Translation-validation divergence lines, one entry per failing
    /// check (`TvReport::headers`), replayed on hits like `defects` but
    /// shared rather than copied.
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
    code: RefCell<FastMap<ArtifactKey, CachedCompile>>,
}

impl SharedArtifactCache {
    /// An empty cache.
    pub fn new() -> Rc<SharedArtifactCache> {
        Rc::new(SharedArtifactCache { code: RefCell::new(FastMap::default()) })
    }

    /// Binds this cache to one program: decodes it once for all its
    /// runs. The program's digests (the cache keys) and stack depths are
    /// left to be computed on first use (`ProgramFacts`).
    pub fn attach(self: &Rc<Self>, program: &BProgram) -> ProgramArtifacts {
        ProgramArtifacts {
            cache: self.clone(),
            facts: Rc::new(ProgramFacts::new(program)),
            decoded: Rc::new(DecodedProgram::decode(program)),
        }
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

    pub(crate) fn lookup(&self, key: &ArtifactKey) -> Option<CachedCompile> {
        self.code.borrow().get(key).cloned()
    }

    pub(crate) fn insert(&self, key: ArtifactKey, value: CachedCompile) {
        self.code.borrow_mut().insert(key, value);
    }
}

/// Per-method facts of one program, shared by every run of it and each
/// computed the first time a run asks for it: the content digests (cache
/// keys and coverage features) and the operand-stack depths (IR building
/// and OSR checks).
pub(crate) struct ProgramFacts {
    pub digests: LazyDigests,
    pub depths: StackDepths,
}

impl ProgramFacts {
    /// Facts of `program`, none computed yet.
    pub fn new(program: &BProgram) -> ProgramFacts {
        ProgramFacts { digests: LazyDigests::new(program), depths: StackDepths::new(program) }
    }
}

/// One program bound to a [`SharedArtifactCache`]: the cache handle, the
/// program's per-method facts, and its decoded form, shared by every run
/// of the program. Cheap to clone; everything inside is refcounted.
#[derive(Clone)]
pub struct ProgramArtifacts {
    pub(crate) cache: Rc<SharedArtifactCache>,
    /// The program's digests (the cache keys) and stack depths.
    pub(crate) facts: Rc<ProgramFacts>,
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
        let first = Vm::new(&program, config.clone()).with_artifacts(&artifacts).run();
        let second = Vm::new(&program, config).with_artifacts(&artifacts).run();
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
        let first = Vm::new(&program, config.clone()).with_artifacts(&artifacts).run();
        assert!(first.stats.compilations > 0, "calibration: HOT must trigger the JIT");
        assert_eq!(first.stats.code_cache_hits, 0, "an empty cache cannot hit");
        let second = Vm::new(&program, config).with_artifacts(&artifacts).run();
        assert_eq!(
            second.stats.code_cache_hits,
            second.stats.compilations + second.stats.osr_compilations,
            "a deterministic re-run must be served entirely from the cache"
        );
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
        let a = Vm::new(&program, correct).with_artifacts(&artifacts).run();
        let b = Vm::new(&program, buggy).with_artifacts(&artifacts).run();
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
        let a = Vm::new(&seed, config.clone()).with_artifacts(&shard.attach(&seed)).run();
        assert!(a.stats.compilations > 0);
        let b = Vm::new(&mutant, config).with_artifacts(&shard.attach(&mutant)).run();
        assert!(
            b.stats.code_cache_hits > 0,
            "unmutated f must be shared across the mutant boundary: {:?}",
            b.stats
        );
    }
}
