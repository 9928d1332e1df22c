//! JIT-compiler validation — the paper's Algorithm 1.
//!
//! `Validate(LVM, P)` runs the seed with its default JIT-trace, derives
//! `MAX_ITER` JoNM mutants, runs each with *its* default JIT-trace, and
//! reports a JIT-compiler bug whenever the outputs disagree (§3.3's
//! metamorphic oracle: the mutations are semantics-preserving, so any
//! discrepancy is the VM's fault).
//!
//! Beyond the paper's tool, the driver can (a) verify each mutant's
//! neutrality against the reference interpreter — a harness-soundness
//! check the paper cannot run on production JVMs but we can, and (b)
//! attribute discrepancies to ground-truth injected bugs by re-running
//! with individual bugs disabled, which powers the Table 1 "Duplicate"
//! accounting.
//!
//! Every VM invocation goes through the crash barrier
//! ([`cse_vm::supervised_run`]): a panic anywhere in the substrate is
//! contained, recorded as a [`HarnessIncident`], and validation moves on
//! to the next mutant instead of unwinding the whole campaign. Mutants
//! that fail the type checker or bytecode compiler are likewise
//! quarantined as mutator bugs ([`try_compile_checked`]) rather than
//! aborting the process.

use std::rc::Rc;
use std::sync::Arc;

use cse_bytecode::BProgram;
use cse_lang::Program;
use cse_vm::supervise::{contain_panics, supervised_run_cached};
use cse_vm::{
    BugId, ExecutionResult, FaultInjector, Outcome, ProgramArtifacts, SharedArtifactCache, Symptom,
    VmConfig,
};

use crate::mutate::{AppliedMutation, Artemis, Mutator};
use crate::supervisor::{HarnessIncident, IncidentPhase};
use crate::synth::SynthParams;

/// Validation settings.
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Mutants per seed (the paper's `MAX_ITER`, set to 8 in §4.1).
    pub max_iter: usize,
    /// The LVM under test.
    pub vm: VmConfig,
    /// Synthesis hyper-parameters.
    pub params: SynthParams,
    /// Cross-check every mutant against the reference interpreter and
    /// skip non-neutral mutations (harness soundness; costs one extra
    /// run per mutant).
    pub verify_neutrality: bool,
}

impl ValidateConfig {
    /// The paper's evaluation settings for a VM profile (§4.1):
    /// `MAX_ITER = 8`, thresholds-scaled `MIN`/`MAX`.
    pub fn paper_defaults(vm: VmConfig) -> ValidateConfig {
        let params = SynthParams::for_kind(vm.kind);
        ValidateConfig { max_iter: 8, vm, params, verify_neutrality: true }
    }
}

/// How a discrepancy manifested (Table 1's bug-type split).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscrepancyKind {
    /// Outputs differ between seed and mutant (both completed).
    MisCompilation,
    /// The mutant crashed the VM.
    Crash(cse_vm::CrashInfo),
    /// The mutant's compiled code is pathologically slower than its
    /// interpreted execution (or timed out when interpretation finishes
    /// comfortably).
    Performance,
}

impl DiscrepancyKind {
    /// Maps to the Table 1 symptom class.
    pub fn symptom(&self) -> Symptom {
        match self {
            DiscrepancyKind::MisCompilation => Symptom::MisCompilation,
            DiscrepancyKind::Crash(_) => Symptom::Crash,
            DiscrepancyKind::Performance => Symptom::Performance,
        }
    }
}

/// One reported discrepancy.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    pub kind: DiscrepancyKind,
    /// The mutant source that exposes the bug (a ready bug report).
    pub mutant_source: String,
    /// Mutations that were applied to derive the mutant.
    pub mutations: Vec<AppliedMutation>,
    /// Ground-truth culprit, when attribution was possible.
    pub culprit: Option<BugId>,
    /// Seed/mutant observable behaviors, for the report.
    pub seed_observable: String,
    pub mutant_observable: String,
}

/// The outcome of validating one seed.
///
/// # Counter invariants
///
/// The mutant-level counters are disjoint and complete:
///
/// ```text
/// mutants_run = completed + discarded
/// neutrality_violations <= discarded     (violations are one discard reason)
/// ```
///
/// `completed` mutants received a full oracle verdict (which may or may
/// not be a discrepancy); `discarded` mutants ran but produced none
/// (step-budget timeout without performance-bug evidence, a neutrality
/// violation, or a contained VM panic). Seed-level failures are kept out
/// of the mutant counters entirely: `seed_discarded` marks a seed whose
/// own run timed out or panicked (no mutants were attempted), and
/// `mutant_compile_failures` counts mutants that never ran because JoNM
/// produced an uncompilable program (a quarantined mutator bug).
/// [`ValidationOutcome::check_invariants`] asserts all of this.
#[derive(Debug, Default)]
pub struct ValidationOutcome {
    pub discrepancies: Vec<Discrepancy>,
    /// Mutants executed on the VM under test.
    pub mutants_run: usize,
    /// Mutants that ran to a full oracle verdict.
    pub completed: usize,
    /// Mutants that ran but yielded no verdict (timeout discard,
    /// neutrality violation, or contained panic).
    pub discarded: usize,
    /// The seed itself produced no baseline (timeout or contained
    /// panic); no mutants were attempted.
    pub seed_discarded: bool,
    /// Mutants that failed type checking or bytecode compilation —
    /// mutator bugs, quarantined instead of panicking (never ran, so not
    /// part of `mutants_run`).
    pub mutant_compile_failures: usize,
    /// VM invocations performed (seed + mutants + attribution reruns).
    pub vm_invocations: usize,
    /// Non-neutral mutants detected and skipped (harness bugs; must stay
    /// zero with the stock mutators).
    pub neutrality_violations: usize,
    /// Defects reported by the static IR verifier (the third oracle; see
    /// `cse_vm::jit::verify`) across seed and mutant runs. Orthogonal to
    /// the mutant counters: a defect never changes a run's verdict.
    pub ir_verify_defects: u64,
    /// Refinement violations reported by the translation validator (see
    /// `cse_vm::jit::tv`) across seed and mutant runs. Observation-only,
    /// like `ir_verify_defects`.
    pub tv_defects: u64,
    /// Contained harness failures (panics in the VM, the compilers, or
    /// the mutation engine).
    pub incidents: Vec<HarnessIncident>,
    /// Union of the JIT-behavior coverage of every seed/mutant run
    /// under the VM under test (all-zero unless `VmConfig::coverage`).
    pub coverage: cse_vm::CoverageMap,
    /// Mutant runs that covered cells no earlier run of this seed did
    /// — corpus-admission candidates for the campaign's coverage
    /// scheduler (capped; empty unless `VmConfig::coverage`).
    pub corpus_candidates: Vec<crate::coverage::CorpusCandidate>,
}

impl ValidationOutcome {
    /// Whether any discrepancy was found.
    pub fn found_bug(&self) -> bool {
        !self.discrepancies.is_empty()
    }

    /// Asserts the documented counter invariants (cheap; called by the
    /// campaign driver after every seed).
    pub fn check_invariants(&self) {
        assert_eq!(
            self.mutants_run,
            self.completed + self.discarded,
            "mutant counters must be disjoint and complete"
        );
        assert!(
            self.neutrality_violations <= self.discarded,
            "neutrality violations are a subset of discards"
        );
        if self.seed_discarded {
            assert_eq!(self.mutants_run, 0, "a discarded seed attempts no mutants");
        }
    }

    fn incident(
        &mut self,
        phase: IncidentPhase,
        rng_seed: u64,
        iteration: Option<usize>,
        payload: String,
        source: Option<String>,
    ) {
        self.incidents.push(HarnessIncident {
            phase,
            seed: rng_seed,
            rng_seed,
            iteration,
            payload,
            source,
        });
    }

    /// Harvests IR-verifier defects from a run into the counter and an
    /// [`IncidentPhase::IrVerifyDefect`] incident. Applied to the seed run
    /// and to first mutant runs only — neutrality references run the
    /// interpreter (nothing to verify) and attribution reruns would
    /// re-report the same compilations.
    fn note_ir_defects(
        &mut self,
        result: &ExecutionResult,
        rng_seed: u64,
        iteration: Option<usize>,
        source: &Program,
    ) {
        if result.ir_verify.is_empty() {
            return;
        }
        self.ir_verify_defects += result.ir_verify.len() as u64;
        self.incident(
            IncidentPhase::IrVerifyDefect,
            rng_seed,
            iteration,
            result.ir_verify.join("\n"),
            Some(cse_lang::pretty::print(source)),
        );
    }

    /// Harvests translation-validation defects from a run into the
    /// counter and an [`IncidentPhase::TvDefect`] incident; same sampling
    /// rules as [`ValidationOutcome::note_ir_defects`].
    fn note_tv_defects(
        &mut self,
        result: &ExecutionResult,
        rng_seed: u64,
        iteration: Option<usize>,
        source: &Program,
    ) {
        if result.tv.is_empty() {
            return;
        }
        self.tv_defects += u64::from(result.stats.tv_defects);
        self.incident(
            IncidentPhase::TvDefect,
            rng_seed,
            iteration,
            result.tv.join("\n"),
            Some(cse_lang::pretty::print(source)),
        );
    }
}

/// Compiles a checked program, panicking on front-end failure (inputs are
/// either fuzzer output or mutants of checked programs — both valid by
/// construction). Campaign paths use [`try_compile_checked`] so a
/// mutator bug is quarantined instead of aborting the process.
pub fn compile_checked(program: &Program) -> BProgram {
    let mut program = program.clone();
    cse_lang::typeck::check(&mut program).expect("mutant failed the type checker");
    cse_bytecode::compile(&program).expect("mutant failed bytecode compilation")
}

/// Fallible twin of [`compile_checked`]: returns the failure (including
/// a contained compiler panic) as a message instead of unwinding.
pub fn try_compile_checked(program: &Program) -> Result<BProgram, String> {
    let mut program = program.clone();
    try_compile_checked_mut(&mut program)
}

/// [`try_compile_checked`] for callers that own the program and can let
/// the type checker annotate it in place. The validation loop compiles
/// every mutant exactly once and never reuses the AST afterward (reports
/// pretty-print the annotated form, which prints identically), so the
/// defensive whole-AST clone is pure overhead there.
pub fn try_compile_checked_mut(program: &mut Program) -> Result<BProgram, String> {
    contain_panics(|| {
        cse_lang::typeck::check(program).map_err(|e| format!("type check failed: {e}"))?;
        let bytecode = cse_bytecode::compile(program)
            .map_err(|e| format!("bytecode compilation failed: {e}"))?;
        // Mutants are only as trusted as the mutator that made them: a
        // JoNM product that compiles but fails bytecode verification is a
        // mutator (or compiler) bug and must be quarantined before the VM
        // executes it.
        cse_bytecode::verify::verify_program(&bytecode)
            .map_err(|e| format!("bytecode verification failed: {e}"))?;
        Ok(bytecode)
    })
    .map_err(|p| format!("compiler panicked: {}", p.payload))?
}

/// The content-addressed mutant front end: LI and SW mutations are
/// body-local (they rewrite statements inside exactly one method and
/// report it as `Class.method`), so such a mutant only needs *its
/// mutated methods* re-resolved and re-checked. The mutant is rebased
/// onto a pre-annotated clone of the seed — the mutated bodies are
/// moved over, re-checked against the seed's (unchanged) class table,
/// and the rest of the program keeps its seed annotations verbatim.
/// Resolution is deterministic, so the resulting bytecode is
/// bit-identical to a full front-end pass over the raw mutant.
///
/// Returns `None` when the fast path does not apply and the caller must
/// take the full pipeline: an MI mutation (it adds a control field and
/// rewrites a call site in a *different* method, so it is not
/// body-local), or a location that cannot be resolved (e.g. the chaos
/// knob's whole-program `<chaos: literal flip>` sentinel).
fn try_compile_mutant_incremental(
    mutant: &mut Program,
    annotated_seed: &mut Program,
    table: &cse_lang::typeck::ClassTable,
    mutations: &[AppliedMutation],
) -> Option<Result<BProgram, String>> {
    let mut targets: Vec<(usize, usize)> = Vec::new();
    for mutation in mutations {
        if matches!(mutation.mutator, Mutator::Mi) {
            return None;
        }
        let (class_name, method_name) = mutation.location.split_once('.')?;
        let class_idx = mutant.classes.iter().position(|c| c.name == class_name)?;
        let method_idx =
            mutant.classes[class_idx].methods.iter().position(|m| m.name == method_name)?;
        if !targets.contains(&(class_idx, method_idx)) {
            targets.push((class_idx, method_idx));
        }
    }
    // Swap the mutated bodies into the annotated program — no whole-AST
    // clone. The front end runs on `annotated_seed` (now carrying the
    // mutant's bodies at `targets`, seed annotations everywhere else),
    // then the second swap restores it to pristine and hands the mutant
    // its re-checked bodies back. Annotation rewrites print identically,
    // so repro files are unaffected. The restore runs even when checking
    // fails or panics — `contain_panics` has already caught by then.
    for &(class_idx, method_idx) in &targets {
        std::mem::swap(
            &mut annotated_seed.classes[class_idx].methods[method_idx].body,
            &mut mutant.classes[class_idx].methods[method_idx].body,
        );
    }
    let compiled = contain_panics(|| {
        for &(class_idx, method_idx) in &targets {
            cse_lang::typeck::check_method(annotated_seed, table, class_idx, method_idx)
                .map_err(|e| format!("type check failed: {e}"))?;
        }
        let bytecode = cse_bytecode::compile(annotated_seed)
            .map_err(|e| format!("bytecode compilation failed: {e}"))?;
        cse_bytecode::verify::verify_program(&bytecode)
            .map_err(|e| format!("bytecode verification failed: {e}"))?;
        Ok(bytecode)
    })
    .map_err(|p| format!("compiler panicked: {}", p.payload))
    .and_then(|r| r);
    for &(class_idx, method_idx) in &targets {
        std::mem::swap(
            &mut annotated_seed.classes[class_idx].methods[method_idx].body,
            &mut mutant.classes[class_idx].methods[method_idx].body,
        );
    }
    Some(compiled)
}

/// Step-budget fraction under which a completed reference run marks a
/// mutant timeout as the JIT's fault rather than an expensive program.
const TIMEOUT_CHEAP_DIVISOR: u64 = 4;

/// Factor and absolute slack for the explicit performance-anomaly
/// oracle: compiled execution doing `8x + 1M` the work of pure
/// interpretation is a performance bug, not noise.
const PERF_ANOMALY_FACTOR: u64 = 8;
const PERF_ANOMALY_SLACK: u64 = 1_000_000;

/// Classifies a mutant timeout: it is a genuine performance bug iff the
/// reference interpreter finished the same program comfortably (under a
/// quarter of the step budget); otherwise the program is just expensive
/// and the mutant is discarded.
pub fn timeout_is_performance_bug(reference: Option<&ExecutionResult>, fuel: u64) -> bool {
    reference
        .map(|r| r.outcome.is_completed() && r.stats.total_ops() < fuel / TIMEOUT_CHEAP_DIVISOR)
        .unwrap_or(false)
}

/// The explicit performance-anomaly oracle: whether compiled execution
/// did far more work than pure interpretation of the same program.
pub fn is_performance_anomaly(mutant_ops: u64, reference_ops: u64) -> bool {
    mutant_ops
        > reference_ops.saturating_mul(PERF_ANOMALY_FACTOR).saturating_add(PERF_ANOMALY_SLACK)
}

/// Algorithm 1: validates `LVM` (in `config.vm`) against one seed.
///
/// `rng_seed` fixes the mutation randomness, making every validation
/// reproducible.
pub fn validate(seed: &Program, config: &ValidateConfig, rng_seed: u64) -> ValidationOutcome {
    validate_with(seed, config, rng_seed, |_| {})
}

/// [`validate`] with a hook to configure the mutation engine (e.g. the
/// mutator-mix ablation restricts `Artemis::enabled`).
pub fn validate_with(
    seed: &Program,
    config: &ValidateConfig,
    rng_seed: u64,
    configure: impl FnOnce(&mut Artemis),
) -> ValidationOutcome {
    validate_compiled_in(
        seed,
        try_compile_checked(seed).map(Arc::new),
        config,
        rng_seed,
        configure,
        &SharedArtifactCache::new(),
    )
}

/// [`validate_with`] for a seed whose bytecode compilation already
/// happened (or already failed), with an explicit shared artifact cache
/// ([`SharedArtifactCache`]) for the seed's programs. The campaign
/// driver compiles each seed exactly once and shares the `Arc<BProgram>`
/// between validation and the traditional-fuzzing baseline instead of
/// re-running the front end per consumer. The seed run, its mutants,
/// their reference runs and attribution reruns all attach to `cache`,
/// so JIT compilations and decoded methods are shared within the seed.
/// The campaign executor passes a fresh cache per seed (and reads its
/// hit counters afterwards), as [`validate_with`] does.
pub fn validate_compiled_in(
    seed: &Program,
    seed_bytecode: Result<Arc<BProgram>, String>,
    config: &ValidateConfig,
    rng_seed: u64,
    configure: impl FnOnce(&mut Artemis),
    cache: &Rc<SharedArtifactCache>,
) -> ValidationOutcome {
    let mut outcome = ValidationOutcome::default();
    let seed_bytecode = match seed_bytecode {
        Ok(bytecode) => bytecode,
        Err(message) => {
            // Fuzzer seeds are valid by construction, so this is a
            // harness bug in the fuzzer or the front end.
            outcome.incident(
                IncidentPhase::SeedCompile,
                rng_seed,
                None,
                message,
                Some(cse_lang::pretty::print(seed)),
            );
            outcome.seed_discarded = true;
            return outcome;
        }
    };
    // One cache attachment per program: the digests it computes key the
    // seed's artifact cache.
    let seed_artifacts = cache.attach(&seed_bytecode);
    // R ← LVM(P): the seed with its default JIT-trace.
    outcome.vm_invocations += 1;
    let seed_result =
        match supervised_run_cached(&seed_bytecode, config.vm.clone(), &seed_artifacts) {
            Ok(result) => result,
            Err(panic) => {
                outcome.incident(
                    IncidentPhase::SeedRun,
                    rng_seed,
                    None,
                    panic.payload,
                    Some(cse_lang::pretty::print(seed)),
                );
                outcome.seed_discarded = true;
                return outcome;
            }
        };
    outcome.note_ir_defects(&seed_result, rng_seed, None, seed);
    outcome.note_tv_defects(&seed_result, rng_seed, None, seed);
    // Running union of this seed's coverage, for novelty checks within
    // the seed (the campaign-global check happens at the merge barrier).
    let mut seen_coverage = seed_result.stats.coverage;
    if config.vm.coverage {
        outcome.coverage.union(&seed_result.stats.coverage);
    }
    if seed_result.outcome.is_resource_exhausted() {
        // An expensive seed: the paper's two-minute cutoff (§4.3), or a
        // heap/stack budget the seed cannot fit in. Not a mutant discard —
        // no mutants were attempted.
        outcome.seed_discarded = true;
        return outcome;
    }
    // Reference (interpreter) behavior for neutrality and the perf
    // oracle — computed *lazily*, at most once per seed, the first time
    // a mutant actually demands it (see `needs_reference` below).
    //
    // Cold-seed reuse, the seed-side twin of the cold-mutant rule below:
    // a seed whose LVM run never touched the JIT is its own reference —
    // every injected fault lives in the JIT pipeline, so a zero-JIT run
    // under the faulty config is bit-identical to the interpreter-only
    // rerun. Fuzzed seeds are deliberately colder than their mutants
    // (JoNM exists to heat them up), so this skips a whole interpreter
    // run for a large fraction of seeds. Crashed runs are excluded for
    // the same compile-time-assert blind spot documented below.
    let seed_is_own_reference = seed_result.stats.compilations == 0
        && seed_result.stats.osr_compilations == 0
        && seed_result.stats.jit_ops == 0
        && !matches!(seed_result.outcome, Outcome::Crash(_));
    // `None` = not yet demanded; `Some(None)` = demanded but unavailable
    // (the interpreter rerun panicked; recorded as an incident).
    let mut seed_reference: Option<Option<ExecutionResult>> = None;
    let mut seed_reference_observable: Option<String> = None;
    // The §3.2 oracle compares every mutant against this; render it once
    // instead of re-formatting the seed's output per iteration.
    let seed_observable = seed_result.observable();
    // One whole-program annotation of the seed backs the incremental
    // mutant front end (`try_compile_mutant_incremental`); the per-mutant
    // cost then drops to a single-method recheck. A seed the checker
    // rejects here (it shouldn't — its bytecode compiled) falls back to
    // the full per-mutant pipeline.
    let mut annotated_seed = seed.clone();
    let seed_table = match cse_lang::typeck::check(&mut annotated_seed) {
        Ok(()) => cse_lang::typeck::ClassTable::build(&annotated_seed).ok(),
        Err(_) => None,
    };
    let mut artemis = Artemis::new(rng_seed, config.params.clone());
    configure(&mut artemis);
    for iteration in 0..config.max_iter {
        // P' ← JoNM(P).
        let (mut mutant, mutations) = match contain_panics(|| artemis.jonm(seed)) {
            Ok(pair) => pair,
            Err(panic) => {
                outcome.incident(
                    IncidentPhase::Mutation,
                    rng_seed,
                    Some(iteration),
                    panic.payload,
                    Some(cse_lang::pretty::print(seed)),
                );
                continue;
            }
        };
        if mutations.is_empty() {
            continue;
        }
        // In-place check-and-compile: the mutant AST is owned and fresh
        // per iteration, so the type checker may annotate it directly
        // instead of paying a whole-AST clone per mutant. The incremental
        // front end re-checks only the mutated methods; anything it can't
        // handle takes the full pipeline.
        let compiled = match &seed_table {
            Some(table) => {
                try_compile_mutant_incremental(&mut mutant, &mut annotated_seed, table, &mutations)
                    .unwrap_or_else(|| try_compile_checked_mut(&mut mutant))
            }
            None => try_compile_checked_mut(&mut mutant),
        };
        let mutant_bytecode = match compiled {
            Ok(bytecode) => bytecode,
            Err(message) => {
                // A mutator bug: JoNM produced an uncompilable program.
                outcome.mutant_compile_failures += 1;
                outcome.incident(
                    IncidentPhase::MutantCompile,
                    rng_seed,
                    Some(iteration),
                    message,
                    Some(cse_lang::pretty::print(&mutant)),
                );
                continue;
            }
        };
        // R' ← LVM(P').
        //
        // The mutant attaches to the seed's shared artifact cache:
        // every unmutated method's compilation is shared with the seed,
        // the sibling mutants, and the attribution reruns below. Sharing
        // is conservative — the content digest and the fault set are part
        // of the cache key, so a run only reuses code whose compilation
        // its own configuration would reproduce bit-identically.
        let mutant_artifacts = cache.attach(&mutant_bytecode);
        outcome.vm_invocations += 1;
        outcome.mutants_run += 1;
        let mutant_result =
            match supervised_run_cached(&mutant_bytecode, config.vm.clone(), &mutant_artifacts) {
                Ok(result) => result,
                Err(panic) => {
                    outcome.discarded += 1;
                    outcome.incident(
                        IncidentPhase::MutantRun,
                        rng_seed,
                        Some(iteration),
                        panic.payload,
                        Some(cse_lang::pretty::print(&mutant)),
                    );
                    continue;
                }
            };
        outcome.note_ir_defects(&mutant_result, rng_seed, Some(iteration), &mutant);
        outcome.note_tv_defects(&mutant_result, rng_seed, Some(iteration), &mutant);
        if config.vm.coverage {
            let map = mutant_result.stats.coverage;
            if map.covers_new(&seen_coverage) && outcome.corpus_candidates.len() < 4 {
                // Whitespace-bearing locations (e.g. the chaos marker)
                // would break the checkpoint's line format; real
                // `Class.method` locations never contain whitespace.
                let locations: Vec<String> = mutations
                    .iter()
                    .map(|m| m.location.clone())
                    .filter(|l| !l.contains(char::is_whitespace))
                    .collect();
                outcome.corpus_candidates.push(crate::coverage::CorpusCandidate { map, locations });
            }
            seen_coverage.union(&map);
            outcome.coverage.union(&map);
        }
        // Reference run: neutrality check + performance baseline.
        //
        // A mutant whose LVM run never touched the JIT — no tier
        // compilations, no OSR entries, no compiled ops executed — is its
        // own reference: every injected fault lives in the JIT pipeline
        // (`cse_vm::jit`), so a zero-JIT run under the faulty config is
        // bit-identical to the interpreter-only rerun it would be checked
        // against. Reusing it skips the rerun entirely (roughly a third
        // of mutants never warm up under the paper's thresholds).
        //
        // The `Crash` guard closes a counter blind spot: an injected
        // *compile-time* assert crashes the run from inside `jit::compile`
        // before `compilations` is ever incremented, so a crashed run can
        // read as zero-JIT while being anything but interpreter-equivalent
        // (ART's catalog is entirely compile-time asserts). Crashed runs
        // always take the real interpreter rerun.
        let stats = &mutant_result.stats;
        let mutant_is_own_reference = stats.compilations == 0
            && stats.osr_compilations == 0
            && stats.jit_ops == 0
            && !matches!(mutant_result.outcome, Outcome::Crash(_));
        let mutant_observable = mutant_result.observable();
        // Lazy-reference pruning: the interpreter rerun feeds exactly
        // three consumers — the neutrality discard, timeout
        // classification, and the performance-anomaly oracle. A mutant
        // that completed within the anomaly slack with an observable
        // identical to the seed's can trip none of them: no timeout to
        // classify, no anomaly possible (`8x + slack` exceeds its op
        // count for *every* reference), and a neutrality violation
        // could at most reclassify a no-bug mutant from `completed` to
        // `discarded` without changing any reported discrepancy. For
        // that (dominant) population the reference run is skipped
        // outright; everything that could influence a bug report still
        // takes the full rerun.
        let needs_reference = config.verify_neutrality
            && (mutant_result.outcome.is_resource_exhausted()
                || stats.total_ops() > PERF_ANOMALY_SLACK
                || mutant_observable != seed_observable);
        let mutant_reference = if !needs_reference {
            None
        } else if mutant_is_own_reference {
            Some(mutant_result.clone())
        } else {
            outcome.vm_invocations += 1;
            let reference_vm = VmConfig::interpreter_only(config.vm.kind);
            match supervised_run_cached(&mutant_bytecode, reference_vm, &mutant_artifacts) {
                Ok(reference) => Some(reference),
                Err(panic) => {
                    // No reference for this mutant; skip the neutrality
                    // and performance oracles but keep the output oracle.
                    outcome.incident(
                        IncidentPhase::NeutralityRun,
                        rng_seed,
                        Some(iteration),
                        panic.payload,
                        Some(cse_lang::pretty::print(&mutant)),
                    );
                    None
                }
            }
        };
        // First demand on this seed: materialize the seed-side reference.
        if needs_reference && seed_reference.is_none() {
            let computed = if seed_is_own_reference {
                Some(seed_result.clone())
            } else {
                outcome.vm_invocations += 1;
                let reference_vm = VmConfig::interpreter_only(config.vm.kind);
                match supervised_run_cached(&seed_bytecode, reference_vm, &seed_artifacts) {
                    Ok(result) => Some(result),
                    Err(panic) => {
                        // Proceed without neutrality checking for this seed.
                        outcome.incident(
                            IncidentPhase::ReferenceRun,
                            rng_seed,
                            None,
                            panic.payload,
                            Some(cse_lang::pretty::print(seed)),
                        );
                        None
                    }
                }
            };
            seed_reference_observable = computed.as_ref().map(|r| r.observable());
            seed_reference = Some(computed);
        }
        if let (Some(reference), Some(Some(seed_ref)), Some(seed_ref_observable)) =
            (&mutant_reference, &seed_reference, &seed_reference_observable)
        {
            if &reference.observable() != seed_ref_observable
                && !reference.outcome.is_resource_exhausted()
                && !seed_ref.outcome.is_resource_exhausted()
            {
                outcome.neutrality_violations += 1;
                outcome.discarded += 1;
                continue;
            }
        }
        // Resource-exhaustion handling: discard, unless a *timeout*
        // paired with a comfortably-cheap reference run shows the
        // slowness is the JIT's fault. Heap/stack budget trips carry no
        // performance signal, so they are always discarded.
        if mutant_result.outcome.is_resource_exhausted() {
            if matches!(mutant_result.outcome, Outcome::Timeout)
                && timeout_is_performance_bug(mutant_reference.as_ref(), config.vm.fuel)
            {
                outcome.completed += 1;
                let discrepancy = make_discrepancy(
                    DiscrepancyKind::Performance,
                    &mutant,
                    mutations,
                    &seed_result,
                    &mutant_result,
                    config,
                    &mutant_bytecode,
                    &mutant_artifacts,
                    rng_seed,
                    iteration,
                    &mut outcome,
                );
                outcome.discrepancies.push(discrepancy);
            } else {
                outcome.discarded += 1;
            }
            continue;
        }
        // Explicit performance anomaly: compiled execution does far more
        // work than pure interpretation of the same program.
        if let Some(reference) = &mutant_reference {
            if reference.outcome.is_completed()
                && is_performance_anomaly(
                    mutant_result.stats.total_ops(),
                    reference.stats.total_ops(),
                )
            {
                outcome.completed += 1;
                let discrepancy = make_discrepancy(
                    DiscrepancyKind::Performance,
                    &mutant,
                    mutations,
                    &seed_result,
                    &mutant_result,
                    config,
                    &mutant_bytecode,
                    &mutant_artifacts,
                    rng_seed,
                    iteration,
                    &mut outcome,
                );
                outcome.discrepancies.push(discrepancy);
                continue;
            }
        }
        // The §3.2 oracle: LVM(P) vs LVM(P').
        outcome.completed += 1;
        if mutant_observable != seed_observable {
            let kind = match &mutant_result.outcome {
                Outcome::Crash(info) => DiscrepancyKind::Crash(info.clone()),
                _ => DiscrepancyKind::MisCompilation,
            };
            let discrepancy = make_discrepancy(
                kind,
                &mutant,
                mutations,
                &seed_result,
                &mutant_result,
                config,
                &mutant_bytecode,
                &mutant_artifacts,
                rng_seed,
                iteration,
                &mut outcome,
            );
            outcome.discrepancies.push(discrepancy);
        }
    }
    outcome.check_invariants();
    outcome
}

#[allow(clippy::too_many_arguments)]
fn make_discrepancy(
    kind: DiscrepancyKind,
    mutant: &Program,
    mutations: Vec<AppliedMutation>,
    seed_result: &ExecutionResult,
    mutant_result: &ExecutionResult,
    config: &ValidateConfig,
    mutant_bytecode: &BProgram,
    mutant_artifacts: &ProgramArtifacts,
    rng_seed: u64,
    iteration: usize,
    outcome: &mut ValidationOutcome,
) -> Discrepancy {
    let culprit = match &kind {
        // Crashes carry ground truth directly.
        DiscrepancyKind::Crash(info) => Some(info.bug),
        // Mis-compilations and perf bugs are attributed by ablation.
        _ => attribute(
            mutant_bytecode,
            mutant_artifacts,
            config,
            mutant_result,
            rng_seed,
            iteration,
            outcome,
        ),
    };
    Discrepancy {
        kind,
        mutant_source: cse_lang::pretty::print(mutant),
        mutations,
        culprit,
        seed_observable: seed_result.observable(),
        mutant_observable: mutant_result.observable(),
    }
}

/// Ground-truth attribution: re-runs the mutant with each active bug
/// disabled; the first whose removal changes the observable behavior is
/// the culprit. A panicking rerun skips that candidate (recorded as an
/// incident) instead of aborting.
///
/// # Fired-mask pruning
///
/// A rerun is only performed for bugs the buggy run actually *queried
/// active* ([`cse_vm::ExecStats::fired_bugs`]). The mask is complete:
/// every compile-time trigger site goes through `CompileCtx::active`
/// (replayed verbatim on artifact-cache hits) and every execution-time
/// site through `Vm::fault_fired`, and an injected bug can only
/// influence behavior through one of those queries returning `true`. A
/// bug absent from the mask therefore never influenced the run, its
/// ablation is a no-op, and the skipped rerun's observable provably
/// equals the buggy run's — the exact condition the loop tests.
fn attribute(
    mutant_bytecode: &BProgram,
    mutant_artifacts: &ProgramArtifacts,
    config: &ValidateConfig,
    buggy_result: &ExecutionResult,
    rng_seed: u64,
    iteration: usize,
    outcome: &mut ValidationOutcome,
) -> Option<BugId> {
    let active: Vec<BugId> = config.vm.faults.bugs().collect();
    for &bug in &active {
        if buggy_result.stats.fired_bugs & (1u64 << (bug as u64)) == 0 {
            continue;
        }
        let remaining: Vec<BugId> = active.iter().copied().filter(|&b| b != bug).collect();
        let mut vm = config.vm.clone();
        vm.faults = FaultInjector::with(remaining);
        outcome.vm_invocations += 1;
        let result = match supervised_run_cached(mutant_bytecode, vm, mutant_artifacts) {
            Ok(result) => result,
            Err(panic) => {
                outcome.incident(
                    IncidentPhase::Attribution,
                    rng_seed,
                    Some(iteration),
                    panic.payload,
                    None,
                );
                continue;
            }
        };
        if result.observable() != buggy_result.observable() {
            return Some(bug);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthParams;
    use cse_vm::VmKind;

    /// The incremental mutant front end must be invisible: for fuzzed
    /// seeds and their JoNM mutants, rebase-and-recheck produces
    /// bit-identical bytecode to the full check-everything pipeline.
    #[test]
    fn incremental_mutant_front_end_matches_full_pipeline() {
        let mut checked_mutants = 0;
        for seed_value in 0..12u64 {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let mut annotated_seed = seed.clone();
            cse_lang::typeck::check(&mut annotated_seed).expect("fuzzed seeds type-check");
            let table = cse_lang::typeck::ClassTable::build(&annotated_seed).expect("table builds");
            let mut artemis = Artemis::new(seed_value, SynthParams::for_kind(VmKind::HotSpotLike));
            for _ in 0..4 {
                let (mut mutant, mutations) = artemis.jonm(&seed);
                if mutations.is_empty() {
                    continue;
                }
                let full = try_compile_checked(&mutant);
                // `None` = the fast path declined (e.g. an MI mutation);
                // production falls back to the full pipeline there.
                let Some(incremental) = try_compile_mutant_incremental(
                    &mut mutant,
                    &mut annotated_seed,
                    &table,
                    &mutations,
                ) else {
                    continue;
                };
                match (full, incremental) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "seed {seed_value}: bytecode diverged");
                        checked_mutants += 1;
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!(
                        "pipelines disagree on acceptance: full={:?} incremental={:?}",
                        a.err(),
                        b.err()
                    ),
                }
            }
        }
        assert!(checked_mutants >= 20, "calibration: only {checked_mutants} mutants compiled");
    }
}
