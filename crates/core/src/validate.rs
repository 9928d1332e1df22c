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
//! Each mutant gets exactly one verdict — discarded, a neutrality
//! violation, a crash, a performance bug (timeout or anomaly), a
//! mis-compilation, or none — and every discrepancy is attributed and
//! recorded at one site. Reference runs use [`VmConfig::reference`]: the
//! VM under test with the JIT, plan, faults, chaos and coverage off, so
//! they spend the campaign's own budgets. A mutant's reference rerun
//! (and, the first time one is needed, the seed's) feeds three
//! consumers: the neutrality discard, timeout classification and the
//! performance-anomaly oracle. It is taken only when one of them could
//! change the mutant's verdict.
//!
//! A crash never takes one. Every crash site is a seeded JIT or GC
//! fault, so a crash is the VM's fault whatever the mutation did, and
//! its [`cse_vm::CrashInfo::bug`] is the verdict's ground truth (checked
//! against the run's fired-bug mask). The rerun could only have moved
//! the mutant from `completed` to `discarded`. The verdict order is
//! therefore crash first, then timeout and performance anomaly, then
//! the output comparison. Correct VMs cannot crash, so the exemption
//! never applies where mutator soundness is checked (the neutrality
//! ablation and the zero-discrepancy tests on correct VMs).
//!
//! Every VM invocation — the seed run, each mutant run, both reference
//! runs and every attribution rerun — goes through one crash barrier
//! ([`cse_vm::contain_panics`]): a panic anywhere in the substrate is
//! contained, recorded as a [`HarnessIncident`], and validation moves on
//! to the next mutant instead of unwinding the whole campaign. Mutants
//! that fail the type checker or bytecode compiler are likewise
//! quarantined as mutator bugs ([`try_compile_checked`]) rather than
//! aborting the process.

use std::rc::Rc;
use std::sync::Arc;

use cse_bytecode::BProgram;
use cse_lang::Program;
use cse_vm::supervise::contain_panics;
use cse_vm::{
    BugId, ExecutionResult, FaultInjector, Outcome, ProgramArtifacts, SharedArtifactCache, Symptom,
    Vm, VmConfig,
};

use crate::mutate::{AppliedMutation, Artemis};
use crate::supervisor::{HarnessIncident, IncidentPhase};
use crate::synth::SynthParams;
use crate::triage::SeenSignatures;

/// Validation settings.
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Mutants per seed (the paper's `MAX_ITER`, set to 8 in §4.1).
    pub max_iter: usize,
    /// The LVM under test.
    pub vm: VmConfig,
    /// Synthesis hyper-parameters.
    pub params: SynthParams,
    /// Cross-check mutants against the reference interpreter and skip
    /// non-neutral mutations (harness soundness; costs one extra run per
    /// mutant whose verdict could depend on it — never a crash).
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
    /// The mutant source that exposes the bug (a ready bug report),
    /// printed only for the first discrepancy of each culprit in the
    /// seed: the one a campaign can keep as that bug's reproducer, and
    /// the one crash quarantine writes. `None` for later discrepancies of
    /// the same culprit and for unattributed ones.
    pub mutant_source: Option<String>,
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
    /// VM invocations performed: the seed, its mutants, and their
    /// reference and attribution reruns.
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

    /// Harvests the static oracles' findings from a run into their
    /// counters and incidents: IR-verifier defect lines into an
    /// [`IncidentPhase::IrVerifyDefect`] incident, translation-validation
    /// divergence lines into an [`IncidentPhase::TvDefect`] one.
    ///
    /// Only an incident whose triage signature `held` has not seen in this
    /// seed carries `source`, printed; a repeat of a known signature keeps
    /// its payload and drops the program, since the campaign reports one
    /// source per signature (see `executor::merge_seed`). When both
    /// incidents are new, `source` is printed once for the two. Applied to
    /// the seed run and to first mutant runs only — neutrality references
    /// run the interpreter (nothing to verify) and attribution reruns
    /// would re-report the same compilations.
    fn note_oracle_defects(
        &mut self,
        result: &ExecutionResult,
        rng_seed: u64,
        iteration: Option<usize>,
        source: &Program,
        held: &mut SeenSignatures,
    ) {
        let start = self.incidents.len();
        if !result.ir_verify.is_empty() {
            self.ir_verify_defects += result.ir_verify.len() as u64;
            let payload = result.ir_verify.join("\n");
            self.incident(IncidentPhase::IrVerifyDefect, rng_seed, iteration, payload, None);
        }
        if !result.tv.is_empty() {
            self.tv_defects += u64::from(result.stats.tv_defects);
            let payload = result.tv.join("\n");
            self.incident(IncidentPhase::TvDefect, rng_seed, iteration, payload, None);
        }
        let mut firsts: Vec<&mut HarnessIncident> = self.incidents[start..]
            .iter_mut()
            .enumerate()
            .filter(|(at, i)| held.first_of(i, start + at).is_none())
            .map(|(_, i)| i)
            .collect();
        if let Some((last, rest)) = firsts.split_last_mut() {
            let printed = cse_lang::pretty::print(source);
            for incident in rest {
                incident.source = Some(printed.clone());
            }
            last.source = Some(printed);
        }
    }

    /// Runs `program` once under `vm` behind the crash barrier and counts
    /// the invocation. A contained panic is recorded as a `phase`
    /// incident whose source is `source`, printed, and yields `None`.
    fn run(
        &mut self,
        (program, artifacts): (&BProgram, &ProgramArtifacts),
        vm: &VmConfig,
        phase: IncidentPhase,
        rng_seed: u64,
        iteration: Option<usize>,
        source: Option<&Program>,
    ) -> Option<ExecutionResult> {
        self.vm_invocations += 1;
        match contain_panics(|| Vm::new(program, vm.clone()).with_artifacts(artifacts).run()) {
            Ok(result) => Some(result),
            Err(panic) => {
                let source = source.map(cse_lang::pretty::print);
                self.incident(phase, rng_seed, iteration, panic.payload, source);
                None
            }
        }
    }
}

/// Compiles a checked program, panicking on front-end failure (inputs are
/// either fuzzer output or mutants of checked programs — both valid by
/// construction). Campaign paths use [`try_compile_checked`] so a
/// mutator bug is quarantined instead of aborting the process.
pub fn compile_checked(program: &Program) -> BProgram {
    let program = cse_lang::typeck::checked(program).expect("mutant failed the type checker");
    cse_bytecode::compile(&program).expect("mutant failed bytecode compilation")
}

/// Fallible twin of [`compile_checked`]: returns the failure (including
/// a contained compiler panic) as a message instead of unwinding. The
/// checker reads the program where it is ([`cse_lang::typeck::checked`]):
/// a resolved program, such as fuzzer output, is never copied, and one
/// that holds a bare name is copied once to be resolved.
pub fn try_compile_checked(program: &Program) -> Result<BProgram, String> {
    contain_front_end(|| {
        let program = cse_lang::typeck::checked(program).map_err(type_error)?;
        lower_and_verify(&program)
    })
}

/// [`try_compile_checked`] for callers that own the program: its bare
/// names are resolved in place, so nothing is copied. The validation loop
/// compiles every mutant exactly once and never reuses the AST afterward
/// (reports pretty-print the resolved form, which only spells resolved
/// names out as `T.f`/`this.f`).
pub fn try_compile_checked_mut(program: &mut Program) -> Result<BProgram, String> {
    contain_front_end(|| {
        cse_lang::typeck::check(program).map_err(type_error)?;
        lower_and_verify(program)
    })
}

/// [`try_compile_checked`] for a program the checker already accepted and
/// resolved, such as a reducer candidate ([`cse_reduce::reduce_with`]
/// hands its predicate only those): lowers and verifies it without
/// checking it again.
pub fn try_compile_resolved(program: &Program) -> Result<BProgram, String> {
    contain_front_end(|| lower_and_verify(program))
}

fn type_error(e: cse_lang::FrontError) -> String {
    format!("type check failed: {e}")
}

/// Runs a front-end step behind the crash barrier.
fn contain_front_end(step: impl FnOnce() -> Result<BProgram, String>) -> Result<BProgram, String> {
    contain_panics(step).map_err(|p| format!("compiler panicked: {}", p.payload))?
}

/// Lowers a checked program and verifies its bytecode.
fn lower_and_verify(program: &Program) -> Result<BProgram, String> {
    let bytecode =
        cse_bytecode::compile(program).map_err(|e| format!("bytecode compilation failed: {e}"))?;
    // Mutants are only as trusted as the mutator that made them: a
    // JoNM product that compiles but fails bytecode verification is a
    // mutator (or compiler) bug and must be quarantined before the VM
    // executes it.
    cse_bytecode::verify::verify_program(&bytecode)
        .map_err(|e| format!("bytecode verification failed: {e}"))?;
    Ok(bytecode)
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
/// so JIT compilations are shared within the seed.
/// The campaign executor passes a fresh cache per seed, as
/// [`validate_with`] does.
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
    // One cache attachment per program: the digests its runs compute on
    // first use key the seed's artifact cache.
    let seed_artifacts = cache.attach(&seed_bytecode);
    let seed_program = (&*seed_bytecode, &seed_artifacts);
    // R ← LVM(P): the seed with its default JIT-trace.
    let Some(seed_result) =
        outcome.run(seed_program, &config.vm, IncidentPhase::SeedRun, rng_seed, None, Some(seed))
    else {
        outcome.seed_discarded = true;
        return outcome;
    };
    // Static-oracle signatures this seed has reported a source for.
    let mut held = SeenSignatures::default();
    outcome.note_oracle_defects(&seed_result, rng_seed, None, seed, &mut held);
    // Running union of this seed's coverage, for novelty checks within
    // the seed (the campaign-global check happens at the merge barrier).
    let mut seen_coverage = seed_result.coverage;
    if config.vm.coverage {
        outcome.coverage.union(&seed_result.coverage);
    }
    if seed_result.outcome.is_resource_exhausted() {
        // An expensive seed: the paper's two-minute cutoff (§4.3), or a
        // heap/stack budget the seed cannot fit in. Not a mutant discard —
        // no mutants were attempted.
        outcome.seed_discarded = true;
        return outcome;
    }
    // The seed's reference (interpreter) run, for the neutrality check:
    // taken at most once per seed, the first time a mutant demands a
    // reference (see `needs_reference` below). `Some(None)` means it was
    // demanded but panicked (recorded as an incident).
    let mut seed_reference: Option<Option<ExecutionResult>> = None;
    let reference_vm = config.vm.reference();
    // The §3.2 oracle compares every mutant against this; render it once
    // instead of re-formatting the seed's output per iteration.
    let seed_observable = seed_result.observable();
    let mut artemis = Artemis::new(rng_seed, config.params.clone());
    configure(&mut artemis);
    // Culprits (a `BugId` bit mask) whose first discrepancy in this seed
    // already carries the mutant source.
    let mut printed_culprits = 0u64;
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
        // instead of paying a whole-AST clone per mutant.
        let mutant_bytecode = match try_compile_checked_mut(&mut mutant) {
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
        let mutant_program = (&mutant_bytecode, &mutant_artifacts);
        let at = Some(iteration);
        outcome.mutants_run += 1;
        let Some(mutant_result) = outcome.run(
            mutant_program,
            &config.vm,
            IncidentPhase::MutantRun,
            rng_seed,
            at,
            Some(&mutant),
        ) else {
            outcome.discarded += 1;
            continue;
        };
        outcome.note_oracle_defects(&mutant_result, rng_seed, at, &mutant, &mut held);
        if config.vm.coverage {
            let map = mutant_result.coverage;
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
        let mutant_observable = mutant_result.observable();
        // Lazy reference runs. The interpreter rerun feeds exactly three
        // consumers — the neutrality discard, timeout classification,
        // and the performance-anomaly oracle — and is skipped whenever
        // none of them can change the verdict:
        // - A crash is reported on its ground truth (`CrashInfo::bug`)
        //   and outranks the other checks, so a rerun could only move
        //   it from `completed` to `discarded`.
        // - A mutant that completed within the anomaly slack with an
        //   observable identical to the seed's has no timeout to
        //   classify, no anomaly possible (`8x + slack` exceeds its op
        //   count for *every* reference), and a neutrality violation
        //   could at most reclassify a no-bug mutant as discarded.
        // Everything else that could influence a bug report takes the
        // full rerun, and the seed's reference with it.
        let needs_reference = config.verify_neutrality
            && !mutant_result.crashed()
            && (mutant_result.outcome.is_resource_exhausted()
                || mutant_result.stats.total_ops() > PERF_ANOMALY_SLACK
                || mutant_observable != seed_observable);
        // Reference run: neutrality check + performance baseline. A
        // panicking reference skips the neutrality and performance
        // oracles but keeps the output oracle.
        let mutant_reference = if needs_reference {
            let reference = outcome.run(
                mutant_program,
                &reference_vm,
                IncidentPhase::NeutralityRun,
                rng_seed,
                at,
                Some(&mutant),
            );
            let seed_reference = seed_reference.get_or_insert_with(|| {
                let phase = IncidentPhase::ReferenceRun;
                outcome.run(seed_program, &reference_vm, phase, rng_seed, None, Some(seed))
            });
            if let (Some(reference), Some(seed_reference)) = (&reference, seed_reference) {
                if reference.observable() != seed_reference.observable()
                    && !reference.outcome.is_resource_exhausted()
                    && !seed_reference.outcome.is_resource_exhausted()
                {
                    outcome.neutrality_violations += 1;
                    outcome.discarded += 1;
                    continue;
                }
            }
            reference
        } else {
            None
        };
        // The verdict. A crash that the seed did not share is reported
        // as such, ahead of the performance checks. Resource exhaustion
        // is discarded, unless a *timeout* paired with a
        // comfortably-cheap reference run shows the slowness is the
        // JIT's fault (heap/stack budget trips carry no performance
        // signal). Compiled execution doing far more work than pure
        // interpretation is a performance anomaly. Otherwise the §3.2
        // oracle compares LVM(P) with LVM(P').
        let kind = if let Outcome::Crash(info) = &mutant_result.outcome {
            // With no rerun behind it, the crash's bug is the only
            // evidence: it must be one the run queried and found active.
            debug_assert!(
                mutant_result.stats.fired_bugs & (1u64 << (info.bug as u64)) != 0,
                "crash blames {:?}, which never fired in the run",
                info.bug
            );
            (mutant_observable != seed_observable).then(|| DiscrepancyKind::Crash(info.clone()))
        } else if mutant_result.outcome.is_resource_exhausted() {
            if !matches!(mutant_result.outcome, Outcome::Timeout)
                || !timeout_is_performance_bug(mutant_reference.as_ref(), config.vm.fuel)
            {
                outcome.discarded += 1;
                continue;
            }
            Some(DiscrepancyKind::Performance)
        } else if mutant_reference.as_ref().is_some_and(|reference| {
            reference.outcome.is_completed()
                && is_performance_anomaly(
                    mutant_result.stats.total_ops(),
                    reference.stats.total_ops(),
                )
        }) {
            Some(DiscrepancyKind::Performance)
        } else if mutant_observable != seed_observable {
            Some(DiscrepancyKind::MisCompilation)
        } else {
            None
        };
        outcome.completed += 1;
        let Some(kind) = kind else {
            continue;
        };
        let culprit = match &kind {
            // Crashes carry ground truth directly.
            DiscrepancyKind::Crash(info) => Some(info.bug),
            // Mis-compilations and perf bugs are attributed by ablation.
            _ => {
                attribute(mutant_program, config, &mutant_result, rng_seed, iteration, &mut outcome)
            }
        };
        // Only a culprit's first discrepancy in the seed can become the
        // campaign's reproducer for it, so only that one is printed.
        let first_of_culprit = culprit.is_some_and(|bug| {
            let bit = 1u64 << (bug as u64);
            let first = printed_culprits & bit == 0;
            printed_culprits |= bit;
            first
        });
        outcome.discrepancies.push(Discrepancy {
            kind,
            mutant_source: first_of_culprit.then(|| cse_lang::pretty::print(&mutant)),
            mutations,
            culprit,
            seed_observable: seed_observable.clone(),
            mutant_observable,
        });
    }
    outcome.check_invariants();
    outcome
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
    mutant: (&BProgram, &ProgramArtifacts),
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
        let vm = config.vm.clone().with_faults(FaultInjector::with(remaining));
        let phase = IncidentPhase::Attribution;
        let Some(result) = outcome.run(mutant, &vm, phase, rng_seed, Some(iteration), None) else {
            continue;
        };
        if result.observable() != buggy_result.observable() {
            return Some(bug);
        }
    }
    None
}
