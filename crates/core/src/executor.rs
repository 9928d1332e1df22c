//! Deterministic campaign execution — serial reference path and the
//! work-stealing parallel engine behind `CampaignConfig::jobs`.
//!
//! # Determinism contract
//!
//! A campaign's [`CampaignResult::digest`] must be **bit-identical** for
//! every `jobs` setting (and across kill/resume cycles, as PR 1
//! established). The design that guarantees this:
//!
//! * **Sharding** — a shared atomic claim counter hands out seed
//!   *offsets* in increasing order. A worker that claims an offset always
//!   processes it ("claimed-must-process"), so the set of completed
//!   offsets is a contiguous prefix of the seed range at every point in
//!   time — exactly the shape a checkpoint needs.
//! * **Pure seed work** — [`process_seed`] touches no shared state: it
//!   generates the seed, compiles it once, validates it, and runs the
//!   baseline, returning everything in a [`SeedRecord`].
//! * **Deterministic merge** — a single collector (the campaign thread)
//!   buffers out-of-order records and folds them into the result strictly
//!   in seed order via [`merge_seed`], which is the exact aggregation the
//!   serial loop performs. Quarantine writes and checkpoints happen only
//!   on the collector, in seed order.
//! * **Early stop before claim** — deadline and `stop_after_seeds` are
//!   checked *before* claiming an offset, never mid-seed, so a cutoff
//!   still leaves a contiguous, resumable prefix.
//!
//! `jobs <= 1` takes the serial loop below, which is the reference
//! semantics: the parallel path is an optimization that must be
//! observationally equivalent, and `tests/parallel_determinism.rs` holds
//! it to that.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cse_vm::supervise::contain_panics;
use cse_vm::{SharedArtifactCache, Symptom, VmPanic};

use crate::baseline;
use crate::campaign::{BugEvidence, CampaignConfig, CampaignResult};
use crate::coverage::{PlanVariant, TaskSpec};
use crate::supervisor::{self, HarnessIncident, IncidentPhase};
use crate::validate::{self, DiscrepancyKind, ValidateConfig, ValidationOutcome};

/// Everything the seed loops need besides the result being built.
pub(crate) struct ExecContext<'a> {
    pub config: &'a CampaignConfig,
    pub validate_config: ValidateConfig,
    /// When this invocation started (deadline base).
    pub start: Instant,
    /// Wall time accumulated by previous (killed) invocations.
    pub prior_wall: Duration,
    /// The coverage scheduler's task assignments for the offset range
    /// this invocation covers (`None` = unguided: every offset runs its
    /// natural seed, unfocused, baseline plan).
    pub round: Option<RoundTasks>,
}

/// One guided round's schedule, anchored at its first seed offset.
pub(crate) struct RoundTasks {
    pub base: u64,
    pub tasks: Vec<TaskSpec>,
}

impl ExecContext<'_> {
    /// The scheduled task for a seed offset, if this is a guided round.
    fn task(&self, offset: u64) -> Option<&TaskSpec> {
        let round = self.round.as_ref()?;
        round.tasks.get(usize::try_from(offset.checked_sub(round.base)?).ok()?)
    }
}

/// The complete, self-contained outcome of one seed: what a worker sends
/// to the collector. Contains no shared state and no open resources, so
/// it can cross threads freely.
struct SeedRecord {
    /// Seed offset (for task lookups at the merge barrier).
    offset: u64,
    seed_value: u64,
    outcome: ValidationOutcome,
    /// Baseline verdict when `run_traditional` is on; a contained panic
    /// carries the pretty-printed seed for the incident report.
    baseline: Option<Result<baseline::BaselineOutcome, (VmPanic, String)>>,
    /// `(hits, misses)` of the seed's artifact cache — volatile counters
    /// (see [`crate::campaign::CampaignTotals`]).
    artifact_stats: (u64, u64),
}

/// Runs the seed loop (serial or parallel per `config.jobs`) over the
/// offset range `[next, end)` on top of a possibly checkpoint-restored
/// `result`/`next` pair. `end < config.seeds` bounds one guided round;
/// unguided campaigns pass `end = config.seeds`. `processed` counts
/// seeds merged across this *invocation* (the `stop_after_seeds` budget
/// spans rounds).
pub(crate) fn run(
    ctx: &ExecContext<'_>,
    result: CampaignResult,
    next: u64,
    end: u64,
    processed: &mut u64,
) -> CampaignResult {
    if ctx.config.jobs <= 1 {
        run_serial(ctx, result, next, end, processed)
    } else {
        run_parallel(ctx, result, next, end, processed)
    }
}

/// The per-seed validation config: the scheduled forced-plan coordinate
/// (guided rounds), then the supervisor's chaos knob (which targets a
/// single seed value).
fn seed_vconfig(ctx: &ExecContext<'_>, offset: u64, seed_value: u64) -> ValidateConfig {
    let mut vconfig = ctx.validate_config.clone();
    match ctx.task(offset).map_or(PlanVariant::Baseline, |t| t.plan) {
        PlanVariant::Baseline => {}
        PlanVariant::ForceTop => {
            vconfig.vm.plan = Some(cse_vm::ForcedPlan::all(vconfig.vm.top_tier()));
        }
        PlanVariant::ForceT1 => {
            vconfig.vm.plan = Some(cse_vm::ForcedPlan::all(cse_vm::Tier(1)));
        }
    }
    if let Some(chaos) = ctx.config.supervisor.chaos {
        if chaos.panic_on_seed == seed_value {
            vconfig.vm.chaos_panic_at_ops = Some(chaos.after_ops);
        }
    }
    vconfig
}

/// Processes one seed end-to-end: generate, compile once, validate, run
/// the baseline. Pure with respect to campaign state — the seed gets an
/// artifact cache of its own, dropped when the seed is done, so memory
/// stays bounded by one seed and hit patterns cannot depend on `jobs`
/// (see [`cse_vm::SharedArtifactCache`]); everything the collector needs
/// is in the returned record.
fn process_seed(ctx: &ExecContext<'_>, offset: u64) -> SeedRecord {
    let config = ctx.config;
    let seed_value = config.first_seed + offset;
    // A guided task may re-expand a corpus entry (its generator seed +
    // focused mutation sites); the *rng* seed stays the slot's natural
    // value, so re-expansions draw fresh mutation sequences.
    let task = ctx.task(offset);
    let gen_seed = task.map_or(seed_value, |t| t.gen_seed);
    let focus: Vec<String> = task.map(|t| t.focus.clone()).unwrap_or_default();
    let seed_program = cse_fuzz::generate(gen_seed, &config.fuzz);
    let seed_vconfig = seed_vconfig(ctx, offset, seed_value);
    let cache = SharedArtifactCache::new();
    // Compile the seed exactly once; validation and the traditional
    // baseline share the same bytecode.
    let seed_bytecode = validate::try_compile_checked(&seed_program).map(Arc::new);
    let outcome = validate::validate_compiled_in(
        &seed_program,
        seed_bytecode.clone(),
        &seed_vconfig,
        seed_value,
        |artemis| artemis.focus = focus,
        &cache,
    );
    outcome.check_invariants();
    let baseline = if config.run_traditional {
        let run = match &seed_bytecode {
            Ok(bytecode) => contain_panics(|| baseline::traditional_compiled(bytecode, &config.vm)),
            // The seed never compiled: keep the historical recompiling
            // path, whose contained panic becomes a Baseline incident.
            Err(_) => contain_panics(|| baseline::traditional(&seed_program, &config.vm)),
        };
        Some(run.map_err(|panic| (panic, cse_lang::pretty::print(&seed_program))))
    } else {
        None
    };
    SeedRecord { offset, seed_value, outcome, baseline, artifact_stats: cache.stats() }
}

/// Folds one seed's record into the campaign result. This is the *only*
/// aggregation path — serial and parallel runs both come through here,
/// strictly in seed order, which is what makes the digest independent of
/// `jobs`.
fn merge_seed(ctx: &ExecContext<'_>, result: &mut CampaignResult, record: SeedRecord) {
    let config = ctx.config;
    let sup = &config.supervisor;
    let seed_value = record.seed_value;
    let mut outcome = record.outcome;
    result.totals.seeds += 1;
    result.totals.mutants += outcome.mutants_run as u64;
    result.totals.completed += outcome.completed as u64;
    result.totals.vm_invocations += outcome.vm_invocations as u64;
    result.totals.discarded += outcome.discarded as u64;
    result.totals.seeds_discarded += outcome.seed_discarded as u64;
    result.totals.mutant_compile_failures += outcome.mutant_compile_failures as u64;
    result.totals.neutrality_violations += outcome.neutrality_violations as u64;
    result.totals.ir_verify_defects += outcome.ir_verify_defects;
    result.totals.tv_defects += outcome.tv_defects;
    result.totals.artifact_cache_hits += record.artifact_stats.0;
    result.totals.artifact_cache_misses += record.artifact_stats.1;
    // Coverage feedback mutates campaign state *only* here, on the
    // seed-ordered collector — the whole scheduler's jobs-invariance
    // rests on that.
    if let Some(state) = result.coverage.as_mut() {
        let task = ctx.task(record.offset);
        let plan = task.map_or(PlanVariant::Baseline, |t| t.plan);
        let gen_seed = task.map_or(seed_value, |t| t.gen_seed);
        state.absorb(
            &outcome.coverage,
            std::mem::take(&mut outcome.corpus_candidates),
            gen_seed,
            plan,
            outcome.vm_invocations as u64,
        );
    }
    let quarantine_vm = seed_vconfig(ctx, record.offset, seed_value).vm;
    for incident in std::mem::take(&mut outcome.incidents) {
        if let Some(dir) = &sup.quarantine_dir {
            if let Err(e) = supervisor::quarantine_incident(dir, &incident, &quarantine_vm) {
                eprintln!("warning: quarantine write failed: {e}");
            }
        }
        result.incidents.push(incident);
    }
    if outcome.found_bug() {
        result.cse_seeds.push(seed_value);
    }
    for discrepancy in outcome.discrepancies {
        if let DiscrepancyKind::Crash(info) = &discrepancy.kind {
            if let Some(dir) = &sup.quarantine_dir {
                if let Err(e) = supervisor::quarantine_crash(
                    dir,
                    seed_value,
                    seed_value,
                    discrepancy.culprit,
                    info,
                    &discrepancy.mutant_source,
                    &config.vm,
                ) {
                    eprintln!("warning: quarantine write failed: {e}");
                }
            }
        }
        match discrepancy.culprit {
            Some(bug) => {
                let evidence = result.bugs.entry(bug).or_insert_with(|| BugEvidence {
                    bug,
                    component: bug.component(),
                    symptom: bug.symptom(),
                    occurrences: 0,
                    first_seed: seed_value,
                    reproducer: discrepancy.mutant_source.clone(),
                });
                evidence.occurrences += 1;
                // Trust the *observed* symptom over the catalog when a
                // bug manifests differently (e.g. a mis-compilation
                // that crashes downstream).
                if let DiscrepancyKind::Crash(info) = &discrepancy.kind {
                    evidence.symptom = Symptom::Crash;
                    evidence.component = info.component;
                }
            }
            None => result.unattributed += 1,
        }
    }
    match record.baseline {
        Some(Ok(b)) => {
            result.totals.vm_invocations += b.vm_invocations as u64;
            if b.discrepancy {
                result.traditional_seeds.push(seed_value);
            }
        }
        Some(Err((panic, seed_source))) => {
            result.incidents.push(HarnessIncident {
                phase: IncidentPhase::Baseline,
                seed: seed_value,
                rng_seed: seed_value,
                iteration: None,
                payload: panic.payload,
                source: Some(seed_source),
            });
        }
        None => {}
    }
}

/// Saves a cadence or final checkpoint, updating the volatile totals
/// first (exactly the serial loop's historical behavior).
fn checkpoint(ctx: &ExecContext<'_>, result: &mut CampaignResult, next: u64) {
    let config = ctx.config;
    if let Some(path) = &config.supervisor.checkpoint_path {
        result.totals.partial = next < config.seeds;
        result.totals.wall = ctx.prior_wall + ctx.start.elapsed();
        if let Err(e) = supervisor::save_checkpoint(path, config, next, result) {
            eprintln!("warning: checkpoint write failed: {e}");
        }
    }
}

/// The reference semantics: one seed at a time, in order.
fn run_serial(
    ctx: &ExecContext<'_>,
    mut result: CampaignResult,
    mut next: u64,
    end: u64,
    processed: &mut u64,
) -> CampaignResult {
    let config = ctx.config;
    let sup = &config.supervisor;
    while next < end {
        if let Some(deadline) = sup.deadline {
            if ctx.start.elapsed() >= deadline {
                break;
            }
        }
        if let Some(stop) = sup.stop_after_seeds {
            if *processed >= stop {
                break;
            }
        }
        let record = process_seed(ctx, next);
        merge_seed(ctx, &mut result, record);
        next += 1;
        *processed += 1;
        if sup.checkpoint_path.is_some() && processed.is_multiple_of(sup.cadence()) {
            checkpoint(ctx, &mut result, next);
        }
    }
    result.totals.partial = next < config.seeds;
    result.totals.wall = ctx.prior_wall + ctx.start.elapsed();
    if let Some(path) = &sup.checkpoint_path {
        if let Err(e) = supervisor::save_checkpoint(path, config, next, &result) {
            eprintln!("warning: checkpoint write failed: {e}");
        }
    }
    result
}

/// The work-stealing parallel engine: `config.jobs` workers claim seed
/// offsets from an atomic counter and ship [`SeedRecord`]s to the
/// collector below, which merges them in seed order (see the module docs
/// for why the digest cannot depend on scheduling).
fn run_parallel(
    ctx: &ExecContext<'_>,
    mut result: CampaignResult,
    next: u64,
    end: u64,
    processed: &mut u64,
) -> CampaignResult {
    let config = ctx.config;
    let sup = &config.supervisor;
    let claim = AtomicU64::new(next);
    let stop = AtomicBool::new(false);
    // Seeds this invocation may still process under `stop_after_seeds`
    // (the budget spans rounds; claimed-before-budget-check stays safe
    // because the claim counter is monotonic).
    let budget = sup.stop_after_seeds.map(|limit| limit.saturating_sub(*processed));
    let (tx, rx) = mpsc::channel::<(u64, SeedRecord)>();
    // Offset of the next record the collector will merge; everything
    // below it is already folded into `result`.
    let mut merged_next = next;
    std::thread::scope(|scope| {
        for _ in 0..config.jobs {
            let tx = tx.clone();
            let (claim, stop) = (&claim, &stop);
            scope.spawn(move || {
                loop {
                    // Cutoffs are checked before claiming: a claimed
                    // offset is always processed, so completed seeds form
                    // a contiguous prefix at every instant.
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Some(deadline) = config.supervisor.deadline {
                        if ctx.start.elapsed() >= deadline {
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    let offset = claim.fetch_add(1, Ordering::SeqCst);
                    if offset >= end {
                        break;
                    }
                    if let Some(limit) = budget {
                        // The claim counter is monotonic, so refusing the
                        // first offset past the budget refuses all later
                        // ones too.
                        if offset - next >= limit {
                            break;
                        }
                    }
                    let record = process_seed(ctx, offset);
                    if tx.send((offset, record)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Collector: buffer out-of-order arrivals, merge the contiguous
        // prefix. Quarantine and checkpoint I/O happens only here.
        let mut pending: BTreeMap<u64, SeedRecord> = BTreeMap::new();
        for (offset, record) in rx {
            pending.insert(offset, record);
            while let Some(record) = pending.remove(&merged_next) {
                merge_seed(ctx, &mut result, record);
                merged_next += 1;
                *processed += 1;
                if sup.checkpoint_path.is_some() && processed.is_multiple_of(sup.cadence()) {
                    checkpoint(ctx, &mut result, merged_next);
                }
            }
        }
        assert!(pending.is_empty(), "completed seeds must form a contiguous prefix");
    });
    result.totals.partial = merged_next < config.seeds;
    result.totals.wall = ctx.prior_wall + ctx.start.elapsed();
    if let Some(path) = &sup.checkpoint_path {
        if let Err(e) = supervisor::save_checkpoint(path, config, merged_next, &result) {
            eprintln!("warning: checkpoint write failed: {e}");
        }
    }
    result
}
