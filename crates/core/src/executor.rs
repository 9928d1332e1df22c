//! Deterministic campaign execution: the one engine behind
//! `CampaignConfig::jobs`, and the in-order pool it shares with triage.
//!
//! # One engine
//!
//! The calling thread is worker 0. It claims and processes seeds like
//! any other worker, and it is also the in-order collector; `jobs - 1`
//! scoped helpers claim seeds beside it (`in_order`). `jobs = 1`
//! therefore spawns no thread at all, and `jobs = N` runs on exactly N
//! threads, not N workers plus an idle collector. The shape is measured,
//! not cosmetic: on a 2-core host, running `jobs = 1` as one spawned
//! worker raised the single-core benchmark's peak RSS from 16.2–16.3 MB
//! to 19.1–19.4 MB (+18%, most likely a second malloc arena), while the
//! calling thread as worker kept it at 16.0–16.3 MB and the guided
//! two-thread workload at 89–98 MB.
//!
//! # Determinism contract
//!
//! A campaign's [`CampaignResult::digest`] must be **bit-identical** for
//! every `jobs` setting and across kill/resume cycles. The design that
//! guarantees this:
//!
//! * **Sharding** — a shared atomic claim counter hands out seed
//!   *offsets* in increasing order. A thread that claims an offset always
//!   processes it ("claimed-must-process"), so the set of completed
//!   offsets is a contiguous prefix of the seed range at every point in
//!   time — exactly the shape a checkpoint needs.
//! * **Pure seed work** — `process_seed` touches no shared state: it
//!   generates the seed, compiles it once, validates it, and runs the
//!   baseline, returning everything in a `SeedRecord`.
//! * **Deterministic merge** — the calling thread buffers out-of-order
//!   records and folds them into the result strictly in seed order via
//!   `merge_seed`. Quarantine writes and checkpoints happen only
//!   there, in seed order.
//! * **One cutoff, checked at claim time** — `cutoffs` is the only
//!   place that reads the deadline and `stop_after_seeds`. Both stop new
//!   claims, never a claimed seed, so a cutoff still leaves a
//!   contiguous, resumable prefix.
//! * **One checkpoint writer** — `checkpoint` stamps the volatile
//!   totals and saves the state, at cadence points, at the end of the
//!   seed loop, and after triage.
//!
//! `tests/parallel_determinism.rs` holds the engine to this contract and
//! pins absolute digests, so a change that moves every `jobs` setting at
//! once still fails.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cse_vm::supervise::contain_panics;
use cse_vm::{SharedArtifactCache, Symptom, VmPanic};

use crate::baseline;
use crate::campaign::{BugEvidence, CampaignConfig, CampaignResult};
use crate::coverage::{PlanVariant, TaskSpec};
use crate::supervisor::{self, HarnessIncident, IncidentPhase};
use crate::triage::SeenSignatures;
use crate::validate::{self, DiscrepancyKind, ValidateConfig, ValidationOutcome};

/// Everything a campaign segment needs besides the result being built.
pub(crate) struct ExecContext<'a> {
    pub config: &'a CampaignConfig,
    pub validate_config: ValidateConfig,
    /// When this invocation started (deadline base).
    pub start: Instant,
    /// Wall time accumulated by previous (killed) invocations.
    pub prior_wall: Duration,
    /// The coverage scheduler's task assignments for the current guided
    /// round (`None` = unguided: every offset runs its natural seed,
    /// unfocused, baseline plan).
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

/// The complete, self-contained outcome of one seed: what a worker hands
/// to the in-order merge. Contains no shared state and no open
/// resources, so it can cross threads freely.
struct SeedRecord {
    /// Seed offset (for task lookups at the merge barrier).
    offset: u64,
    seed_value: u64,
    outcome: ValidationOutcome,
    /// Baseline verdict when `run_traditional` is on; a contained panic
    /// carries the pretty-printed seed for the incident report.
    baseline: Option<Result<baseline::BaselineOutcome, (VmPanic, String)>>,
}

/// Runs one segment of the campaign: the seed offsets from
/// `result.totals.seeds` (merges form a contiguous prefix from offset 0,
/// so the merged count is also the next offset) up to `end`, on
/// `config.jobs` threads. Unguided campaigns run the single segment
/// `end = config.seeds`; guided ones run one round per segment.
/// `processed` counts seeds merged by this *invocation*: the
/// `stop_after_seeds` budget spans segments.
pub(crate) fn run(
    ctx: &ExecContext<'_>,
    result: &mut CampaignResult,
    held: &mut SeenSignatures,
    end: u64,
    processed: &mut u64,
) {
    let sup = &ctx.config.supervisor;
    let (range, open) = cutoffs(ctx, result.totals.seeds, end, *processed);
    in_order(
        ctx.config.jobs,
        range,
        open,
        |offset| process_seed(ctx, offset),
        |record| {
            merge_seed(ctx, result, held, record);
            *processed += 1;
            if sup.checkpoint_path.is_some() && processed.is_multiple_of(sup.cadence()) {
                checkpoint(ctx, result);
            }
        },
    );
}

/// The campaign's cutoffs — the only place that reads the deadline and
/// `stop_after_seeds`. The remaining budget shrinks the segment's range
/// up front; the returned predicate closes it once the deadline passes.
/// [`in_order`] consults both before every claim, so a cutoff never
/// splits a claimed seed.
fn cutoffs<'a>(
    ctx: &'a ExecContext<'_>,
    next: u64,
    end: u64,
    processed: u64,
) -> (Range<u64>, impl Fn() -> bool + Sync + 'a) {
    let sup = &ctx.config.supervisor;
    let budget = sup.stop_after_seeds.map_or(u64::MAX, |limit| limit.saturating_sub(processed));
    let end = end.min(next.saturating_add(budget));
    let open = move || sup.deadline.is_none_or(|deadline| ctx.start.elapsed() < deadline);
    (next..end, open)
}

/// Stamps the volatile totals (`partial`, `wall`) and saves the
/// checkpoint when the campaign is supervised. The only checkpoint
/// writer: cadence points, the end of the seed loop and the post-triage
/// state all come through here.
pub(crate) fn checkpoint(ctx: &ExecContext<'_>, result: &mut CampaignResult) {
    let config = ctx.config;
    result.totals.partial = result.totals.seeds < config.seeds;
    result.totals.wall = ctx.prior_wall + ctx.start.elapsed();
    if let Some(path) = &config.supervisor.checkpoint_path {
        if let Err(e) = supervisor::save_checkpoint(path, config, result) {
            eprintln!("warning: checkpoint write failed: {e}");
        }
    }
}

/// The in-order pool campaigns and triage run on. Items of `range` are
/// claimed in increasing order while `open()` holds, by `jobs` threads:
/// the calling thread plus `jobs - 1` scoped helpers. Every claimed item
/// is processed by `work`, and the calling thread hands each result to
/// `merge` strictly in item order, so the merged items always form a
/// contiguous prefix and the outcome cannot depend on `jobs`.
///
/// The calling thread is worker 0 and the collector at once: between
/// its own items it folds whatever the helpers have finished, then
/// drains the rest once the claims run out (see the module docs for why
/// `jobs = 1` must not spawn).
pub(crate) fn in_order<T: Send>(
    jobs: usize,
    range: Range<u64>,
    open: impl Fn() -> bool + Sync,
    work: impl Fn(u64) -> T + Sync,
    mut merge: impl FnMut(T),
) {
    let counter = AtomicU64::new(range.start);
    // Checked before the counter moves: a claimed item is always
    // processed.
    let claim = || {
        if !open() {
            return None;
        }
        let at = counter.fetch_add(1, Ordering::SeqCst);
        (at < range.end).then_some(at)
    };
    let mut pending: BTreeMap<u64, T> = BTreeMap::new();
    let mut merged = range.start;
    let mut fold = |pending: &mut BTreeMap<u64, T>| {
        while let Some(item) = pending.remove(&merged) {
            merge(item);
            merged += 1;
        }
    };
    let (tx, rx) = mpsc::channel::<(u64, T)>();
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            let tx = tx.clone();
            let (claim, work) = (&claim, &work);
            scope.spawn(move || {
                while let Some(at) = claim() {
                    if tx.send((at, work(at))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        while let Some(at) = claim() {
            pending.insert(at, work(at));
            pending.extend(rx.try_iter());
            fold(&mut pending);
        }
        for (at, item) in rx {
            pending.insert(at, item);
            fold(&mut pending);
        }
    });
    assert!(pending.is_empty(), "completed items must form a contiguous prefix");
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
    // A seed that never compiled has no baseline: its `SeedCompile`
    // incident already records the failure.
    let baseline = match &seed_bytecode {
        Ok(bytecode) if config.run_traditional => Some(
            contain_panics(|| baseline::traditional_compiled(bytecode, &config.vm))
                .map_err(|panic| (panic, cse_lang::pretty::print(&seed_program))),
        ),
        _ => None,
    };
    SeedRecord { offset, seed_value, outcome, baseline }
}

/// Folds one seed's record into the campaign result. This is the *only*
/// aggregation path, called strictly in seed order for every `jobs`
/// setting, which is what makes the digest independent of `jobs`.
///
/// A static-oracle incident keeps its source only when it is the first of
/// its triage signature in the campaign: `held` holds the signatures the
/// campaign already reported (rebuilt from the result's incidents on
/// resume), so a later one drops the program it carried and writes no
/// quarantine file of its own: its seed is added to the first one's file,
/// which holds the source, as an occurrence line. Harness incidents keep
/// their sources and are always quarantined.
fn merge_seed(
    ctx: &ExecContext<'_>,
    result: &mut CampaignResult,
    held: &mut SeenSignatures,
    record: SeedRecord,
) {
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
        );
    }
    let quarantine_vm = seed_vconfig(ctx, record.offset, seed_value).vm;
    for mut incident in std::mem::take(&mut outcome.incidents) {
        let at = result.incidents.len();
        let earlier =
            if incident.phase.is_static_oracle() { held.first_of(&incident, at) } else { None };
        if let Some(first) = earlier {
            incident.source = None;
            if let Some(dir) = &sup.quarantine_dir {
                let first = &result.incidents[first];
                if let Err(e) = supervisor::quarantine_occurrence(dir, first, incident.seed) {
                    eprintln!("warning: quarantine write failed: {e}");
                }
            }
        } else if let Some(dir) = &sup.quarantine_dir {
            if let Err(e) = supervisor::quarantine_incident(dir, &incident, &quarantine_vm) {
                eprintln!("warning: quarantine write failed: {e}");
            }
        }
        result.incidents.push(incident);
    }
    if outcome.found_bug() {
        result.cse_seeds.push(seed_value);
    }
    for mut discrepancy in outcome.discrepancies {
        if let (DiscrepancyKind::Crash(info), Some(source)) =
            (&discrepancy.kind, &discrepancy.mutant_source)
        {
            if let Some(dir) = &sup.quarantine_dir {
                if let Err(e) = supervisor::quarantine_crash(
                    dir,
                    seed_value,
                    seed_value,
                    discrepancy.culprit,
                    info,
                    source,
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
                    // A bug's first discrepancy in the campaign is its
                    // first in that seed, which validation printed.
                    reproducer: discrepancy
                        .mutant_source
                        .take()
                        .expect("a culprit's first discrepancy in a seed carries its source"),
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
