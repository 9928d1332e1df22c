//! Fuzzing campaigns: the driver behind the paper's §4 evaluation.
//!
//! A campaign generates seeds (JavaFuzzer analog), validates each with
//! Artemis (Algorithm 1), optionally runs the traditional baseline on the
//! same seeds (the §4.3 comparative study), and aggregates per-bug
//! statistics with ground-truth deduplication (Table 1's
//! Reported/Duplicate split).
//!
//! The driver is crash-isolated: every VM invocation inside validation
//! goes through the panic barrier, contained failures surface as
//! [`HarnessIncident`]s on the result instead of tearing the campaign
//! down, and — when supervision is configured — campaign state is
//! checkpointed so a killed campaign resumes exactly where it stopped
//! and produces a bit-identical [`CampaignResult`] (see
//! [`CampaignResult::digest`]). Crashing and panicking inputs are
//! persisted to a quarantine directory as self-contained repro files.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cse_vm::{BugId, Component, Settings, Symptom, VmConfig, VmKind};

use crate::coverage::{self, CoveragePolicy, CoverageState};
use crate::executor;
use crate::supervisor::{self, HarnessIncident, SupervisorConfig};
use crate::triage::{SeenSignatures, TriageConfig};
use crate::validate::ValidateConfig;

/// Campaign settings.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub vm: VmConfig,
    /// Seeds to generate and validate.
    pub seeds: u64,
    /// First seed value (campaigns are fully deterministic).
    pub first_seed: u64,
    /// Mutants per seed (`MAX_ITER`).
    pub max_iter: usize,
    /// Also run the traditional baseline on every seed (§4.3 study).
    pub run_traditional: bool,
    /// Seed-generator settings.
    pub fuzz: cse_fuzz::FuzzConfig,
    /// Supervision: checkpointing, quarantine, deadline. The default is
    /// fully passive (no checkpoints, no quarantine, no deadline) —
    /// panic containment inside validation is always on.
    pub supervisor: SupervisorConfig,
    /// Threads processing seeds: the calling thread plus `jobs - 1`
    /// scoped helpers, so `1` (the default) spawns none. Seeds are merged
    /// in order on the calling thread, producing a **bit-identical**
    /// [`CampaignResult::digest`] for every value (see
    /// [`crate::executor`]). Deliberately not part of the checkpoint
    /// identity: a campaign checkpointed at one `jobs` setting resumes
    /// under any other.
    pub jobs: usize,
    /// When set, every quarantined incident is triaged after the
    /// campaign's seed range is exhausted: deduplicated by bug
    /// signature, reduced, and replayed for a verdict (see
    /// [`crate::triage`]). The triage counters join the campaign digest;
    /// the full report rides on [`CampaignResult::triage`].
    pub triage: Option<TriageConfig>,
    /// JIT-behavior coverage policy (see [`crate::coverage`]). The
    /// default comes from `CSE_COVERAGE` (see [`cse_vm::settings`]); `Off`
    /// reproduces the pre-coverage campaign byte-for-byte, `Guide` merges
    /// coverage maps and feeds them back into round scheduling.
    pub coverage: CoveragePolicy,
}

impl CampaignConfig {
    /// Paper-style campaign against a VM profile with its default bug set.
    pub fn for_kind(kind: VmKind, seeds: u64) -> CampaignConfig {
        CampaignConfig {
            vm: VmConfig::for_kind(kind),
            seeds,
            first_seed: 0,
            max_iter: 8,
            run_traditional: false,
            fuzz: cse_fuzz::FuzzConfig::default(),
            supervisor: SupervisorConfig::default(),
            jobs: 1,
            triage: None,
            coverage: Settings::get().coverage,
        }
    }

    /// Same campaign, processed by `jobs` worker threads.
    pub fn with_jobs(mut self, jobs: usize) -> CampaignConfig {
        self.jobs = jobs.max(1);
        self
    }

    /// Same campaign, with an explicit coverage policy (overriding
    /// `CSE_COVERAGE`).
    pub fn with_coverage(mut self, policy: CoveragePolicy) -> CampaignConfig {
        self.coverage = policy;
        self
    }

    /// Same campaign, with end-of-campaign incident triage enabled
    /// (settings derived from the campaign itself; see
    /// [`TriageConfig::for_campaign`]).
    pub fn with_triage(mut self) -> CampaignConfig {
        self.triage = Some(TriageConfig::for_campaign(&self));
        self
    }
}

/// Aggregated evidence for one discovered bug.
#[derive(Debug, Clone)]
pub struct BugEvidence {
    pub bug: BugId,
    pub component: Component,
    pub symptom: Symptom,
    /// How many distinct (seed, mutant) pairs exposed it — occurrences
    /// beyond the first are the paper's "Duplicate" class.
    pub occurrences: usize,
    /// The seed value that first exposed it.
    pub first_seed: u64,
    /// A reproducer: the first mutant source exposing the bug.
    pub reproducer: String,
}

/// Campaign totals. The mutant counters satisfy
/// `mutants = completed + discarded` (see
/// [`crate::validate::ValidationOutcome`] for the per-seed invariant
/// these aggregate).
#[derive(Debug, Clone, Default)]
pub struct CampaignTotals {
    pub seeds: u64,
    pub mutants: u64,
    /// Mutants that ran to a full oracle verdict.
    pub completed: u64,
    pub vm_invocations: u64,
    /// Mutants that ran but yielded no verdict.
    pub discarded: u64,
    /// Seeds whose own run timed out or panicked (no mutants attempted).
    pub seeds_discarded: u64,
    /// Mutants quarantined for failing compilation (mutator bugs).
    pub mutant_compile_failures: u64,
    pub neutrality_violations: u64,
    /// Defects flagged by the static IR verifier (`cse_vm::jit::verify`)
    /// across seed and mutant runs; 0 unless `vm.verify_ir` enables the
    /// third oracle.
    pub ir_verify_defects: u64,
    /// Refinement violations flagged by the translation validator
    /// (`cse_vm::jit::tv`) across seed and mutant runs; 0 unless `vm.tv`
    /// enables the per-pass semantic oracle. Digested like
    /// `ir_verify_defects`: the TV mode is part of the campaign's
    /// identity.
    pub tv_defects: u64,
    /// Triage: promoted (deterministic) reports, 0 unless
    /// `CampaignConfig::triage` is set. Part of the campaign digest —
    /// triage verdicts are deterministic, so these counters are
    /// bit-identical across machines and worker counts.
    pub triage_reports: u64,
    /// Triage: duplicate incidents collapsed into existing signatures.
    pub triage_duplicates: u64,
    /// Triage: signature groups that did not replay (suppressed, never
    /// promoted to reports).
    pub triage_unreproducible: u64,
    /// True when the campaign stopped before exhausting its seed range
    /// (deadline expiry or a simulated kill); resume from the checkpoint
    /// to finish it.
    pub partial: bool,
    /// Wall time across every invocation: the one observed field, kept
    /// out of the digest and written as the checkpoint's trailer.
    pub wall: Duration,
}

/// The result of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Ground-truth-deduplicated bugs, keyed by id.
    pub bugs: BTreeMap<BugId, BugEvidence>,
    /// Discrepancies that could not be attributed (counted but unkeyed).
    pub unattributed: usize,
    /// Seeds on which CSE found at least one discrepancy.
    pub cse_seeds: Vec<u64>,
    /// Seeds on which the traditional baseline found a discrepancy.
    pub traditional_seeds: Vec<u64>,
    /// Contained harness failures, in seed order.
    pub incidents: Vec<HarnessIncident>,
    /// Incident triage report (dedup, reduction, replay verdict), present
    /// when [`CampaignConfig::triage`] is set and the campaign finished
    /// its seed range. Recomputed deterministically on resume rather
    /// than checkpointed; the triage counters in [`CampaignTotals`]
    /// carry its identity into the digest.
    pub triage: Option<crate::triage::TriageReport>,
    /// Merged coverage state, present when the campaign ran under
    /// `CSE_COVERAGE=guide`. Persisted as the checkpoint's
    /// coverage section and digested with the rest of the result; the
    /// coverage policy is part of the campaign's identity.
    pub coverage: Option<CoverageState>,
    pub totals: CampaignTotals,
}

impl CampaignResult {
    /// Total duplicate occurrences (re-discoveries of known bugs).
    pub fn duplicates(&self) -> usize {
        self.bugs.values().map(|e| e.occurrences.saturating_sub(1)).sum()
    }

    /// Content digest of the checkpoint's canonical encoding: the
    /// campaign's identity (every setting that can change a result) and
    /// every field but `totals.wall`, oracle findings and coverage state
    /// included. A campaign killed mid-run and resumed from its
    /// checkpoint produces the same digest as an uninterrupted run.
    pub fn digest(&self, config: &CampaignConfig) -> u64 {
        supervisor::digest(config, self)
    }
}

/// Runs a campaign (resuming from the supervisor's checkpoint when one
/// exists).
///
/// Every `config.jobs` setting runs the same engine (see
/// [`crate::executor`]): the calling thread processes seeds beside
/// `jobs - 1` helpers and merges them in seed order, so the result and
/// its digest are identical for every value.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    let start = Instant::now();
    let sup = &config.supervisor;
    let guided = config.coverage == CoveragePolicy::Guide;
    let mut result = CampaignResult::default();
    if let Some(path) = &sup.checkpoint_path {
        match supervisor::load_checkpoint(path, config) {
            Ok(Some(resumed)) => result = resumed,
            Ok(None) => {}
            Err(e) => {
                // A torn or foreign checkpoint: starting over is always
                // sound (campaigns are deterministic); resuming into the
                // wrong campaign never is.
                eprintln!("warning: ignoring unusable checkpoint {}: {e}", path.display());
            }
        }
    }
    if guided && result.coverage.is_none() {
        result.coverage = Some(CoverageState::default());
    }
    // Wall time accumulated by previous (killed) invocations.
    let prior_wall = result.totals.wall;
    let mut vm = config.vm.clone();
    vm.coverage = guided;
    let validate_config =
        ValidateConfig { max_iter: config.max_iter, ..ValidateConfig::paper_defaults(vm) };
    let mut ctx = executor::ExecContext { config, validate_config, start, prior_wall, round: None };
    // The static-oracle signatures the campaign holds a source for.
    let mut held = SeenSignatures::of(&result.incidents);
    // Seeds processed by this invocation (the `stop_after_seeds` budget
    // spans segments).
    let mut processed: u64 = 0;
    // One loop over segments. An unguided campaign is the single segment
    // `[next, seeds)` with no tasks. A guided one runs synchronized rounds
    // of `ROUND_LEN` seeds, each round's schedule derived purely from the
    // merged coverage state at its barrier (and persisted inside it, so a
    // kill/resume mid-round replays the identical schedule). A segment
    // that stops short — a cutoff closed its claims — ends the loop. A
    // schedule computed at a barrier nobody then claims from is saved
    // and digested with the state; the resume recomputes the identical
    // schedule at that barrier, so the digest does not depend on where
    // the campaign was killed.
    loop {
        // Merges form a contiguous prefix from offset 0, so the merged
        // count is the offset of the next seed to validate.
        let next = result.totals.seeds;
        let end = if guided && next < config.seeds {
            let round = next / coverage::ROUND_LEN;
            let round_start = round * coverage::ROUND_LEN;
            let round_end = (round_start + coverage::ROUND_LEN).min(config.seeds);
            let state = result.coverage.as_mut().expect("guided campaigns carry coverage state");
            let stale =
                state.round != round || state.schedule.len() as u64 != round_end - round_start;
            if next == round_start || stale {
                state.schedule = coverage::schedule_round(
                    &*state,
                    config.first_seed,
                    round,
                    round_end - round_start,
                    config.vm.tiers.len() >= 2,
                );
                state.round = round;
            }
            ctx.round =
                Some(executor::RoundTasks { base: round_start, tasks: state.schedule.clone() });
            round_end
        } else {
            // Unguided, or a guided campaign resumed with its range
            // already exhausted: nothing left to schedule.
            config.seeds
        };
        executor::run(&ctx, &mut result, &mut held, end, &mut processed);
        if result.totals.seeds < end || end >= config.seeds {
            break;
        }
    }
    executor::checkpoint(&ctx, &mut result);
    // End-of-campaign triage: only once the seed range is exhausted (a
    // partial campaign triages after its resumed run finishes instead).
    // The report is recomputed — deterministically — on every completed
    // run, including a resume of an already-finished campaign, so the
    // counters and digest never depend on when the campaign was killed.
    if let (Some(tcfg), false) = (&config.triage, result.totals.partial) {
        let report = crate::triage::triage_campaign(config, tcfg, &result.incidents);
        result.totals.triage_reports = report.reports.len() as u64;
        result.totals.triage_duplicates = report.duplicates() as u64;
        result.totals.triage_unreproducible = report.suppressed.len() as u64;
        result.triage = Some(report);
        // Fold the triage counters into the final checkpoint so a resume
        // of the finished campaign starts from a state that round-trips
        // to the same digest.
        executor::checkpoint(&ctx, &mut result);
    }
    result
}
