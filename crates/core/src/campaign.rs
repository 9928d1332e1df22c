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

use cse_vm::{BugId, Component, Symptom, VmConfig, VmKind};

use crate::coverage::{self, CoverageMode, CoveragePolicy, CoverageState};
use crate::executor;
use crate::supervisor::{self, HarnessIncident, IncidentPhase, SupervisorConfig};
use crate::triage::TriageConfig;
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
    /// Worker threads for seed processing. `1` (the default) runs the
    /// serial reference loop; `N > 1` shards seeds across `N` workers
    /// with a deterministic in-order merge, producing a **bit-identical**
    /// [`CampaignResult::digest`] for every value (see
    /// [`crate::executor`]). Deliberately not part of the checkpoint
    /// identity: a campaign checkpointed at one `jobs` setting resumes
    /// under any other.
    pub jobs: usize,
    /// When set, every quarantined incident is triaged after the
    /// campaign's seed range is exhausted: reduced, deduplicated by bug
    /// signature, and re-executed for a flakiness verdict (see
    /// [`crate::triage`]). The triage counters join the campaign digest;
    /// the full report rides on [`CampaignResult::triage`].
    pub triage: Option<TriageConfig>,
    /// JIT-behavior coverage policy (see [`crate::coverage`]). `Auto`
    /// (the default) follows the `CSE_COVERAGE` environment knob; `Off`
    /// reproduces the pre-coverage campaign byte-for-byte, `Collect`
    /// additionally merges coverage maps (digest-identical to `Off`),
    /// `Guide` feeds the merged map back into round scheduling.
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
            coverage: CoveragePolicy::Auto,
        }
    }

    /// Same campaign, processed by `jobs` worker threads.
    pub fn with_jobs(mut self, jobs: usize) -> CampaignConfig {
        self.jobs = jobs.max(1);
        self
    }

    /// Same campaign, with an explicit coverage policy (tests use this
    /// instead of mutating `CSE_COVERAGE`).
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
    /// enables the per-pass semantic oracle. Persisted in checkpoints but
    /// masked out of [`CampaignResult::digest`] (with the matching
    /// `TvDefect` incidents), so digests are bit-identical across
    /// `CSE_TV` settings — the validator observes campaigns, it never
    /// changes what they find.
    pub tv_defects: u64,
    /// Triage: promoted reports (deterministic or flaky), 0 unless
    /// `CampaignConfig::triage` is set. Part of the campaign digest —
    /// triage verdicts are deterministic, so these counters are
    /// bit-identical across machines and worker counts.
    pub triage_reports: u64,
    /// Triage: duplicate incidents collapsed into existing signatures.
    pub triage_duplicates: u64,
    /// Triage: promoted reports whose repro was classified flaky.
    pub triage_flaky: u64,
    /// Triage: signature groups that never re-reproduced (suppressed,
    /// never promoted to reports).
    pub triage_unreproducible: u64,
    /// Compiled-code/decode artifact cache hits across the campaign's
    /// per-seed [`cse_vm::SharedArtifactCache`]s. Measures the cache,
    /// not the campaign, so these two counters are persisted in
    /// checkpoints but zeroed out of [`CampaignResult::digest`].
    pub artifact_cache_hits: u64,
    /// Artifact-cache misses (units compiled / programs decoded fresh).
    pub artifact_cache_misses: u64,
    /// True when the campaign stopped before exhausting its seed range
    /// (deadline expiry or a simulated kill); resume from the checkpoint
    /// to finish it.
    pub partial: bool,
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
    /// Incident triage report (reduction, dedup, flakiness), present
    /// when [`CampaignConfig::triage`] is set and the campaign finished
    /// its seed range. Recomputed deterministically on resume rather
    /// than checkpointed; the triage counters in [`CampaignTotals`]
    /// carry its identity into the digest.
    pub triage: Option<crate::triage::TriageReport>,
    /// Merged coverage state, present when the campaign ran under
    /// `CSE_COVERAGE=collect|guide`. Persisted as the checkpoint's
    /// trailing section but masked out of [`CampaignResult::digest`]:
    /// under `collect` coverage only observes, so the digest stays
    /// identical to `off`; under `guide` the schedule it drives already
    /// shapes every digested field.
    pub coverage: Option<CoverageState>,
    pub totals: CampaignTotals,
}

impl CampaignResult {
    /// Bug count by symptom (Table 1's type split).
    pub fn by_symptom(&self) -> BTreeMap<Symptom, usize> {
        let mut map = BTreeMap::new();
        for evidence in self.bugs.values() {
            *map.entry(evidence.symptom).or_insert(0) += 1;
        }
        map
    }

    /// Crash-bug count by affected component (Table 2).
    pub fn crash_components(&self) -> BTreeMap<Component, usize> {
        let mut map = BTreeMap::new();
        for evidence in self.bugs.values() {
            if evidence.symptom == Symptom::Crash {
                *map.entry(evidence.component).or_insert(0) += 1;
            }
        }
        map
    }

    /// Total duplicate occurrences (re-discoveries of known bugs).
    pub fn duplicates(&self) -> usize {
        self.bugs.values().map(|e| e.occurrences.saturating_sub(1)).sum()
    }

    /// Content digest over every deterministic field (everything except
    /// `totals.wall`, the two artifact-cache counters — which measure
    /// the cache rather than what the campaign observed — and the
    /// translation-validator observations, which depend on the `CSE_TV`
    /// mode). A campaign killed mid-run and resumed from its checkpoint
    /// produces the same digest as an uninterrupted run.
    pub fn digest(&self, config: &CampaignConfig) -> u64 {
        let mut stable = self.clone();
        stable.totals.artifact_cache_hits = 0;
        stable.totals.artifact_cache_misses = 0;
        stable.totals.tv_defects = 0;
        stable.incidents.retain(|i| i.phase != IncidentPhase::TvDefect);
        stable.coverage = None;
        let canonical = supervisor::encode(config, 0, &stable, 0);
        // FNV-1a, 64-bit.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in canonical.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Runs a campaign (resuming from the supervisor's checkpoint when one
/// exists).
///
/// `config.jobs` selects the execution engine — the serial reference
/// loop or the deterministic parallel executor (see [`crate::executor`]);
/// the result (and its digest) is identical either way.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    let start = Instant::now();
    let sup = &config.supervisor;
    let mode = config.coverage.resolve();
    let mut result = CampaignResult::default();
    // Seed *offset* of the next seed to validate (0-based).
    let mut next: u64 = 0;
    if let Some(path) = &sup.checkpoint_path {
        match supervisor::load_checkpoint(path, config) {
            Ok(Some(checkpoint)) => {
                // A checkpoint written under a different coverage mode
                // cannot be resumed deterministically (the schedules
                // would diverge); restart instead, like a foreign
                // checkpoint.
                if checkpoint.result.coverage.is_some() != (mode != CoverageMode::Off) {
                    eprintln!(
                        "warning: ignoring checkpoint {}: coverage mode changed",
                        path.display()
                    );
                } else {
                    next = checkpoint.next_seed.min(config.seeds);
                    result = checkpoint.result;
                }
            }
            Ok(None) => {}
            Err(e) => {
                // A torn or foreign checkpoint: starting over is always
                // sound (campaigns are deterministic); resuming into the
                // wrong campaign never is.
                eprintln!("warning: ignoring unusable checkpoint {}: {e}", path.display());
            }
        }
    }
    if mode != CoverageMode::Off && result.coverage.is_none() {
        result.coverage = Some(CoverageState::default());
    }
    // Wall time accumulated by previous (killed) invocations.
    let prior_wall = result.totals.wall;
    let mut vm = config.vm.clone();
    vm.coverage = mode != CoverageMode::Off;
    let validate_config =
        ValidateConfig { max_iter: config.max_iter, ..ValidateConfig::paper_defaults(vm) };
    // Seeds processed by this invocation (the `stop_after_seeds` budget
    // spans rounds).
    let mut processed: u64 = 0;
    let mut result = if mode != CoverageMode::Guide {
        // Unguided: one pass over the whole remaining range.
        let ctx = executor::ExecContext { config, validate_config, start, prior_wall, round: None };
        executor::run(&ctx, result, next, config.seeds, &mut processed)
    } else {
        // Guided: synchronized rounds of `ROUND_LEN` seeds. Each round's
        // schedule is derived purely from the merged coverage state at
        // the round barrier (and persisted inside it, so a kill/resume
        // mid-round replays the identical schedule).
        loop {
            if next >= config.seeds {
                break result;
            }
            if sup.stop_after_seeds.is_some_and(|stop| processed >= stop) {
                break result;
            }
            if sup.deadline.is_some_and(|deadline| start.elapsed() >= deadline) {
                break result;
            }
            let round = next / coverage::ROUND_LEN;
            let round_start = round * coverage::ROUND_LEN;
            let round_end = (round_start + coverage::ROUND_LEN).min(config.seeds);
            let state = result.coverage.as_mut().expect("guided campaigns carry coverage state");
            let at_barrier = next == round_start;
            let stale =
                state.round != round || state.schedule.len() as u64 != round_end - round_start;
            if at_barrier || stale {
                let schedule = coverage::schedule_round(
                    &*state,
                    config.first_seed,
                    round,
                    round_end - round_start,
                    config.vm.tiers.len() >= 2,
                );
                state.round = round;
                state.schedule = schedule;
            }
            let round_tasks =
                executor::RoundTasks { base: round_start, tasks: state.schedule.clone() };
            let ctx = executor::ExecContext {
                config,
                validate_config: validate_config.clone(),
                start,
                prior_wall,
                round: Some(round_tasks),
            };
            result = executor::run(&ctx, result, next, round_end, &mut processed);
            // The executor merges a contiguous prefix from offset 0, so
            // the totals are also the resumption point.
            let reached = result.totals.seeds;
            debug_assert!(reached >= next && reached <= round_end);
            if reached < round_end {
                // Stopped mid-round (budget or deadline); the schedule
                // stays persisted in the state for the resume.
                break result;
            }
            next = reached;
        }
    };
    if result.totals.seeds < config.seeds {
        result.totals.partial = true;
    }
    // End-of-campaign triage: only once the seed range is exhausted (a
    // partial campaign triages after its resumed run finishes instead).
    // The report is recomputed — deterministically — on every completed
    // run, including a resume of an already-finished campaign, so the
    // counters and digest never depend on when the campaign was killed.
    if let (Some(tcfg), false) = (&config.triage, result.totals.partial) {
        let report = crate::triage::triage_campaign(config, tcfg, &result.incidents);
        result.totals.triage_reports = report.reports.len() as u64;
        result.totals.triage_duplicates = report.duplicates() as u64;
        result.totals.triage_flaky = report.flaky() as u64;
        result.totals.triage_unreproducible = report.suppressed.len() as u64;
        result.triage = Some(report);
        if let Some(path) = &sup.checkpoint_path {
            // Fold the triage counters into the final checkpoint so a
            // resume of the finished campaign starts from a state that
            // round-trips to the same digest.
            if let Err(e) = supervisor::save_checkpoint(path, config, config.seeds, &result) {
                eprintln!("warning: final checkpoint write failed: {e}");
            }
        }
    }
    result
}
