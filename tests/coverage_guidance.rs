//! Acceptance tests for coverage-guided exploration: collection does not
//! perturb a run, and `guide` is jobs-invariant and kill/resume-invariant.

use std::path::PathBuf;

use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::supervisor::{IncidentPhase, SupervisorConfig};
use cse_core::validate::compile_checked;
use cse_core::{Artemis, CoveragePolicy, SynthParams};
use cse_vm::{Vm, VmConfig, VmKind};

const SEEDS: u64 = 12;

/// Runs a campaign and asserts that every incident it recorded is a
/// static-oracle finding. A contained panic (the debug-build IR check's
/// included) surfaces only as a harness incident, which no other
/// assertion here would see.
fn campaign(config: &CampaignConfig) -> CampaignResult {
    let result = run_campaign(config);
    for incident in &result.incidents {
        assert!(
            matches!(incident.phase, IncidentPhase::IrVerifyDefect | IncidentPhase::TvDefect),
            "harness incident in {:?} (seed {}): {}",
            incident.phase,
            incident.seed,
            incident.payload
        );
    }
    result
}

/// A unique scratch directory per test (tests share one process).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cse-coverage-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Coverage collection observes without perturbing: over fuzzer seeds
/// 0-15 and their JoNM mutants, on every profile with its default bugs, a
/// run with `VmConfig::coverage` on equals the same run with it off in
/// output, outcome, events and `ExecStats`. `guide` collects in every
/// seed and mutant run, so a perturbing collector would change what a
/// guided campaign finds, not only how it schedules.
#[test]
fn coverage_collection_leaves_every_run_unchanged() {
    let mut covered_runs = 0;
    for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
        let vm = VmConfig::for_kind(kind);
        for seed_value in 0..16u64 {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let mut artemis = Artemis::new(seed_value, SynthParams::for_kind(kind));
            let mutants = (0..2).map(|_| artemis.jonm(&seed).0);
            for (index, program) in std::iter::once(seed.clone()).chain(mutants).enumerate() {
                let label = format!("{kind} seed {seed_value} program {index}");
                let bytecode = compile_checked(&program);
                let off = Vm::run_program(&bytecode, vm.clone().with_coverage(false));
                let on = Vm::run_program(&bytecode, vm.clone().with_coverage(true));
                assert_eq!(off.coverage.count(), 0, "{label}: collection off records nothing");
                assert_eq!(on.output, off.output, "{label}: output");
                assert_eq!(on.outcome, off.outcome, "{label}: outcome");
                assert_eq!(on.events, off.events, "{label}: events");
                assert_eq!(on.stats, off.stats, "{label}: stats");
                if on.coverage.count() > 0 {
                    covered_runs += 1;
                }
            }
        }
    }
    assert!(covered_runs > 0, "calibration: collection on must record cells");
}

/// The full feedback loop — map merge, corpus admission, round
/// scheduling — must be bit-identical across worker counts.
#[test]
fn guided_campaign_is_jobs_invariant() {
    let base =
        CampaignConfig::for_kind(VmKind::OpenJ9Like, SEEDS).with_coverage(CoveragePolicy::Guide);
    let reference = campaign(&base);
    for jobs in [4, 8] {
        let config = base.clone().with_jobs(jobs);
        let result = campaign(&config);
        assert_eq!(
            result.digest(&config),
            reference.digest(&base),
            "guided digest must not depend on jobs ({jobs})"
        );
        assert!(
            result.coverage.as_ref().expect("guided state")
                == reference.coverage.as_ref().expect("guided state"),
            "coverage state must not depend on jobs ({jobs})"
        );
    }
}

/// A guided campaign killed and resumed from its v10 checkpoint must be
/// bit-identical to an uninterrupted run, at every `jobs` setting. Kill
/// point 4 lands on a round barrier (`ROUND_LEN` is 4), so the resume
/// recomputes the next round's schedule; kill point 5 lands mid-round,
/// where the persisted schedule is what makes the resume exact.
#[test]
fn guided_kill_resume_mid_round_is_bit_identical() {
    const KILL_SEEDS: u64 = 10;
    let uninterrupted = campaign(
        &CampaignConfig::for_kind(VmKind::HotSpotLike, KILL_SEEDS)
            .with_coverage(CoveragePolicy::Guide),
    );

    for kill_at in [4, 5] {
        for jobs in [1, 2] {
            let label = format!("kill at {kill_at}, jobs={jobs}");
            let dir = scratch(&format!("resume-{kill_at}-{jobs}"));
            let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, KILL_SEEDS)
                .with_coverage(CoveragePolicy::Guide)
                .with_jobs(jobs);
            config.supervisor = SupervisorConfig {
                checkpoint_path: Some(dir.join("campaign.checkpoint")),
                checkpoint_every: 1,
                stop_after_seeds: Some(kill_at),
                ..SupervisorConfig::default()
            };
            let killed = campaign(&config);
            assert!(killed.totals.partial, "{label}");
            assert_eq!(killed.totals.seeds, kill_at, "{label}: the kill must land where aimed");

            let mut resumed = killed;
            let mut invocations = 1;
            while resumed.totals.partial {
                resumed = campaign(&config);
                invocations += 1;
                assert!(invocations <= 10, "{label}: campaign must converge");
            }
            assert_eq!(resumed.totals.seeds, KILL_SEEDS, "{label}");
            assert_eq!(
                resumed.digest(&config),
                uninterrupted.digest(&config),
                "{label}: resume must be bit-identical to an uninterrupted run"
            );
            assert!(
                resumed.coverage.as_ref().expect("guided state")
                    == uninterrupted.coverage.as_ref().expect("guided state"),
                "{label}: coverage state must round-trip through checkpoint v10 exactly"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
