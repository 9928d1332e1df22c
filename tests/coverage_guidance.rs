//! Acceptance tests for coverage-guided exploration: `collect` finds
//! what `off` finds, jobs-invariance and kill/resume-invariance under
//! `guide`, and the guidance payoff (strictly more cells at the same
//! execution budget).

use std::path::PathBuf;

use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::supervisor::SupervisorConfig;
use cse_core::CoveragePolicy;
use cse_vm::VmKind;

const SEEDS: u64 = 12;

/// A unique scratch directory per test (tests share one process).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cse-coverage-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `collect` must observe without perturbing: the output oracle reports
/// what it reports under `off` (bugs, discrepant seeds, mutant and
/// invocation totals), plus a non-trivial coverage report on the side.
/// The digests differ by design: the coverage policy is part of the
/// campaign's identity and the coverage state is digested.
#[test]
fn collect_observes_without_changing_the_campaign_digest() {
    let off_config =
        CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS).with_coverage(CoveragePolicy::Off);
    let off = run_campaign(&off_config);
    assert!(off.coverage.is_none(), "off campaigns must carry no coverage state");

    let collect_config =
        CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS).with_coverage(CoveragePolicy::Collect);
    let collect = run_campaign(&collect_config);
    let state = collect.coverage.as_ref().expect("collect campaigns carry coverage state");
    assert!(state.cells() > 0, "a JIT-heavy campaign must cover cells");
    assert!(!state.corpus.is_empty(), "novel mutants must enter the corpus");

    assert!(!off.bugs.is_empty(), "calibration: the campaign finds bugs");
    assert_eq!(
        off.bugs.keys().collect::<Vec<_>>(),
        collect.bugs.keys().collect::<Vec<_>>(),
        "collection must not perturb what the campaign finds"
    );
    assert_eq!(off.cse_seeds, collect.cse_seeds);
    assert_eq!(off.totals.mutants, collect.totals.mutants);
    assert_eq!(off.totals.completed, collect.totals.completed);
    assert_eq!(off.totals.vm_invocations, collect.totals.vm_invocations);
}

/// The full feedback loop — map merge, corpus admission, round
/// scheduling — must be bit-identical across worker counts.
#[test]
fn guided_campaign_is_jobs_invariant() {
    let base =
        CampaignConfig::for_kind(VmKind::OpenJ9Like, SEEDS).with_coverage(CoveragePolicy::Guide);
    let reference = run_campaign(&base);
    for jobs in [4, 8] {
        let config = base.clone().with_jobs(jobs);
        let result = run_campaign(&config);
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
    let uninterrupted = run_campaign(
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
            let killed = run_campaign(&config);
            assert!(killed.totals.partial, "{label}");
            assert_eq!(killed.totals.seeds, kill_at, "{label}: the kill must land where aimed");

            let mut resumed = killed;
            let mut invocations = 1;
            while resumed.totals.partial {
                resumed = run_campaign(&config);
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

/// The payoff: at the same seed budget, guidance must reach coverage
/// cells uniform sampling does not (forced top-tier plans alone
/// guarantee compilations of methods warmup never promotes).
#[test]
fn guide_covers_strictly_more_cells_than_collect_at_equal_budget() {
    let collect = run_campaign(
        &CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS)
            .with_coverage(CoveragePolicy::Collect),
    );
    let guide = run_campaign(
        &CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS).with_coverage(CoveragePolicy::Guide),
    );
    assert_eq!(collect.totals.seeds, guide.totals.seeds, "equal budget");
    let collect_cells = collect.coverage.as_ref().expect("state").cells();
    let guide_cells = guide.coverage.as_ref().expect("state").cells();
    assert!(
        guide_cells > collect_cells,
        "guide must strictly beat uniform sampling ({guide_cells} vs {collect_cells} cells)"
    );
}
