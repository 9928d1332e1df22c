//! The campaign engine's determinism contract. There is one engine: the
//! calling thread processes seeds beside `jobs - 1` helpers and merges
//! them in seed order. For every `jobs` setting `run_campaign` must
//! produce a **bit-identical** `CampaignResult::digest` — including under
//! injected panics, deadline cutoffs and checkpointed resume. Comparing
//! the engine with itself cannot catch a change that moves every `jobs`
//! setting at once, so `digests_match_the_pinned_reference` also pins
//! absolute values.

use std::path::PathBuf;
use std::time::Duration;

use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::supervisor::{ChaosConfig, SupervisorConfig};
use cse_core::CoveragePolicy;
use cse_vm::{Settings, TvMode, VerifyMode, VmKind};

/// A unique scratch directory per test (tests share one process).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cse-parallel-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Fields that must not depend on scheduling (everything except wall
/// time, which the digest already excludes).
fn assert_identical(serial: &CampaignResult, parallel: &CampaignResult, label: &str) {
    assert_eq!(serial.totals.seeds, parallel.totals.seeds, "{label}: seeds");
    assert_eq!(serial.totals.mutants, parallel.totals.mutants, "{label}: mutants");
    assert_eq!(
        serial.totals.vm_invocations, parallel.totals.vm_invocations,
        "{label}: vm_invocations"
    );
    assert_eq!(serial.totals.partial, parallel.totals.partial, "{label}: partial");
    assert_eq!(serial.cse_seeds, parallel.cse_seeds, "{label}: cse_seeds");
    assert_eq!(serial.traditional_seeds, parallel.traditional_seeds, "{label}: traditional");
    assert_eq!(serial.unattributed, parallel.unattributed, "{label}: unattributed");
    assert_eq!(serial.incidents.len(), parallel.incidents.len(), "{label}: incidents");
    assert_eq!(
        serial.bugs.keys().collect::<Vec<_>>(),
        parallel.bugs.keys().collect::<Vec<_>>(),
        "{label}: bug set"
    );
}

/// Absolute digests at jobs 1 and 2. The VM budgets, both static oracles
/// and the coverage policy are set explicitly, so no `CSE_*` variable can
/// move the values; a change to the canonical encoding must update them
/// deliberately.
#[test]
fn digests_match_the_pinned_reference() {
    let pinned = [
        (VmKind::HotSpotLike, 12, CoveragePolicy::Off, 0xd796_0ae0_f681_9b22_u64),
        (VmKind::OpenJ9Like, 8, CoveragePolicy::Guide, 0x8056_e685_72b0_92d6),
    ];
    for (kind, seeds, policy, expected) in pinned {
        for jobs in [1, 2] {
            let mut config =
                CampaignConfig::for_kind(kind, seeds).with_coverage(policy).with_jobs(jobs);
            let defaults = Settings::default();
            config.vm.fuel = defaults.fuel;
            config.vm.max_heap_bytes = defaults.heap_limit;
            config.vm.stack_limit = defaults.stack_limit;
            config.vm.verify_ir = VerifyMode::Off;
            config.vm.tv = TvMode::Off;
            let digest = run_campaign(&config).digest(&config);
            assert_eq!(
                digest, expected,
                "{kind:?}, {seeds} seeds, {policy:?}, jobs={jobs}: got {digest:016x}"
            );
        }
    }
}

/// The headline property: digest(jobs = N) == digest(jobs = 1) for
/// N ∈ {2, 4, 8}, across several campaign shapes; the `jobs = 1` rerun
/// checks the engine against itself run to run.
#[test]
fn parallel_digest_matches_serial() {
    let mut shapes: Vec<(&str, CampaignConfig)> = Vec::new();
    shapes.push(("hotspot", CampaignConfig::for_kind(VmKind::HotSpotLike, 6)));
    let mut traditional = CampaignConfig::for_kind(VmKind::OpenJ9Like, 5);
    traditional.run_traditional = true;
    shapes.push(("openj9+traditional", traditional));
    let mut offset = CampaignConfig::for_kind(VmKind::ArtLike, 4);
    offset.first_seed = 100;
    offset.max_iter = 4;
    shapes.push(("art+offset", offset));

    for (label, config) in shapes {
        let serial = run_campaign(&config);
        let serial_digest = serial.digest(&config);
        for jobs in [1, 2, 4, 8] {
            let parallel_config = config.clone().with_jobs(jobs);
            let parallel = run_campaign(&parallel_config);
            assert_identical(&serial, &parallel, label);
            // `jobs` is not part of the digest's config identity: compare
            // under both configs to pin that down.
            assert_eq!(
                serial_digest,
                parallel.digest(&parallel_config),
                "{label}: digest must not depend on jobs={jobs}"
            );
            assert_eq!(
                serial_digest,
                parallel.digest(&config),
                "{label}: digest must not encode the jobs knob (jobs={jobs})"
            );
        }
    }
}

/// A chaos-injected VM panic on one seed must be contained by the worker
/// that drew it and merged at the right position — identically to the
/// serial run.
#[test]
fn injected_panic_is_deterministic_across_jobs() {
    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, 6);
    config.supervisor.chaos = Some(ChaosConfig { panic_on_seed: 3, after_ops: 1_000 });
    let serial = run_campaign(&config);
    assert!(!serial.incidents.is_empty(), "calibration: the chaos panic must fire");
    for jobs in [1, 2, 4, 8] {
        let parallel_config = config.clone().with_jobs(jobs);
        let parallel = run_campaign(&parallel_config);
        assert_identical(&serial, &parallel, "chaos");
        assert_eq!(serial.incidents, parallel.incidents, "jobs={jobs}: incident stream");
        assert_eq!(serial.digest(&config), parallel.digest(&parallel_config), "jobs={jobs}");
    }
}

/// An expired deadline stops the campaign before any seed is claimed —
/// by the calling thread alone and with helpers — and the partial result
/// resumes to the uninterrupted digest.
#[test]
fn expired_deadline_stops_parallel_workers_before_claiming() {
    let serial_config = CampaignConfig::for_kind(VmKind::HotSpotLike, 4);
    let serial = run_campaign(&serial_config);
    for jobs in [1, 4] {
        let dir = scratch(&format!("deadline-{jobs}"));
        let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, 4).with_jobs(jobs);
        config.supervisor = SupervisorConfig {
            checkpoint_path: Some(dir.join("campaign.checkpoint")),
            deadline: Some(Duration::ZERO),
            ..SupervisorConfig::default()
        };
        let stopped = run_campaign(&config);
        assert_eq!(stopped.totals.seeds, 0, "jobs={jobs}: an expired deadline admits no seeds");
        assert!(stopped.totals.partial, "jobs={jobs}");

        // Lift the deadline and resume from the checkpoint: the completed
        // campaign must match an uninterrupted run bit-for-bit.
        config.supervisor.deadline = None;
        let resumed = run_campaign(&config);
        assert!(!resumed.totals.partial, "jobs={jobs}");
        assert_eq!(serial.digest(&serial_config), resumed.digest(&config), "jobs={jobs}");
    }
}

/// Kill/resume cycles with parallel workers: a campaign stopped every
/// few seeds (the supervisor's `stop_after_seeds` kill switch) and
/// resumed with a *different* jobs setting each time still converges to
/// the `jobs = 1` digest — checkpoints do not record the width.
#[test]
fn killed_and_resumed_parallel_campaign_matches_serial() {
    const SEEDS: u64 = 6;
    let serial_config = CampaignConfig::for_kind(VmKind::OpenJ9Like, SEEDS);
    let serial = run_campaign(&serial_config);

    let dir = scratch("resume");
    let base = CampaignConfig::for_kind(VmKind::OpenJ9Like, SEEDS);
    let supervisor = SupervisorConfig {
        checkpoint_path: Some(dir.join("campaign.checkpoint")),
        checkpoint_every: 2,
        stop_after_seeds: Some(2),
        ..SupervisorConfig::default()
    };
    // Alternate widths across the kill/resume cycle: four threads, the
    // calling thread alone, two threads.
    let mut final_result = None;
    for (attempt, jobs) in [4, 1, 2].iter().enumerate() {
        let mut config = base.clone().with_jobs(*jobs);
        config.supervisor = supervisor.clone();
        let result = run_campaign(&config);
        assert_eq!(result.totals.seeds, 2 * (attempt as u64 + 1), "attempt {attempt}");
        final_result = Some((result, config));
    }
    let (finished, config) = final_result.unwrap();
    assert!(!finished.totals.partial, "three stints of 2 cover all 6 seeds");
    assert_eq!(serial.digest(&serial_config), finished.digest(&config));
    assert_identical(&serial, &finished, "kill/resume");
}

/// More workers than seeds: the surplus workers find the claim counter
/// exhausted and exit cleanly.
#[test]
fn more_workers_than_seeds() {
    let config = CampaignConfig::for_kind(VmKind::ArtLike, 2).with_jobs(8);
    let serial_config = CampaignConfig::for_kind(VmKind::ArtLike, 2);
    let parallel = run_campaign(&config);
    let serial = run_campaign(&serial_config);
    assert_eq!(serial.digest(&serial_config), parallel.digest(&config));
    assert_eq!(parallel.totals.seeds, 2);
}
