//! Crash-isolation acceptance tests for the campaign supervisor:
//! panic containment, checkpoint/resume determinism, and quarantine.

use std::path::PathBuf;

use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::supervisor::{ChaosConfig, IncidentPhase, SupervisorConfig};
use cse_vm::VmKind;

/// A unique scratch directory per test (tests share one process).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cse-supervisor-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A VM panic mid-campaign must be contained: the campaign completes,
/// the panic is reported as a `HarnessIncident` naming the offending
/// seed, and no results from other seeds are lost.
#[test]
fn panicking_seed_is_contained_and_loses_no_other_results() {
    const SEEDS: u64 = 6;
    const CHAOS_SEED: u64 = 3;
    let clean = run_campaign(&CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS));

    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS);
    config.supervisor.chaos = Some(ChaosConfig { panic_on_seed: CHAOS_SEED, after_ops: 1_000 });
    let chaotic = run_campaign(&config);

    // The campaign ran to completion despite the panic.
    assert_eq!(chaotic.totals.seeds, SEEDS);
    assert!(!chaotic.totals.partial);

    // The panic is a structured incident naming the offending seed. Other
    // incident phases (e.g. `TvDefect` when the suite runs under
    // `CSE_TV=each` against this bug-seeded VM) are orthogonal oracles.
    let panics: Vec<_> =
        chaotic.incidents.iter().filter(|i| i.phase == IncidentPhase::SeedRun).collect();
    assert!(!panics.is_empty(), "the contained panic must be reported");
    for incident in panics {
        assert_eq!(incident.seed, CHAOS_SEED);
        assert!(incident.payload.contains("chaos"), "payload: {}", incident.payload);
        assert!(incident.source.is_some(), "incident must carry a repro source");
    }
    assert_eq!(chaotic.totals.seeds_discarded, clean.totals.seeds_discarded + 1);

    // No results from other seeds are lost.
    let expected_cse: Vec<u64> =
        clean.cse_seeds.iter().copied().filter(|&s| s != CHAOS_SEED).collect();
    assert_eq!(chaotic.cse_seeds, expected_cse);
    for (bug, evidence) in &clean.bugs {
        if evidence.first_seed != CHAOS_SEED {
            assert!(
                chaotic.bugs.contains_key(bug),
                "bug {bug:?} (first seed {}) lost to the chaos seed",
                evidence.first_seed
            );
        }
    }
}

/// A campaign killed mid-run and resumed from its checkpoint must
/// produce a bit-identical `CampaignResult` to an uninterrupted run.
#[test]
fn killed_and_resumed_campaign_matches_uninterrupted_run() {
    const SEEDS: u64 = 6;
    let uninterrupted = run_campaign(&CampaignConfig::for_kind(VmKind::OpenJ9Like, SEEDS));

    let dir = scratch("resume");
    let mut config = CampaignConfig::for_kind(VmKind::OpenJ9Like, SEEDS);
    config.supervisor = SupervisorConfig {
        checkpoint_path: Some(dir.join("campaign.checkpoint")),
        checkpoint_every: 2,
        stop_after_seeds: Some(2),
        ..SupervisorConfig::default()
    };

    // First invocation: "killed" after 2 seeds.
    let killed = run_campaign(&config);
    assert!(killed.totals.partial, "a stopped campaign must be marked partial");
    assert_eq!(killed.totals.seeds, 2);

    // Keep resuming until done (each invocation is a fresh process in
    // real usage; state flows only through the checkpoint file).
    let mut resumed = killed;
    let mut invocations = 1;
    while resumed.totals.partial {
        resumed = run_campaign(&config);
        invocations += 1;
        assert!(invocations <= 10, "campaign must converge");
    }
    assert_eq!(invocations, 3, "6 seeds at 2 per invocation");
    assert_eq!(resumed.totals.seeds, SEEDS);

    assert_eq!(
        resumed.digest(&config),
        uninterrupted.digest(&config),
        "resume must be bit-identical to an uninterrupted run"
    );
    // Spot-check the digest is not vacuous.
    assert_eq!(resumed.cse_seeds, uninterrupted.cse_seeds);
    assert_eq!(resumed.bugs.len(), uninterrupted.bugs.len());
    assert_eq!(resumed.totals.mutants, uninterrupted.totals.mutants);
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming a finished campaign is a no-op that returns the stored
/// state, not a re-run.
#[test]
fn resuming_a_finished_campaign_is_idempotent() {
    const SEEDS: u64 = 3;
    let dir = scratch("idempotent");
    let mut config = CampaignConfig::for_kind(VmKind::ArtLike, SEEDS);
    config.supervisor.checkpoint_path = Some(dir.join("campaign.checkpoint"));
    let first = run_campaign(&config);
    assert!(!first.totals.partial);
    let second = run_campaign(&config);
    assert_eq!(second.totals.seeds, SEEDS, "totals must not double-count");
    assert_eq!(first.digest(&config), second.digest(&config));
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint from a different campaign must not be resumed into this
/// one; the campaign starts fresh (correct by determinism) instead.
#[test]
fn foreign_checkpoint_is_ignored() {
    const SEEDS: u64 = 2;
    let dir = scratch("foreign");
    let path = dir.join("campaign.checkpoint");
    let mut hotspot = CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS);
    hotspot.supervisor.checkpoint_path = Some(path.clone());
    run_campaign(&hotspot);

    let mut art = CampaignConfig::for_kind(VmKind::ArtLike, SEEDS);
    art.supervisor.checkpoint_path = Some(path);
    let result = run_campaign(&art);
    let fresh = run_campaign(&CampaignConfig::for_kind(VmKind::ArtLike, SEEDS));
    assert_eq!(result.digest(&art), fresh.digest(&art));
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint in an older format (header `cse-checkpoint v5` or `v6`)
/// is ignored and the campaign starts fresh. The body is tampered so
/// that resuming it would show in the digest; the control run with the
/// current header proves the tamper is visible.
#[test]
fn old_format_checkpoint_restarts_the_campaign() {
    const SEEDS: u64 = 2;
    let dir = scratch("old-format");
    let path = dir.join("campaign.checkpoint");
    let mut config = CampaignConfig::for_kind(VmKind::ArtLike, SEEDS);
    config.supervisor.checkpoint_path = Some(path.clone());
    let fresh = run_campaign(&config);
    let written = std::fs::read_to_string(&path).expect("checkpoint written");
    let (header, body) = written.split_once('\n').expect("header line");
    let unattributed = format!("\nunattributed {}\n", fresh.unattributed);
    assert!(body.contains(&unattributed), "calibration: body layout changed");
    let tampered =
        body.replacen(&unattributed, &format!("\nunattributed {}\n", fresh.unattributed + 7), 1);

    std::fs::write(&path, format!("{header}\n{tampered}")).unwrap();
    let resumed = run_campaign(&config);
    assert_eq!(resumed.unattributed, fresh.unattributed + 7, "current format resumes");
    assert_ne!(resumed.digest(&config), fresh.digest(&config));

    for old in ["cse-checkpoint v5", "cse-checkpoint v6"] {
        std::fs::write(&path, format!("{old}\n{tampered}")).unwrap();
        let result = run_campaign(&config);
        assert_eq!(result.digest(&config), fresh.digest(&config), "`{old}` must restart");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Crashing and panicking inputs are persisted as self-contained repro
/// files: mutant source + rng seed + VM profile.
#[test]
fn quarantine_holds_self_contained_repro_files() {
    const SEEDS: u64 = 6;
    let dir = scratch("quarantine");
    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, SEEDS);
    config.supervisor.quarantine_dir = Some(dir.clone());
    config.supervisor.chaos = Some(ChaosConfig { panic_on_seed: 2, after_ops: 1_000 });
    let result = run_campaign(&config);

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("quarantine dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();

    // The contained panic left an incident repro.
    let incident_file = names
        .iter()
        .find(|n| n.starts_with("incident_seed2_"))
        .unwrap_or_else(|| panic!("no incident file in {names:?}"));
    let body = std::fs::read_to_string(dir.join(incident_file)).unwrap();
    for needle in ["rng seed: 2", "vm profile: HotSpotLike", "panic: chaos", "class "] {
        assert!(body.contains(needle), "incident repro missing `{needle}`:\n{body}");
    }

    // Every crash bug found left a crash repro naming its culprit.
    let crash_bugs: Vec<_> =
        result.bugs.values().filter(|e| e.symptom == cse_vm::Symptom::Crash).collect();
    assert!(!crash_bugs.is_empty(), "calibration: this campaign finds crash bugs");
    for evidence in crash_bugs {
        // Quarantine file names are lowercased (case-insensitive-fs safe).
        let label = format!("{:?}", evidence.bug).to_ascii_lowercase();
        let file = names
            .iter()
            .find(|n| n.starts_with("crash_seed") && n.contains(&label))
            .unwrap_or_else(|| panic!("no crash repro for {label} in {names:?}"));
        let body = std::fs::read_to_string(dir.join(file)).unwrap();
        assert!(body.contains("rng seed:"), "crash repro must pin the rng seed");
        assert!(body.contains("active bugs:"), "crash repro must pin the VM profile");
        assert!(body.contains("class "), "crash repro must embed the mutant source");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An expired global deadline ends the campaign cleanly with
/// `totals.partial = true` instead of mid-seed state loss.
#[test]
fn expired_deadline_ends_campaign_cleanly_as_partial() {
    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, 50);
    config.supervisor.deadline = Some(std::time::Duration::ZERO);
    let result = run_campaign(&config);
    assert!(result.totals.partial);
    assert_eq!(result.totals.seeds, 0, "zero budget processes zero seeds");
}

/// Campaign totals keep the per-seed counter invariant:
/// `mutants = completed + discarded`, disjointly.
#[test]
fn campaign_totals_keep_counter_invariants() {
    let result = run_campaign(&CampaignConfig::for_kind(VmKind::OpenJ9Like, 6));
    assert_eq!(result.totals.mutants, result.totals.completed + result.totals.discarded);
    assert!(result.totals.neutrality_violations <= result.totals.discarded);
}
