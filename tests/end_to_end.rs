//! Integration tests spanning every crate: the full
//! fuzz → mutate → execute → cross-validate → attribute → reduce pipeline.

use artemis_cse::core::campaign::{run_campaign, CampaignConfig};
use artemis_cse::core::validate::{compile_checked, validate, ValidateConfig};
use artemis_cse::vm::{BugId, FaultInjector, Outcome, Vm, VmConfig, VmKind};

/// The whole pipeline finds seeded bugs on every VM profile.
#[test]
fn campaigns_find_seeded_bugs_on_every_profile() {
    for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
        let config = CampaignConfig::for_kind(kind, 12);
        let result = run_campaign(&config);
        assert_eq!(result.totals.neutrality_violations, 0, "{kind}: non-neutral mutant");
        assert!(!result.bugs.is_empty(), "{kind}: campaign over 12 seeds found no injected bug");
        for evidence in result.bugs.values() {
            // Attribution must agree with the profile's seeded catalog.
            assert!(
                BugId::default_set(kind).contains(&evidence.bug),
                "{kind}: attributed {:?} which is not seeded on this profile",
                evidence.bug
            );
        }
    }
}

/// The oracle never fires on a bug-free VM (soundness of the whole
/// harness: mutator neutrality + substrate correctness).
#[test]
fn no_false_positives_on_correct_vms() {
    for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
        for seed_value in 0..5u64 {
            let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
            let config = ValidateConfig::paper_defaults(VmConfig::correct(kind));
            let outcome = validate(&seed, &config, seed_value);
            assert!(
                outcome.discrepancies.is_empty(),
                "{kind} seed {seed_value}: false positive {:?}",
                outcome.discrepancies[0].kind
            );
            assert_eq!(outcome.neutrality_violations, 0);
        }
    }
}

/// A discrepancy reproducer can be re-parsed, re-run, and reduced while
/// still exposing the same ground-truth bug.
#[test]
fn reproducers_survive_reduction() {
    let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 20);
    let result = run_campaign(&config);
    let Some(evidence) = result.bugs.values().find(|e| e.reproducer.lines().count() < 400) else {
        // Campaign size kept small for CI; nothing suitably small found.
        return;
    };
    let reproducer =
        artemis_cse::lang::parse_and_check(&evidence.reproducer).expect("reproducer re-parses");
    let vm = VmConfig::for_kind(VmKind::HotSpotLike);
    let bug = evidence.bug;
    let exposes = |p: &artemis_cse::lang::Program| -> bool {
        let run = Vm::run_program(&compile_checked(p), vm.clone());
        match run.outcome {
            Outcome::Crash(info) => info.bug == bug,
            _ => false,
        }
    };
    if !exposes(&reproducer) {
        // Mis-compilation reproducers need the seed for comparison; only
        // crash bugs are reduced standalone here.
        return;
    }
    let reduced = artemis_cse::reduce::reduce(&reproducer, &mut |p| exposes(p));
    assert!(exposes(&reduced), "reduction lost the bug");
    assert!(
        artemis_cse::lang::pretty::print(&reduced).len()
            <= artemis_cse::lang::pretty::print(&reproducer).len(),
        "reduction must not grow the program"
    );
}

/// Figure 2 end to end through the public API.
#[test]
fn figure2_gcm_bug_detected_and_attributed() {
    let seed = artemis_cse::lang::parse_and_check(cse_bench_fig2::SEED).unwrap();
    let mutant = artemis_cse::lang::parse_and_check(cse_bench_fig2::MUTANT).unwrap();
    let vm = VmConfig::correct(VmKind::HotSpotLike)
        .with_faults(FaultInjector::with([BugId::HsGcmStoreSink]));
    let seed_run = Vm::run_program(&compile_checked(&seed), vm.clone());
    let mutant_run = Vm::run_program(&compile_checked(&mutant), vm);
    assert_ne!(seed_run.output, mutant_run.output);
    // The traditional approach cannot see it: force-compile-all compiles
    // without profiles, and the buggy GCM path needs them.
    let forced = VmConfig::force_compile_all(VmKind::HotSpotLike)
        .with_faults(FaultInjector::with([BugId::HsGcmStoreSink]));
    let seed_forced = Vm::run_program(&compile_checked(&seed), forced.clone());
    assert_eq!(
        seed_run.output, seed_forced.output,
        "count=0 on the seed shows nothing — the bug needs CSE's warm traces"
    );
}

/// Inline copies of the Figure 2 sources (kept in `cse-bench` for the
/// harness; duplicated here so the integration test has no bench dep).
mod cse_bench_fig2 {
    pub const SEED: &str = r#"
class T {
    byte l = 0;
    int[] k = new int[] { 80, 41, 60, 81 };
    void g() {
        for (int r = 0; r < 2; r++) {
            for (int zz = 0; zz < this.k.length; zz++) {
                int m = this.k[zz];
                switch ((m >>> 1) % 10 + 36) {
                    case 36:
                        l += 2;
                    case 40: break;
                    case 41: k[1] = 9;
                }
            }
        }
    }
    void o() { g(); }
    void p() {
        for (int q = 2; q < 5; q++) { o(); }
        println(l);
    }
    static void main() { T t = new T(); t.p(); t.p(); }
}
"#;
    pub const MUTANT: &str = r#"
class T {
    static boolean z = false;
    byte l = 0;
    int[] k = new int[] { 80, 41, 60, 81 };
    void g() {
        for (int r = 0; r < 2; r++) {
            for (int zz = 0; zz < this.k.length; zz++) {
                int m = this.k[zz];
                switch ((m >>> 1) % 10 + 36) {
                    case 36:
                        for (int w = -2967; w < 4342; w += 4) { }
                        l += 2;
                    case 40: break;
                    case 41: k[1] = 9;
                }
            }
        }
    }
    void o() {
        if (T.z) { return; }
        g();
    }
    void p() {
        for (int q = 2; q < 5; q++) {
            T.z = true;
            for (int u = 0; u < 9676; u++) { o(); }
            T.z = false;
            o();
        }
        println(l);
    }
    static void main() { T t = new T(); t.p(); t.p(); }
}
"#;
}

/// The CSE-vs-traditional asymmetry (Table 4's headline) holds on a small
/// sample: CSE finds at least as many discrepancy seeds, including some
/// the traditional approach misses.
#[test]
fn cse_dominates_traditional_on_sample() {
    let vm = VmConfig::for_kind(VmKind::OpenJ9Like);
    let mut cse = 0;
    let mut tra = 0;
    for seed_value in 0..25u64 {
        let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
        let mut config = ValidateConfig::paper_defaults(vm.clone());
        config.verify_neutrality = false;
        if validate(&seed, &config, seed_value).found_bug() {
            cse += 1;
        }
        if artemis_cse::core::baseline::traditional(&seed, &vm).discrepancy {
            tra += 1;
        }
    }
    assert!(cse > tra, "CSE found {cse} vs traditional {tra} — expected CSE to dominate");
}

/// A malformed value or an unknown `CSE_*` name fails the run, naming the
/// variable and its value, instead of warning and falling back to a
/// default (which for `CSE_TV`, `CSE_VERIFY_IR` and `CSE_COVERAGE` would
/// quietly turn an oracle or the scheduler off).
#[test]
fn malformed_or_unknown_settings_are_rejected() {
    for (name, value) in [
        ("CSE_JOBS", "two"),
        ("CSE_TV", "eahc"),
        ("CSE_VERIFY_IR", "eahc"),
        ("CSE_COVERAGE", "gude"),
        ("CSE_FUEL", "lots"),
        ("CSE_TV_MODE", "each"),
    ] {
        let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_coverage"));
        // The suite itself may run under valid `CSE_*` settings (ci.sh
        // arms the IR verifier); the child sees only the case under test.
        for (inherited, _) in std::env::vars_os() {
            if inherited.to_string_lossy().starts_with("CSE_") {
                command.env_remove(inherited);
            }
        }
        let output = command
            .env("CSE_SEEDS", "1")
            .env(name, value)
            .output()
            .expect("run the coverage binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{name}={value} must fail the run; stderr: {stderr}");
        let named = format!("{name}=\"{value}\"");
        assert!(stderr.contains(&named), "the error must name {named}: {stderr}");
    }
}

/// The docs and the registry name the same settings: every `CSE_*` token
/// in the docs and CI script is a registered name (a renamed or deleted
/// setting cannot linger there), and README documents every registered
/// name.
#[test]
fn documented_settings_match_the_registry() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| {
        std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"))
    };
    let registered: Vec<&str> = artemis_cse::vm::Settings::names().collect();
    for file in ["README.md", "DESIGN.md", "ci.sh", ".claude/skills/verify/SKILL.md"] {
        let text = read(file);
        for (at, _) in text.match_indices("CSE_") {
            let tail = &text[at + 4..];
            let len =
                tail.find(|c: char| !c.is_ascii_uppercase() && c != '_').unwrap_or(tail.len());
            let token = &text[at..at + 4 + len];
            assert!(len == 0 || registered.contains(&token), "{file} names unregistered {token}");
        }
    }
    let readme = read("README.md");
    for name in registered {
        assert!(readme.contains(&format!("`{name}`")), "README does not document {name}");
    }
}
