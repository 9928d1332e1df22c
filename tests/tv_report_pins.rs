//! Static-oracle output pins: a change to the translation validator or
//! the IR verifier that alters what either reports moves one of these
//! hashes.
//!
//! For each VM profile, fuzzer seeds 0–39 go through the front end, and
//! every method is compiled cold (default profiles, `speculate: false`,
//! no OSR) at each of the profile's tiers under the profile's default bug
//! set, with both oracles armed: once with `tv` at `each` and once with
//! both at `boundary` (there is no per-pass verifier mode; builds with
//! debug assertions check the IR after every pass and panic on a defect
//! instead). Every rendered [`TvReport`] and
//! [`IrVerifyError`] — the full text incidents and quarantine files carry,
//! IR dumps included — is folded with its compile's coordinates into one
//! FNV-1a hash per profile and mode, beside the report and defect counts.
//!
//! The verifier accepts everything the pipeline emits, and TV reports
//! nothing on ART, so a third sweep feeds both oracles deterministically
//! corrupted copies of the same (oracle-free) compiles: every third
//! instruction and every other terminator reads its neighbouring
//! register. Each corrupted copy is verified and checked against its
//! original under all three TV contracts, which drives the verifier's
//! dataflow reports and TV's value, effect and layout counterexamples on
//! every profile. Cost-only rewrites of the oracles (their tables,
//! hashing, allocation) must leave all nine pins where they are.
//!
//! [`TvReport`]: artemis_cse::vm::jit::tv::TvReport
//! [`IrVerifyError`]: artemis_cse::vm::jit::verify::IrVerifyError

use artemis_cse::bytecode::{Fnv, MethodId};
use artemis_cse::core::validate::try_compile_checked;
use artemis_cse::vm::jit::ir::IrFunc;
use artemis_cse::vm::jit::tv::{self, TvContract};
use artemis_cse::vm::jit::{self, verify, CompileCtx};
use artemis_cse::vm::profile::MethodProfile;
use artemis_cse::vm::{BugId, FaultInjector, Tier, TvMode, VerifyMode, VmConfig, VmKind};

/// Seeds fed through the fuzzer and front end per profile.
const SEEDS: std::ops::Range<u64> = 0..40;

/// What one profile's sweep under one oracle mode reported.
#[derive(Debug, PartialEq, Eq)]
struct OraclePin {
    hash: u64,
    tv_reports: usize,
    verify_defects: usize,
}

/// Which oracle configuration a sweep pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// TV at `each` and the verifier at `boundary`, on the pipeline's
    /// own output.
    Each,
    /// Both oracles at `boundary`, on the pipeline's own output.
    Boundary,
    /// Oracles off during compilation; both run on corrupted copies.
    Corrupted,
}

/// `func` with every third instruction and every other terminator reading
/// the register after the one it read.
fn corrupt(func: &IrFunc) -> IrFunc {
    let mut bad = func.clone();
    let n = bad.num_regs.max(1);
    for (b, block) in bad.blocks.iter_mut().enumerate() {
        for (i, inst) in block.insts.iter_mut().enumerate() {
            if (b + i) % 3 == 0 {
                inst.op.map_sources(|r| (r + 1) % n);
            }
        }
        if b % 2 == 0 {
            block.term.map_sources(|r| (r + 1) % n);
        }
    }
    bad
}

/// Hash of every oracle report over [`SEEDS`] for one profile and sweep.
fn oracle_pin(kind: VmKind, sweep: Sweep) -> OraclePin {
    let (verify, tv) = match sweep {
        Sweep::Each => (VerifyMode::Boundary, TvMode::Each),
        Sweep::Boundary => (VerifyMode::Boundary, TvMode::Boundary),
        Sweep::Corrupted => (VerifyMode::Off, TvMode::Off),
    };
    let config = VmConfig::correct(kind);
    let faults = FaultInjector::with(BugId::default_set(kind));
    let mut hash = Fnv::new();
    let mut pin = OraclePin { hash: 0, tv_reports: 0, verify_defects: 0 };
    for seed in SEEDS {
        let program = artemis_cse::fuzz::generate(seed, &artemis_cse::fuzz::FuzzConfig::default());
        let bytecode = match try_compile_checked(&program) {
            Ok(bytecode) => bytecode,
            Err(e) => {
                hash.raw(format!("seed {seed}: {e}\n").as_bytes());
                continue;
            }
        };
        let profiles = vec![MethodProfile::default(); bytecode.methods.len()];
        for tier in 1..=config.top_tier().0 {
            for method in (0..bytecode.methods.len() as u32).map(MethodId) {
                let ctx = CompileCtx {
                    program: &bytecode,
                    profiles: &profiles,
                    faults: &faults,
                    kind,
                    tier: Tier(tier),
                    speculate: false,
                    inline_limit: config.inline_limit,
                    has_osr_code: false,
                    verify,
                    tv,
                    fired: std::cell::Cell::new(0),
                };
                let (mut defects, mut reports) = (Vec::new(), Vec::new());
                let outcome = jit::compile(&ctx, method, None, &mut defects, &mut reports);
                if let (Sweep::Corrupted, Ok(func)) = (sweep, &outcome) {
                    let bad = corrupt(func);
                    defects.extend(verify::check_func(&bad, &bytecode, "pin"));
                    for contract in [
                        TvContract::EffectPreserving,
                        TvContract::GuardIntroducing,
                        TvContract::LayoutOnly,
                    ] {
                        reports
                            .extend(tv::check_refinement(func, &bad, "pin", contract, &bytecode));
                    }
                }
                hash.raw(
                    format!(
                        "seed {seed} t{tier} m{} ok={} tv={} verify={}\n",
                        method.0,
                        outcome.is_ok(),
                        reports.len(),
                        defects.len()
                    )
                    .as_bytes(),
                );
                for report in &reports {
                    hash.raw(format!("{report}\n").as_bytes());
                }
                for defect in &defects {
                    hash.raw(format!("{defect}\n").as_bytes());
                }
                pin.tv_reports += reports.len();
                pin.verify_defects += defects.len();
            }
        }
    }
    pin.hash = hash.finish();
    pin
}

fn check_pins(sweep: Sweep, pins: [(VmKind, u64, usize, usize); 3]) {
    let actual: Vec<OraclePin> = pins.iter().map(|&(kind, ..)| oracle_pin(kind, sweep)).collect();
    for (&(kind, ..), got) in pins.iter().zip(&actual) {
        println!(
            "{kind} {sweep:?}: {:#018x}, {} TV reports, {} verifier defects",
            got.hash, got.tv_reports, got.verify_defects
        );
    }
    for (&(kind, hash, tv_reports, verify_defects), got) in pins.iter().zip(&actual) {
        let want = OraclePin { hash, tv_reports, verify_defects };
        assert_eq!(got, &want, "{kind} {sweep:?}: oracle output moved");
    }
}

#[test]
fn oracle_reports_at_each_match_the_pins() {
    check_pins(
        Sweep::Each,
        [
            (VmKind::HotSpotLike, 0xfd3d_bfb5_e114_c646, 112, 0),
            (VmKind::OpenJ9Like, 0x829d_5db0_a612_c2c8, 112, 0),
            (VmKind::ArtLike, 0x3186_42f0_4bcc_86f9, 0, 0),
        ],
    );
}

#[test]
fn oracle_reports_at_boundary_match_the_pins() {
    check_pins(
        Sweep::Boundary,
        [
            (VmKind::HotSpotLike, 0xb92b_cb69_fe69_f587, 96, 0),
            (VmKind::OpenJ9Like, 0xc669_718f_29d8_1297, 112, 0),
            (VmKind::ArtLike, 0x3186_42f0_4bcc_86f9, 0, 0),
        ],
    );
}

#[test]
fn oracle_reports_on_corrupted_ir_match_the_pins() {
    check_pins(
        Sweep::Corrupted,
        [
            (VmKind::HotSpotLike, 0x5b5f_0611_04f3_81a9, 1650, 3286),
            (VmKind::OpenJ9Like, 0x5de3_f126_8296_4c3b, 1620, 3282),
            (VmKind::ArtLike, 0x43cb_a0a5_9059_cc1d, 825, 1645),
        ],
    );
}
