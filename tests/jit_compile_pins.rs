//! Compiled-IR pins: a change to any JIT pass that alters what the
//! pipeline emits moves one of these hashes.
//!
//! For each VM profile, fuzzer seeds 0–39 go through the front end, and
//! every method is compiled cold (default profiles, `speculate: false`,
//! no OSR) at each of the profile's tiers, once with no seeded bugs and
//! once with the profile's default bug set. The printed IR of each
//! compile — or the `Debug` form of its compile failure — is folded into
//! one FNV-1a hash per profile. Analysis-only refactors of the JIT (the
//! CFG analyses, liveness) must leave all three pins where they are.

use artemis_cse::bytecode::MethodId;
use artemis_cse::core::validate::try_compile_checked;
use artemis_cse::vm::jit::{self, CompileCtx};
use artemis_cse::vm::profile::MethodProfile;
use artemis_cse::vm::{BugId, FaultInjector, Tier, TvMode, VerifyMode, VmConfig, VmKind};

/// Seeds fed through the fuzzer and front end per profile.
const SEEDS: std::ops::Range<u64> = 0..40;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every cold compile of the profile over [`SEEDS`], and the
/// number of compiles that produced IR.
fn compile_pin(kind: VmKind) -> (u64, usize) {
    let config = VmConfig::correct(kind);
    let fault_sets = [FaultInjector::none(), FaultInjector::with(BugId::default_set(kind))];
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut compiled = 0;
    for seed in SEEDS {
        let program = artemis_cse::fuzz::generate(seed, &artemis_cse::fuzz::FuzzConfig::default());
        let bytecode = match try_compile_checked(&program) {
            Ok(bytecode) => bytecode,
            Err(e) => {
                hash.bytes(format!("seed {seed}: {e}\n").as_bytes());
                continue;
            }
        };
        let profiles = vec![MethodProfile::default(); bytecode.methods.len()];
        for faults in &fault_sets {
            for tier in 1..=config.top_tier().0 {
                for method in (0..bytecode.methods.len() as u32).map(MethodId) {
                    let ctx = CompileCtx {
                        program: &bytecode,
                        profiles: &profiles,
                        faults,
                        kind,
                        tier: Tier(tier),
                        speculate: false,
                        inline_limit: config.inline_limit,
                        has_osr_code: false,
                        verify: VerifyMode::Off,
                        tv: TvMode::Off,
                        fired: std::cell::Cell::new(0),
                    };
                    let rendered =
                        match jit::compile(&ctx, method, None, &mut Vec::new(), &mut Vec::new()) {
                            Ok(func) => {
                                compiled += 1;
                                func.pretty()
                            }
                            Err(fail) => format!("{fail:?}\n"),
                        };
                    hash.bytes(format!("seed {seed} t{tier} m{}\n", method.0).as_bytes());
                    hash.bytes(rendered.as_bytes());
                }
            }
        }
    }
    (hash.0, compiled)
}

#[test]
fn compiled_ir_matches_the_pins() {
    // A change that moves a pin changed what some pass emits.
    let pins = [
        (VmKind::HotSpotLike, 0x0e02_859c_3378_e9f4, 1288),
        (VmKind::OpenJ9Like, 0x9b73_fef7_4a08_4276, 1278),
        (VmKind::ArtLike, 0x402a_d610_933e_4199, 644),
    ];
    let actual: Vec<(u64, usize)> = pins.iter().map(|&(kind, _, _)| compile_pin(kind)).collect();
    for (&(kind, _, _), &(hash, compiled)) in pins.iter().zip(&actual) {
        println!("{kind}: {hash:#018x} over {compiled} compiles");
    }
    for (&(kind, pin, pinned_compiled), &(hash, compiled)) in pins.iter().zip(&actual) {
        assert_eq!(compiled, pinned_compiled, "{kind}: compile count moved");
        assert_eq!(hash, pin, "{kind}: compiled IR moved (got {hash:#018x})");
    }
}
