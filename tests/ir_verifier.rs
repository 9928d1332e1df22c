//! The static IR verifier (`cse_vm::jit::verify`) as a third oracle:
//!
//! * **Soundness on the clean corpus** — `boundary` mode must accept
//!   every `IrFunc` the pipeline produces for fuzzed seeds, JoNM
//!   mutants, and all `2^n` forced plans of an enumerated compilation
//!   space. A false positive here would flood campaigns with phantom
//!   incidents. In builds with debug assertions the same runs also check
//!   the IR after every pass, and a defect there panics naming the pass.
//! * **Sensitivity** — hand-seeded corruptions (dangling block,
//!   use-before-def, effect-flag lies, dst-arity violations) must each be
//!   rejected and attributed to the pass label they were checked under.
//! * **Determinism** — campaign digests with the verifier in `boundary`
//!   mode stay bit-identical across `jobs ∈ {1, 4}`.

use cse_rng::Rng64;

use artemis_cse::bytecode::{Insn, PrintKind};
use artemis_cse::core::campaign::{run_campaign, CampaignConfig};
use artemis_cse::core::mutate::Artemis;
use artemis_cse::core::space::enumerate_space;
use artemis_cse::core::synth::SynthParams;
use artemis_cse::core::validate::{compile_checked, try_compile_checked};
use artemis_cse::vm::jit::ir::{Inst, IrFunc, Op, Term};
use artemis_cse::vm::jit::{self, verify, CompileCtx};
use artemis_cse::vm::{FaultInjector, Tier, TvMode, VerifyMode, Vm, VmConfig, VmKind};

/// Verification across the fuzzed seed corpus, on every VM profile,
/// under both the natural tiering policy and force-compile-all. A defect
/// here is a verifier false positive (or a real pipeline bug).
#[test]
fn verifier_accepts_fuzzed_corpus() {
    let mut rng = Rng64::seed_from_u64(0x1f1e);
    for _ in 0..8 {
        let seed = rng.gen_range(0u64..1_000_000);
        let program = cse_fuzz::generate(seed, &cse_fuzz::FuzzConfig::default());
        let bytecode = compile_checked(&program);
        for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
            for config in [
                VmConfig::correct(kind).with_verify_ir(VerifyMode::Boundary),
                VmConfig::force_compile_all(kind).with_verify_ir(VerifyMode::Boundary),
            ] {
                let result = Vm::run_program(&bytecode, config);
                assert!(
                    result.ir_verify.is_empty(),
                    "seed {seed} on {kind}: verifier flagged clean IR:\n{}",
                    result.ir_verify.join("\n")
                );
                assert_eq!(result.stats.ir_verify_defects, 0, "seed {seed} on {kind}");
            }
        }
    }
}

/// JoNM mutants flow through the same pipelines as seeds; the verifier
/// must accept their IR too (mutators insert dead loops, guarded blocks,
/// and exception plumbing that stress the verifier's lattice).
#[test]
fn verifier_accepts_jonm_mutants() {
    let mut rng = Rng64::seed_from_u64(0x3a7a);
    let mut checked = 0;
    while checked < 8 {
        let seed = rng.gen_range(0u64..100_000);
        let rng_seed = rng.gen_range(0u64..1_000);
        let program = cse_fuzz::generate(seed, &cse_fuzz::FuzzConfig::default());
        let mut artemis = Artemis::new(rng_seed, SynthParams::for_kind(VmKind::HotSpotLike));
        let (mutant, applied) = artemis.jonm(&program);
        if applied.is_empty() {
            continue;
        }
        let bytecode = match try_compile_checked(&mutant) {
            Ok(b) => b,
            Err(_) => continue,
        };
        for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
            let config = VmConfig::correct(kind).with_verify_ir(VerifyMode::Boundary);
            let result = Vm::run_program(&bytecode, config);
            assert!(
                result.ir_verify.is_empty(),
                "mutant (seed {seed}, rng {rng_seed}) on {kind}:\n{}",
                result.ir_verify.join("\n")
            );
        }
        checked += 1;
    }
}

/// All `2^4` forced plans of the paper's Figure 1 program verify cleanly:
/// the verifier holds over the entire enumerated compilation space, not
/// just the tiering policy's natural path.
#[test]
fn verifier_accepts_all_forced_plans() {
    let program = cse_lang::parse_and_check(
        r#"
        class T {
            static int baz() { return 1; }
            static int bar() { return 2; }
            static int foo() { return bar() + baz(); }
            static void main() { println(foo()); }
        }
        "#,
    )
    .unwrap();
    let bytecode = cse_bytecode::compile(&program).unwrap();
    let calls = vec![
        (bytecode.find_method("T", "main").unwrap(), 0),
        (bytecode.find_method("T", "foo").unwrap(), 0),
        (bytecode.find_method("T", "bar").unwrap(), 0),
        (bytecode.find_method("T", "baz").unwrap(), 0),
    ];
    for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
        let base = VmConfig::correct(kind).with_verify_ir(VerifyMode::Boundary);
        let points = enumerate_space(&bytecode, &calls, &base);
        assert_eq!(points.len(), 16);
        for (i, point) in points.iter().enumerate() {
            assert!(
                point.result.ir_verify.is_empty(),
                "space point {i} on {kind}:\n{}",
                point.result.ir_verify.join("\n")
            );
        }
    }
}

/// Compiles a small two-method program at tier 2 and returns its `add`
/// function's IR (verified clean as a baseline) plus the bytecode.
fn compiled_add() -> (IrFunc, artemis_cse::bytecode::BProgram) {
    let program = cse_lang::parse_and_check(
        r#"
        class T {
            static int add(int a, int b) { return a + b; }
            static void main() { println(add(1, 2)); }
        }
        "#,
    )
    .unwrap();
    let bytecode = cse_bytecode::compile(&program).unwrap();
    let method = bytecode.find_method("T", "add").unwrap();
    let profiles: Vec<_> = bytecode.methods.iter().map(|_| Default::default()).collect();
    let faults = FaultInjector::none();
    let ctx = CompileCtx {
        program: &bytecode,
        profiles: &profiles,
        faults: &faults,
        kind: VmKind::HotSpotLike,
        tier: Tier::T2,
        speculate: false,
        inline_limit: 48,
        has_osr_code: false,
        verify: VerifyMode::Off,
        tv: TvMode::Off,
        fired: std::cell::Cell::new(0),
    };
    let mut defects = Vec::new();
    let mut tv_defects = Vec::new();
    let func =
        jit::compile(&ctx, method, None, &mut defects, &mut tv_defects).expect("add compiles");
    assert!(defects.is_empty());
    assert!(tv_defects.is_empty());
    let baseline = verify::check_func(&func, &bytecode, verify::PASS_BUILD);
    assert!(baseline.is_empty(), "baseline must verify: {baseline:?}");
    (func, bytecode)
}

/// Corruption 1: a terminator jumping to a block that does not exist.
/// Must be rejected with the pass label it was checked under.
#[test]
fn dangling_block_is_rejected_with_attribution() {
    let (mut func, bytecode) = compiled_add();
    let last = func.blocks.len() - 1;
    func.blocks[last].term = Term::Jump(999);
    let errors = verify::check_func(&func, &bytecode, "gvn");
    assert!(!errors.is_empty());
    assert_eq!(errors[0].pass, "gvn", "defect must carry the pass it was found after");
    assert!(
        errors[0].detail.contains("dangling block b999"),
        "unexpected detail: {}",
        errors[0].detail
    );
    // Display carries method, pass, and block for incident logs.
    let rendered = errors[0].to_string();
    assert!(rendered.contains("T.add"), "missing method in: {rendered}");
    assert!(rendered.contains("after gvn"), "missing pass in: {rendered}");
}

/// Corruption 2: reading a register no path ever defines. The definite-
/// assignment dataflow must flag the use, attributed to the pass label.
#[test]
fn use_before_def_is_rejected_with_attribution() {
    let (mut func, bytecode) = compiled_add();
    func.num_regs += 2;
    let undefined = func.num_regs - 2;
    let dst = func.num_regs - 1;
    func.blocks[0]
        .insts
        .insert(0, Inst { dst: Some(dst), op: Op::Copy(undefined), frame: 0, bc_pc: 0 });
    let errors = verify::check_func(&func, &bytecode, "licm");
    assert!(!errors.is_empty());
    assert_eq!(errors[0].pass, "licm");
    assert!(
        errors[0].detail.contains(&format!("use of undefined register r{undefined}")),
        "unexpected detail: {}",
        errors[0].detail
    );
}

/// Corruption 3: an effect-only op (`println`) writing a destination
/// register — a dst-arity violation the shape phase must reject.
#[test]
fn effect_only_dst_is_rejected_with_attribution() {
    let (mut func, bytecode) = compiled_add();
    func.num_regs += 1;
    let dst = func.num_regs - 1;
    let val = func.frames[0].local_base; // anchor: defined at entry
    func.blocks[0].insts.push(Inst {
        dst: Some(dst),
        op: Op::Println { kind: PrintKind::Int, val },
        frame: 0,
        bc_pc: 0,
    });
    let errors = verify::check_func(&func, &bytecode, "regalloc");
    assert!(!errors.is_empty());
    assert_eq!(errors[0].pass, "regalloc");
    assert!(
        errors[0].detail.contains("effect-only op writes destination"),
        "unexpected detail: {}",
        errors[0].detail
    );
}

/// Corruption 4: lying effect flags. The audit cross-checks claimed
/// purity/throw/write bits against an independent table of op shapes.
#[test]
fn wrong_effect_claims_are_rejected() {
    // A store claimed pure: the canonical mis-flag that would let DCE
    // delete it.
    let store = Op::PutStatic { class: artemis_cse::bytecode::ClassId(0), field: 0, val: 0 };
    assert!(verify::check_effect_claims(&store, true, false, true).is_err());
    // A pure op claimed to write memory (would pin it against motion —
    // unsound in the other direction).
    assert!(verify::check_effect_claims(&Op::ConstI(1), false, false, true).is_err());
    // Division claimed non-throwing.
    let truth_ok = verify::check_effect_claims(
        &Op::ConstI(1),
        Op::ConstI(1).is_pure(),
        Op::ConstI(1).can_throw(),
        Op::ConstI(1).is_memory_write(),
    );
    assert!(truth_ok.is_ok(), "true flags must pass the audit");
}

/// The verifier holds at the location-assignment stages too. The
/// regalloc and codegen analyses leave `compiled_add`'s IR verifiable,
/// and a corruption surfacing after codegen is attributed to that stage.
#[test]
fn post_regalloc_codegen_stage_verifies_and_attributes() {
    let (mut func, bytecode) = compiled_add();
    let profiles: Vec<_> = bytecode.methods.iter().map(|_| Default::default()).collect();
    let faults = FaultInjector::none();
    let ctx = CompileCtx {
        program: &bytecode,
        profiles: &profiles,
        faults: &faults,
        kind: VmKind::HotSpotLike,
        tier: Tier::T2,
        speculate: false,
        inline_limit: 48,
        has_osr_code: false,
        verify: VerifyMode::Off,
        tv: TvMode::Off,
        fired: std::cell::Cell::new(0),
    };
    jit::passes::regalloc::run(&ctx, &mut func).expect("correct regalloc never crashes");
    assert!(verify::check_func(&func, &bytecode, "regalloc").is_empty());
    jit::passes::codegen::run(&ctx, &mut func).expect("correct codegen never crashes");
    assert!(verify::check_func(&func, &bytecode, "codegen").is_empty());
    // A corruption surfacing after the codegen stage carries its label.
    let last = func.blocks.len() - 1;
    func.blocks[last].term = Term::Jump(777);
    let errors = verify::check_func(&func, &bytecode, "codegen");
    assert!(!errors.is_empty());
    assert_eq!(errors[0].pass, "codegen");
}

/// Satellite: a hand-corrupted compiled program must be caught by
/// bytecode verification before any VM executes it (the gate
/// `try_compile_checked` now applies to every JoNM mutant).
#[test]
fn corrupted_bytecode_is_rejected_before_execution() {
    let source = r#"
        class T {
            static int add(int a, int b) { return a + b; }
            static void main() { println(add(1, 2)); }
        }
    "#;
    let program = cse_lang::parse_and_check(source).unwrap();
    // The untampered program passes the full compile-and-verify gate.
    assert!(try_compile_checked(&program).is_ok());
    // Corrupt the compiled form: a jump far past the end of the method.
    let mut bytecode = cse_bytecode::compile(&program).unwrap();
    let main = bytecode.find_method("T", "main").unwrap();
    let code = &mut bytecode.methods[main.0 as usize].code;
    code[0] = Insn::Jump(9_999);
    let err = cse_bytecode::verify::verify_program(&bytecode);
    assert!(err.is_err(), "out-of-range jump must fail bytecode verification");
}

/// `boundary` mode is campaign-safe: digests stay bit-identical across
/// `jobs ∈ {1, 4}` with the verifier on.
#[test]
fn boundary_mode_digest_is_identical_across_jobs() {
    let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, 4);
    config.vm.verify_ir = VerifyMode::Boundary;
    let serial = run_campaign(&config);
    let serial_digest = serial.digest(&config);
    let parallel_config = config.clone().with_jobs(4);
    let parallel = run_campaign(&parallel_config);
    assert_eq!(
        serial_digest,
        parallel.digest(&parallel_config),
        "boundary-mode digest must not depend on jobs"
    );
    assert_eq!(
        serial.totals.ir_verify_defects, parallel.totals.ir_verify_defects,
        "defect totals must merge deterministically"
    );
}

/// Satellite: with *both* boundary oracles enabled (`CSE_VERIFY_IR` and
/// `CSE_TV`), campaign digests stay bit-identical across `jobs ∈ {1,4}`
/// and the TV defect totals merge deterministically.
#[test]
fn tv_boundary_digest_is_identical_across_jobs() {
    let mut config = CampaignConfig::for_kind(VmKind::OpenJ9Like, 4);
    config.vm.verify_ir = VerifyMode::Boundary;
    config.vm.tv = TvMode::Boundary;
    let serial = run_campaign(&config);
    let parallel_config = config.clone().with_jobs(4);
    let parallel = run_campaign(&parallel_config);
    assert_eq!(
        serial.digest(&config),
        parallel.digest(&parallel_config),
        "boundary-mode TV digest must not depend on jobs"
    );
    assert_eq!(
        serial.totals.tv_defects, parallel.totals.tv_defects,
        "TV defect totals must merge deterministically"
    );
}
