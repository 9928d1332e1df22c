//! The per-pass translation validator (`cse_vm::jit::tv`) as a fourth
//! oracle:
//!
//! * **Sensitivity with attribution** — for every pass registered in any
//!   pipeline table, seeded semantic corruptions of the pass's output
//!   (dropped store, wrong constant, weakened guard, reordered effects,
//!   dropped anchor write) must each be rejected under the pass's
//!   declared refinement contract, with the counterexample attributed to
//!   exactly that pass.
//! * **Soundness on the clean path** — the uncorrupted output of every
//!   pass on a reference function, the fuzzed corpus under `CSE_TV=each`,
//!   and the full `2^n` forced plan space must all validate cleanly. A
//!   false positive would flood campaigns with phantom incidents.
//! * **Real-bug sensitivity** — an actual injected compiler bug
//!   (`HsGvnArrayAlias`, a wrong "cannot alias" test) is caught by the
//!   simulation relation, not just hand-made corruptions.
//! * **Observation-only** — a campaign with `CSE_TV` in `boundary` mode
//!   finds exactly what it finds with TV `off`, across `jobs ∈ {1,4}`.

use std::cell::Cell;

use cse_rng::Rng64;

use artemis_cse::bytecode::{ArrKind, BProgram, ClassId, CmpOp, PrintKind};
use artemis_cse::core::campaign::{run_campaign, CampaignConfig};
use artemis_cse::core::space::enumerate_space;
use artemis_cse::core::supervisor::IncidentPhase;
use artemis_cse::core::validate::compile_checked;
use artemis_cse::vm::jit::ir::{BinKind, Block, InlineFrame, Inst, IrFunc, Op, Reg, Term};
use artemis_cse::vm::jit::passes::{self, PassFn};
use artemis_cse::vm::jit::tv::{self, TvContract};
use artemis_cse::vm::jit::{verify, CompileCtx};
use artemis_cse::vm::{
    BugId, DeoptReason, FaultInjector, ForcedPlan, ProgramArtifacts, Tier, TvMode, VerifyMode, Vm,
    VmConfig, VmKind,
};

fn inst(dst: Option<Reg>, op: Op) -> Inst {
    Inst { dst, op, frame: 0, bc_pc: 0 }
}

/// A compiled program whose method table backs `qualified_name` for the
/// hand-built IR below (the IR itself never executes).
fn host_bytecode() -> BProgram {
    let program = cse_lang::parse_and_check(
        r#"
        class T {
            static int add(int a, int b) { return a + b; }
            static void main() { println(add(1, 2)); }
        }
        "#,
    )
    .unwrap();
    cse_bytecode::compile(&program).unwrap()
}

/// Hand-built reference function exercising every contract dimension:
/// const-foldable arithmetic (constfold), a copy chain (copyprop), a
/// redundant expression (gvn), a loop-invariant computation in a
/// self-loop (licm), heap effects and an interleaved load (effect
/// ordering), anchor writes (deopt state), a speculation guard
/// (`Trap`), and a return of a loop-defined anchor.
fn reference_func(bytecode: &BProgram) -> IrFunc {
    let method = bytecode.find_method("T", "add").unwrap();
    let func = IrFunc {
        method,
        tier: Tier::T2,
        blocks: vec![
            // b0: constants, a copy chain, redundant adds, an anchor
            // write, and an allocation.
            Block {
                insts: vec![
                    inst(Some(5), Op::ConstI(7)),
                    inst(Some(6), Op::ConstI(3)),
                    inst(Some(13), Op::Copy(6)),
                    inst(Some(7), Op::BinI(BinKind::Add, 5, 6)),
                    inst(Some(15), Op::BinI(BinKind::Add, 5, 6)),
                    inst(Some(0), Op::Copy(7)),
                    inst(Some(9), Op::NewObject(ClassId(0))),
                ],
                term: Term::Jump(1),
            },
            // b1: self-loop with a loop-invariant add, an anchor write, a
            // store/load pair, and an observable print.
            Block {
                insts: vec![
                    inst(Some(8), Op::BinI(BinKind::Add, 0, 6)),
                    inst(Some(1), Op::Copy(8)),
                    inst(None, Op::PutField { obj: 9, field: 0, val: 8 }),
                    inst(Some(10), Op::GetField { obj: 9, field: 0 }),
                    inst(None, Op::Println { kind: PrintKind::Int, val: 10 }),
                    inst(Some(11), Op::CmpI(CmpOp::Lt, 8, 5)),
                ],
                term: Term::Branch { cond: 11, if_true: 1, if_false: 2 },
            },
            // b2: a comparison through the copy chain feeding the guard.
            Block {
                insts: vec![inst(Some(12), Op::CmpI(CmpOp::Gt, 0, 13))],
                term: Term::Branch { cond: 12, if_true: 3, if_false: 4 },
            },
            // b3: speculation guard (deopt point).
            Block {
                insts: vec![],
                term: Term::Trap { bc_pc: 9, reason: DeoptReason::BranchSpeculation },
            },
            // b4: return the loop-defined anchor.
            Block { insts: vec![], term: Term::Return(Some(1)) },
        ],
        num_regs: 16,
        frames: vec![InlineFrame { method, local_base: 0, num_locals: 2, parent: None }],
        handlers: vec![],
        osr_entry: None,
        anchor_limit_per_frame: vec![(0, 2)],
    };
    let baseline = verify::check_func(&func, bytecode, verify::PASS_BUILD);
    assert!(baseline.is_empty(), "reference function must verify: {baseline:?}");
    func
}

fn test_ctx<'a>(
    bytecode: &'a BProgram,
    profiles: &'a [artemis_cse::vm::profile::MethodProfile],
    faults: &'a FaultInjector,
) -> CompileCtx<'a> {
    CompileCtx {
        program: bytecode,
        profiles,
        faults,
        kind: VmKind::HotSpotLike,
        tier: Tier::T2,
        speculate: true,
        inline_limit: 48,
        has_osr_code: false,
        verify: VerifyMode::Off,
        tv: TvMode::Off,
        fired: Cell::new(0),
    }
}

/// Every distinct pass registered across all pipeline tables, keyed by
/// the table name the verifier attributes defects to.
fn unique_passes() -> Vec<(&'static str, PassFn)> {
    let mut seen: Vec<(&'static str, PassFn)> = Vec::new();
    for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
        for optimizing in [false, true] {
            for &(name, pass) in passes::pipeline(kind, optimizing) {
                if !seen.iter().any(|&(n, _)| n == name) {
                    seen.push((name, pass));
                }
            }
        }
    }
    seen
}

// --- Seeded semantic corruptions -------------------------------------
//
// Each takes a pass's (clean, validated) output and miscompiles it in a
// way the simulation relation must reject: an observable effect
// disappears, a value feeding effects changes, a deopt guard weakens,
// effects reorder, or deopt-visible anchor state is lost. They locate
// their target structurally so they apply to any pass's output shape
// (e.g. after LICM has inserted a preheader or constfold has folded).

fn drop_store(func: &mut IrFunc) {
    for block in &mut func.blocks {
        if let Some(i) = block.insts.iter().position(|x| matches!(x.op, Op::PutField { .. })) {
            block.insts.remove(i);
            return;
        }
    }
    panic!("no store to drop");
}

fn wrong_constant(func: &mut IrFunc) {
    for block in &mut func.blocks {
        for x in &mut block.insts {
            if x.op == Op::ConstI(3) {
                x.op = Op::ConstI(4);
                return;
            }
        }
    }
    panic!("no ConstI(3) to corrupt");
}

fn weaken_guard(func: &mut IrFunc) {
    for block in &mut func.blocks {
        if matches!(block.term, Term::Trap { .. }) {
            block.term = Term::Return(None);
            return;
        }
    }
    panic!("no guard to weaken");
}

fn reorder_effects(func: &mut IrFunc) {
    for block in &mut func.blocks {
        let store = block.insts.iter().position(|x| matches!(x.op, Op::PutField { .. }));
        let print = block.insts.iter().position(|x| matches!(x.op, Op::Println { .. }));
        if let (Some(a), Some(b)) = (store, print) {
            block.insts.swap(a, b);
            return;
        }
    }
    panic!("no block with both a store and a print");
}

fn drop_anchor_write(func: &mut IrFunc) {
    for block in &mut func.blocks {
        if let Some(i) = block.insts.iter().position(|x| x.dst == Some(1)) {
            block.insts.remove(i);
            return;
        }
    }
    panic!("no write to anchor r1");
}

type Corruption = fn(&mut IrFunc);

const CORRUPTIONS: &[(&str, Corruption)] = &[
    ("dropped-store", drop_store),
    ("wrong-constant", wrong_constant),
    ("weakened-guard", weaken_guard),
    ("reordered-effects", reorder_effects),
    ("dropped-anchor-write", drop_anchor_write),
];

/// The tentpole acceptance gate: every registered pass's legitimate
/// output validates cleanly against its declared contract, and each of
/// the ≥3 seeded semantic corruptions of that output is rejected with
/// the counterexample attributed to exactly that pass.
#[test]
fn every_pass_rejects_seeded_corruptions_with_attribution() {
    let bytecode = host_bytecode();
    let reference = reference_func(&bytecode);
    let profiles: Vec<_> = bytecode.methods.iter().map(|_| Default::default()).collect();
    let faults = FaultInjector::none();
    let ctx = test_ctx(&bytecode, &profiles, &faults);
    let all = unique_passes();
    assert!(all.len() >= 10, "expected the full pass roster, got {}", all.len());
    for (name, pass) in all {
        let contract = passes::tv_contract(name).expect("registered pass carries a contract");
        let mut after = reference.clone();
        pass(&ctx, &mut after).expect("correct path never crashes");
        let clean = tv::check_refinement(&reference, &after, name, contract, &bytecode);
        if let Some(report) = clean {
            panic!("false positive on the clean output of {name}:\n{report}");
        }
        for (label, corrupt) in CORRUPTIONS {
            let mut bad = after.clone();
            corrupt(&mut bad);
            let report = tv::check_refinement(&reference, &bad, name, contract, &bytecode)
                .unwrap_or_else(|| panic!("{name}: corruption `{label}` was not rejected"));
            for e in &report.divergences {
                assert_eq!(e.pass, name, "{name}/{label}: defect attributed to `{}`", e.pass);
            }
            // The counterexample carries both IR dumps for triage.
            let rendered = report.to_string();
            assert!(rendered.contains(&format!("after {name}")), "missing pass in {rendered}");
            assert!(rendered.contains("--- IR before"), "missing pre-pass dump");
            assert!(rendered.contains("--- IR after"), "missing post-pass dump");
        }
    }
}

/// Boundary mode checks the whole pipeline as one refinement; its
/// counterexamples are attributed to the synthetic `pipeline` pass.
#[test]
fn boundary_counterexamples_are_attributed_to_the_pipeline() {
    let bytecode = host_bytecode();
    let reference = reference_func(&bytecode);
    let mut bad = reference.clone();
    weaken_guard(&mut bad);
    let report = tv::check_refinement(
        &reference,
        &bad,
        tv::PASS_PIPELINE,
        TvContract::GuardIntroducing,
        &bytecode,
    )
    .expect("weakened guard must be a defect even when guards may strengthen");
    let first = &report.divergences[0];
    assert_eq!(first.pass, "pipeline");
    assert!(first.detail.contains("weakened"), "unexpected detail: {}", first.detail);
}

/// A *real* injected bug — `HsGvnArrayAlias` CSEs an array load across a
/// store whose index register differs (a wrong "cannot alias" test) —
/// must be caught by the simulation relation: the stale value reaches an
/// observable print.
#[test]
fn tv_catches_the_injected_gvn_alias_bug() {
    let bytecode = host_bytecode();
    let method = bytecode.find_method("T", "add").unwrap();
    let profiles: Vec<_> = bytecode.methods.iter().map(|_| Default::default()).collect();
    let before = IrFunc {
        method,
        tier: Tier::T2,
        blocks: vec![Block {
            insts: vec![
                inst(Some(4), Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
                inst(None, Op::ArrStore { kind: ArrKind::I32, arr: 0, idx: 2, val: 4 }),
                inst(Some(5), Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
                inst(None, Op::Println { kind: PrintKind::Int, val: 5 }),
            ],
            term: Term::Return(None),
        }],
        num_regs: 8,
        frames: vec![InlineFrame { method, local_base: 0, num_locals: 2, parent: None }],
        handlers: vec![],
        osr_entry: None,
        anchor_limit_per_frame: vec![(0, 2)],
    };
    let faults = FaultInjector::with([BugId::HsGvnArrayAlias]);
    let ctx = test_ctx(&bytecode, &profiles, &faults);
    let mut after = before.clone();
    passes::gvn::run_local(&ctx, &mut after).unwrap();
    assert_eq!(after.blocks[0].insts[2].op, Op::Copy(4), "the injected bug must fire");
    let report =
        tv::check_refinement(&before, &after, "gvn-local", TvContract::EffectPreserving, &bytecode)
            .expect("stale load reaching a print must break the simulation");
    assert_eq!(report.divergences[0].pass, "gvn-local");
    // The correct path on the same input validates cleanly.
    let faults = FaultInjector::none();
    let ctx = test_ctx(&bytecode, &profiles, &faults);
    let mut after = before.clone();
    passes::gvn::run_local(&ctx, &mut after).unwrap();
    let clean =
        tv::check_refinement(&before, &after, "gvn-local", TvContract::EffectPreserving, &bytecode);
    assert!(clean.is_none(), "correct GVN must validate:\n{clean:?}");
}

/// Java's integer edge cases with constant operands: constfold's correct
/// path folds each to its Java value (a zero divisor stays unfolded, so
/// the exception still fires), and the folded function refines the
/// unfolded one under constfold's contract.
#[test]
fn constfold_of_java_integer_edge_cases_validates() {
    let bytecode = host_bytecode();
    let method = bytecode.find_method("T", "add").unwrap();
    let profiles: Vec<_> = bytecode.methods.iter().map(|_| Default::default()).collect();
    // (operator, long form, lhs, rhs, folded Java value); a long shift's
    // rhs is an int.
    let cases: [(BinKind, bool, i64, i64, Option<i64>); 16] = [
        (BinKind::Div, false, -2147483648, -1, Some(-2147483648)),
        (BinKind::Rem, false, -2147483648, -1, Some(0)),
        (BinKind::Ushr, false, -7, 33, Some(2147483644)),
        (BinKind::Shl, false, 1, 32, Some(1)),
        (BinKind::Shl, false, 1, -1, Some(-2147483648)),
        (BinKind::Shr, false, -8, -30, Some(-2)),
        (BinKind::Ushr, false, -1, -28, Some(268435455)),
        (BinKind::Rem, false, -7, 2, Some(-1)),
        (BinKind::Ushr, true, -1, 65, Some(9223372036854775807)),
        (BinKind::Shl, true, 1, -1, Some(-9223372036854775808)),
        (BinKind::Ushr, true, -1, -60, Some(1152921504606846975)),
        (BinKind::Div, true, -9223372036854775808, -1, Some(-9223372036854775808)),
        (BinKind::Rem, true, -9223372036854775808, -1, Some(0)),
        (BinKind::Div, true, 7, -1, Some(-7)),
        (BinKind::Div, false, 5, 0, None),
        (BinKind::Rem, true, 5, 0, None),
    ];
    let mut insts = Vec::new();
    for (i, &(kind, long, lhs, rhs, _)) in cases.iter().enumerate() {
        let (a, b, r) = (2 + 3 * i as Reg, 3 + 3 * i as Reg, 4 + 3 * i as Reg);
        let int_rhs = !long || kind.is_shift();
        insts.push(inst(Some(a), if long { Op::ConstL(lhs) } else { Op::ConstI(lhs as i32) }));
        insts.push(inst(Some(b), if int_rhs { Op::ConstI(rhs as i32) } else { Op::ConstL(rhs) }));
        let (op, print) = if long {
            (Op::BinL(kind, a, b), PrintKind::Long)
        } else {
            (Op::BinI(kind, a, b), PrintKind::Int)
        };
        insts.push(inst(Some(r), op));
        insts.push(inst(None, Op::Println { kind: print, val: r }));
    }
    let before = IrFunc {
        method,
        tier: Tier::T2,
        blocks: vec![Block { insts, term: Term::Return(Some(0)) }],
        num_regs: 2 + 3 * cases.len() as Reg,
        frames: vec![InlineFrame { method, local_base: 0, num_locals: 2, parent: None }],
        handlers: vec![],
        osr_entry: None,
        anchor_limit_per_frame: vec![(0, 2)],
    };
    let baseline = verify::check_func(&before, &bytecode, verify::PASS_BUILD);
    assert!(baseline.is_empty(), "the edge-case function must verify: {baseline:?}");
    let faults = FaultInjector::none();
    let ctx = test_ctx(&bytecode, &profiles, &faults);
    let mut after = before.clone();
    passes::constfold::run(&ctx, &mut after).unwrap();
    for (i, &(kind, long, lhs, rhs, want)) in cases.iter().enumerate() {
        let folded = match after.blocks[0].insts[4 * i + 2].op {
            Op::ConstI(v) if !long => Some(i64::from(v)),
            Op::ConstL(v) if long => Some(v),
            _ => None,
        };
        assert_eq!(folded, want, "{kind:?} long={long} on {lhs}, {rhs}");
    }
    let contract = passes::tv_contract("constfold").expect("constfold carries a contract");
    let report = tv::check_refinement(&before, &after, "constfold", contract, &bytecode);
    assert!(report.is_none(), "constfold's edge-case folds must validate:\n{report:?}");
}

/// One failing check yields one report: a header line per divergence
/// (the first is the line triage parses), then a single pre/post IR dump
/// pair, however many divergences the check found.
#[test]
fn one_report_per_failing_check_renders_the_ir_once() {
    let bytecode = host_bytecode();
    let reference = reference_func(&bytecode);
    let mut bad = reference.clone();
    drop_store(&mut bad);
    weaken_guard(&mut bad);
    let report =
        tv::check_refinement(&reference, &bad, "gvn", TvContract::EffectPreserving, &bytecode)
            .expect("two corruptions must be rejected");
    let n = report.divergences.len();
    assert!(n >= 2, "two corruptions must yield two divergences: {report}");
    let rendered = report.to_string();
    assert_eq!(rendered.matches("--- IR before gvn ---").count(), 1, "{rendered}");
    assert_eq!(rendered.matches("--- IR after gvn ---").count(), 1, "{rendered}");
    let headers: Vec<&str> =
        rendered.lines().take_while(|line| !line.starts_with("--- IR before")).collect();
    assert_eq!(headers.len(), n, "one header line per divergence:\n{rendered}");
    for (header, divergence) in headers.iter().zip(&report.divergences) {
        assert_eq!(*header, divergence.to_string());
        assert!(header.starts_with("T.add: after gvn: b"), "unparseable header {header:?}");
    }
    assert_eq!(report.headers(), headers.join("\n"), "headers() is the report's first lines");
    assert!(rendered.contains("putfield"), "the dropped store is reported:\n{rendered}");
    assert!(rendered.contains("weakened"), "the weakened guard is reported:\n{rendered}");
}

/// Whether `line` has the shape of a [`tv::TvError`] header,
/// `method: after pass: bN: detail`.
fn is_tv_header(line: &str) -> bool {
    let Some((method, rest)) = line.split_once(": after ") else { return false };
    let Some((_pass, rest)) = rest.split_once(": b") else { return false };
    !method.is_empty()
        && rest.split_once(": ").is_some_and(|(block, _)| block.parse::<u32>().is_ok())
}

/// On a VM run, `tv_defects` still counts divergences one by one, while
/// `ExecutionResult::tv` holds one entry per failing check: its header
/// lines, one per divergence, without the IR dumps — also when the
/// artifact cache replays the compilation on a second run.
#[test]
fn tv_defects_count_divergences_not_reports() {
    let kind = VmKind::OpenJ9Like;
    let top = VmConfig::for_kind(kind).top_tier();
    let config = VmConfig::for_kind(kind).with_plan(ForcedPlan::all(top)).with_tv(TvMode::Boundary);
    let mut widest = 0;
    for seed in 0..4 {
        let program = cse_fuzz::generate(seed, &cse_fuzz::FuzzConfig::default());
        let bytecode = compile_checked(&program);
        let artifacts = ProgramArtifacts::for_program(&bytecode);
        let runs = [
            Vm::new(&bytecode, config.clone()).with_artifacts(&artifacts).run(),
            Vm::new(&bytecode, config.clone()).with_artifacts(&artifacts).run(),
        ];
        assert!(runs[1].stats.code_cache_hits > 0, "seed {seed}: the rerun must replay");
        for result in &runs {
            let mut divergences = 0;
            for report in &result.tv {
                assert!(!report.is_empty() && !report.ends_with('\n'), "{report:?}");
                for line in report.lines() {
                    assert!(is_tv_header(line), "seed {seed}: not a header line: {line:?}");
                }
                let headers = report.lines().count();
                widest = widest.max(headers);
                divergences += headers;
            }
            assert_eq!(result.stats.tv_defects as usize, divergences, "seed {seed}");
        }
        assert_eq!(runs[0].tv, runs[1].tv, "seed {seed}: a replay reports what compiling did");
    }
    assert!(widest >= 2, "calibration: some check must find several divergences");
}

/// A TV-on campaign keeps only divergence lines: every `TvDefect`
/// payload line is a header, no static-oracle payload carries an IR dump,
/// and the payloads' lines add up to `totals.tv_defects`.
#[test]
fn campaign_tv_incidents_carry_divergence_lines_only() {
    let mut config = CampaignConfig::for_kind(VmKind::OpenJ9Like, 3);
    config.vm.tv = TvMode::Boundary;
    config.vm.verify_ir = VerifyMode::Boundary;
    let result = run_campaign(&config);
    let mut lines = 0;
    for incident in &result.incidents {
        match incident.phase {
            IncidentPhase::TvDefect => {
                for line in incident.payload.lines() {
                    assert!(is_tv_header(line), "not a header line: {line:?}");
                    lines += 1;
                }
            }
            IncidentPhase::IrVerifyDefect => {}
            _ => continue,
        }
        assert!(!incident.payload.contains("--- IR "), "IR dump in:\n{}", incident.payload);
    }
    assert!(lines > 0, "calibration: the campaign must raise TV incidents");
    assert_eq!(lines, result.totals.tv_defects, "one payload line per counted divergence");
}

/// `each`-mode soundness across the fuzzed seed corpus, on every VM
/// profile, under both the natural tiering policy and a forced
/// compile-everything plan — on *correct* VMs (no seeded bugs), any TV
/// report is a checker false positive or a genuine pipeline bug.
#[test]
fn each_mode_accepts_fuzzed_corpus() {
    let mut rng = Rng64::seed_from_u64(0x7c5e);
    for _ in 0..8 {
        let seed = rng.gen_range(0u64..1_000_000);
        let program = cse_fuzz::generate(seed, &cse_fuzz::FuzzConfig::default());
        let bytecode = compile_checked(&program);
        for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
            let top = VmConfig::correct(kind).top_tier();
            for config in [
                VmConfig::correct(kind).with_tv(TvMode::Each),
                VmConfig::correct(kind).with_plan(ForcedPlan::all(top)).with_tv(TvMode::Each),
            ] {
                let result = Vm::run_program(&bytecode, config);
                assert!(
                    result.tv.is_empty(),
                    "seed {seed} on {kind}: TV flagged a correct pipeline:\n{}",
                    result.tv.join("\n")
                );
                assert_eq!(result.stats.tv_defects, 0, "seed {seed} on {kind}");
            }
        }
    }
}

/// All `2^4` forced plans of the paper's Figure 1 program validate
/// cleanly under `each` mode: the refinement checker holds over the
/// entire enumerated compilation space, not just the natural path.
#[test]
fn each_mode_accepts_all_forced_plans() {
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
        let base = VmConfig::correct(kind).with_tv(TvMode::Each);
        let points = enumerate_space(&bytecode, &calls, &base);
        assert_eq!(points.len(), 16);
        for (i, point) in points.iter().enumerate() {
            assert!(
                point.result.tv.is_empty(),
                "space point {i} on {kind}:\n{}",
                point.result.tv.join("\n")
            );
            assert_eq!(point.result.stats.tv_defects, 0, "space point {i} on {kind}");
        }
    }
}

/// TV is observation-only: on a bug-seeded VM, a campaign in `boundary`
/// mode reports what the output oracle reports with TV `off` — the same
/// bugs, discrepant seeds and mutant and invocation totals — at every
/// `jobs`. The digests differ across modes by design: the TV mode is
/// part of the campaign's identity and its findings are digested.
#[test]
fn boundary_mode_digests_match_off_across_jobs() {
    let base = CampaignConfig::for_kind(VmKind::HotSpotLike, 4);
    let mut reports = Vec::new();
    for jobs in [1, 4] {
        for mode in [TvMode::Off, TvMode::Boundary] {
            let mut config = base.clone().with_jobs(jobs);
            config.vm.tv = mode;
            let result = run_campaign(&config);
            let report = (
                result.bugs.keys().copied().collect::<Vec<_>>(),
                result.cse_seeds.clone(),
                result.totals.mutants,
                result.totals.completed,
                result.totals.vm_invocations,
            );
            reports.push((jobs, mode, report));
        }
    }
    assert!(!reports[0].2 .0.is_empty(), "calibration: the campaign finds bugs");
    for (jobs, mode, report) in &reports {
        assert_eq!(report, &reports[0].2, "output oracle diverged at jobs={jobs}, CSE_TV={mode}");
    }
}
