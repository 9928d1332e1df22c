//! Value propagation (OpenJ9-style local and global VP).
//!
//! The legitimate analysis tracks simple value ranges (non-negativity of
//! unsigned shifts, array lengths) and folds comparisons the ranges
//! decide. Injected bugs hosted here:
//!
//! * [`BugId::J9LocalVpConstAssert`] — a block saturating the local
//!   constant table trips an assertion.
//! * [`BugId::J9GlobalVpShiftRange`] — `(x >>> c) > 0` (c ≥ 1 constant)
//!   is folded to `true`; the correct range fact is only `>= 0`.
//! * [`BugId::J9GlobalVpByteAssert`] — propagating a byte-narrowed value
//!   through a nested-loop anchor trips an assertion.

use cse_bytecode::CmpOp;

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::LoopForest;
use crate::jit::hash::FastMap;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Local VP only rewrites pure comparisons the block's range facts
/// decide; no control flow or effects change.
pub const TV_CONTRACT_LOCAL: TvContract = TvContract::EffectPreserving;

/// Global VP folds comparisons (and thereby branches) on proven range
/// facts and may strengthen speculation guards.
pub const TV_CONTRACT_GLOBAL: TvContract = TvContract::GuardIntroducing;

/// Local value propagation: per-block range facts.
pub fn run_local(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    for block in &mut func.blocks {
        let mut const_regs = 0usize;
        // Registers known to be >= 0 within this block.
        let mut non_negative: FastMap<Reg, bool> = FastMap::default();
        for inst in &mut block.insts {
            if matches!(inst.op, Op::ConstI(_) | Op::ConstL(_)) {
                const_regs += 1;
            }
            if let Some(dst) = inst.dst {
                let fact = match &inst.op {
                    Op::ConstI(v) => *v >= 0,
                    Op::ArrLen(_) => true,
                    Op::BinI(BinKind::Ushr, _, c) => {
                        // `x >>> c` is non-negative whenever a *known*
                        // shift amount 1..=31 applies; without the
                        // constant we stay conservative.
                        non_negative.get(c).copied().unwrap_or(false)
                    }
                    Op::BinI(BinKind::And, a, b) => {
                        non_negative.get(a).copied().unwrap_or(false)
                            || non_negative.get(b).copied().unwrap_or(false)
                    }
                    _ => false,
                };
                non_negative.insert(dst, fact);
            }
        }
        if const_regs > 28 && ctx.active(BugId::J9LocalVpConstAssert) {
            return Err(ctx.crash(
                BugId::J9LocalVpConstAssert,
                format!("local VP: constant table overflow ({const_regs} entries)"),
            ));
        }
        // Range facts feed the global pass; the only local fold (compare
        // against a literal zero) is left to constfold, which actually
        // tracks zero-ness.
        let _ = non_negative;
    }
    Ok(())
}

/// Global value propagation: cross-block shift-range facts.
pub fn run_global(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    // Single-def registers produced by `x >>> c` with constant c >= 1.
    let mut def_count: FastMap<Reg, u32> = FastMap::default();
    let mut const_of: FastMap<Reg, i32> = FastMap::default();
    for block in &func.blocks {
        for inst in &block.insts {
            if let Some(dst) = inst.dst {
                *def_count.entry(dst).or_default() += 1;
                if let Op::ConstI(v) = inst.op {
                    const_of.insert(dst, v);
                }
            }
        }
    }
    let single = |r: Reg| def_count.get(&r).copied().unwrap_or(0) == 1;
    let mut ushr_regs: Vec<Reg> = Vec::new();
    for block in &func.blocks {
        for inst in &block.insts {
            if let (Some(dst), Op::BinI(BinKind::Ushr, _, c)) = (inst.dst, &inst.op) {
                if single(dst) && single(*c) {
                    if let Some(shift) = const_of.get(c) {
                        if (1..=31).contains(shift) {
                            ushr_regs.push(dst);
                        }
                    }
                }
            }
        }
    }
    // Injected byte-propagation assertion: nested-loop anchor receiving a
    // narrowed value.
    if ctx.active(BugId::J9GlobalVpByteAssert) {
        let forest = LoopForest::compute(func);
        for (b, block) in func.blocks.iter().enumerate() {
            if forest.depth(b as BlockId) < 2 {
                continue;
            }
            for inst in &block.insts {
                if let (Some(dst), Op::I2B(_)) = (inst.dst, &inst.op) {
                    if func.is_anchor(dst) {
                        return Err(ctx.crash(
                            BugId::J9GlobalVpByteAssert,
                            "global VP: byte phi through nested loop",
                        ));
                    }
                }
            }
        }
    }
    // The injected range bug: `(x >>> c) > 0` folded to true (correct
    // would be only `>= 0`). The fold sits on the profile-guided path:
    // range facts are seeded from profiling tables, so cold `count=0`
    // compiles never reach it.
    if ctx.active(BugId::J9GlobalVpShiftRange) && ctx.speculate {
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                if let Op::CmpI(CmpOp::Gt, a, b) = inst.op {
                    let b_zero = const_of.get(&b) == Some(&0);
                    if ushr_regs.contains(&a) && b_zero {
                        inst.op = Op::ConstI(1);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Tier, VmKind};
    use crate::faults::FaultInjector;
    use crate::profile::MethodProfile;
    use cse_bytecode::{BProgram, MethodId};

    fn tiny_program() -> BProgram {
        let p = cse_lang::parse_and_check("class T { static void main() { } }").unwrap();
        cse_bytecode::compile(&p).unwrap()
    }

    fn ctx<'a>(
        program: &'a BProgram,
        profiles: &'a [MethodProfile],
        faults: &'a FaultInjector,
    ) -> CompileCtx<'a> {
        CompileCtx {
            program,
            profiles,
            faults,
            kind: VmKind::OpenJ9Like,
            tier: Tier::T2,
            speculate: true,
            inline_limit: 48,
            has_osr_code: false,
            verify: crate::config::VerifyMode::Off,
            tv: crate::config::TvMode::Off,
            fired: std::cell::Cell::new(0),
        }
    }

    fn inst(dst: Option<Reg>, op: Op) -> Inst {
        Inst { dst, op, frame: 0, bc_pc: 0 }
    }

    fn one_block(insts: Vec<Inst>) -> IrFunc {
        IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![Block { insts, term: Term::Return(None) }],
            num_regs: 32,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 2,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 2)],
        }
    }

    #[test]
    fn shift_range_bug_folds_gt_zero() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::with([BugId::J9GlobalVpShiftRange]);
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![
            inst(Some(4), Op::ConstI(3)),
            inst(Some(5), Op::BinI(BinKind::Ushr, 0, 4)),
            inst(Some(6), Op::ConstI(0)),
            inst(Some(7), Op::CmpI(CmpOp::Gt, 5, 6)),
        ]);
        run_global(&c, &mut f).unwrap();
        assert_eq!(f.blocks[0].insts[3].op, Op::ConstI(1), "buggy fold fired");
        // Correct compiler leaves the comparison alone.
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![
            inst(Some(4), Op::ConstI(3)),
            inst(Some(5), Op::BinI(BinKind::Ushr, 0, 4)),
            inst(Some(6), Op::ConstI(0)),
            inst(Some(7), Op::CmpI(CmpOp::Gt, 5, 6)),
        ]);
        run_global(&c, &mut f).unwrap();
        assert!(matches!(f.blocks[0].insts[3].op, Op::CmpI(..)));
    }

    #[test]
    fn const_table_assert_fires_on_saturated_block() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::with([BugId::J9LocalVpConstAssert]);
        let c = ctx(&program, &profiles, &faults);
        let insts: Vec<Inst> = (0..30).map(|i| inst(Some(4 + i), Op::ConstI(i as i32))).collect();
        let mut f = one_block(insts);
        let err = run_local(&c, &mut f).unwrap_err();
        assert_eq!(err.bug, BugId::J9LocalVpConstAssert);
    }
}
