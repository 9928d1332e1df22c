//! Block-local constant propagation and folding.
//!
//! Tracks constant register contents within each block, folds pure
//! arithmetic, and collapses branches/switches on constant inputs.
//! Division and remainder fold only when the divisor is a non-zero
//! constant (the exception must otherwise still fire at runtime).
//!
//! Injected bugs hosted here:
//! * [`BugId::HsConstPropRemSign`] — folds `a % b` with a negative
//!   constant dividend using the Euclidean convention (wrong sign).
//! * [`BugId::ArtOptCompXorFold`] — folds `x ^ -1` to `-x` in blocks that
//!   also narrow to byte (ART's method-JIT).

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::hash::FastMap;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Folding replaces conditional control on proven constants with
/// jumps; range speculation may strengthen guards.
pub const TV_CONTRACT: TvContract = TvContract::GuardIntroducing;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Const {
    I(i32),
    L(i64),
}

/// Runs the pass over every block.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    for block in &mut func.blocks {
        let has_i2b = block.insts.iter().any(|i| matches!(i.op, Op::I2B(_)));
        let mut consts: FastMap<Reg, Const> = FastMap::default();
        for inst in &mut block.insts {
            let folded = fold_op(ctx, &inst.op, &consts, has_i2b);
            if let Some(new_op) = folded {
                inst.op = new_op;
            }
            if let Some(dst) = inst.dst {
                match inst.op {
                    Op::ConstI(v) => {
                        consts.insert(dst, Const::I(v));
                    }
                    Op::ConstL(v) => {
                        consts.insert(dst, Const::L(v));
                    }
                    _ => {
                        consts.remove(&dst);
                    }
                }
            }
        }
        // Fold constant control flow.
        match &block.term {
            Term::Branch { cond, if_true, if_false } => {
                if let Some(Const::I(v)) = consts.get(cond) {
                    block.term = Term::Jump(if *v != 0 { *if_true } else { *if_false });
                }
            }
            Term::Switch { scrut, cases, default } => {
                if let Some(Const::I(v)) = consts.get(scrut) {
                    let target = cases
                        .iter()
                        .find(|(label, _)| label == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                    block.term = Term::Jump(target);
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Folds one op against known constants; returns the replacement op.
fn fold_op(
    ctx: &CompileCtx<'_>,
    op: &Op,
    consts: &FastMap<Reg, Const>,
    block_has_i2b: bool,
) -> Option<Op> {
    let ci = |r: &Reg| match consts.get(r) {
        Some(Const::I(v)) => Some(*v),
        _ => None,
    };
    let cl = |r: &Reg| match consts.get(r) {
        Some(Const::L(v)) => Some(*v),
        _ => None,
    };
    match op {
        Op::BinI(kind, a, b) => {
            // ART injected bug: `x ^ -1` → `-x` near byte narrowing.
            if *kind == BinKind::Xor
                && ci(b) == Some(-1)
                && block_has_i2b
                && ctx.speculate
                && ctx.active(BugId::ArtOptCompXorFold)
            {
                return Some(Op::NegI(*a));
            }
            let (x, y) = (ci(a)?, ci(b)?);
            // HotSpot injected bug: Euclidean-sign remainder folding.
            if *kind == BinKind::Rem
                && y != 0
                && x < 0
                && ctx.optimizing()
                && ctx.active(BugId::HsConstPropRemSign)
            {
                return Some(Op::ConstI(x.rem_euclid(y)));
            }
            // A zero divisor does not fold: the exception must still fire.
            Some(Op::ConstI(kind.eval_i(x, y)?))
        }
        Op::BinL(kind, a, b) => {
            let y = if kind.is_shift() { i64::from(ci(b)?) } else { cl(b)? };
            Some(Op::ConstL(kind.eval_l(cl(a)?, y)?))
        }
        Op::NegI(r) => Some(Op::ConstI(ci(r)?.wrapping_neg())),
        Op::NegL(r) => Some(Op::ConstL(cl(r)?.wrapping_neg())),
        Op::I2L(r) => Some(Op::ConstL(i64::from(ci(r)?))),
        Op::L2I(r) => Some(Op::ConstI(cl(r)? as i32)),
        Op::I2B(r) => Some(Op::ConstI(i32::from(ci(r)? as i8))),
        Op::CmpI(op, a, b) => Some(Op::ConstI(i32::from(op.eval(ci(a)?, ci(b)?)))),
        Op::CmpL(op, a, b) => Some(Op::ConstI(i32::from(op.eval(cl(a)?, cl(b)?)))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Tier, VmKind};
    use crate::faults::FaultInjector;
    use crate::profile::MethodProfile;
    use cse_bytecode::{BProgram, CmpOp, MethodId};

    fn test_ctx<'a>(
        program: &'a BProgram,
        profiles: &'a [MethodProfile],
        faults: &'a FaultInjector,
        kind: VmKind,
    ) -> CompileCtx<'a> {
        CompileCtx {
            program,
            profiles,
            faults,
            kind,
            tier: Tier::T2,
            speculate: true,
            inline_limit: 48,
            has_osr_code: false,
            verify: crate::config::VerifyMode::Off,
            tv: crate::config::TvMode::Off,
            fired: std::cell::Cell::new(0),
        }
    }

    fn tiny_program() -> BProgram {
        let p = cse_lang::parse_and_check("class T { static void main() { } }").unwrap();
        cse_bytecode::compile(&p).unwrap()
    }

    fn one_block(insts: Vec<Inst>, term: Term) -> IrFunc {
        IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![Block { insts, term }],
            num_regs: 16,
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

    fn inst(dst: Reg, op: Op) -> Inst {
        Inst { dst: Some(dst), op, frame: 0, bc_pc: 0 }
    }

    #[test]
    fn folds_constant_arithmetic() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let ctx = test_ctx(&program, &profiles, &faults, VmKind::HotSpotLike);
        let mut f = one_block(
            vec![
                inst(2, Op::ConstI(6)),
                inst(3, Op::ConstI(7)),
                inst(4, Op::BinI(BinKind::Mul, 2, 3)),
                inst(5, Op::CmpI(CmpOp::Lt, 2, 3)),
            ],
            Term::Return(Some(4)),
        );
        run(&ctx, &mut f).unwrap();
        assert_eq!(f.blocks[0].insts[2].op, Op::ConstI(42));
        assert_eq!(f.blocks[0].insts[3].op, Op::ConstI(1));
    }

    #[test]
    fn never_folds_division_by_zero() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let ctx = test_ctx(&program, &profiles, &faults, VmKind::HotSpotLike);
        let mut f = one_block(
            vec![
                inst(2, Op::ConstI(6)),
                inst(3, Op::ConstI(0)),
                inst(4, Op::BinI(BinKind::Div, 2, 3)),
            ],
            Term::Return(Some(4)),
        );
        run(&ctx, &mut f).unwrap();
        assert_eq!(f.blocks[0].insts[2].op, Op::BinI(BinKind::Div, 2, 3));
    }

    #[test]
    fn folds_constant_branch() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let ctx = test_ctx(&program, &profiles, &faults, VmKind::HotSpotLike);
        let mut f = one_block(
            vec![inst(2, Op::ConstI(1))],
            Term::Branch { cond: 2, if_true: 0, if_false: 0 },
        );
        f.blocks.push(Block { insts: vec![], term: Term::Return(None) });
        f.blocks.push(Block { insts: vec![], term: Term::Return(None) });
        f.blocks[0].term = Term::Branch { cond: 2, if_true: 1, if_false: 2 };
        run(&ctx, &mut f).unwrap();
        assert_eq!(f.blocks[0].term, Term::Jump(1));
    }

    #[test]
    fn injected_rem_sign_bug_changes_fold() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let run_with = |faults: FaultInjector| {
            let ctx = test_ctx(&program, &profiles, &faults, VmKind::HotSpotLike);
            let mut f = one_block(
                vec![
                    inst(2, Op::ConstI(-7)),
                    inst(3, Op::ConstI(3)),
                    inst(4, Op::BinI(BinKind::Rem, 2, 3)),
                ],
                Term::Return(Some(4)),
            );
            run(&ctx, &mut f).unwrap();
            f.blocks[0].insts[2].op.clone()
        };
        assert_eq!(run_with(FaultInjector::none()), Op::ConstI(-1));
        assert_eq!(
            run_with(FaultInjector::with([BugId::HsConstPropRemSign])),
            Op::ConstI(2),
            "Euclidean remainder is the injected wrong answer"
        );
    }

    #[test]
    fn injected_xor_fold_bug_requires_byte_context() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::with([BugId::ArtOptCompXorFold]);
        let ctx = test_ctx(&program, &profiles, &faults, VmKind::ArtLike);
        // Without I2B in the block, the fold must not fire.
        let mut f = one_block(
            vec![inst(3, Op::ConstI(-1)), inst(4, Op::BinI(BinKind::Xor, 0, 3))],
            Term::Return(Some(4)),
        );
        run(&ctx, &mut f).unwrap();
        assert!(matches!(f.blocks[0].insts[1].op, Op::BinI(BinKind::Xor, ..)));
        // With I2B present, the buggy fold rewrites to negation.
        let mut f = one_block(
            vec![
                inst(3, Op::ConstI(-1)),
                inst(4, Op::BinI(BinKind::Xor, 0, 3)),
                inst(5, Op::I2B(4)),
            ],
            Term::Return(Some(5)),
        );
        run(&ctx, &mut f).unwrap();
        assert_eq!(f.blocks[0].insts[1].op, Op::NegI(0));
    }
}
