//! Dead-code elimination.
//!
//! Removes pure instructions whose results are never read, iterating to a
//! fixpoint. Writes to anchor registers are never removed: handler entry
//! and de-optimization rebuild interpreter state from them, so an anchor
//! write is observable even when no IR instruction reads it.

use crate::jit::hash::FastSet;
use crate::jit::ir::{IrFunc, Reg};
use crate::jit::tv::TvContract;

/// Removes only pure, unread, non-anchor definitions.
pub const TV_CONTRACT: TvContract = TvContract::EffectPreserving;

/// Runs DCE to a fixpoint.
pub fn run(func: &mut IrFunc) {
    let is_anchor =
        |r: Reg, anchors: &[(Reg, Reg)]| anchors.iter().any(|&(lo, hi)| r >= lo && r < hi);
    let anchors = func.anchor_limit_per_frame.clone();
    loop {
        let mut read: FastSet<Reg> = FastSet::default();
        for block in &func.blocks {
            for inst in &block.insts {
                read.extend(inst.op.sources());
            }
            read.extend(block.term.sources());
        }
        let mut removed = false;
        for block in &mut func.blocks {
            block.insts.retain(|inst| {
                let dead = match inst.dst {
                    Some(dst) => {
                        inst.op.is_pure() && !read.contains(&dst) && !is_anchor(dst, &anchors)
                    }
                    None => false,
                };
                if dead {
                    removed = true;
                }
                !dead
            });
        }
        if !removed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Tier;
    use crate::jit::ir::*;
    use cse_bytecode::MethodId;

    fn func_with(insts: Vec<Inst>, term: Term) -> IrFunc {
        IrFunc {
            method: MethodId(0),
            tier: Tier::T1,
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

    fn inst(dst: Option<Reg>, op: Op) -> Inst {
        Inst { dst, op, frame: 0, bc_pc: 0 }
    }

    #[test]
    fn removes_transitively_dead_chains() {
        let mut f = func_with(
            vec![
                inst(Some(4), Op::ConstI(1)),
                inst(Some(5), Op::BinI(BinKind::Add, 4, 4)), // only feeds r6
                inst(Some(6), Op::BinI(BinKind::Mul, 5, 5)), // never read
                inst(Some(7), Op::ConstI(9)),                // returned
            ],
            Term::Return(Some(7)),
        );
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert_eq!(f.blocks[0].insts[0].op, Op::ConstI(9));
    }

    #[test]
    fn keeps_anchor_writes_and_side_effects() {
        let mut f = func_with(
            vec![
                inst(Some(0), Op::ConstI(1)), // anchor write (local 0)
                inst(Some(4), Op::GetField { obj: 1, field: 0 }), // may throw
                inst(None, Op::Mute),
            ],
            Term::Return(None),
        );
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 3);
    }
}
