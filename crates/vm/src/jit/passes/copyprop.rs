//! Block-local copy propagation.
//!
//! The IR builder lowers every bytecode `Load`/`Store`/`Dup` into a
//! register copy, so the raw IR is copy-saturated. This pass rewrites
//! instruction sources to read through copies, after which value numbering
//! and DCE shrink the code substantially. No instruction is removed here —
//! in particular, writes to anchor registers always remain.

use crate::jit::hash::FastMap;
use crate::jit::ir::{IrFunc, Op, Reg};
use crate::jit::tv::TvContract;

/// Rewrites sources through copies only; never adds, drops, or
/// reorders instructions.
pub const TV_CONTRACT: TvContract = TvContract::EffectPreserving;

/// Runs copy propagation on every block.
pub fn run(func: &mut IrFunc) {
    for block in &mut func.blocks {
        // `equals[d] = s` means register d currently holds the value of s.
        let mut equals: FastMap<Reg, Reg> = FastMap::default();
        let resolve =
            |map: &FastMap<Reg, Reg>, r: Reg| -> Reg { map.get(&r).copied().unwrap_or(r) };
        for inst in &mut block.insts {
            inst.op.map_sources(|r| resolve(&equals, r));
            if let Some(dst) = inst.dst {
                // The old value of dst is gone: drop facts about dst and
                // facts that read dst.
                equals.remove(&dst);
                equals.retain(|_, src| *src != dst);
                if let Op::Copy(src) = inst.op {
                    if src != dst {
                        equals.insert(dst, src);
                    }
                }
            }
        }
        block.term.map_sources(|r| resolve(&equals, r));
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
                num_locals: 4,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 4)],
        }
    }

    fn inst(dst: Option<Reg>, op: Op) -> Inst {
        Inst { dst, op, frame: 0, bc_pc: 0 }
    }

    #[test]
    fn propagates_through_copies() {
        // r4 = copy r0; r5 = copy r4; r6 = r5 + r4  =>  r6 = r0 + r0.
        let mut f = func_with(
            vec![
                inst(Some(4), Op::Copy(0)),
                inst(Some(5), Op::Copy(4)),
                inst(Some(6), Op::BinI(BinKind::Add, 5, 4)),
            ],
            Term::Return(Some(6)),
        );
        run(&mut f);
        assert_eq!(f.blocks[0].insts[2].op, Op::BinI(BinKind::Add, 0, 0));
    }

    #[test]
    fn invalidates_on_redefinition() {
        // r4 = copy r0; r0 = const 9; r5 = copy r4 — r4 still holds the
        // OLD r0, so r5 must NOT become a copy of r0.
        let mut f = func_with(
            vec![
                inst(Some(4), Op::Copy(0)),
                inst(Some(0), Op::ConstI(9)),
                inst(Some(5), Op::Copy(4)),
            ],
            Term::Return(Some(5)),
        );
        run(&mut f);
        assert_eq!(f.blocks[0].insts[2].op, Op::Copy(4));
    }

    #[test]
    fn rewrites_terminator_sources() {
        let mut f = func_with(
            vec![inst(Some(4), Op::Copy(1))],
            Term::Branch { cond: 4, if_true: 0, if_false: 0 },
        );
        run(&mut f);
        assert_eq!(f.blocks[0].term, Term::Branch { cond: 1, if_true: 0, if_false: 0 });
    }
}
