//! Loop-invariant code motion.
//!
//! Correct behavior: pure, non-throwing, single-assignment instructions
//! whose operands are defined outside the loop hoist into a freshly
//! created preheader. Throwing operations (including field loads, which
//! may NPE) never hoist — except under the injected
//! [`BugId::HsLicmAliasedLoad`], which hoists a field load out of a loop
//! whose stores to the same field all sit inside `try` regions (the buggy
//! alias check ignores exceptional control flow), yielding stale reads.

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::{Loop, LoopForest};
use crate::jit::hash::FastSet;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Hoists only pure, non-throwing computation into fresh pure
/// forwarding preheaders.
pub const TV_CONTRACT: TvContract = TvContract::EffectPreserving;

/// Runs LICM over every loop, deepest first; the forest is re-discovered
/// only after a preheader insertion (the one edit that changes the CFG).
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    let mut processed: FastSet<BlockId> = FastSet::default();
    let mut forest = LoopForest::compute(func);
    // Def counts per register (the single-assignment check); moving an
    // instruction to a preheader leaves them as they are.
    let mut defs = vec![0u32; func.num_regs as usize];
    for dst in func.blocks.iter().flat_map(|b| &b.insts).filter_map(|i| i.dst) {
        defs[dst as usize] += 1;
    }
    loop {
        let next =
            forest.loops.iter().filter(|l| !processed.contains(&l.header)).max_by_key(|l| l.depth);
        let Some(lp) = next else { return Ok(()) };
        processed.insert(lp.header);
        // Headers that double as exception-handler targets are left alone:
        // the handler edge would bypass a preheader.
        if func.handlers.iter().any(|h| h.target == lp.header) {
            continue;
        }
        if hoist_loop(ctx, func, lp, &defs) {
            forest = LoopForest::compute(func);
        }
    }
}

/// Hoists the loop's invariant instructions; returns whether it inserted
/// a preheader for them.
fn hoist_loop(ctx: &CompileCtx<'_>, func: &mut IrFunc, lp: &Loop, defs: &[u32]) -> bool {
    // Registers written anywhere inside the loop.
    let mut written: FastSet<Reg> = FastSet::default();
    // Memory facts needed by the (buggy) field-load hoist.
    let mut loop_has_call = false;
    // field index -> has a store *outside* any try region / *inside* one.
    let mut field_store_plain: FastSet<u32> = FastSet::default();
    let mut field_store_in_try: FastSet<u32> = FastSet::default();
    for &b in &lp.blocks {
        for inst in &func.blocks[b as usize].insts {
            if let Some(dst) = inst.dst {
                written.insert(dst);
            }
            match &inst.op {
                Op::Call { .. } => loop_has_call = true,
                Op::PutField { field, .. } => {
                    let covered = func.handlers.iter().any(|h| {
                        h.frame == inst.frame && inst.bc_pc >= h.start_bc && inst.bc_pc < h.end_bc
                    });
                    if covered {
                        field_store_in_try.insert(*field);
                    } else {
                        field_store_plain.insert(*field);
                    }
                }
                _ => {}
            }
        }
    }
    let is_anchor =
        |r: Reg, anchors: &[(Reg, Reg)]| anchors.iter().any(|&(lo, hi)| r >= lo && r < hi);
    let alias_bug = ctx.active(BugId::HsLicmAliasedLoad) && ctx.optimizing();
    let anchors = func.anchor_limit_per_frame.clone();

    let mut hoisted: Vec<Inst> = Vec::new();
    for &b in &lp.blocks {
        let block = &mut func.blocks[b as usize];
        let mut kept: Vec<Inst> = Vec::with_capacity(block.insts.len());
        for inst in block.insts.drain(..) {
            let hoistable = match inst.dst {
                Some(dst) => {
                    let single = defs[dst as usize] == 1;
                    let invariant = inst.op.sources().all(|s| !written.contains(&s));
                    let movable = if inst.op.is_pure() {
                        true
                    } else if let Op::GetField { field, .. } = &inst.op {
                        // The injected alias bug: stores hidden inside try
                        // regions are ignored by the alias check.
                        alias_bug
                            && !loop_has_call
                            && field_store_in_try.contains(field)
                            && !field_store_plain.contains(field)
                    } else {
                        false
                    };
                    single && invariant && movable && !is_anchor(dst, &anchors)
                }
                None => false,
            };
            if hoistable {
                hoisted.push(inst);
            } else {
                kept.push(inst);
            }
        }
        block.insts = kept;
    }
    if hoisted.is_empty() {
        return false;
    }
    insert_preheader(func, lp, hoisted);
    true
}

/// Creates a preheader block in front of the loop's header, retargeting
/// all non-loop predecessors to it, and fills it with `insts`.
fn insert_preheader(func: &mut IrFunc, lp: &Loop, insts: Vec<Inst>) {
    let pre = func.blocks.len() as BlockId;
    func.blocks.push(Block { insts, term: Term::Jump(lp.header) });
    for b in 0..(func.blocks.len() - 1) as u32 {
        if lp.blocks.contains(&b) {
            continue;
        }
        for t in func.blocks[b as usize].term.successors_mut() {
            if *t == lp.header {
                *t = pre;
            }
        }
    }
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
            kind: VmKind::HotSpotLike,
            tier: Tier::T2,
            speculate: false,
            inline_limit: 48,
            has_osr_code: false,
            verify: crate::config::VerifyMode::Off,
            tv: crate::config::TvMode::Off,
            fired: std::cell::Cell::new(0),
        }
    }

    fn inst(dst: Reg, op: Op) -> Inst {
        Inst { dst: Some(dst), op, frame: 0, bc_pc: 5 }
    }

    /// CFG: 0 (entry) -> 1 (header) -> {2 (body) -> 1, 3 (exit)}.
    fn loop_func(body: Vec<Inst>) -> IrFunc {
        IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![
                Block { insts: vec![], term: Term::Jump(1) },
                Block { insts: vec![], term: Term::Branch { cond: 0, if_true: 2, if_false: 3 } },
                Block { insts: body, term: Term::Jump(1) },
                Block { insts: vec![], term: Term::Return(None) },
            ],
            num_regs: 32,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 3,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 3)],
        }
    }

    #[test]
    fn hoists_invariant_pure_expression() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = loop_func(vec![inst(10, Op::BinI(BinKind::Add, 1, 2))]);
        run(&c, &mut f).unwrap();
        assert!(f.blocks[2].insts.is_empty(), "invariant add should move out");
        let pre = &f.blocks[4];
        assert_eq!(pre.insts.len(), 1);
        assert_eq!(pre.term, Term::Jump(1));
        // Entry now routes through the preheader.
        assert_eq!(f.blocks[0].term, Term::Jump(4));
        // The back edge still targets the header directly.
        assert_eq!(f.blocks[2].term, Term::Jump(1));
    }

    #[test]
    fn keeps_variant_and_throwing_instructions() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = loop_func(vec![
            inst(10, Op::BinI(BinKind::Add, 1, 10)), // self-dependent: variant
            inst(11, Op::GetField { obj: 1, field: 0 }), // throwing: never hoisted
            inst(12, Op::BinI(BinKind::Div, 1, 2)),  // may throw
        ]);
        run(&c, &mut f).unwrap();
        assert_eq!(f.blocks[2].insts.len(), 3);
    }

    #[test]
    fn injected_alias_bug_hoists_field_load_over_try_store() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::with([BugId::HsLicmAliasedLoad]);
        let c = ctx(&program, &profiles, &faults);
        let store =
            Inst { dst: None, op: Op::PutField { obj: 1, field: 0, val: 2 }, frame: 0, bc_pc: 7 };
        let mut f = loop_func(vec![inst(10, Op::GetField { obj: 1, field: 0 }), store.clone()]);
        // The store at bc 7 sits inside a try region.
        f.handlers.push(IrHandler { frame: 0, start_bc: 6, end_bc: 9, target: 3, save_reg: None });
        run(&c, &mut f).unwrap();
        assert!(
            f.blocks[2].insts.iter().all(|i| !matches!(i.op, Op::GetField { .. })),
            "buggy pass hoists the load"
        );
        // Without the bug the load stays put.
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = loop_func(vec![inst(10, Op::GetField { obj: 1, field: 0 }), store]);
        f.handlers.push(IrHandler { frame: 0, start_bc: 6, end_bc: 9, target: 3, save_reg: None });
        run(&c, &mut f).unwrap();
        assert!(f.blocks[2].insts.iter().any(|i| matches!(i.op, Op::GetField { .. })));
    }

    /// Hoist order is part of the compiled IR: loops are taken deepest
    /// first, the last of equal depth first; each loop's instructions
    /// move in `Loop::blocks` order (the natural-loop walk's order), and
    /// in program order within a block.
    #[test]
    fn hoist_order_follows_pick_order_and_loop_block_order() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let branch = |if_true, if_false| Term::Branch { cond: 0, if_true, if_false };
        let mut f = loop_func(vec![]);
        f.blocks = vec![
            Block { insts: vec![], term: Term::Jump(1) },
            // Loop A: header 1, a diamond 2 | 3, latch 4.
            Block { insts: vec![], term: branch(2, 3) },
            Block { insts: vec![inst(10, Op::BinI(BinKind::Add, 1, 2))], term: Term::Jump(4) },
            Block {
                insts: vec![
                    inst(11, Op::BinI(BinKind::Mul, 1, 2)),
                    inst(12, Op::BinI(BinKind::Sub, 1, 2)),
                ],
                term: Term::Jump(4),
            },
            Block { insts: vec![], term: branch(1, 5) },
            // Loop B: header 5, body 6.
            Block { insts: vec![], term: branch(6, 7) },
            Block { insts: vec![inst(13, Op::BinI(BinKind::Sub, 2, 1))], term: Term::Jump(5) },
            Block { insts: vec![], term: Term::Return(None) },
        ];
        let forest = LoopForest::compute(&f);
        let bodies: Vec<&[BlockId]> = forest.loops.iter().map(|l| &l.blocks[..]).collect();
        assert_eq!(bodies, [&[1, 4, 3, 2][..], &[5, 6][..]]);
        run(&c, &mut f).unwrap();
        // B (the later loop of equal depth) gets the first preheader.
        let dsts = |b: usize| f.blocks[b].insts.iter().map(|i| i.dst.unwrap()).collect::<Vec<_>>();
        assert_eq!((dsts(8), dsts(9)), (vec![13], vec![11, 12, 10]));
        assert_eq!(f.blocks[0].term, Term::Jump(9));
        assert_eq!(f.blocks[4].term, branch(1, 8));
    }
}
