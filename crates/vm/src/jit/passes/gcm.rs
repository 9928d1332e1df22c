//! Global code motion.
//!
//! The legitimate transformation is conservative *sinking*: a pure,
//! single-assignment instruction whose only use lives in a different block
//! dominated by its definition moves next to that use — provided the
//! destination block is **not in a deeper loop** than its home block.
//!
//! The injected [`BugId::HsGcmStoreSink`] is the paper's Figure 2 bug
//! (JDK-8288975): the pass estimates block frequencies as
//! `freq(b) = 10^min(loop_depth(b), 2)`, so blocks at depth ≥ 2 *tie* with
//! deeper blocks. When a field read-modify-write chain lives in a tied
//! block whose loop has a nested child loop, the buggy pass sinks the
//! whole chain — a *memory-writing* instruction — into the deeper loop,
//! executing it once per inner iteration. The real fix ("prevent this pass
//! from moving memory-writing instructions into loops deeper than their
//! home loops") maps exactly onto the guard the bug bypasses.

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::LoopForest;
use crate::jit::hash::FastMap;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Sinks only pure single-assignment computation; effects stay put.
pub const TV_CONTRACT: TvContract = TvContract::EffectPreserving;

/// One sink decision: (from block+index, to block+index, the instruction).
type Move = ((BlockId, usize), (BlockId, usize), Inst);

/// The buggy frequency model: depth capped at 2.
fn freq(depth: usize) -> u64 {
    10u64.pow(depth.min(2) as u32)
}

/// Runs sinking, then the injected store-sink when active.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    sink_pure_single_use(func);
    // The buggy frequency model only ties when profile-scaled estimates
    // exist (profile-guided compiles); `count=0` compilation uses static
    // estimates that never tie.
    if ctx.active(BugId::HsGcmStoreSink) && ctx.optimizing() && ctx.speculate {
        buggy_store_sink(func);
    }
    Ok(())
}

/// Legitimate conservative sinking.
fn sink_pure_single_use(func: &mut IrFunc) {
    let forest = LoopForest::compute(func);
    // Count defs and uses; remember the unique use site.
    let mut def_count: FastMap<Reg, u32> = FastMap::default();
    let mut use_count: FastMap<Reg, u32> = FastMap::default();
    let mut use_site: FastMap<Reg, (BlockId, usize)> = FastMap::default();
    for (b, block) in func.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            if let Some(dst) = inst.dst {
                *def_count.entry(dst).or_default() += 1;
            }
            for src in inst.op.sources() {
                *use_count.entry(src).or_default() += 1;
                use_site.insert(src, (b as BlockId, i));
            }
        }
        for src in block.term.sources() {
            *use_count.entry(src).or_default() += 1;
            // Terminator uses pin the value to its own block; encode as a
            // use "past the end".
            use_site.insert(src, (b as BlockId, usize::MAX));
        }
    }
    let is_anchor = |r: Reg| func.anchor_limit_per_frame.iter().any(|&(lo, hi)| r >= lo && r < hi);
    // Collect sink decisions first (block, index) -> target (block, index).
    let mut moves: Vec<Move> = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        let b = b as BlockId;
        for (i, inst) in block.insts.iter().enumerate() {
            let Some(dst) = inst.dst else { continue };
            if !inst.op.is_pure()
                || is_anchor(dst)
                || def_count.get(&dst).copied().unwrap_or(0) != 1
                || use_count.get(&dst).copied().unwrap_or(0) != 1
            {
                continue;
            }
            // All operands must be *stable* (value fixed after its unique
            // def) so the value at the sink point equals the value at the
            // original point: non-anchors with one def, or anchors that are
            // never reassigned (their def is the frame entry).
            let stable = |s: Reg| {
                let defs = def_count.get(&s).copied().unwrap_or(0);
                if is_anchor(s) {
                    defs == 0
                } else {
                    defs == 1
                }
            };
            if !inst.op.sources().all(stable) {
                continue;
            }
            let Some(&(ub, ui)) = use_site.get(&dst) else { continue };
            if ub == b || ui == usize::MAX {
                continue;
            }
            // The guard the injected bug bypasses: never into deeper loops.
            if forest.depth(ub) > forest.depth(b) {
                continue;
            }
            if !forest.doms.dominates(b, ub) {
                continue;
            }
            moves.push(((b, i), (ub, ui), inst.clone()));
        }
    }
    apply_moves(func, moves);
}

/// The injected Figure-2 store sink.
fn buggy_store_sink(func: &mut IrFunc) {
    let forest = LoopForest::compute(func);
    // Global def counts: operands defined outside the home block are
    // acceptable when stable (single definition or never reassigned),
    // because the sink target sits strictly deeper in the same nest.
    let mut def_count: FastMap<Reg, u32> = FastMap::default();
    for block in &func.blocks {
        for inst in &block.insts {
            if let Some(dst) = inst.dst {
                *def_count.entry(dst).or_default() += 1;
            }
        }
    }
    let mut chain_moves: Vec<(BlockId, Vec<usize>, BlockId)> = Vec::new();
    for b in 0..func.blocks.len() {
        let b = b as BlockId;
        let home_depth = forest.depth(b);
        if home_depth < 2 {
            continue;
        }
        // A block at depth 2 or more has an innermost loop.
        let home_loop = forest.innermost[b as usize];
        // A directly nested child loop to sink into.
        let Some(&child) = forest.children(home_loop).first() else { continue };
        let inner_header = forest.loops[child].header;
        let inner_depth = forest.loops[child].depth;
        // The buggy tie: freq(home) == freq(inner) although inner is deeper.
        if !(inner_depth > home_depth && freq(home_depth) == freq(inner_depth)) {
            continue;
        }
        // Find a field RMW chain: GetField -> pure chain -> PutField of the
        // same (object register, field), with the object held in an anchor.
        let Some(indices) = find_rmw_chain(func, b, &func.anchor_limit_per_frame, &def_count)
        else {
            continue;
        };
        chain_moves.push((b, indices, inner_header));
        break; // One sink per compilation keeps the damage analyzable.
    }
    for (b, indices, target) in chain_moves {
        let block = &mut func.blocks[b as usize];
        let mut moved: Vec<Inst> = indices.iter().rev().map(|&i| block.insts.remove(i)).collect();
        moved.reverse();
        func.blocks[target as usize].insts.splice(0..0, moved);
    }
}

/// Looks for `GetField(obj, f) ; …pure ops… ; PutField(obj, f, result)`
/// inside block `b`. Operands defined in `b` join the movable chain;
/// operands defined elsewhere are accepted when *stable* (anchors, or
/// registers with a single global definition — e.g. loop-invariant
/// constants LICM already hoisted). Returns the chain's instruction
/// indices, in order.
fn find_rmw_chain(
    func: &IrFunc,
    b: BlockId,
    anchors: &[(Reg, Reg)],
    def_count: &FastMap<Reg, u32>,
) -> Option<Vec<usize>> {
    let block = &func.blocks[b as usize];
    let is_anchor = |r: Reg| anchors.iter().any(|&(lo, hi)| r >= lo && r < hi);
    let stable_external = |r: Reg| {
        let defs = def_count.get(&r).copied().unwrap_or(0);
        if is_anchor(r) {
            defs == 0
        } else {
            defs <= 1
        }
    };
    'stores: for (store_idx, inst) in block.insts.iter().enumerate() {
        let Op::PutField { obj, field, val } = inst.op else { continue };
        if !is_anchor(obj) {
            continue;
        }
        // Walk the def chain of `val` backwards within the block.
        let mut needed: Vec<Reg> = vec![val];
        let mut chain: Vec<usize> = vec![store_idx];
        let mut found_load = false;
        for i in (0..store_idx).rev() {
            let inst = &block.insts[i];
            let Some(dst) = inst.dst else { continue };
            if !needed.contains(&dst) {
                continue;
            }
            needed.retain(|&r| r != dst);
            match &inst.op {
                Op::GetField { obj: lobj, field: lfield } if *lobj == obj && *lfield == field => {
                    chain.push(i);
                    found_load = true;
                }
                Op::ConstI(_) | Op::ConstL(_) => chain.push(i),
                op if op.is_pure() => {
                    chain.push(i);
                    for s in op.sources() {
                        if !is_anchor(s) && !needed.contains(&s) {
                            needed.push(s);
                        }
                    }
                }
                _ => continue 'stores,
            }
        }
        // Anything still needed must be stable outside the block.
        needed.retain(|&r| !stable_external(r));
        if found_load && needed.is_empty() {
            chain.sort_unstable();
            return Some(chain);
        }
    }
    None
}

fn apply_moves(func: &mut IrFunc, mut moves: Vec<Move>) {
    // Apply one move at a time, re-locating by identity to survive index
    // shifts from earlier moves.
    while let Some(((fb, _), (ub, ui), inst)) = moves.pop() {
        let from = &mut func.blocks[fb as usize];
        let Some(pos) = from.insts.iter().position(|i| *i == inst) else { continue };
        let inst = from.insts.remove(pos);
        let to = &mut func.blocks[ub as usize];
        let at = ui.min(to.insts.len());
        to.insts.insert(at, inst);
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

    /// Two nested loops, RMW chain in the depth-2 block `4`, inner loop
    /// header at depth 3 in block `2`:
    ///
    /// 0 -> 1(outer hdr) -> 5(mid hdr) -> 2(inner hdr) -> {2 via 3, 4}
    /// 4(mid latch, RMW) -> 5 ; 5 -> 1 exit path via branch; 1 -> 6 exit.
    fn nested_func() -> IrFunc {
        IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![
                // 0: entry
                Block { insts: vec![], term: Term::Jump(1) },
                // 1: outer header (depth 1)
                Block { insts: vec![], term: Term::Branch { cond: 0, if_true: 5, if_false: 6 } },
                // 2: inner header (depth 3)
                Block { insts: vec![], term: Term::Branch { cond: 0, if_true: 3, if_false: 4 } },
                // 3: inner latch
                Block { insts: vec![], term: Term::Jump(2) },
                // 4: mid latch with the RMW chain (depth 2)
                Block {
                    insts: vec![
                        inst(Some(10), Op::GetField { obj: 1, field: 0 }),
                        inst(Some(11), Op::ConstI(2)),
                        inst(Some(12), Op::BinI(BinKind::Add, 10, 11)),
                        inst(Some(13), Op::I2B(12)),
                        inst(None, Op::PutField { obj: 1, field: 0, val: 13 }),
                    ],
                    term: Term::Jump(5),
                },
                // 5: mid header (depth 2)
                Block { insts: vec![], term: Term::Branch { cond: 0, if_true: 2, if_false: 1 } },
                // 6: exit
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
    fn store_chain_stays_without_bug() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = nested_func();
        run(&c, &mut f).unwrap();
        assert_eq!(f.blocks[4].insts.len(), 5, "RMW chain must not move");
    }

    #[test]
    fn injected_gcm_bug_sinks_store_into_inner_loop() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::with([BugId::HsGcmStoreSink]);
        let c = ctx(&program, &profiles, &faults);
        let mut f = nested_func();
        // Sanity: depths tie under the buggy frequency model.
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.depth(4), 2);
        assert_eq!(forest.depth(2), 3);
        assert_eq!(freq(2), freq(3));
        run(&c, &mut f).unwrap();
        assert!(f.blocks[4].insts.is_empty(), "chain moved: {:?}", f.blocks[4].insts);
        assert!(f.blocks[2].insts.iter().any(|i| matches!(i.op, Op::PutField { .. })));
    }

    #[test]
    fn legit_sink_moves_single_use_into_dominated_block() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        // 0: defines r10 = 1 + 2 (single use in block 1); 0 -> 1 -> ret.
        let mut f = IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![
                Block {
                    insts: vec![inst(Some(10), Op::BinI(BinKind::Add, 1, 2))],
                    term: Term::Jump(1),
                },
                Block {
                    insts: vec![inst(Some(11), Op::BinI(BinKind::Mul, 10, 2))],
                    term: Term::Return(Some(11)),
                },
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
        };
        run(&c, &mut f).unwrap();
        assert!(f.blocks[0].insts.is_empty());
        assert_eq!(f.blocks[1].insts.len(), 2);
        assert!(matches!(f.blocks[1].insts[0].op, Op::BinI(BinKind::Add, ..)));
    }
}
