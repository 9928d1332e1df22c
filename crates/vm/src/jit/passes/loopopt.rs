//! Loop-level optimizations: unrolling/vectorization feasibility analysis
//! and allocation sinking.
//!
//! The transformations themselves are conservative (feasibility analysis
//! plus allocation-site instrumentation); the pass primarily hosts the
//! loop-related injected bugs:
//!
//! * [`BugId::HsLoopUnrollStep`] — unrolling a countable loop with step
//!   ≥ 2 and a large negative bound trips an assertion (the Artemis loop
//!   skeleton's `for (i = min(MIN, e); …; i += STEP)` shape).
//! * [`BugId::J9LoopVecMixedWidth`] — vectorizer asserts on loops mixing
//!   array-element widths at depth ≥ 2.
//! * [`BugId::HsPerfQuadraticLoop`] — "optimized" loop code burns fuel:
//!   the performance-bug class (paper Table 1 has exactly one).
//! * [`BugId::HsEscapeLoopStore`] — escape analysis asserts when a fresh
//!   allocation escapes through a field store inside a loop.
//! * `BugId::J9GcCorrupt*` — allocation sinking/re-materialization
//!   writes past objects; the *GC* crashes at the next collection (the
//!   paper's dominant OpenJ9 crash class).

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::LoopForest;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Feasibility analysis only on the correct path; any inserted
/// instrumentation is an injected bug the validator should flag.
pub const TV_CONTRACT: TvContract = TvContract::EffectPreserving;

/// Runs the loop analyses and injected-bug triggers.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    let forest = LoopForest::compute(func);
    let has_big_negative_const = func
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .any(|i| matches!(i.op, Op::ConstI(v) if v < -255));
    // Several triggers require *warm* profile state (hot back-edges), which
    // cold `count=0` compilation never has — the paper's central
    // observation about why the traditional approach misses deep bugs.
    let profile = &ctx.profiles[func.method.0 as usize];
    let warm_backedges = profile.backedges.iter().any(|&c| c >= 400);

    let len = |b: BlockId| func.blocks[b as usize].insts.len();
    for lp in &forest.loops {
        let loop_insts: Vec<(BlockId, usize)> =
            lp.blocks.iter().flat_map(|&b| (0..len(b)).map(move |i| (b, i))).collect();

        // --- HotSpot: unrolling a stride-N countable loop with negative
        // bounds.
        if ctx.active(BugId::HsLoopUnrollStep) && has_big_negative_const && warm_backedges {
            let has_strided_step = loop_insts.iter().any(|&(b, i)| {
                let inst = &func.blocks[b as usize].insts[i];
                if let Op::BinI(BinKind::Add, _, c) = inst.op {
                    // The step operand must be a small constant 2..=16
                    // defined in the same loop.
                    loop_insts.iter().any(|&(b2, i2)| {
                        let d = &func.blocks[b2 as usize].insts[i2];
                        d.dst == Some(c) && matches!(d.op, Op::ConstI(k) if (7..=9).contains(&k))
                    })
                } else {
                    false
                }
            });
            if has_strided_step {
                return Err(ctx.crash(
                    BugId::HsLoopUnrollStep,
                    "ideal loop: unroll of strided countable loop with negative bound",
                ));
            }
        }

        // --- OpenJ9: vectorizer on mixed element widths.
        if ctx.active(BugId::J9LoopVecMixedWidth) && lp.depth >= 2 {
            let mut has_i32 = false;
            let mut has_other = false;
            for &(b, i) in &loop_insts {
                match &func.blocks[b as usize].insts[i].op {
                    Op::ArrLoad { kind, .. } | Op::ArrStore { kind, .. } => match kind {
                        cse_bytecode::ArrKind::I32 => has_i32 = true,
                        cse_bytecode::ArrKind::I64 | cse_bytecode::ArrKind::I8 => {
                            has_other = true;
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
            if has_i32 && has_other {
                return Err(ctx.crash(
                    BugId::J9LoopVecMixedWidth,
                    "loop vectorizer: mixed element widths in a nested loop",
                ));
            }
        }

        // --- HotSpot: escape analysis over allocations escaping in-loop.
        // The analysis only runs with profile data (profile-guided escape
        // heuristics), so `count=0` compiles skip it.
        if ctx.active(BugId::HsEscapeLoopStore) && ctx.speculate {
            let escapes = loop_insts.iter().any(|&(b, i)| {
                let inst = &func.blocks[b as usize].insts[i];
                if let (Some(dst), Op::NewObject(_)) = (inst.dst, &inst.op) {
                    loop_insts.iter().any(|&(b2, i2)| {
                        match &func.blocks[b2 as usize].insts[i2].op {
                            Op::PutField { val, .. } | Op::PutStatic { val, .. } => *val == dst,
                            Op::ArrStore { val, .. } => *val == dst,
                            _ => false,
                        }
                    })
                } else {
                    false
                }
            });
            if escapes {
                return Err(ctx.crash(
                    BugId::HsEscapeLoopStore,
                    "escape analysis: allocation escapes through an in-loop store",
                ));
            }
        }
    }

    // Mutating triggers (instrumentation) run after the crash checks,
    // which edit nothing: the forest still describes the CFG.
    let mut corruptions: Vec<(BlockId, usize, BugId)> = Vec::new();
    let mut burns: Vec<BlockId> = Vec::new();
    for lp in &forest.loops {
        // --- HotSpot performance bug: quadratic re-execution.
        if ctx.active(BugId::HsPerfQuadraticLoop) && lp.depth >= 2 {
            let has_switch = lp
                .blocks
                .iter()
                .any(|&b| matches!(func.blocks[b as usize].term, Term::Switch { .. }));
            if has_switch {
                burns.push(lp.header);
            }
        }
        for &b in &lp.blocks {
            for (i, inst) in func.blocks[b as usize].insts.iter().enumerate() {
                match (&inst.op, inst.dst) {
                    (Op::NewObject(_), Some(dst)) => {
                        if ctx.active(BugId::J9GcCorruptAllocSink) && !func.handlers.is_empty() {
                            corruptions.push((b, i, BugId::J9GcCorruptAllocSink));
                        } else if ctx.active(BugId::J9GcCorruptRematerialize)
                            && lp.depth >= 2
                            && escapes_to_field(func, &lp.blocks, dst)
                        {
                            corruptions.push((b, i, BugId::J9GcCorruptRematerialize));
                        }
                    }
                    (Op::NewArray { .. }, Some(_))
                        if ctx.active(BugId::J9GcCorruptUnrollAlloc) && lp.depth >= 2 =>
                    {
                        corruptions.push((b, i, BugId::J9GcCorruptUnrollAlloc));
                    }
                    _ => {}
                }
            }
        }
    }
    corruptions.sort_by_key(|&(b, i, _)| (b, std::cmp::Reverse(i)));
    corruptions.dedup_by_key(|&mut (b, i, _)| (b, i));
    for (b, i, bug) in corruptions {
        let at = &func.blocks[b as usize].insts[i];
        let (frame, bc_pc) = (at.frame, at.bc_pc);
        func.blocks[b as usize]
            .insts
            .insert(i + 1, Inst { dst: None, op: Op::CorruptHeap { bug }, frame, bc_pc });
    }
    burns.sort_unstable();
    burns.dedup();
    for b in burns {
        func.blocks[b as usize]
            .insts
            .insert(0, Inst { dst: None, op: Op::BurnFuel { factor: 20000 }, frame: 0, bc_pc: 0 });
    }
    Ok(())
}

fn escapes_to_field(func: &IrFunc, loop_blocks: &[BlockId], reg: Reg) -> bool {
    loop_blocks.iter().any(|&b| {
        func.blocks[b as usize].insts.iter().any(|inst| match &inst.op {
            Op::PutField { val, .. } | Op::PutStatic { val, .. } => *val == reg,
            _ => false,
        })
    })
}
