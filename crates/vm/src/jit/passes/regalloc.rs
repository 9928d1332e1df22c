//! Register allocation (pressure analysis).
//!
//! The evaluator executes virtual registers directly, so "allocation" here
//! is the liveness/pressure analysis a linear-scan allocator would run —
//! plus the pressure-triggered injected assertions
//! ([`BugId::HsRegAllocPressure`], [`BugId::J9RegAllocLongPressure`]).

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Location assignment: the IR may only be renamed, never
/// restructured.
pub const TV_CONTRACT: TvContract = TvContract::LayoutOnly;

/// Computes maximum register pressure and fires pressure assertions.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    let pressure = max_pressure(func);
    if ctx.active(BugId::HsRegAllocPressure) && pressure > 40 {
        return Err(ctx.crash(
            BugId::HsRegAllocPressure,
            format!("register allocator: live range budget exceeded ({pressure})"),
        ));
    }
    if ctx.active(BugId::J9RegAllocLongPressure) && pressure > 34 {
        let has_long =
            func.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i.op, Op::BinL(..)));
        if has_long {
            return Err(ctx.crash(
                BugId::J9RegAllocLongPressure,
                format!("register allocator: GPR pair pressure {pressure}"),
            ));
        }
    }
    Ok(())
}

/// Backward liveness analysis; returns the maximum live-set size observed
/// at any program point. Live sets are bitsets of `u64` words over
/// `num_regs` (no pass allocates registers past it), swept in reverse
/// block order until no live-in set changes.
pub fn max_pressure(func: &IrFunc) -> usize {
    let n = func.blocks.len();
    let words = (func.num_regs as usize).div_ceil(64);
    let live_out = |live_in: &[Vec<u64>], b: usize| {
        let mut out = vec![0u64; words];
        for succ in func.blocks[b].term.successors() {
            out.iter_mut().zip(&live_in[succ as usize]).for_each(|(o, i)| *o |= i);
        }
        out
    };
    let mut live_in: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            let mut live = live_out(&live_in, b);
            for src in func.blocks[b].term.sources() {
                set_bit(&mut live, src, true);
            }
            for inst in func.blocks[b].insts.iter().rev() {
                step_back(&mut live, inst);
            }
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
    }
    // Pressure: walk each block once more from its live-out set (the
    // terminator's sources are not counted), keeping a running count.
    let mut max = 0usize;
    for b in 0..n {
        let mut live = live_out(&live_in, b);
        let mut count = live.iter().map(|w| w.count_ones() as isize).sum::<isize>();
        max = max.max(count as usize);
        for inst in func.blocks[b].insts.iter().rev() {
            count += step_back(&mut live, inst);
            max = max.max(count as usize);
        }
    }
    max
}

/// Sets or clears `reg` in the bitset; returns the change in its size.
fn set_bit(set: &mut [u64], reg: Reg, live: bool) -> isize {
    let (word, bit) = (reg as usize / 64, 1u64 << (reg % 64));
    let was = set[word] & bit != 0;
    set[word] = if live { set[word] | bit } else { set[word] & !bit };
    live as isize - was as isize
}

/// Moves `live` from just after `inst` to just before it (its destination
/// dies, then its sources become live); returns the change in its size.
fn step_back(live: &mut [u64], inst: &Inst) -> isize {
    let died = inst.dst.map_or(0, |dst| set_bit(live, dst, false));
    died + inst.op.sources().map(|src| set_bit(live, src, true)).sum::<isize>()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::config::{Tier, TvMode, VerifyMode, VmKind};
    use crate::faults::FaultInjector;
    use crate::jit::CompileCtx;
    use crate::profile::MethodProfile;
    use cse_bytecode::MethodId;

    /// The set-based liveness `max_pressure` replaced: whole-block
    /// transfer functions re-run in reverse sweeps until no live set
    /// changes. Kept as the reference the bitset version must match.
    fn max_pressure_reference(func: &IrFunc) -> usize {
        let n = func.blocks.len();
        let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let mut out: HashSet<Reg> = HashSet::new();
                for succ in func.blocks[b].term.successors() {
                    out.extend(live_in[succ as usize].iter().copied());
                }
                let mut live = out.clone();
                for src in func.blocks[b].term.sources() {
                    live.insert(src);
                }
                for inst in func.blocks[b].insts.iter().rev() {
                    if let Some(dst) = inst.dst {
                        live.remove(&dst);
                    }
                    for src in inst.op.sources() {
                        live.insert(src);
                    }
                }
                if live != live_in[b] || out != live_out[b] {
                    live_in[b] = live;
                    live_out[b] = out;
                    changed = true;
                }
            }
        }
        let mut max = 0usize;
        for (b, out) in live_out.iter().enumerate() {
            let mut live = out.clone();
            max = max.max(live.len());
            for inst in func.blocks[b].insts.iter().rev() {
                if let Some(dst) = inst.dst {
                    live.remove(&dst);
                }
                for src in inst.op.sources() {
                    live.insert(src);
                }
                max = max.max(live.len());
            }
        }
        max
    }

    fn func_of(blocks: Vec<Block>, num_regs: u32) -> IrFunc {
        IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks,
            num_regs,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 1,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 1)],
        }
    }

    /// Deterministic random CFGs: every block defines and reads registers
    /// across two bitset words and ends in a jump, branch, switch or
    /// return to any block, so back edges (nested and overlapping loops),
    /// switches and unreachable blocks all occur.
    #[test]
    fn bitset_liveness_matches_the_set_reference_on_random_cfgs() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        let mut pressures = HashSet::new();
        for _ in 0..300 {
            let num_blocks = 1 + next(12);
            let num_regs = 1 + next(100);
            let blocks = (0..num_blocks)
                .map(|_| {
                    let insts = (0..next(10))
                        .map(|_| {
                            let op = match next(3) {
                                0 => Op::ConstI(next(9) as i32),
                                1 => Op::Copy(next(num_regs)),
                                _ => Op::BinI(BinKind::Add, next(num_regs), next(num_regs)),
                            };
                            let dst = (next(5) != 0).then(|| next(num_regs));
                            Inst { dst, op, frame: 0, bc_pc: 0 }
                        })
                        .collect();
                    let term = match next(5) {
                        0 => Term::Return(Some(next(num_regs))),
                        1 => Term::Jump(next(num_blocks)),
                        2 => Term::Switch {
                            scrut: next(num_regs),
                            cases: (0..next(4)).map(|k| (k as i32, next(num_blocks))).collect(),
                            default: next(num_blocks),
                        },
                        _ => Term::Branch {
                            cond: next(num_regs),
                            if_true: next(num_blocks),
                            if_false: next(num_blocks),
                        },
                    };
                    Block { insts, term }
                })
                .collect();
            let func = func_of(blocks, num_regs);
            let expected = max_pressure_reference(&func);
            assert_eq!(max_pressure(&func), expected, "{}", func.pretty());
            pressures.insert(expected);
        }
        assert!(pressures.len() > 10, "the generator covers many pressures: {pressures:?}");
    }

    /// Every method of a few fuzzed programs, as built and after each
    /// profile's full pipeline at every tier.
    #[test]
    fn bitset_liveness_matches_the_set_reference_on_fuzzed_methods() {
        let mut checked = 0;
        for seed in 0..6 {
            let mut program = cse_fuzz::generate(seed, &cse_fuzz::FuzzConfig::default());
            cse_lang::typeck::check(&mut program).unwrap();
            let bytecode = cse_bytecode::compile(&program).unwrap();
            let profiles = vec![MethodProfile::default(); bytecode.methods.len()];
            let faults = FaultInjector::none();
            for (kind, tiers) in
                [(VmKind::HotSpotLike, 2), (VmKind::OpenJ9Like, 2), (VmKind::ArtLike, 1)]
            {
                for tier in 1..=tiers {
                    let ctx = CompileCtx {
                        program: &bytecode,
                        profiles: &profiles,
                        faults: &faults,
                        kind,
                        tier: Tier(tier),
                        speculate: false,
                        inline_limit: 48,
                        has_osr_code: false,
                        verify: VerifyMode::Off,
                        tv: TvMode::Off,
                        fired: std::cell::Cell::new(0),
                    };
                    let depths = crate::jit::StackDepths::new(&bytecode);
                    for method in (0..bytecode.methods.len() as u32).map(MethodId) {
                        let built = crate::jit::build::build(&ctx, &depths, method, None).unwrap();
                        let compiled =
                            crate::jit::compile(&ctx, method, None, &mut vec![], &mut vec![])
                                .unwrap();
                        for func in [built, compiled] {
                            assert_eq!(
                                max_pressure(&func),
                                max_pressure_reference(&func),
                                "seed {seed} {kind} t{tier}:\n{}",
                                func.pretty()
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "{checked} functions checked");
    }

    #[test]
    fn pressure_counts_simultaneously_live_values() {
        // r4..r9 defined then all summed: pressure peaks at 6.
        let mut insts: Vec<Inst> = (4..10)
            .map(|r| Inst { dst: Some(r), op: Op::ConstI(r as i32), frame: 0, bc_pc: 0 })
            .collect();
        let mut acc = 4u32;
        for r in 5..10u32 {
            insts.push(Inst {
                dst: Some(10 + r),
                op: Op::BinI(BinKind::Add, acc, r),
                frame: 0,
                bc_pc: 0,
            });
            acc = 10 + r;
        }
        let func = IrFunc {
            method: MethodId(0),
            tier: Tier::T2,
            blocks: vec![Block { insts, term: Term::Return(Some(acc)) }],
            num_regs: 32,
            frames: vec![InlineFrame {
                method: MethodId(0),
                local_base: 0,
                num_locals: 1,
                parent: None,
            }],
            handlers: vec![],
            osr_entry: None,
            anchor_limit_per_frame: vec![(0, 1)],
        };
        assert_eq!(max_pressure(&func), 6);
    }
}
