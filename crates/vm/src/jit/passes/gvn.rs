//! Value numbering: block-local CSE (`run_local`) and dominator-scoped
//! global value numbering (`run`).
//!
//! The global pass only numbers pure operations whose destination and
//! sources each have a *single static assignment* in the whole function
//! (cheaply giving SSA-like guarantees on the fixed-register IR); an
//! expression computed in a dominating block is then safely reusable.
//!
//! Injected bugs hosted here:
//! * [`BugId::HsGvnArrayAlias`] — array loads are CSE'd across a store to
//!   the same array when the store's index *register* differs from the
//!   load's (a wrong "cannot alias" test), yielding stale values.
//! * [`BugId::HsGvnTableAssert`] — the value table overflowing its budget
//!   while numbering long-typed expressions trips an assertion.

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::Dominators;
use crate::jit::hash::FastMap;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Both the local and the dominator-scoped pass rewrite pure
/// expressions to earlier equal computations (shared by `gvn-local`
/// and `gvn`).
pub const TV_CONTRACT: TvContract = TvContract::EffectPreserving;

/// A canonical key for a pure expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Bin(bool, BinKind, Reg, Reg),
    Neg(bool, Reg),
    Conv(u8, Reg),
    Cmp(bool, cse_bytecode::CmpOp, Reg, Reg),
    RefCmp(bool, Reg, Reg),
    Concat(Reg, Reg),
    ArrLoad(Reg, Reg),
    FieldLoad(Reg, u32),
}

/// Canonicalizes a pure op (commutative operands sorted); `None` when the
/// op is not CSE-able.
fn key_of(op: &Op) -> Option<Key> {
    Some(match op {
        Op::BinI(kind, a, b) if !kind.can_throw() => {
            let (a, b) = if kind.commutative() && a > b { (*b, *a) } else { (*a, *b) };
            Key::Bin(false, *kind, a, b)
        }
        Op::BinL(kind, a, b) if !kind.can_throw() => {
            let (a, b) = if kind.commutative() && a > b { (*b, *a) } else { (*a, *b) };
            Key::Bin(true, *kind, a, b)
        }
        Op::NegI(r) => Key::Neg(false, *r),
        Op::NegL(r) => Key::Neg(true, *r),
        Op::I2L(r) => Key::Conv(0, *r),
        Op::L2I(r) => Key::Conv(1, *r),
        Op::I2B(r) => Key::Conv(2, *r),
        Op::I2S(r) => Key::Conv(3, *r),
        Op::L2S(r) => Key::Conv(4, *r),
        Op::Bool2S(r) => Key::Conv(5, *r),
        Op::CmpI(c, a, b) => Key::Cmp(false, *c, *a, *b),
        Op::CmpL(c, a, b) => Key::Cmp(true, *c, *a, *b),
        Op::RefCmp { eq, a, b } => {
            let (a, b) = if a > b { (*b, *a) } else { (*a, *b) };
            Key::RefCmp(*eq, a, b)
        }
        Op::Concat(a, b) => Key::Concat(*a, *b),
        _ => return None,
    })
}

/// Block-local CSE, with invalidation on every register redefinition.
pub fn run_local(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    // The buggy alias filter sits on the profile-guided compilation path
    // only (`count=0` compiles take the conservative path), so forced
    // compilation cannot expose it — the warm-up dependence the paper
    // identifies in real JIT bugs.
    let alias_bug = ctx.active(BugId::HsGvnArrayAlias) && ctx.optimizing() && ctx.speculate;
    for block in &mut func.blocks {
        let mut table: FastMap<Key, Reg> = FastMap::default();
        for inst in &mut block.insts {
            let mut key = key_of(&inst.op);
            // Redundant field-load elimination: a field load repeats the
            // last load of the same (object register, field) when no
            // intervening write can alias it.
            if key.is_none() {
                match inst.op {
                    Op::GetField { obj, field } => key = Some(Key::FieldLoad(obj, field)),
                    // Injected alias bug: array loads become numberable
                    // too; the invalidation below is the (wrong) filter.
                    Op::ArrLoad { arr, idx, .. } if alias_bug => {
                        key = Some(Key::ArrLoad(arr, idx));
                    }
                    _ => {}
                }
            }
            // Memory writes invalidate load facts.
            match &inst.op {
                Op::ArrStore { arr, idx, .. } => {
                    let (sa, si) = (*arr, *idx);
                    table.retain(|k, _| match k {
                        Key::ArrLoad(la, li) => {
                            if alias_bug {
                                // Wrong: "different index register => no alias".
                                *la != sa || *li != si
                            } else {
                                false
                            }
                        }
                        _ => true,
                    });
                }
                Op::PutField { field, .. } => {
                    // A store to field f invalidates every load of f (the
                    // object registers might alias); array facts survive.
                    let f = *field;
                    table.retain(|k, _| !matches!(k, Key::FieldLoad(_, kf) if *kf == f));
                }
                Op::Call { .. } => {
                    table.retain(|k, _| !matches!(k, Key::ArrLoad(..) | Key::FieldLoad(..)));
                }
                op if op.is_memory_write() => {
                    table.retain(|k, _| !matches!(k, Key::ArrLoad(..)));
                }
                _ => {}
            }
            if let Some(dst) = inst.dst {
                if let Some(key) = key {
                    if let Some(&prev) = table.get(&key) {
                        if prev != dst {
                            inst.op = Op::Copy(prev);
                        }
                        invalidate(&mut table, dst);
                        continue;
                    }
                    invalidate(&mut table, dst);
                    if !key_reads(&key, dst) {
                        table.insert(key, dst);
                    }
                } else {
                    invalidate(&mut table, dst);
                }
            }
        }
    }
    Ok(())
}

/// The registers `key` reads: two, or one repeated.
fn key_sources(key: &Key) -> [Reg; 2] {
    match key {
        Key::Bin(_, _, a, b)
        | Key::Cmp(_, _, a, b)
        | Key::RefCmp(_, a, b)
        | Key::Concat(a, b)
        | Key::ArrLoad(a, b) => [*a, *b],
        Key::Neg(_, r) | Key::Conv(_, r) | Key::FieldLoad(r, _) => [*r, *r],
    }
}

fn key_reads(key: &Key, r: Reg) -> bool {
    key_sources(key).contains(&r)
}

fn invalidate(table: &mut FastMap<Key, Reg>, written: Reg) {
    table.retain(|k, v| *v != written && !key_reads(k, written));
}

/// Dominator-scoped GVN over single-assignment registers.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    let def_counts = def_counts(func);
    let anchors = func.anchor_limit_per_frame.clone();
    // A register is *stable* when its value cannot change after its unique
    // definition: a non-anchor with at most one explicit def (never-defined
    // registers only ever hold their entry value), or an anchor that is
    // never reassigned (its single def is the frame entry).
    let single = move |r: Reg| {
        let defs = def_counts.get(&r).copied().unwrap_or(0);
        if anchors.iter().any(|&(lo, hi)| r >= lo && r < hi) {
            defs == 0
        } else {
            defs <= 1
        }
    };
    let doms = Dominators::compute(func);
    // Dominator-tree children.
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); func.blocks.len()];
    for b in 1..func.blocks.len() {
        let idom = doms.idom[b];
        if idom != u32::MAX && (idom as usize) != b {
            children[idom as usize].push(b as BlockId);
        }
    }
    let mut table: FastMap<Key, Reg> = FastMap::default();
    let mut max_table = 0usize;
    // Preorder DFS with an undo log for scoping.
    let mut stack: Vec<(BlockId, usize)> = vec![(0, 0)];
    let mut undo: Vec<Key> = Vec::new();
    let mut visit_order: Vec<(BlockId, usize)> = Vec::new();
    while let Some((b, undo_mark)) = stack.pop() {
        // Roll back to this node's scope depth.
        while undo.len() > undo_mark {
            let key = undo.pop().expect("undo log tracked");
            table.remove(&key);
        }
        visit_order.push((b, undo.len()));
        for inst in &mut func.blocks[b as usize].insts {
            let Some(dst) = inst.dst else { continue };
            let Some(key) = key_of(&inst.op) else { continue };
            if !single(dst) || !key_sources(&key).iter().all(|&r| single(r)) {
                continue;
            }
            match table.get(&key) {
                Some(&prev) if prev != dst => {
                    inst.op = Op::Copy(prev);
                }
                Some(_) => {}
                None => {
                    table.insert(key.clone(), dst);
                    undo.push(key);
                    max_table = max_table.max(table.len());
                }
            }
        }
        for &child in &children[b as usize] {
            stack.push((child, undo.len()));
        }
    }
    if ctx.active(BugId::HsGvnTableAssert) && max_table > 100 {
        let has_long = func
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i.op, Op::BinL(..) | Op::ConstL(_)));
        if has_long {
            return Err(ctx.crash(
                BugId::HsGvnTableAssert,
                format!("GVN value table overflow ({max_table} entries) with long nodes"),
            ));
        }
    }
    Ok(())
}

fn def_counts(func: &IrFunc) -> FastMap<Reg, u32> {
    let mut counts: FastMap<Reg, u32> = FastMap::default();
    for block in &func.blocks {
        for inst in &block.insts {
            if let Some(dst) = inst.dst {
                *counts.entry(dst).or_default() += 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Tier, VmKind};
    use crate::faults::FaultInjector;
    use crate::profile::MethodProfile;
    use cse_bytecode::{ArrKind, BProgram, MethodId};

    fn tiny_program() -> BProgram {
        let p = cse_lang::parse_and_check("class T { static void main() { } }").unwrap();
        cse_bytecode::compile(&p).unwrap()
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

    fn inst(dst: Reg, op: Op) -> Inst {
        Inst { dst: Some(dst), op, frame: 0, bc_pc: 0 }
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

    #[test]
    fn local_cse_replaces_redundant_expression() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![
            inst(4, Op::BinI(BinKind::Add, 0, 1)),
            inst(5, Op::BinI(BinKind::Add, 1, 0)), // commutative duplicate
        ]);
        run_local(&c, &mut f).unwrap();
        assert_eq!(f.blocks[0].insts[1].op, Op::Copy(4));
    }

    #[test]
    fn local_cse_invalidates_on_operand_redefinition() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![
            inst(4, Op::BinI(BinKind::Add, 0, 1)),
            inst(0, Op::ConstI(9)),
            inst(5, Op::BinI(BinKind::Add, 0, 1)),
        ]);
        run_local(&c, &mut f).unwrap();
        assert!(matches!(f.blocks[0].insts[2].op, Op::BinI(BinKind::Add, 0, 1)));
    }

    #[test]
    fn array_loads_not_csed_without_bug() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![
            inst(4, Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
            inst(5, Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
        ]);
        run_local(&c, &mut f).unwrap();
        assert!(matches!(f.blocks[0].insts[1].op, Op::ArrLoad { .. }));
    }

    #[test]
    fn injected_alias_bug_keeps_stale_load_across_store() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::with([BugId::HsGvnArrayAlias]);
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![
            inst(4, Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
            // Store with a *different index register* — the buggy filter
            // concludes "no alias" even though values may match.
            Inst {
                dst: None,
                op: Op::ArrStore { kind: ArrKind::I32, arr: 0, idx: 6, val: 4 },
                frame: 0,
                bc_pc: 0,
            },
            inst(5, Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
        ]);
        run_local(&c, &mut f).unwrap();
        assert_eq!(f.blocks[0].insts[2].op, Op::Copy(4), "stale CSE is the injected bug");
        // Same index register: correctly invalidated even with the bug.
        let mut f = one_block(vec![
            inst(4, Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
            Inst {
                dst: None,
                op: Op::ArrStore { kind: ArrKind::I32, arr: 0, idx: 1, val: 4 },
                frame: 0,
                bc_pc: 0,
            },
            inst(5, Op::ArrLoad { kind: ArrKind::I32, arr: 0, idx: 1 }),
        ]);
        run_local(&c, &mut f).unwrap();
        assert!(matches!(f.blocks[0].insts[2].op, Op::ArrLoad { .. }));
    }

    #[test]
    fn global_gvn_reuses_across_dominating_blocks() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        let mut f = one_block(vec![inst(4, Op::BinI(BinKind::Add, 0, 1))]);
        f.blocks[0].term = Term::Jump(1);
        f.blocks.push(Block {
            insts: vec![inst(5, Op::BinI(BinKind::Add, 0, 1))],
            term: Term::Return(Some(5)),
        });
        run(&c, &mut f).unwrap();
        assert_eq!(f.blocks[1].insts[0].op, Op::Copy(4));
    }

    #[test]
    fn global_gvn_respects_multiple_assignments() {
        let program = tiny_program();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let c = ctx(&program, &profiles, &faults);
        // Register 0 is written in block 1, so `0 + 1` cannot be reused.
        let mut f = one_block(vec![inst(4, Op::BinI(BinKind::Add, 0, 1))]);
        f.blocks[0].term = Term::Jump(1);
        f.blocks.push(Block {
            insts: vec![inst(0, Op::ConstI(3)), inst(5, Op::BinI(BinKind::Add, 0, 1))],
            term: Term::Return(Some(5)),
        });
        run(&c, &mut f).unwrap();
        assert!(matches!(f.blocks[1].insts[1].op, Op::BinI(BinKind::Add, 0, 1)));
    }
}
