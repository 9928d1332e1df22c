//! Bytecode → IR translation, with inlining and profile speculation.
//!
//! The translation uses fixed register assignment: frame locals map to a
//! contiguous anchor range and operand-stack slot `d` maps to
//! `stack_base + d`, so control-flow merges need no phis (see
//! [`super::ir`]). Inlined callees get their own local/stack register
//! ranges; their `Return`s become copies plus jumps to a continuation
//! block. Tier-2 compilations of profiled code replace never-taken branch
//! and switch successors with uncommon-trap blocks.

use std::collections::BTreeSet;

use cse_bytecode::{BMethod, BProgram, Insn, MethodId};

use super::hash::FastMap;
use super::ir::*;
use super::{CompileCtx, CompileFail};
use crate::events::DeoptReason;
use crate::exec::CrashInfo;
use crate::faults::BugId;

/// Minimum number of profile observations before speculating on a branch.
const MIN_PROFILE: u64 = 8;

/// Placeholder for unpatched jump targets.
const DEAD: u32 = u32::MAX;

/// Whether OSR entry is possible at `header` (the abstract operand stack
/// must be empty there, so interpreter locals fully describe the state).
pub(crate) fn can_osr(program: &BProgram, method: MethodId, header: u32) -> bool {
    let m = program.method(method);
    stack_depths(program, m).get(header as usize).map(|&d| d == 0).unwrap_or(false)
}

/// Builds the IR for `method`, optionally as an OSR variant.
pub(super) fn build(
    ctx: &CompileCtx<'_>,
    method: MethodId,
    osr: Option<u32>,
) -> Result<IrFunc, CompileFail> {
    if let Some(header) = osr {
        if !can_osr(ctx.program, method, header) {
            return Err(CompileFail::OsrUnsupported);
        }
    }
    let mut builder = Builder {
        ctx,
        blocks: Vec::new(),
        frames: Vec::new(),
        handlers: Vec::new(),
        anchors: Vec::new(),
        next_reg: 0,
        inline_chain: vec![method],
        trap_blocks: FastMap::default(),
    };
    // Block 0 is a prologue that jumps to the (normal or OSR) entry.
    builder.blocks.push(Block { insts: vec![], term: Term::Jump(DEAD) });
    let m = ctx.program.method(method);
    let local_base = builder.alloc_regs(u32::from(m.num_locals));
    let depths = stack_depths(ctx.program, m);
    let max_stack = depths.iter().copied().max().unwrap_or(0).max(0) as u32 + 2;
    let stack_base = builder.alloc_regs(max_stack);
    let speculate = ctx.speculate && ctx.optimizing();
    let entry_map = builder
        .translate_frame(method, local_base, stack_base, None, None, speculate)
        .map_err(CompileFail::Crash)?;
    let entry_pc = osr.unwrap_or(0);
    let entry_block = entry_map[&entry_pc];
    builder.blocks[0].term = Term::Jump(entry_block);
    Ok(IrFunc {
        method,
        tier: ctx.tier,
        blocks: builder.blocks,
        num_regs: builder.next_reg,
        frames: builder.frames,
        handlers: builder.handlers,
        osr_entry: osr,
        anchor_limit_per_frame: builder.anchors,
    })
}

struct Builder<'a, 'p> {
    ctx: &'a CompileCtx<'p>,
    blocks: Vec<Block>,
    frames: Vec<InlineFrame>,
    handlers: Vec<IrHandler>,
    anchors: Vec<(Reg, Reg)>,
    next_reg: Reg,
    /// Methods on the inline path (prevents recursive inlining).
    inline_chain: Vec<MethodId>,
    /// bc pc (frame 0) → trap block.
    trap_blocks: FastMap<(u32, bool), BlockId>,
}

impl Builder<'_, '_> {
    fn alloc_regs(&mut self, count: u32) -> Reg {
        let base = self.next_reg;
        self.next_reg += count;
        base
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block { insts: vec![], term: Term::Jump(DEAD) });
        (self.blocks.len() - 1) as BlockId
    }

    fn trap_block(&mut self, bc_pc: u32, switch: bool) -> BlockId {
        if let Some(&b) = self.trap_blocks.get(&(bc_pc, switch)) {
            return b;
        }
        let reason =
            if switch { DeoptReason::SwitchSpeculation } else { DeoptReason::BranchSpeculation };
        let b = self.new_block();
        self.blocks[b as usize].term = Term::Trap { bc_pc, reason };
        self.trap_blocks.insert((bc_pc, switch), b);
        b
    }

    /// Translates one method into blocks, returning the bc-pc → block map.
    ///
    /// `ret` is `Some((dst, cont))` for inlined frames: `Return`s copy into
    /// `dst` (when non-void) and jump to `cont`.
    #[allow(clippy::too_many_lines)]
    fn translate_frame(
        &mut self,
        method: MethodId,
        local_base: Reg,
        stack_base: Reg,
        parent: Option<(u16, u32)>,
        ret: Option<(Option<Reg>, BlockId)>,
        speculate: bool,
    ) -> Result<FastMap<u32, BlockId>, CrashInfo> {
        let m = self.ctx.program.method(method);
        let frame_idx = self.frames.len() as u16;
        self.frames.push(InlineFrame {
            method,
            local_base,
            num_locals: u32::from(m.num_locals),
            parent,
        });
        self.anchors.push((local_base, local_base + u32::from(m.num_locals)));
        let depths = stack_depths(self.ctx.program, m);
        let profile = &self.ctx.profiles[method.0 as usize];

        // Leaders: entry, branch targets, fall-throughs after control
        // transfers, handler targets.
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        leaders.insert(0);
        let mut targets: Vec<u32> = Vec::new();
        for (pc, insn) in m.code.iter().enumerate() {
            targets.clear();
            insn.collect_targets(&mut targets);
            leaders.extend(&targets);
            let transfers =
                insn.is_terminator() || matches!(insn, Insn::JumpIfTrue(_) | Insn::JumpIfFalse(_));
            if transfers && pc + 1 < m.code.len() {
                leaders.insert(pc as u32 + 1);
            }
        }
        for h in &m.handlers {
            leaders.insert(h.target);
        }
        let mut block_map: FastMap<u32, BlockId> = FastMap::default();
        for &pc in &leaders {
            let b = self.new_block();
            block_map.insert(pc, b);
        }
        let local = |i: u16| local_base + u32::from(i);
        let stack = |d: i32| stack_base + d as u32;

        for &leader in &leaders {
            let mut cur = block_map[&leader];
            if depths[leader as usize] < 0 {
                // Unreachable code: a trap is a safe filler (never runs).
                self.blocks[cur as usize].term =
                    Term::Trap { bc_pc: 0, reason: DeoptReason::BranchSpeculation };
                continue;
            }
            let mut d = depths[leader as usize];
            let mut pc = leader;
            let emit =
                |blocks: &mut Vec<Block>, dst: Option<Reg>, op: Op, at: u32, cur: BlockId| {
                    blocks[cur as usize].insts.push(Inst { dst, op, frame: frame_idx, bc_pc: at });
                };
            loop {
                if pc != leader && leaders.contains(&pc) {
                    self.blocks[cur as usize].term = Term::Jump(block_map[&pc]);
                    break;
                }
                let insn = m.code[pc as usize].clone();
                match insn {
                    Insn::IConst(v) => {
                        emit(&mut self.blocks, Some(stack(d)), Op::ConstI(v), pc, cur);
                        d += 1;
                    }
                    Insn::LConst(v) => {
                        emit(&mut self.blocks, Some(stack(d)), Op::ConstL(v), pc, cur);
                        d += 1;
                    }
                    Insn::SConst(s) => {
                        emit(&mut self.blocks, Some(stack(d)), Op::ConstS(s), pc, cur);
                        d += 1;
                    }
                    Insn::NullConst => {
                        emit(&mut self.blocks, Some(stack(d)), Op::ConstNull, pc, cur);
                        d += 1;
                    }
                    Insn::Load(i) => {
                        emit(&mut self.blocks, Some(stack(d)), Op::Copy(local(i)), pc, cur);
                        d += 1;
                    }
                    Insn::Store(i) => {
                        emit(&mut self.blocks, Some(local(i)), Op::Copy(stack(d - 1)), pc, cur);
                        d -= 1;
                    }
                    Insn::Pop => d -= 1,
                    Insn::Dup => {
                        emit(&mut self.blocks, Some(stack(d)), Op::Copy(stack(d - 1)), pc, cur);
                        d += 1;
                    }
                    Insn::Dup2 => {
                        emit(&mut self.blocks, Some(stack(d)), Op::Copy(stack(d - 2)), pc, cur);
                        emit(&mut self.blocks, Some(stack(d + 1)), Op::Copy(stack(d - 1)), pc, cur);
                        d += 2;
                    }
                    Insn::GetStatic { class, field } => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d)),
                            Op::GetStatic { class, field },
                            pc,
                            cur,
                        );
                        d += 1;
                    }
                    Insn::PutStatic { class, field } => {
                        emit(
                            &mut self.blocks,
                            None,
                            Op::PutStatic { class, field, val: stack(d - 1) },
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::GetField { field } => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 1)),
                            Op::GetField { obj: stack(d - 1), field },
                            pc,
                            cur,
                        );
                    }
                    Insn::PutField { field } => {
                        emit(
                            &mut self.blocks,
                            None,
                            Op::PutField { obj: stack(d - 2), field, val: stack(d - 1) },
                            pc,
                            cur,
                        );
                        d -= 2;
                    }
                    Insn::NewObject(class) => {
                        emit(&mut self.blocks, Some(stack(d)), Op::NewObject(class), pc, cur);
                        d += 1;
                    }
                    Insn::NewArray(kind) => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 1)),
                            Op::NewArray { kind, len: stack(d - 1) },
                            pc,
                            cur,
                        );
                    }
                    Insn::NewMultiArray { kind, dims } => {
                        let n = i32::from(dims);
                        let regs: Vec<Reg> = (0..n).map(|i| stack(d - n + i)).collect();
                        emit(
                            &mut self.blocks,
                            Some(stack(d - n)),
                            Op::NewMultiArray { kind, dims: regs },
                            pc,
                            cur,
                        );
                        d = d - n + 1;
                    }
                    Insn::ArrLoad(kind) => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 2)),
                            Op::ArrLoad { kind, arr: stack(d - 2), idx: stack(d - 1) },
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::ArrStore(kind) => {
                        emit(
                            &mut self.blocks,
                            None,
                            Op::ArrStore {
                                kind,
                                arr: stack(d - 3),
                                idx: stack(d - 2),
                                val: stack(d - 1),
                            },
                            pc,
                            cur,
                        );
                        d -= 3;
                    }
                    Insn::ArrLen => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 1)),
                            Op::ArrLen(stack(d - 1)),
                            pc,
                            cur,
                        );
                    }
                    Insn::IAdd
                    | Insn::ISub
                    | Insn::IMul
                    | Insn::IDiv
                    | Insn::IRem
                    | Insn::IShl
                    | Insn::IShr
                    | Insn::IUshr
                    | Insn::IAnd
                    | Insn::IOr
                    | Insn::IXor
                    | Insn::LAdd
                    | Insn::LSub
                    | Insn::LMul
                    | Insn::LDiv
                    | Insn::LRem
                    | Insn::LShl
                    | Insn::LShr
                    | Insn::LUshr
                    | Insn::LAnd
                    | Insn::LOr
                    | Insn::LXor => {
                        let (kind, long) = insn.binop().expect("a binop");
                        let (a, b) = (stack(d - 2), stack(d - 1));
                        let op = if long { Op::BinL(kind, a, b) } else { Op::BinI(kind, a, b) };
                        emit(&mut self.blocks, Some(a), op, pc, cur);
                        d -= 1;
                    }
                    Insn::INeg => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::NegI(stack(d - 1)), pc, cur);
                    }
                    Insn::LNeg => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::NegL(stack(d - 1)), pc, cur);
                    }
                    Insn::I2L => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::I2L(stack(d - 1)), pc, cur);
                    }
                    Insn::L2I => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::L2I(stack(d - 1)), pc, cur);
                    }
                    Insn::I2B => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::I2B(stack(d - 1)), pc, cur);
                    }
                    Insn::I2S => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::I2S(stack(d - 1)), pc, cur);
                    }
                    Insn::L2S => {
                        emit(&mut self.blocks, Some(stack(d - 1)), Op::L2S(stack(d - 1)), pc, cur);
                    }
                    Insn::Bool2S => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 1)),
                            Op::Bool2S(stack(d - 1)),
                            pc,
                            cur,
                        );
                    }
                    Insn::ICmp(op) => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 2)),
                            Op::CmpI(op, stack(d - 2), stack(d - 1)),
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::LCmp(op) => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 2)),
                            Op::CmpL(op, stack(d - 2), stack(d - 1)),
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::RefEq | Insn::RefNe => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 2)),
                            Op::RefCmp {
                                eq: matches!(insn, Insn::RefEq),
                                a: stack(d - 2),
                                b: stack(d - 1),
                            },
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::SConcat => {
                        emit(
                            &mut self.blocks,
                            Some(stack(d - 2)),
                            Op::Concat(stack(d - 2), stack(d - 1)),
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::Jump(target) => {
                        self.blocks[cur as usize].term = Term::Jump(block_map[&target]);
                        break;
                    }
                    Insn::JumpIfTrue(target) | Insn::JumpIfFalse(target) => {
                        let cond = stack(d - 1);
                        d -= 1;
                        let (true_pc, false_pc) = if matches!(insn, Insn::JumpIfTrue(_)) {
                            (target, pc + 1)
                        } else {
                            (pc + 1, target)
                        };
                        let mut if_true = block_map[&true_pc];
                        let mut if_false = block_map[&false_pc];
                        if speculate && frame_idx == 0 && d == 0 {
                            if let Some(bp) = profile.branch(pc) {
                                if bp.taken == 0
                                    && bp.not_taken >= MIN_PROFILE
                                    && !profile.no_speculate.contains(&true_pc)
                                {
                                    if_true = self.trap_block(true_pc, false);
                                } else if bp.not_taken == 0
                                    && bp.taken >= MIN_PROFILE
                                    && !profile.no_speculate.contains(&false_pc)
                                {
                                    if_false = self.trap_block(false_pc, false);
                                }
                            }
                        }
                        self.blocks[cur as usize].term = Term::Branch { cond, if_true, if_false };
                        break;
                    }
                    Insn::TableSwitch { ref cases, default } => {
                        let scrut = stack(d - 1);
                        d -= 1;
                        let total: u64 =
                            (0..cases.len()).map(|i| profile.switch_arm_hits(pc, i)).sum::<u64>()
                                + profile.switch_arm_hits(pc, usize::MAX);
                        let spec = speculate && frame_idx == 0 && d == 0 && total >= MIN_PROFILE;
                        let mut ir_cases = Vec::with_capacity(cases.len());
                        for (i, (label, target)) in cases.iter().enumerate() {
                            let block = if spec
                                && profile.switch_arm_hits(pc, i) == 0
                                && !profile.no_speculate.contains(target)
                            {
                                self.trap_block(*target, true)
                            } else {
                                block_map[target]
                            };
                            ir_cases.push((*label, block));
                        }
                        let default_block = if spec
                            && profile.switch_arm_hits(pc, usize::MAX) == 0
                            && !profile.no_speculate.contains(&default)
                        {
                            self.trap_block(default, true)
                        } else {
                            block_map[&default]
                        };
                        self.blocks[cur as usize].term =
                            Term::Switch { scrut, cases: ir_cases, default: default_block };
                        break;
                    }
                    Insn::InvokeStatic(callee) | Insn::InvokeInstance(callee) => {
                        let callee_m = self.ctx.program.method(callee);
                        let argc = callee_m.arg_slots() as i32;
                        let has_ret = callee_m.ret != cse_lang::Ty::Void;
                        let args: Vec<Reg> = (0..argc).map(|i| stack(d - argc + i)).collect();
                        let dst = if has_ret { Some(stack(d - argc)) } else { None };
                        // Inlining is profile-driven: plan-forced compiles
                        // (speculate = false, the `count=0` analog) skip it,
                        // which also keeps forced per-call execution modes
                        // enforceable during compilation-space enumeration.
                        let inline_ok = self.ctx.optimizing()
                            && self.ctx.speculate
                            && callee_m.code.len() <= self.ctx.inline_limit
                            && !self.inline_chain.contains(&callee)
                            && self.inline_chain.len() <= 3
                            && self.frames.len() < 6;
                        if inline_ok {
                            if !callee_m.handlers.is_empty()
                                && self.ctx.active(BugId::HsInlineHandlerAssert)
                            {
                                return Err(self.ctx.crash(
                                    BugId::HsInlineHandlerAssert,
                                    format!(
                                        "inlining {} with exception handlers",
                                        self.ctx.program.qualified_name(callee)
                                    ),
                                ));
                            }
                            let callee_locals = self.alloc_regs(u32::from(callee_m.num_locals));
                            let callee_depths = stack_depths(self.ctx.program, callee_m);
                            let callee_max =
                                callee_depths.iter().copied().max().unwrap_or(0).max(0) as u32 + 2;
                            let callee_stack = self.alloc_regs(callee_max);
                            for (i, &arg) in args.iter().enumerate() {
                                emit(
                                    &mut self.blocks,
                                    Some(callee_locals + i as u32),
                                    Op::Copy(arg),
                                    pc,
                                    cur,
                                );
                            }
                            let cont = self.new_block();
                            self.inline_chain.push(callee);
                            let callee_map = self.translate_frame(
                                callee,
                                callee_locals,
                                callee_stack,
                                Some((frame_idx, pc)),
                                Some((dst, cont)),
                                false,
                            )?;
                            self.inline_chain.pop();
                            self.blocks[cur as usize].term = Term::Jump(callee_map[&0]);
                            cur = cont;
                        } else {
                            emit(&mut self.blocks, dst, Op::Call { method: callee, args }, pc, cur);
                        }
                        d = d - argc + i32::from(has_ret);
                    }
                    Insn::Return => {
                        self.blocks[cur as usize].term = match ret {
                            Some((_, cont)) => Term::Jump(cont),
                            None => Term::Return(None),
                        };
                        break;
                    }
                    Insn::ReturnVal => {
                        let value = stack(d - 1);
                        match ret {
                            Some((Some(dst), cont)) => {
                                emit(&mut self.blocks, Some(dst), Op::Copy(value), pc, cur);
                                self.blocks[cur as usize].term = Term::Jump(cont);
                            }
                            Some((None, cont)) => {
                                self.blocks[cur as usize].term = Term::Jump(cont);
                            }
                            None => {
                                self.blocks[cur as usize].term = Term::Return(Some(value));
                            }
                        }
                        break;
                    }
                    Insn::ThrowUser => {
                        emit(&mut self.blocks, None, Op::ThrowUser(stack(d - 1)), pc, cur);
                        // Unreachable fallback: the op always raises.
                        self.blocks[cur as usize].term =
                            Term::Trap { bc_pc: pc, reason: DeoptReason::BranchSpeculation };
                        break;
                    }
                    Insn::Rethrow(slot) => {
                        emit(&mut self.blocks, None, Op::Rethrow(local(slot)), pc, cur);
                        self.blocks[cur as usize].term =
                            Term::Trap { bc_pc: pc, reason: DeoptReason::BranchSpeculation };
                        break;
                    }
                    Insn::Println(kind) => {
                        emit(
                            &mut self.blocks,
                            None,
                            Op::Println { kind, val: stack(d - 1) },
                            pc,
                            cur,
                        );
                        d -= 1;
                    }
                    Insn::Mute => emit(&mut self.blocks, None, Op::Mute, pc, cur),
                    Insn::Unmute => emit(&mut self.blocks, None, Op::Unmute, pc, cur),
                }
                pc += 1;
                if pc as usize >= m.code.len() {
                    unreachable!("verified code cannot fall off the end");
                }
            }
        }
        // Translate the exception table.
        for h in &m.handlers {
            self.handlers.push(IrHandler {
                frame: frame_idx,
                start_bc: h.start,
                end_bc: h.end,
                target: block_map[&h.target],
                save_reg: h.save_slot.map(|s| local_base + u32::from(s)),
            });
        }
        Ok(block_map)
    }
}

/// Abstract operand-stack depth at every bytecode pc (−1 = unreachable).
fn stack_depths(program: &BProgram, method: &BMethod) -> Vec<i32> {
    let code = &method.code;
    let mut depths = vec![-1i32; code.len()];
    let mut worklist: Vec<(u32, i32)> = vec![(0, 0)];
    for h in &method.handlers {
        worklist.push((h.target, 0));
    }
    while let Some((pc, d)) = worklist.pop() {
        let slot = &mut depths[pc as usize];
        if *slot >= 0 {
            continue;
        }
        *slot = d;
        let insn = &code[pc as usize];
        let next_d = d + stack_delta(program, insn);
        match insn {
            Insn::Jump(t) => worklist.push((*t, next_d)),
            Insn::JumpIfTrue(t) | Insn::JumpIfFalse(t) => {
                worklist.push((*t, next_d));
                worklist.push((pc + 1, next_d));
            }
            Insn::TableSwitch { cases, default } => {
                for (_, t) in cases.iter() {
                    worklist.push((*t, next_d));
                }
                worklist.push((*default, next_d));
            }
            Insn::Return | Insn::ReturnVal | Insn::ThrowUser | Insn::Rethrow(_) => {}
            _ => worklist.push((pc + 1, next_d)),
        }
    }
    depths
}

/// Stack-depth effect of an instruction (branches report the depth after
/// popping their condition/scrutinee).
fn stack_delta(program: &BProgram, insn: &Insn) -> i32 {
    match insn {
        Insn::IConst(_)
        | Insn::LConst(_)
        | Insn::SConst(_)
        | Insn::NullConst
        | Insn::Load(_)
        | Insn::GetStatic { .. }
        | Insn::NewObject(_)
        | Insn::Dup => 1,
        Insn::Dup2 => 2,
        Insn::Store(_)
        | Insn::Pop
        | Insn::PutStatic { .. }
        | Insn::JumpIfTrue(_)
        | Insn::JumpIfFalse(_)
        | Insn::TableSwitch { .. }
        | Insn::Println(_)
        | Insn::ThrowUser => -1,
        Insn::GetField { .. }
        | Insn::NewArray(_)
        | Insn::ArrLen
        | Insn::INeg
        | Insn::LNeg
        | Insn::I2L
        | Insn::L2I
        | Insn::I2B
        | Insn::I2S
        | Insn::L2S
        | Insn::Bool2S
        | Insn::Jump(_)
        | Insn::Return
        | Insn::ReturnVal
        | Insn::Rethrow(_)
        | Insn::Mute
        | Insn::Unmute => 0,
        Insn::PutField { .. } => -2,
        Insn::NewMultiArray { dims, .. } => 1 - i32::from(*dims),
        Insn::ArrLoad(_)
        | Insn::IAdd
        | Insn::ISub
        | Insn::IMul
        | Insn::IDiv
        | Insn::IRem
        | Insn::IShl
        | Insn::IShr
        | Insn::IUshr
        | Insn::IAnd
        | Insn::IOr
        | Insn::IXor
        | Insn::LAdd
        | Insn::LSub
        | Insn::LMul
        | Insn::LDiv
        | Insn::LRem
        | Insn::LShl
        | Insn::LShr
        | Insn::LUshr
        | Insn::LAnd
        | Insn::LOr
        | Insn::LXor
        | Insn::ICmp(_)
        | Insn::LCmp(_)
        | Insn::RefEq
        | Insn::RefNe
        | Insn::SConcat => -1,
        Insn::ArrStore(_) => -3,
        Insn::InvokeStatic(id) | Insn::InvokeInstance(id) => {
            let callee = program.method(*id);
            let ret = i32::from(callee.ret != cse_lang::Ty::Void);
            ret - callee.arg_slots() as i32
        }
    }
}
