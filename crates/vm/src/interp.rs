//! The bytecode interpreter: the VM's temperature-`t0` execution engine.
//!
//! Besides executing bytecode, the interpreter is the profiler: it bumps
//! the method and back-edge counters of Definition 3.2, records branch and
//! switch profiles for tier-2 speculation, and triggers OSR compilation
//! when a back-edge counter crosses its threshold.

use cse_bytecode::{DInsn, ExcKind, MethodId};

use crate::config::Tier;
use crate::events::CompileReason;
use crate::jit::{self, IrOutcome};
use crate::value::Value;
use crate::{Exit, Frame, Vm};

impl Vm<'_> {
    /// Interprets `method` starting at `start_pc` with the given locals
    /// (used both for fresh calls and for de-optimization re-entry).
    pub(crate) fn interpret(
        &mut self,
        id: MethodId,
        locals: Vec<Value>,
        start_pc: u32,
    ) -> Result<Option<Value>, Exit> {
        self.depth += 1;
        let stack = self.vec_pool.pop().unwrap_or_default();
        self.frames.push(Frame { locals, stack });
        let frame_idx = self.frames.len() - 1;
        let result = self.interp_loop(id, frame_idx, start_pc);
        // Recycle the frame's two buffers: cleared first, so the pool never
        // holds live values (and thus never needs scanning by the GC).
        if let Some(frame) = self.frames.pop() {
            let Frame { mut locals, mut stack } = frame;
            locals.clear();
            stack.clear();
            self.vec_pool.push(locals);
            self.vec_pool.push(stack);
        }
        self.depth -= 1;
        result
    }

    /// Raises an exception at `pc`: transfers to a matching handler in this
    /// frame or reports the exception upward.
    fn dispatch_exception(
        &mut self,
        id: MethodId,
        frame_idx: usize,
        pc: u32,
        kind: ExcKind,
        code: i32,
    ) -> Result<u32, Exit> {
        let method = self.program.method(id);
        for handler in &method.handlers {
            if pc >= handler.start && pc < handler.end {
                let target = handler.target;
                let save_slot = handler.save_slot;
                let frame = &mut self.frames[frame_idx];
                frame.stack.clear();
                if let Some(slot) = save_slot {
                    frame.locals[slot as usize] = Value::L(kind.pack(code));
                }
                return Ok(target);
            }
        }
        Err(Exit::Exception { kind, code })
    }

    #[allow(clippy::too_many_lines)]
    fn interp_loop(
        &mut self,
        id: MethodId,
        frame_idx: usize,
        start_pc: u32,
    ) -> Result<Option<Value>, Exit> {
        let mut pc = start_pc;
        // One fetch table per activation: the decoded program is shared via
        // `Rc`, so `dm` borrows a local handle and never conflicts with the
        // `&mut self` uses in the arms below.
        let decoded = self.decoded();
        let dm = decoded.method(id);
        // Branch/switch profiles and back-edge counters exist to steer
        // compilation (speculation, tier-up and OSR). When this run can
        // never compile — JIT off and no forced plan — skip the
        // bookkeeping on the hot path entirely; the profiles are not part
        // of any observable output.
        let profiling = self.config.jit_enabled || self.config.plan.is_some();
        // Fast-path macros keep the dispatch loop readable without
        // borrowing `self` across helper calls.
        macro_rules! frame {
            () => {
                self.frames[frame_idx]
            };
        }
        macro_rules! raise {
            ($pc:expr, $kind:expr, $code:expr) => {{
                pc = self.dispatch_exception(id, frame_idx, $pc, $kind, $code)?;
                continue;
            }};
        }
        // A conditional branch at `branch_pc` (plain or fused): profile,
        // back-edge and OSR bookkeeping all use the branch's own pc.
        macro_rules! branch {
            ($branch_pc:expr, $cond:expr, $want:expr, $target:expr) => {{
                let (branch_pc, cond, target) = ($branch_pc, $cond, $target);
                if profiling {
                    self.profiles[id.0 as usize].record_branch(branch_pc, cond);
                }
                if cond == $want {
                    if profiling && target <= branch_pc {
                        if let Some(new_pc) = self.back_edge(id, branch_pc, target)? {
                            return self.osr_execute(id, frame_idx, new_pc);
                        }
                    }
                    pc = target;
                } else {
                    pc = branch_pc + 1;
                }
                continue;
            }};
        }
        loop {
            self.burn(1)?;
            self.stats.interp_ops += 1;
            // Decoded instructions are `Copy`: the fetch is an indexed
            // load, never a clone (see `cse_bytecode::decoded`).
            let insn = dm.code[pc as usize];
            match insn {
                // ----- superinstructions -----
                // Each fused arm runs its whole shape only when the shape's
                // remaining ops fit (`Vm::burn_fused`); otherwise its guard
                // fails and the plain arm of the shape's first instruction
                // below runs instead, continuing at `pc + 1`.
                DInsn::LoadConstOpStore { src, k, op, dst } if self.burn_fused(3) => {
                    let locals = &mut frame!().locals;
                    let r =
                        op.eval_i(locals[src as usize].as_i(), k).expect("fused ops cannot raise");
                    locals[dst as usize] = Value::I(r);
                    pc += 4;
                    continue;
                }
                DInsn::LoadConstOp { src, k, op } if self.burn_fused(2) => {
                    let frame = &mut frame!();
                    let r = op
                        .eval_i(frame.locals[src as usize].as_i(), k)
                        .expect("fused ops cannot raise");
                    frame.stack.push(Value::I(r));
                    pc += 3;
                    continue;
                }
                DInsn::LoadConstCmpBr { src, k, op, want, target } if self.burn_fused(3) => {
                    let cond = op.eval(frame!().locals[src as usize].as_i(), k);
                    branch!(pc + 3, cond, want, target);
                }
                DInsn::LoadLoad { a, b } if self.burn_fused(1) => {
                    let frame = &mut frame!();
                    let (a, b) =
                        (frame.locals[a as usize].clone(), frame.locals[b as usize].clone());
                    frame.stack.push(a);
                    frame.stack.push(b);
                    pc += 2;
                    continue;
                }
                DInsn::ConstStore { k, dst } if self.burn_fused(1) => {
                    frame!().locals[dst as usize] = Value::I(k);
                    pc += 2;
                    continue;
                }
                DInsn::OpStore { op, dst } if self.burn_fused(1) => {
                    let frame = &mut frame!();
                    let b = frame.stack.pop().expect("verified").as_i();
                    let a = frame.stack.pop().expect("verified").as_i();
                    frame.locals[dst as usize] =
                        Value::I(op.eval_i(a, b).expect("fused ops cannot raise"));
                    pc += 2;
                    continue;
                }
                DInsn::IConst(v) | DInsn::ConstStore { k: v, .. } => {
                    frame!().stack.push(Value::I(v));
                }
                DInsn::LConst(v) => frame!().stack.push(Value::L(v)),
                DInsn::SConst(sid) => {
                    // Literals are interned at decode time: a refcount bump,
                    // not a fresh allocation per execution.
                    let text = decoded.string(sid).clone();
                    frame!().stack.push(Value::S(text));
                }
                DInsn::NullConst => frame!().stack.push(Value::Null),
                DInsn::Load(slot)
                | DInsn::LoadConstOpStore { src: slot, .. }
                | DInsn::LoadConstOp { src: slot, .. }
                | DInsn::LoadConstCmpBr { src: slot, .. }
                | DInsn::LoadLoad { a: slot, .. } => {
                    let value = frame!().locals[slot as usize].clone();
                    frame!().stack.push(value);
                }
                DInsn::Store(slot) => {
                    let value = frame!().stack.pop().expect("verified");
                    frame!().locals[slot as usize] = value;
                }
                DInsn::Pop => {
                    frame!().stack.pop();
                }
                DInsn::Dup => {
                    let top = frame!().stack.last().expect("verified").clone();
                    frame!().stack.push(top);
                }
                DInsn::Dup2 => {
                    let len = frame!().stack.len();
                    let a = frame!().stack[len - 2].clone();
                    let b = frame!().stack[len - 1].clone();
                    frame!().stack.push(a);
                    frame!().stack.push(b);
                }
                DInsn::GetStatic { class, field } => {
                    let value = self.statics[class.0 as usize][field as usize].clone();
                    frame!().stack.push(value);
                }
                DInsn::PutStatic { class, field } => {
                    let value = frame!().stack.pop().expect("verified");
                    self.statics[class.0 as usize][field as usize] = value;
                }
                DInsn::GetField { field } => {
                    let obj = frame!().stack.pop().expect("verified");
                    match self.field_get(&obj, field) {
                        Ok(value) => frame!().stack.push(value),
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::PutField { field } => {
                    let value = frame!().stack.pop().expect("verified");
                    let obj = frame!().stack.pop().expect("verified");
                    match self.field_put(&obj, field, value) {
                        Ok(()) => {}
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::NewObject(class) => match self.alloc_object(class) {
                    Ok(value) => frame!().stack.push(value),
                    Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                    Err(e) => return Err(e),
                },
                DInsn::NewArray(kind) => {
                    let len = frame!().stack.pop().expect("verified").as_i();
                    match self.alloc_array(kind, len) {
                        Ok(value) => frame!().stack.push(value),
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::NewMultiArray { kind, dims } => {
                    let mut lens = vec![0i32; dims as usize];
                    for slot in lens.iter_mut().rev() {
                        *slot = frame!().stack.pop().expect("verified").as_i();
                    }
                    match self.alloc_multi(kind, &lens) {
                        Ok(value) => frame!().stack.push(value),
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::ArrLoad(_) => {
                    let idx = frame!().stack.pop().expect("verified").as_i();
                    let arr = frame!().stack.pop().expect("verified");
                    match self.arr_load(&arr, idx) {
                        Ok(value) => frame!().stack.push(value),
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::ArrStore(_) => {
                    let value = frame!().stack.pop().expect("verified");
                    let idx = frame!().stack.pop().expect("verified").as_i();
                    let arr = frame!().stack.pop().expect("verified");
                    match self.arr_store(&arr, idx, value) {
                        Ok(()) => {}
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::ArrLen => {
                    let arr = frame!().stack.pop().expect("verified");
                    match self.arr_len(&arr) {
                        Ok(len) => frame!().stack.push(Value::I(len)),
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                // ----- int arithmetic -----
                DInsn::IAdd
                | DInsn::ISub
                | DInsn::IMul
                | DInsn::IDiv
                | DInsn::IRem
                | DInsn::IShl
                | DInsn::IShr
                | DInsn::IUshr
                | DInsn::IAnd
                | DInsn::IOr
                | DInsn::IXor
                | DInsn::OpStore { .. } => {
                    let op = match insn {
                        DInsn::OpStore { op, .. } => op,
                        plain => plain.binop().expect("int binop").0,
                    };
                    let b = frame!().stack.pop().expect("verified").as_i();
                    let a = frame!().stack.pop().expect("verified").as_i();
                    let Some(r) = op.eval_i(a, b) else { raise!(pc, ExcKind::Arithmetic, 0) };
                    frame!().stack.push(Value::I(r));
                }
                DInsn::INeg => {
                    let a = frame!().stack.pop().expect("verified").as_i();
                    frame!().stack.push(Value::I(a.wrapping_neg()));
                }
                // ----- long arithmetic -----
                DInsn::LAdd
                | DInsn::LSub
                | DInsn::LMul
                | DInsn::LDiv
                | DInsn::LRem
                | DInsn::LShl
                | DInsn::LShr
                | DInsn::LUshr
                | DInsn::LAnd
                | DInsn::LOr
                | DInsn::LXor => {
                    let (op, _) = insn.binop().expect("long binop");
                    let b = frame!().stack.pop().expect("verified");
                    let b = if op.is_shift() { i64::from(b.as_i()) } else { b.as_l() };
                    let a = frame!().stack.pop().expect("verified").as_l();
                    let Some(r) = op.eval_l(a, b) else { raise!(pc, ExcKind::Arithmetic, 0) };
                    frame!().stack.push(Value::L(r));
                }
                DInsn::LNeg => {
                    let a = frame!().stack.pop().expect("verified").as_l();
                    frame!().stack.push(Value::L(a.wrapping_neg()));
                }
                // ----- conversions -----
                DInsn::I2L => {
                    let a = frame!().stack.pop().expect("verified").as_i();
                    frame!().stack.push(Value::L(i64::from(a)));
                }
                DInsn::L2I => {
                    let a = frame!().stack.pop().expect("verified").as_l();
                    frame!().stack.push(Value::I(a as i32));
                }
                DInsn::I2B => {
                    let a = frame!().stack.pop().expect("verified").as_i();
                    frame!().stack.push(Value::I(i32::from(a as i8)));
                }
                DInsn::I2S => {
                    let a = frame!().stack.pop().expect("verified").as_i();
                    frame!().stack.push(Value::str(a.to_string()));
                }
                DInsn::L2S => {
                    let a = frame!().stack.pop().expect("verified").as_l();
                    frame!().stack.push(Value::str(a.to_string()));
                }
                DInsn::Bool2S => {
                    let a = frame!().stack.pop().expect("verified").as_bool();
                    frame!().stack.push(Value::str(if a { "true" } else { "false" }));
                }
                // ----- comparisons -----
                DInsn::CmpBr { op, long_operands, want, target } => {
                    // The fused pair spans two bytecode instructions:
                    // account for the branch too, so fuel and op counts
                    // match unfused execution.
                    self.burn(1)?;
                    self.stats.interp_ops += 1;
                    let cond = if long_operands {
                        let b = frame!().stack.pop().expect("verified").as_l();
                        let a = frame!().stack.pop().expect("verified").as_l();
                        op.eval(a, b)
                    } else {
                        let b = frame!().stack.pop().expect("verified").as_i();
                        let a = frame!().stack.pop().expect("verified").as_i();
                        op.eval(a, b)
                    };
                    branch!(pc + 1, cond, want, target);
                }
                DInsn::ICmp(op) => {
                    let b = frame!().stack.pop().expect("verified").as_i();
                    let a = frame!().stack.pop().expect("verified").as_i();
                    frame!().stack.push(Value::I(i32::from(op.eval(a, b))));
                }
                DInsn::LCmp(op) => {
                    let b = frame!().stack.pop().expect("verified").as_l();
                    let a = frame!().stack.pop().expect("verified").as_l();
                    frame!().stack.push(Value::I(i32::from(op.eval(a, b))));
                }
                DInsn::RefEq | DInsn::RefNe => {
                    let b = frame!().stack.pop().expect("verified");
                    let a = frame!().stack.pop().expect("verified");
                    let eq = a.ref_eq(&b);
                    let want = matches!(insn, DInsn::RefEq);
                    frame!().stack.push(Value::I(i32::from(eq == want)));
                }
                DInsn::SConcat => {
                    let b = frame!().stack.pop().expect("verified");
                    let a = frame!().stack.pop().expect("verified");
                    let joined = self.concat(&a, &b);
                    frame!().stack.push(joined);
                }
                // ----- control flow -----
                DInsn::Jump(target) => {
                    if profiling && target <= pc {
                        if let Some(new_pc) = self.back_edge(id, pc, target)? {
                            return self.osr_execute(id, frame_idx, new_pc);
                        }
                    }
                    pc = target;
                    continue;
                }
                DInsn::JumpIfTrue(target) | DInsn::JumpIfFalse(target) => {
                    let cond = frame!().stack.pop().expect("verified").as_bool();
                    branch!(pc, cond, matches!(insn, DInsn::JumpIfTrue(_)), target);
                }
                DInsn::TableSwitch { cases_start, cases_len, default } => {
                    let scrut = frame!().stack.pop().expect("verified").as_i();
                    let cases = dm.switch_cases(cases_start, cases_len);
                    let arm = cases.iter().position(|(label, _)| *label == scrut);
                    let target = match arm {
                        Some(i) => {
                            let case_target = cases[i].1;
                            if profiling {
                                self.profiles[id.0 as usize].record_switch(pc, i, cases.len());
                            }
                            case_target
                        }
                        None => {
                            if profiling {
                                let arm = usize::MAX;
                                self.profiles[id.0 as usize].record_switch(pc, arm, cases.len());
                            }
                            default
                        }
                    };
                    if profiling && target <= pc {
                        if let Some(new_pc) = self.back_edge(id, pc, target)? {
                            return self.osr_execute(id, frame_idx, new_pc);
                        }
                    }
                    pc = target;
                    continue;
                }
                // ----- calls -----
                DInsn::InvokeStatic(callee) | DInsn::InvokeInstance(callee) => {
                    let arg_slots = self.program.method(callee).arg_slots();
                    // Drain into a recycled buffer instead of `split_off`,
                    // which would allocate a fresh Vec for every call.
                    let mut args = self.vec_pool.pop().unwrap_or_default();
                    let split_at = frame!().stack.len() - arg_slots;
                    args.extend(frame!().stack.drain(split_at..));
                    if matches!(insn, DInsn::InvokeInstance(_)) && args[0].is_null() {
                        raise!(pc, ExcKind::NullPointer, 0);
                    }
                    match self.call_method(callee, args) {
                        Ok(Some(value)) => frame!().stack.push(value),
                        Ok(None) => {}
                        Err(Exit::Exception { kind, code }) => raise!(pc, kind, code),
                        Err(e) => return Err(e),
                    }
                }
                DInsn::Return => return Ok(None),
                DInsn::ReturnVal => {
                    let value = frame!().stack.pop().expect("verified");
                    return Ok(Some(value));
                }
                // ----- exceptions -----
                DInsn::ThrowUser => {
                    let code = frame!().stack.pop().expect("verified").as_i();
                    raise!(pc, ExcKind::User, code);
                }
                DInsn::Rethrow(slot) => {
                    let packed = frame!().locals[slot as usize].as_l();
                    let (kind, code) = ExcKind::unpack(packed);
                    raise!(pc, kind, code);
                }
                // ----- output -----
                DInsn::Println(kind) => {
                    let value = frame!().stack.pop().expect("verified");
                    self.print_value(kind, &value);
                }
                DInsn::Mute => self.mute_depth += 1,
                DInsn::Unmute => self.mute_depth = self.mute_depth.saturating_sub(1),
            }
            pc += 1;
        }
    }

    /// Handles a back-edge: bumps the counter and, when a threshold is
    /// crossed, OSR-compiles and transfers execution to compiled code.
    /// Only runs that can compile (JIT on or a forced plan) call it.
    ///
    /// Returns `Ok(Some(header))` when an OSR transfer should happen at the
    /// given loop header, or `Ok(None)` to continue interpreting normally.
    fn back_edge(&mut self, id: MethodId, from: u32, to: u32) -> Result<Option<u32>, Exit> {
        let method = self.program.method(id);
        let Some(counter_idx) = method.back_edge_index(from, to) else {
            return Ok(None);
        };
        let counter = {
            let prof = &mut self.profiles[id.0 as usize];
            prof.backedges[counter_idx] += 1;
            prof.backedges[counter_idx]
        };
        if self.config.plan.is_some() {
            return Ok(None);
        }
        let prof = &self.profiles[id.0 as usize];
        if prof.compile_banned {
            return Ok(None);
        }
        // The hottest tier whose back-edge threshold the counter crossed.
        let mut target_tier = None;
        for t in 1..=(self.config.tiers.len() as u8) {
            if counter >= self.config.tiers[(t - 1) as usize].backedge {
                target_tier = Some(Tier(t));
            }
        }
        let Some(tier) = target_tier else {
            return Ok(None);
        };
        // Already OSR-compiled at (or beyond) this tier for this header?
        // `osr_execute` below will find it; recompiling is idempotent via
        // the code cache.
        if !self.facts().depths.can_osr(self.program, id, to) {
            return Ok(None);
        }
        self.ensure_compiled(id, tier, Some(to), true, CompileReason::Osr { header: to })?;
        // A top-tier OSR compilation promotes the whole method (HotSpot
        // compiles the full method for OSR; later calls enter the hot code
        // at its head — the paper's "T.g() is also JIT-compiled at the L4
        // level").
        if tier == self.config.top_tier() && self.profiles[id.0 as usize].tier < tier {
            self.ensure_compiled(id, tier, None, true, CompileReason::Invocations)?;
            self.profiles[id.0 as usize].tier = tier;
        }
        Ok(Some(to))
    }

    /// Transfers the current interpreter frame into OSR-compiled code at
    /// loop header `header`. On de-optimization, resumes interpretation.
    fn osr_execute(
        &mut self,
        id: MethodId,
        frame_idx: usize,
        header: u32,
    ) -> Result<Option<Value>, Exit> {
        {
            // Find the hottest compiled OSR variant for this header.
            let mut func = None;
            for t in (1..=self.config.tiers.len() as u8).rev() {
                if let Some(f) = self.compiled_code(id, Tier(t), Some(header)) {
                    func = Some(f);
                    break;
                }
            }
            let Some(func) = func else {
                // Deopt invalidated the code (or it never existed): resume
                // interpreting from the header.
                return self.interp_resume(id, frame_idx, header);
            };
            // Move the locals out instead of cloning the whole vector:
            // `run_ir` seeds its register frame (a GC root) from them
            // before anything can allocate, and every exit path below
            // either pops this frame or overwrites `locals` afresh.
            let locals = std::mem::take(&mut self.frames[frame_idx].locals);
            match jit::run_ir(self, &func, locals)? {
                IrOutcome::Return(value) => Ok(value),
                IrOutcome::Deopt { bc_pc, locals, reason } => {
                    self.deoptimize(id, func.tier, bc_pc, reason);
                    self.frames[frame_idx].locals = locals;
                    self.frames[frame_idx].stack.clear();
                    // Resume interpretation at the deopt point.
                    self.interp_resume(id, frame_idx, bc_pc)
                }
                IrOutcome::TierUp { bc_pc, locals } => {
                    // Hot loop wants a hotter tier: resume interpreting at
                    // the header; the next back-edge re-enters through the
                    // freshly promoted OSR compilation.
                    self.frames[frame_idx].locals = locals;
                    self.frames[frame_idx].stack.clear();
                    self.interp_resume(id, frame_idx, bc_pc)
                }
            }
        }
    }

    /// Continues interpreting the *current* frame at `pc` (after OSR exit
    /// or de-optimization) without pushing a new frame.
    fn interp_resume(
        &mut self,
        id: MethodId,
        frame_idx: usize,
        pc: u32,
    ) -> Result<Option<Value>, Exit> {
        self.interp_loop(id, frame_idx, pc)
    }
}
