//! Pass-boundary static verifier for the JIT IR — the third oracle.
//!
//! The CSE differential oracle only notices a miscompile once it changes
//! *output*; a pass that corrupts IR which a later pass masks (or which
//! only mis-executes on unexercised paths) is invisible to it. This module
//! is the engineering analogue of LLVM's `-verify-each`: after `build()`
//! and after the last pass ([`VerifyMode::Boundary`]) it proves
//!
//! 1. **CFG well-formedness** — terminator successors and handler targets
//!    in-bounds, register operands within `num_regs`, frame/handler tables
//!    internally consistent with `anchor_limit_per_frame`;
//! 2. **def-before-use** — a forward definite-assignment dataflow over all
//!    paths (including per-throw-point exceptional edges), plus a
//!    dominance check via [`Dominators`] for single-assignment
//!    registers;
//! 3. **a type lattice** — int/long/str/ref categories inferred from `Op`
//!    signatures and joined at merge points, exactly as the bytecode
//!    verifier does for stack slots;
//! 4. **effect-flag soundness** — `is_pure()` / `can_throw()` /
//!    `is_memory_write()` audited against an independent table of each
//!    op's actual shape, so LICM/GCM/DCE cannot be lied to.
//!
//! As an oracle, verification is *observation only*: defects are
//! collected and reported through `ExecutionResult::ir_verify`, never
//! altering compilation or execution, so enabling the verifier cannot
//! perturb the differential oracle. Checking is deterministic (fixed
//! iteration order, no hashing), which keeps campaign digests
//! bit-identical across worker counts.
//!
//! Builds with debug assertions (the `dev` and `test` profiles) also run
//! the verifier after `build()` and after every pass, whatever the
//! configured mode, and panic on a defect (`assert_well_formed`):
//! well-formed IR is an invariant of this JIT, not a finding about the VM
//! under test. Release builds skip that check.
//!
//! Deliberate leniencies, each matched to how the IR is actually built and
//! executed (`run_ir` starts every register as `I(0)`, so "undefined" is a
//! static notion here, not a runtime trap):
//!
//! * Anchor registers (frame locals) are treated as defined at entry with
//!   their declared bytecode types — the interpreter seeds frame-0 args
//!   and deopt rebuilds frames from anchors, and the front end enforces
//!   source-level definite assignment for locals.
//! * Conflicting types only join to `Any` (reported at a *use* that needs
//!   a specific category), since dead merge paths legitimately carry
//!   mismatched slots.
//! * Unreachable blocks are shape-checked but excluded from dataflow; the
//!   builder emits unreachable `Trap` filler blocks by design.

use std::collections::VecDeque;

use cse_bytecode::{ArrKind, BProgram, PrintKind};
use cse_lang::Ty;

use super::cfg::Dominators;
use super::ir::{BinKind, BlockId, Inst, IrFunc, Op, Reg, Term};

pub use crate::config::VerifyMode;

/// Pass label for the IR as produced by `build()`.
pub const PASS_BUILD: &str = "build";
/// Pass label for the [`VerifyMode::Boundary`] check after the last pass.
pub const PASS_PIPELINE_EXIT: &str = "pipeline-exit";

/// Cap on reported defects per verification point, so one catastrophically
/// corrupted function cannot flood incident logs.
const MAX_ERRORS: usize = 8;

/// A defect found in an [`IrFunc`], attributed to the pass after which it
/// was first observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrVerifyError {
    /// `Class.method` of the compiled function.
    pub method: String,
    /// The pass the IR was verified after ([`PASS_BUILD`] for fresh IR).
    pub pass: &'static str,
    /// Block containing the defect.
    pub block: BlockId,
    /// Instruction index within the block; `None` for function-level or
    /// terminator defects.
    pub inst: Option<usize>,
    /// The violated invariant.
    pub detail: String,
    /// One-line disassembly of the offending instruction or terminator.
    pub disasm: Option<String>,
}

impl std::fmt::Display for IrVerifyError {
    /// One line, the signature triage parses: `method: after pass: …`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: after {}: b{}", self.method, self.pass, self.block)?;
        if let Some(i) = self.inst {
            write!(f, "[{i}]")?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(disasm) = &self.disasm {
            write!(f, " in `{disasm}`")?;
        }
        Ok(())
    }
}

/// Verifies one function, attributing defects to `pass`. Returns every
/// violated invariant (capped at `MAX_ERRORS`); an empty vector means the
/// IR is well-formed.
pub fn check_func(func: &IrFunc, program: &BProgram, pass: &'static str) -> Vec<IrVerifyError> {
    let mut checker = Checker { func, program, pass, errors: Vec::new() };
    let facts = checker.check_shape();
    // The dataflow indexes blocks/registers/methods by id, so it only runs
    // on shape-clean IR.
    if checker.errors.is_empty() {
        let in_states = checker.compute_states(facts);
        checker.check_dataflow(&in_states);
        checker.check_single_defs(&in_states);
    }
    checker.errors
}

/// The debug-build invariant: panics, naming `pass` and listing its
/// defects and the IR it started from (`before`, `None` after `build()`),
/// unless `func` is well-formed. The compile driver calls it only when
/// debug assertions are on.
pub(crate) fn assert_well_formed(
    func: &IrFunc,
    program: &BProgram,
    pass: &'static str,
    before: Option<&IrFunc>,
) {
    let defects = check_func(func, program, pass);
    if defects.is_empty() {
        return;
    }
    let lines: Vec<String> = defects.iter().map(IrVerifyError::to_string).collect();
    let before = before.map_or_else(|| "(none: the IR was just built)".to_string(), IrFunc::pretty);
    panic!(
        "IR verifier: `{pass}` left malformed IR\n{}\n--- IR before {pass} ---\n{}",
        lines.join("\n"),
        before.trim_end()
    );
}

/// Audits claimed effect flags for `op` against an independent table of
/// the op's actual shape. `Ok(())` means the claims are sound. Exposed so
/// tests can feed deliberately wrong claims; the verifier itself calls it
/// with the values `ir.rs` reports.
pub fn check_effect_claims(op: &Op, pure: bool, throws: bool, writes: bool) -> Result<(), String> {
    if pure && (throws || writes) {
        return Err(format!(
            "op claims is_pure but also can_throw={throws}/is_memory_write={writes}"
        ));
    }
    let (want_pure, want_throw, want_write) = expected_effects(op);
    if pure != want_pure {
        return Err(format!("op claims is_pure={pure}, shape says {want_pure}"));
    }
    if throws != want_throw {
        return Err(format!("op claims can_throw={throws}, shape says {want_throw}"));
    }
    if writes != want_write {
        return Err(format!("op claims is_memory_write={writes}, shape says {want_write}"));
    }
    Ok(())
}

/// Ground-truth effect flags `(pure, can_throw, memory_write)` derived
/// from each op's shape, independent of the methods on [`Op`].
fn expected_effects(op: &Op) -> (bool, bool, bool) {
    match op {
        Op::ConstI(_)
        | Op::ConstL(_)
        | Op::ConstS(_)
        | Op::ConstNull
        | Op::Copy(_)
        | Op::NegI(_)
        | Op::NegL(_)
        | Op::I2L(_)
        | Op::L2I(_)
        | Op::I2B(_)
        | Op::I2S(_)
        | Op::L2S(_)
        | Op::Bool2S(_)
        | Op::Concat(..)
        | Op::CmpI(..)
        | Op::CmpL(..)
        | Op::RefCmp { .. } => (true, false, false),
        Op::BinI(kind, ..) | Op::BinL(kind, ..) => {
            // Division by zero throws; everything else is pure arithmetic.
            if matches!(kind, BinKind::Div | BinKind::Rem) {
                (false, true, false)
            } else {
                (true, false, false)
            }
        }
        // Reads of mutable memory: not pure, but neither throwing nor
        // writing.
        Op::GetStatic { .. } => (false, false, false),
        // Null check on the receiver / index check on the array.
        Op::GetField { .. } | Op::ArrLoad { .. } | Op::ArrLen(_) => (false, true, false),
        Op::PutField { .. } | Op::ArrStore { .. } => (false, true, true),
        Op::PutStatic { .. } => (false, false, true),
        // Allocation can exhaust the heap; NewArray also checks its length.
        Op::NewObject(_) | Op::NewArray { .. } | Op::NewMultiArray { .. } => (false, true, false),
        // A call may do anything.
        Op::Call { .. } => (false, true, true),
        Op::Println { .. } | Op::Mute | Op::Unmute => (false, false, true),
        Op::ThrowUser(_) | Op::Rethrow(_) => (false, true, false),
        Op::CorruptHeap { .. } => (false, false, true),
        Op::CrashOnExec { .. } | Op::BurnFuel { .. } => (false, false, false),
    }
}

/// Abstract register contents: a definite-assignment bit fused with a
/// small type lattice. `Unset < {I, L, S, R, Null} < Any`, except that
/// `Null` joins with either reference category without losing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VType {
    /// Not assigned on every path (bottom: wins every join).
    Unset,
    /// 32-bit int (also byte and boolean).
    I,
    /// 64-bit long (also packed exceptions).
    L,
    /// String reference.
    S,
    /// Object or array reference.
    R,
    /// The null literal (compatible with both reference categories).
    Null,
    /// Assigned, but of merge-dependent category; accepted wherever a
    /// specific category is not required.
    Any,
}

const fn join(a: VType, b: VType) -> VType {
    match (a, b) {
        _ if a as u8 == b as u8 => a,
        (VType::Unset, _) | (_, VType::Unset) => VType::Unset,
        (VType::Null, VType::R) | (VType::R, VType::Null) => VType::R,
        (VType::Null, VType::S) | (VType::S, VType::Null) => VType::S,
        _ => VType::Any,
    }
}

/// Every [`VType`], in discriminant order.
const VTYPES: [VType; 7] =
    [VType::Unset, VType::I, VType::L, VType::S, VType::R, VType::Null, VType::Any];

/// The set of [`VType`]s reaching a register, one bit per type: what the
/// dataflow stores. Merging two states is then a bytewise OR, with no
/// per-register branch, and [`TypeSet::get`] folds a set into the type it
/// stands for. Folding late gives what joining eagerly would, because
/// `join` is associative, commutative and idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TypeSet(u8);

impl TypeSet {
    /// Not reached yet (an unreached block's cells).
    const EMPTY: TypeSet = TypeSet(0);

    const fn of(t: VType) -> TypeSet {
        TypeSet(1 << t as u8)
    }

    fn get(self) -> VType {
        FOLD[self.0 as usize]
    }
}

/// [`join`] folded over every non-empty [`TypeSet`].
const FOLD: [VType; 1 << VTYPES.len()] = {
    let mut table = [VType::Unset; 1 << VTYPES.len()];
    let mut set = 1;
    while set < table.len() {
        let mut folded = None;
        let mut t = 0;
        while t < VTYPES.len() {
            if set & (1 << t) != 0 {
                folded = match folded {
                    None => Some(VTYPES[t]),
                    Some(f) => Some(join(f, VTYPES[t])),
                };
            }
            t += 1;
        }
        if let Some(f) = folded {
            table[set] = f;
        }
        set += 1;
    }
    table
};

/// ORs `state` into `cells`; returns whether any cell changed.
fn merge_into(cells: &mut [TypeSet], state: &[TypeSet]) -> bool {
    let mut grew = 0;
    for (dst, src) in cells.iter_mut().zip(state) {
        let merged = dst.0 | src.0;
        grew |= merged ^ dst.0;
        dst.0 = merged;
    }
    grew != 0
}

/// The type a copy of a `t` register holds: a copy of an unassigned
/// register is still an assignment.
fn copied(t: VType) -> VType {
    if t == VType::Unset {
        VType::Any
    } else {
        t
    }
}

fn of_ty(ty: &Ty) -> VType {
    match ty {
        Ty::Int | Ty::Byte | Ty::Bool => VType::I,
        Ty::Long => VType::L,
        Ty::Str => VType::S,
        _ => VType::R,
    }
}

fn of_elem(kind: ArrKind) -> VType {
    match kind {
        ArrKind::I32 | ArrKind::I8 | ArrKind::Bool => VType::I,
        ArrKind::I64 => VType::L,
        ArrKind::Str => VType::S,
        ArrKind::Ref => VType::R,
    }
}

fn int_ok(t: VType) -> bool {
    matches!(t, VType::I | VType::Any)
}

fn long_ok(t: VType) -> bool {
    matches!(t, VType::L | VType::Any)
}

fn str_ok(t: VType) -> bool {
    matches!(t, VType::S | VType::Null | VType::Any)
}

fn obj_ok(t: VType) -> bool {
    matches!(t, VType::R | VType::Null | VType::Any)
}

fn ref_like_ok(t: VType) -> bool {
    matches!(t, VType::R | VType::S | VType::Null | VType::Any)
}

/// Whether `actual` fits a declared bytecode type's category.
fn fits_declared(declared: &Ty, actual: VType) -> bool {
    match of_ty(declared) {
        VType::I => int_ok(actual),
        VType::L => long_ok(actual),
        VType::S => str_ok(actual),
        VType::R => obj_ok(actual),
        _ => true,
    }
}

/// Mirrors `exec::find_handler`: the handler for an exception raised at
/// (`frame`, `bc_pc`), walking outward through inline frames.
fn handler_for(func: &IrFunc, mut frame: u16, mut bc_pc: u32) -> Option<usize> {
    loop {
        if let Some(idx) = func
            .handlers
            .iter()
            .position(|h| h.frame == frame && bc_pc >= h.start_bc && bc_pc < h.end_bc)
        {
            return Some(idx);
        }
        match func.frames[frame as usize].parent {
            Some((parent, call_pc)) => {
                frame = parent;
                bc_pc = call_pc;
            }
            None => return None,
        }
    }
}

/// `InstFacts::handler` of an instruction whose throws reach no handler.
const NO_HANDLER: u32 = u32::MAX;

struct Checker<'a> {
    func: &'a IrFunc,
    program: &'a BProgram,
    pass: &'static str,
    errors: Vec<IrVerifyError>,
}

/// The fixed-point in-state of every block, in one arena: block `b`'s
/// per-register state is `cells[b * width..(b + 1) * width]`, meaningful
/// once `reached[b]` (an unreached block is unreachable).
struct States {
    width: usize,
    cells: Vec<TypeSet>,
    reached: Vec<bool>,
    facts: InstFacts,
}

/// What each instruction contributes to the dataflow that its op and the
/// function fix once and for all, worked out once for every walk.
struct InstFacts {
    /// Where each block's instructions start in the other fields.
    first: Vec<usize>,
    /// The type the destination receives (ignored for a copy, whose type
    /// is its source's).
    result: Vec<VType>,
    /// The handler a throw at the instruction reaches, or [`NO_HANDLER`]
    /// (also for instructions that cannot throw).
    handler: Vec<u32>,
}

impl States {
    fn of(&self, b: usize) -> &[TypeSet] {
        &self.cells[b * self.width..(b + 1) * self.width]
    }

    fn get(&self, b: usize) -> Option<&[TypeSet]> {
        self.reached[b].then(|| self.of(b))
    }

    /// Merges `state` into `target`'s in-state, queueing it on change (or
    /// on first reach). `save` overrides one register's incoming type:
    /// the handler-entry edge parks the packed exception there.
    fn flow_into(
        &mut self,
        target: BlockId,
        state: &[TypeSet],
        save: Option<Reg>,
        queue: &mut VecDeque<BlockId>,
        queued: &mut [bool],
    ) {
        let t = target as usize;
        let cells = &mut self.cells[t * self.width..(t + 1) * self.width];
        let long = [TypeSet::of(VType::L)];
        let changed = if self.reached[t] {
            match save {
                Some(save) => {
                    let s = save as usize;
                    merge_into(&mut cells[..s], &state[..s])
                        | merge_into(&mut cells[s..=s], &long)
                        | merge_into(&mut cells[s + 1..], &state[s + 1..])
                }
                None => merge_into(cells, state),
            }
        } else {
            cells.copy_from_slice(state);
            if let Some(save) = save {
                cells[save as usize] = long[0];
            }
            self.reached[t] = true;
            true
        };
        if changed && !queued[t] {
            queued[t] = true;
            queue.push_back(target);
        }
    }
}

impl Checker<'_> {
    fn report(&mut self, block: BlockId, inst: Option<usize>, detail: String) {
        if self.errors.len() >= MAX_ERRORS {
            return;
        }
        let disasm = inst.map_or_else(
            || self.func.blocks.get(block as usize).map(|b| b.term.to_string()),
            |i| {
                self.func
                    .blocks
                    .get(block as usize)
                    .and_then(|b| b.insts.get(i))
                    .map(Inst::to_string)
            },
        );
        self.errors.push(IrVerifyError {
            method: self.program.qualified_name(self.func.method),
            pass: self.pass,
            block,
            inst,
            detail,
            disasm,
        });
    }

    // ---- Phase 1: shape (CFG, tables, indices, arity, effect flags) ----

    /// Checks the shape and, in the same walk, works out the dataflow's
    /// [`InstFacts`] (complete only when the shape is clean, since they
    /// index the program by the ids checked here).
    fn check_shape(&mut self) -> InstFacts {
        let func = self.func;
        let nblocks = func.blocks.len() as u32;
        let count = func.blocks.iter().map(|b| b.insts.len()).sum();
        let mut facts = InstFacts {
            first: Vec::with_capacity(func.blocks.len()),
            result: Vec::with_capacity(count),
            handler: Vec::with_capacity(count),
        };
        if func.blocks.is_empty() {
            self.report(0, None, "function has no blocks (entry must be b0)".into());
            return facts;
        }
        self.check_frames();
        self.check_handlers();
        for (b, block) in func.blocks.iter().enumerate() {
            facts.first.push(facts.result.len());
            let b = b as BlockId;
            for (i, inst) in block.insts.iter().enumerate() {
                self.check_inst_shape(b, i, inst);
                if !self.errors.is_empty() {
                    continue;
                }
                facts.result.push(self.result_type(&inst.op));
                let handler = if inst.op.can_throw() {
                    handler_for(func, inst.frame, inst.bc_pc)
                } else {
                    None
                };
                facts.handler.push(handler.map_or(NO_HANDLER, |h| h as u32));
            }
            for succ in block.term.successors() {
                if succ >= nblocks {
                    self.report(b, None, format!("terminator targets dangling block b{succ}"));
                }
            }
            for r in block.term.sources() {
                if r >= func.num_regs {
                    self.report(b, None, format!("terminator reads out-of-range register r{r}"));
                }
            }
        }
        facts
    }

    fn check_frames(&mut self) {
        let func = self.func;
        if func.frames.is_empty() {
            self.report(0, None, "function has no inline frames".into());
            return;
        }
        if func.anchor_limit_per_frame.len() != func.frames.len() {
            self.report(
                0,
                None,
                format!(
                    "anchor_limit_per_frame has {} entries for {} frames",
                    func.anchor_limit_per_frame.len(),
                    func.frames.len()
                ),
            );
        }
        for (f, frame) in func.frames.iter().enumerate() {
            if frame.method.0 as usize >= self.program.methods.len() {
                self.report(
                    0,
                    None,
                    format!("frame f{f} references unknown method m{}", frame.method.0),
                );
                continue;
            }
            let declared = u32::from(self.program.method(frame.method).num_locals);
            if frame.num_locals != declared {
                self.report(
                    0,
                    None,
                    format!(
                        "frame f{f} has {} locals but m{} declares {declared}",
                        frame.num_locals, frame.method.0
                    ),
                );
            }
            if frame.local_base + frame.num_locals > func.num_regs {
                self.report(
                    0,
                    None,
                    format!(
                        "frame f{f} locals r{}..r{} exceed num_regs={}",
                        frame.local_base,
                        frame.local_base + frame.num_locals,
                        func.num_regs
                    ),
                );
            }
            match (f, frame.parent) {
                (0, Some(_)) => self.report(0, None, "frame f0 must not have a parent".into()),
                (0, None) => {}
                (_, None) => self.report(0, None, format!("inlined frame f{f} has no parent")),
                (_, Some((p, _))) if usize::from(p) >= f => {
                    self.report(0, None, format!("frame f{f} parent f{p} does not precede it"));
                }
                _ => {}
            }
            if let Some(&(lo, hi)) = func.anchor_limit_per_frame.get(f) {
                if lo != frame.local_base || hi != frame.local_base + frame.num_locals {
                    self.report(
                        0,
                        None,
                        format!(
                            "anchor range ({lo}, {hi}) of f{f} disagrees with locals r{}..r{}",
                            frame.local_base,
                            frame.local_base + frame.num_locals
                        ),
                    );
                }
            }
        }
    }

    fn check_handlers(&mut self) {
        let func = self.func;
        for (h, handler) in func.handlers.iter().enumerate() {
            if usize::from(handler.frame) >= func.frames.len() {
                self.report(
                    0,
                    None,
                    format!("handler #{h} references unknown frame f{}", handler.frame),
                );
                continue;
            }
            if handler.target >= func.blocks.len() as u32 {
                self.report(
                    0,
                    None,
                    format!("handler #{h} targets dangling block b{}", handler.target),
                );
            }
            if handler.start_bc >= handler.end_bc {
                self.report(
                    0,
                    None,
                    format!(
                        "handler #{h} covers empty pc range [{}, {})",
                        handler.start_bc, handler.end_bc
                    ),
                );
            }
            if let Some(save) = handler.save_reg {
                let frame = &func.frames[usize::from(handler.frame)];
                let in_frame =
                    save >= frame.local_base && save < frame.local_base + frame.num_locals;
                if !in_frame {
                    self.report(
                        0,
                        None,
                        format!(
                            "handler #{h} save register r{save} is not an anchor of f{}",
                            handler.frame
                        ),
                    );
                }
            }
        }
    }

    fn check_inst_shape(&mut self, b: BlockId, i: usize, inst: &Inst) {
        let func = self.func;
        let program = self.program;
        if let Some(dst) = inst.dst {
            if dst >= func.num_regs {
                self.report(
                    b,
                    Some(i),
                    format!("destination r{dst} out of range (num_regs={})", func.num_regs),
                );
            }
        }
        for r in inst.op.sources() {
            if r >= func.num_regs {
                self.report(
                    b,
                    Some(i),
                    format!("source r{r} out of range (num_regs={})", func.num_regs),
                );
            }
        }
        if usize::from(inst.frame) >= func.frames.len() {
            self.report(b, Some(i), format!("provenance references unknown frame f{}", inst.frame));
        }
        // Program-index bounds; arity depends on them being valid.
        match &inst.op {
            Op::ConstS(s) if s.0 as usize >= program.strings.len() => {
                self.report(b, Some(i), format!("unknown string constant str{}", s.0));
                return;
            }
            Op::GetStatic { class, field } | Op::PutStatic { class, field, .. } => {
                if class.0 as usize >= program.classes.len() {
                    self.report(b, Some(i), format!("unknown class c{}", class.0));
                    return;
                }
                if *field as usize >= program.class(*class).static_fields.len() {
                    self.report(b, Some(i), format!("unknown static field c{}.{field}", class.0));
                    return;
                }
            }
            Op::NewObject(class) if class.0 as usize >= program.classes.len() => {
                self.report(b, Some(i), format!("unknown class c{}", class.0));
                return;
            }
            Op::NewMultiArray { dims, .. } if dims.is_empty() => {
                self.report(b, Some(i), "newmultiarray with zero dimensions".into());
            }
            Op::Call { method, args } => {
                if method.0 as usize >= program.methods.len() {
                    self.report(b, Some(i), format!("call to unknown method m{}", method.0));
                    return;
                }
                let want = program.method(*method).arg_slots();
                if args.len() != want {
                    self.report(
                        b,
                        Some(i),
                        format!("call passes {} arguments, m{} takes {want}", args.len(), method.0),
                    );
                }
            }
            _ => {}
        }
        self.check_dst_arity(b, i, inst);
        if let Err(detail) = check_effect_claims(
            &inst.op,
            inst.op.is_pure(),
            inst.op.can_throw(),
            inst.op.is_memory_write(),
        ) {
            self.report(b, Some(i), detail);
        }
    }

    fn check_dst_arity(&mut self, b: BlockId, i: usize, inst: &Inst) {
        // `Either`: CrashOnExec may keep the destination of the op it
        // replaced, and a non-void call result may be discarded.
        let required = match &inst.op {
            Op::PutStatic { .. }
            | Op::PutField { .. }
            | Op::ArrStore { .. }
            | Op::Println { .. }
            | Op::Mute
            | Op::Unmute
            | Op::ThrowUser(_)
            | Op::Rethrow(_)
            | Op::CorruptHeap { .. }
            | Op::BurnFuel { .. } => Some(false),
            Op::CrashOnExec { .. } => None,
            Op::Call { method, .. } => {
                if self.program.method(*method).ret == Ty::Void {
                    Some(false)
                } else {
                    None
                }
            }
            _ => Some(true),
        };
        match (required, inst.dst) {
            (Some(true), None) => {
                self.report(b, Some(i), "value-producing op has no destination".into());
            }
            (Some(false), Some(dst)) => {
                self.report(b, Some(i), format!("effect-only op writes destination r{dst}"));
            }
            _ => {}
        }
    }

    // ---- Phase 2: definite assignment + type lattice ----

    /// Writes the entry state into `state` (all `Unset`): anchors carry
    /// their declared types (see the module docs for why anchors count as
    /// defined).
    fn entry_state(&self, state: &mut [TypeSet]) {
        for frame in &self.func.frames {
            let m = self.program.method(frame.method);
            for i in 0..frame.num_locals {
                let ty = m
                    .local_types
                    .get(i as usize)
                    .and_then(|t| t.as_ref())
                    .map(of_ty)
                    .unwrap_or(VType::Any);
                state[(frame.local_base + i) as usize] = TypeSet::of(ty);
            }
        }
    }

    /// Runs the forward dataflow to fixpoint in one state arena, walking
    /// each dequeued block in one reused buffer. Error reporting happens
    /// in a separate pass over the fixed states so iteration to
    /// convergence cannot duplicate reports.
    fn compute_states(&self, facts: InstFacts) -> States {
        let func = self.func;
        let n = func.blocks.len();
        let width = func.num_regs as usize;
        let mut states = States {
            width,
            cells: vec![TypeSet::EMPTY; n * width],
            reached: vec![false; n],
            facts,
        };
        states.cells[..width].fill(TypeSet::of(VType::Unset));
        self.entry_state(&mut states.cells[..width]);
        states.reached[0] = true;
        let mut queue: VecDeque<BlockId> = VecDeque::from([0]);
        let mut queued = vec![false; n];
        queued[0] = true;
        let mut state = vec![TypeSet::EMPTY; width];
        while let Some(b) = queue.pop_front() {
            queued[b as usize] = false;
            state.copy_from_slice(states.of(b as usize));
            let block = &func.blocks[b as usize];
            let first = states.facts.first[b as usize];
            for (i, inst) in block.insts.iter().enumerate() {
                let h = states.facts.handler[first + i];
                if h != NO_HANDLER {
                    let handler = &func.handlers[h as usize];
                    // The dispatcher parks the packed exception (a long)
                    // in the save register.
                    states.flow_into(
                        handler.target,
                        &state,
                        handler.save_reg,
                        &mut queue,
                        &mut queued,
                    );
                }
                if let Some(dst) = inst.dst {
                    let t = match inst.op {
                        Op::Copy(src) => copied(state[src as usize].get()),
                        _ => states.facts.result[first + i],
                    };
                    state[dst as usize] = TypeSet::of(t);
                }
            }
            for succ in block.term.successors() {
                states.flow_into(succ, &state, None, &mut queue, &mut queued);
            }
        }
        states
    }

    /// The type an op's destination holds, independent of operand errors
    /// (so one defect does not cascade); a copy's is [`copied`] from its
    /// source's at the copy.
    fn result_type(&self, op: &Op) -> VType {
        match op {
            Op::ConstI(_) => VType::I,
            Op::ConstL(_) => VType::L,
            Op::ConstS(_) => VType::S,
            Op::ConstNull => VType::Null,
            Op::BinI(..) | Op::NegI(_) | Op::L2I(_) | Op::I2B(_) => VType::I,
            Op::BinL(..) | Op::NegL(_) | Op::I2L(_) => VType::L,
            Op::I2S(_) | Op::L2S(_) | Op::Bool2S(_) | Op::Concat(..) => VType::S,
            Op::CmpI(..) | Op::CmpL(..) | Op::RefCmp { .. } => VType::I,
            Op::GetStatic { class, field } => {
                of_ty(&self.program.class(*class).static_fields[*field as usize].ty)
            }
            // The receiver's class is not tracked, so field loads are
            // category-opaque.
            Op::GetField { .. } => VType::Any,
            Op::NewObject(_) | Op::NewArray { .. } | Op::NewMultiArray { .. } => VType::R,
            Op::ArrLoad { kind, .. } => of_elem(*kind),
            Op::ArrLen(_) => VType::I,
            Op::Call { method, .. } => {
                let ret = &self.program.method(*method).ret;
                if *ret == Ty::Void {
                    VType::Any
                } else {
                    of_ty(ret)
                }
            }
            _ => VType::Any,
        }
    }

    /// Re-walks every reachable block over the fixed states and reports
    /// undefined uses and category mismatches.
    fn check_dataflow(&mut self, in_states: &States) {
        let mut state = Vec::with_capacity(in_states.width);
        for b in 0..self.func.blocks.len() {
            let Some(in_state) = in_states.get(b) else { continue };
            state.clear();
            state.extend(in_state.iter().map(|t| t.get()));
            let first = in_states.facts.first[b];
            let b = b as BlockId;
            let block = &self.func.blocks[b as usize];
            for (i, inst) in block.insts.iter().enumerate() {
                self.check_inst_types(b, i, inst, &state);
                if let Some(dst) = inst.dst {
                    state[dst as usize] = match inst.op {
                        Op::Copy(src) => copied(state[src as usize]),
                        _ => in_states.facts.result[first + i],
                    };
                }
            }
            self.check_term(b, &block.term, &state);
        }
    }

    /// Reports a use of `r` that is undefined or outside `want`'s
    /// category. Returns whether the operand was acceptable.
    fn use_reg(
        &mut self,
        b: BlockId,
        i: usize,
        r: Reg,
        state: &[VType],
        want: &str,
        ok: fn(VType) -> bool,
    ) {
        let t = state[r as usize];
        if t == VType::Unset {
            self.report(b, Some(i), format!("use of undefined register r{r}"));
        } else if !ok(t) {
            self.report(b, Some(i), format!("r{r}: expected {want}, found {t:?}"));
        }
    }

    fn check_inst_types(&mut self, b: BlockId, i: usize, inst: &Inst, state: &[VType]) {
        let any = |_: VType| true;
        match &inst.op {
            Op::ConstI(_)
            | Op::ConstL(_)
            | Op::ConstS(_)
            | Op::ConstNull
            | Op::GetStatic { .. }
            | Op::NewObject(_)
            | Op::Mute
            | Op::Unmute
            | Op::CorruptHeap { .. }
            | Op::CrashOnExec { .. }
            | Op::BurnFuel { .. } => {}
            Op::Copy(r) => self.use_reg(b, i, *r, state, "a value", any),
            Op::BinI(_, x, y) | Op::CmpI(_, x, y) => {
                self.use_reg(b, i, *x, state, "int", int_ok);
                self.use_reg(b, i, *y, state, "int", int_ok);
            }
            Op::BinL(kind, x, y) => {
                self.use_reg(b, i, *x, state, "long", long_ok);
                // Long shifts take an int shift amount, as in bytecode.
                if matches!(kind, BinKind::Shl | BinKind::Shr | BinKind::Ushr) {
                    self.use_reg(b, i, *y, state, "int (shift amount)", int_ok);
                } else {
                    self.use_reg(b, i, *y, state, "long", long_ok);
                }
            }
            Op::CmpL(_, x, y) => {
                self.use_reg(b, i, *x, state, "long", long_ok);
                self.use_reg(b, i, *y, state, "long", long_ok);
            }
            Op::NegI(r) | Op::I2L(r) | Op::I2B(r) | Op::I2S(r) | Op::Bool2S(r) => {
                self.use_reg(b, i, *r, state, "int", int_ok);
            }
            Op::NegL(r) | Op::L2I(r) | Op::L2S(r) => {
                self.use_reg(b, i, *r, state, "long", long_ok);
            }
            Op::Concat(x, y) => {
                self.use_reg(b, i, *x, state, "string", str_ok);
                self.use_reg(b, i, *y, state, "string", str_ok);
            }
            Op::RefCmp { a, b: rb, .. } => {
                self.use_reg(b, i, *a, state, "a reference", ref_like_ok);
                self.use_reg(b, i, *rb, state, "a reference", ref_like_ok);
            }
            Op::PutStatic { class, field, val } => {
                let program = self.program;
                let declared = &program.class(*class).static_fields[*field as usize].ty;
                self.use_field_value(b, i, *val, state, declared);
            }
            Op::GetField { obj, .. } => self.use_reg(b, i, *obj, state, "an object", obj_ok),
            Op::PutField { obj, val, .. } => {
                self.use_reg(b, i, *obj, state, "an object", obj_ok);
                self.use_reg(b, i, *val, state, "a value", any);
            }
            Op::NewArray { len, .. } => self.use_reg(b, i, *len, state, "int", int_ok),
            Op::NewMultiArray { dims, .. } => {
                for d in dims {
                    self.use_reg(b, i, *d, state, "int", int_ok);
                }
            }
            Op::ArrLoad { arr, idx, .. } => {
                self.use_reg(b, i, *arr, state, "an array", obj_ok);
                self.use_reg(b, i, *idx, state, "int", int_ok);
            }
            Op::ArrStore { kind, arr, idx, val } => {
                self.use_reg(b, i, *arr, state, "an array", obj_ok);
                self.use_reg(b, i, *idx, state, "int", int_ok);
                let elem = *kind;
                let t = state[*val as usize];
                if t == VType::Unset {
                    self.report(b, Some(i), format!("use of undefined register r{val}"));
                } else if !elem_ok(elem, t) {
                    self.report(
                        b,
                        Some(i),
                        format!("r{val}: expected {elem:?} element, found {t:?}"),
                    );
                }
            }
            Op::ArrLen(r) => self.use_reg(b, i, *r, state, "an array", obj_ok),
            Op::Call { method, args } => {
                let m = self.program.method(*method);
                let receiver = usize::from(!m.is_static);
                for (k, arg) in args.iter().enumerate() {
                    if k < receiver {
                        self.use_reg(b, i, *arg, state, "a receiver", obj_ok);
                    } else if let Some(param) = m.params.get(k - receiver) {
                        self.use_field_value(b, i, *arg, state, param);
                    }
                }
            }
            Op::Println { kind, val } => match kind {
                PrintKind::Int | PrintKind::Bool => self.use_reg(b, i, *val, state, "int", int_ok),
                PrintKind::Long => self.use_reg(b, i, *val, state, "long", long_ok),
                PrintKind::Str => self.use_reg(b, i, *val, state, "string", str_ok),
            },
            Op::ThrowUser(r) => self.use_reg(b, i, *r, state, "int (exception code)", int_ok),
            Op::Rethrow(r) => self.use_reg(b, i, *r, state, "long (packed exception)", long_ok),
        }
    }

    fn use_field_value(&mut self, b: BlockId, i: usize, r: Reg, state: &[VType], declared: &Ty) {
        let t = state[r as usize];
        if t == VType::Unset {
            self.report(b, Some(i), format!("use of undefined register r{r}"));
        } else if !fits_declared(declared, t) {
            self.report(b, Some(i), format!("r{r}: expected {declared:?}, found {t:?}"));
        }
    }

    fn check_term(&mut self, b: BlockId, term: &Term, state: &[VType]) {
        let term_err = |s: &mut Self, detail: String| s.report(b, None, detail);
        match term {
            Term::Jump(_) | Term::Trap { .. } => {}
            Term::Branch { cond, .. } => {
                let t = state[*cond as usize];
                if t == VType::Unset {
                    term_err(self, format!("branch on undefined register r{cond}"));
                } else if !int_ok(t) {
                    term_err(self, format!("branch condition r{cond}: expected int, found {t:?}"));
                }
            }
            Term::Switch { scrut, .. } => {
                let t = state[*scrut as usize];
                if t == VType::Unset {
                    term_err(self, format!("switch on undefined register r{scrut}"));
                } else if !int_ok(t) {
                    term_err(self, format!("switch scrutinee r{scrut}: expected int, found {t:?}"));
                }
            }
            Term::Return(val) => {
                let program = self.program;
                let ret = &program.method(self.func.method).ret;
                match val {
                    None => {
                        if *ret != Ty::Void {
                            term_err(self, format!("return without value from {ret:?} method"));
                        }
                    }
                    Some(r) => {
                        if *ret == Ty::Void {
                            term_err(self, format!("void method returns r{r}"));
                        } else {
                            let t = state[*r as usize];
                            if t == VType::Unset {
                                term_err(self, format!("return of undefined register r{r}"));
                            } else if !fits_declared(ret, t) {
                                term_err(
                                    self,
                                    format!("return r{r}: expected {ret:?}, found {t:?}"),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- Phase 3: dominance-based def-before-use (cfg::Dominators) ----

    /// For every non-anchor register with exactly one static definition,
    /// the defining block must dominate every (reachable) cross-block use.
    /// Same-block ordering is already enforced precisely by the dataflow
    /// phase.
    ///
    /// Skipped when the function has exception handlers: the block-level
    /// handler edges in [`IrFunc::predecessors`] (which `Dominators`
    /// consumes) are a different approximation than the runtime's
    /// first-match, parent-frame-walking dispatch that the dataflow
    /// mirrors — a covered throw in an inlined frame unwinds to a
    /// *parent*-frame handler the block graph has no edge for, and
    /// overlapping handlers get edges for throws the first match would
    /// swallow. Either mismatch turns a definitely-assigned use into a
    /// spurious dominance failure, so exceptional functions rely on the
    /// dataflow alone (which subsumes this check).
    fn check_single_defs(&mut self, in_states: &States) {
        let func = self.func;
        if !func.handlers.is_empty() {
            return;
        }
        let mut def_count = vec![0u32; func.num_regs as usize];
        let mut def_site = vec![0 as BlockId; func.num_regs as usize];
        for (b, block) in func.blocks.iter().enumerate() {
            for inst in &block.insts {
                if let Some(dst) = inst.dst {
                    if !func.is_anchor(dst) {
                        def_count[dst as usize] += 1;
                        def_site[dst as usize] = b as BlockId;
                    }
                }
            }
        }
        let doms = Dominators::compute(func);
        for (b, block) in func.blocks.iter().enumerate() {
            let b = b as BlockId;
            if !in_states.reached[b as usize] {
                continue;
            }
            let uses = block
                .insts
                .iter()
                .enumerate()
                .flat_map(|(i, inst)| inst.op.sources().map(move |r| (Some(i), r)))
                .chain(block.term.sources().map(|r| (None, r)));
            for (i, r) in uses {
                if func.is_anchor(r) || def_count[r as usize] != 1 {
                    continue;
                }
                let db = def_site[r as usize];
                if db != b && !doms.dominates(db, b) {
                    self.report(
                        b,
                        i,
                        format!("single-assignment r{r} is defined in b{db}, which does not dominate this use"),
                    );
                }
            }
        }
    }
}

fn elem_ok(kind: ArrKind, t: VType) -> bool {
    match of_elem(kind) {
        VType::I => int_ok(t),
        VType::L => long_ok(t),
        VType::S => str_ok(t),
        _ => obj_ok(t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dataflow stores sets of types and folds them late, which
    /// reaches the eager-join fixpoint only because `join` is a
    /// semilattice join, and `FOLD` of a union must be the join of the
    /// parts.
    #[test]
    fn join_is_associative_commutative_and_idempotent() {
        for (i, a) in VTYPES.into_iter().enumerate() {
            assert_eq!(a as usize, i, "VTYPES must list VType in discriminant order");
            assert_eq!(join(a, a), a);
            assert_eq!(TypeSet::of(a).get(), a);
            for b in VTYPES {
                assert_eq!(join(a, b), join(b, a), "{a:?} {b:?}");
                for c in VTYPES {
                    assert_eq!(join(join(a, b), c), join(a, join(b, c)), "{a:?} {b:?} {c:?}");
                }
            }
        }
        for x in 1..FOLD.len() as u8 {
            for y in 1..FOLD.len() as u8 {
                assert_eq!(TypeSet(x | y).get(), join(TypeSet(x).get(), TypeSet(y).get()));
            }
        }
    }
}
