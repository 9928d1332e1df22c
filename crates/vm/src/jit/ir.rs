//! The JIT's register-based intermediate representation.
//!
//! Design notes, because they carry correctness weight:
//!
//! * **Fixed anchor registers.** Every inline frame's locals occupy a fixed
//!   register range; register `local_base + i` always holds local `i` of
//!   that frame. This makes de-optimization trivial (the interpreter frame
//!   is rebuilt by copying the anchor range) and makes exception-handler
//!   entry sound (bytecode handlers start with an empty operand stack, so
//!   all live state is in locals). Optimization passes must not eliminate,
//!   reorder across throwing instructions, or relocate writes to anchor
//!   registers.
//! * **Fixed stack registers.** During IR construction, operand-stack slot
//!   `d` of a frame maps to register `stack_base + d`, so control-flow
//!   merges need no phis. The resulting IR is copy-heavy by construction —
//!   which is precisely what the copy-propagation and value-numbering
//!   passes exist to clean up, as in a real compiler.
//! * **Provenance.** Every instruction carries its originating inline
//!   frame and bytecode pc, which exception dispatch and uncommon traps
//!   use to find handlers and rebuild interpreter state.

/// The integer binops of [`Op::BinI`]/[`Op::BinL`], with their one
/// definition of Java's semantics ([`cse_bytecode::arith`]).
pub use cse_bytecode::BinKind;
use cse_bytecode::{ArrKind, ClassId, CmpOp, MethodId, PrintKind, StrId};

use crate::config::Tier;
use crate::events::DeoptReason;
use crate::faults::BugId;

/// A virtual register.
pub type Reg = u32;

/// A basic-block id.
pub type BlockId = u32;

/// An IR operation. `dst` lives on [`Inst`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    ConstI(i32),
    ConstL(i64),
    ConstS(StrId),
    ConstNull,
    Copy(Reg),
    BinI(BinKind, Reg, Reg),
    BinL(BinKind, Reg, Reg),
    NegI(Reg),
    NegL(Reg),
    I2L(Reg),
    L2I(Reg),
    I2B(Reg),
    I2S(Reg),
    L2S(Reg),
    Bool2S(Reg),
    Concat(Reg, Reg),
    CmpI(CmpOp, Reg, Reg),
    CmpL(CmpOp, Reg, Reg),
    /// `eq` selects `==` vs `!=`.
    RefCmp {
        eq: bool,
        a: Reg,
        b: Reg,
    },
    GetStatic {
        class: ClassId,
        field: u32,
    },
    PutStatic {
        class: ClassId,
        field: u32,
        val: Reg,
    },
    GetField {
        obj: Reg,
        field: u32,
    },
    PutField {
        obj: Reg,
        field: u32,
        val: Reg,
    },
    NewObject(ClassId),
    NewArray {
        kind: ArrKind,
        len: Reg,
    },
    NewMultiArray {
        kind: ArrKind,
        dims: Vec<Reg>,
    },
    ArrLoad {
        kind: ArrKind,
        arr: Reg,
        idx: Reg,
    },
    ArrStore {
        kind: ArrKind,
        arr: Reg,
        idx: Reg,
        val: Reg,
    },
    ArrLen(Reg),
    /// A non-inlined call back into the VM's dispatch.
    Call {
        method: MethodId,
        args: Vec<Reg>,
    },
    Println {
        kind: PrintKind,
        val: Reg,
    },
    Mute,
    Unmute,
    /// Raises a user exception with the code in the register.
    ThrowUser(Reg),
    /// Re-raises the packed exception stored in the register (finally).
    Rethrow(Reg),
    /// Fault-injection marker: executing this corrupts the heap (models a
    /// JIT bug writing past an object; detected by the next GC).
    CorruptHeap {
        bug: BugId,
    },
    /// Fault-injection marker: executing this crashes the process (models
    /// wild compiled code).
    CrashOnExec {
        bug: BugId,
    },
    /// Fault-injection marker: burns `factor` units of fuel (models
    /// pathologically slow compiled code — the performance-bug class).
    BurnFuel {
        factor: u32,
    },
}

impl Op {
    /// Whether executing this op can raise a MiniJava exception.
    pub fn can_throw(&self) -> bool {
        match self {
            Op::BinI(kind, ..) | Op::BinL(kind, ..) => kind.can_throw(),
            Op::GetField { .. }
            | Op::PutField { .. }
            | Op::NewArray { .. }
            | Op::NewMultiArray { .. }
            | Op::ArrLoad { .. }
            | Op::ArrStore { .. }
            | Op::ArrLen(_)
            | Op::Call { .. }
            | Op::ThrowUser(_)
            | Op::Rethrow(_)
            | Op::NewObject(_) => true,
            _ => false,
        }
    }

    /// Whether the op is pure: no side effects, no exceptions, and its
    /// result depends only on its operands (eligible for CSE/LICM).
    pub fn is_pure(&self) -> bool {
        match self {
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
            | Op::RefCmp { .. } => true,
            Op::BinI(kind, ..) | Op::BinL(kind, ..) => !kind.can_throw(),
            _ => false,
        }
    }

    /// Source registers read by this op.
    pub fn sources(&self) -> Vec<Reg> {
        match self {
            Op::ConstI(_)
            | Op::ConstL(_)
            | Op::ConstS(_)
            | Op::ConstNull
            | Op::Mute
            | Op::Unmute
            | Op::GetStatic { .. }
            | Op::NewObject(_)
            | Op::CorruptHeap { .. }
            | Op::CrashOnExec { .. }
            | Op::BurnFuel { .. } => vec![],
            Op::Copy(r)
            | Op::NegI(r)
            | Op::NegL(r)
            | Op::I2L(r)
            | Op::L2I(r)
            | Op::I2B(r)
            | Op::I2S(r)
            | Op::L2S(r)
            | Op::Bool2S(r)
            | Op::ArrLen(r)
            | Op::ThrowUser(r)
            | Op::Rethrow(r) => vec![*r],
            Op::BinI(_, a, b)
            | Op::BinL(_, a, b)
            | Op::Concat(a, b)
            | Op::CmpI(_, a, b)
            | Op::CmpL(_, a, b) => vec![*a, *b],
            Op::RefCmp { a, b, .. } => vec![*a, *b],
            Op::PutStatic { val, .. } => vec![*val],
            Op::GetField { obj, .. } => vec![*obj],
            Op::PutField { obj, val, .. } => vec![*obj, *val],
            Op::NewArray { len, .. } => vec![*len],
            Op::NewMultiArray { dims, .. } => dims.clone(),
            Op::ArrLoad { arr, idx, .. } => vec![*arr, *idx],
            Op::ArrStore { arr, idx, val, .. } => vec![*arr, *idx, *val],
            Op::Call { args, .. } => args.clone(),
            Op::Println { val, .. } => vec![*val],
        }
    }

    /// Rewrites source registers through `f`.
    pub fn map_sources(&mut self, f: impl Fn(Reg) -> Reg) {
        match self {
            Op::ConstI(_)
            | Op::ConstL(_)
            | Op::ConstS(_)
            | Op::ConstNull
            | Op::Mute
            | Op::Unmute
            | Op::GetStatic { .. }
            | Op::NewObject(_)
            | Op::CorruptHeap { .. }
            | Op::CrashOnExec { .. }
            | Op::BurnFuel { .. } => {}
            Op::Copy(r)
            | Op::NegI(r)
            | Op::NegL(r)
            | Op::I2L(r)
            | Op::L2I(r)
            | Op::I2B(r)
            | Op::I2S(r)
            | Op::L2S(r)
            | Op::Bool2S(r)
            | Op::ArrLen(r)
            | Op::ThrowUser(r)
            | Op::Rethrow(r) => *r = f(*r),
            Op::BinI(_, a, b)
            | Op::BinL(_, a, b)
            | Op::Concat(a, b)
            | Op::CmpI(_, a, b)
            | Op::CmpL(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::RefCmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::PutStatic { val, .. } => *val = f(*val),
            Op::GetField { obj, .. } => *obj = f(*obj),
            Op::PutField { obj, val, .. } => {
                *obj = f(*obj);
                *val = f(*val);
            }
            Op::NewArray { len, .. } => *len = f(*len),
            Op::NewMultiArray { dims, .. } => {
                for d in dims {
                    *d = f(*d);
                }
            }
            Op::ArrLoad { arr, idx, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
            }
            Op::ArrStore { arr, idx, val, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
                *val = f(*val);
            }
            Op::Call { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Op::Println { val, .. } => *val = f(*val),
        }
    }

    /// Whether the op writes memory or performs I/O (a barrier for code
    /// motion of memory reads).
    pub fn is_memory_write(&self) -> bool {
        matches!(
            self,
            Op::PutStatic { .. }
                | Op::PutField { .. }
                | Op::ArrStore { .. }
                | Op::Call { .. }
                | Op::Println { .. }
                | Op::Mute
                | Op::Unmute
                | Op::CorruptHeap { .. }
        )
    }
}

impl std::fmt::Display for Op {
    /// One-line disassembly, used by `CSE_DUMP_IR` dumps and by
    /// [`crate::jit::verify::IrVerifyError`] reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::ConstI(v) => write!(f, "const.i {v}"),
            Op::ConstL(v) => write!(f, "const.l {v}"),
            Op::ConstS(s) => write!(f, "const.s str{}", s.0),
            Op::ConstNull => write!(f, "const.null"),
            Op::Copy(r) => write!(f, "copy r{r}"),
            Op::BinI(kind, a, b) => write!(f, "{}.i r{a}, r{b}", bin_mnemonic(*kind)),
            Op::BinL(kind, a, b) => write!(f, "{}.l r{a}, r{b}", bin_mnemonic(*kind)),
            Op::NegI(r) => write!(f, "neg.i r{r}"),
            Op::NegL(r) => write!(f, "neg.l r{r}"),
            Op::I2L(r) => write!(f, "i2l r{r}"),
            Op::L2I(r) => write!(f, "l2i r{r}"),
            Op::I2B(r) => write!(f, "i2b r{r}"),
            Op::I2S(r) => write!(f, "i2s r{r}"),
            Op::L2S(r) => write!(f, "l2s r{r}"),
            Op::Bool2S(r) => write!(f, "bool2s r{r}"),
            Op::Concat(a, b) => write!(f, "concat r{a}, r{b}"),
            Op::CmpI(op, a, b) => write!(f, "cmp.i.{op:?} r{a}, r{b}"),
            Op::CmpL(op, a, b) => write!(f, "cmp.l.{op:?} r{a}, r{b}"),
            Op::RefCmp { eq, a, b } => {
                write!(f, "refcmp.{} r{a}, r{b}", if *eq { "eq" } else { "ne" })
            }
            Op::GetStatic { class, field } => write!(f, "getstatic c{}.{field}", class.0),
            Op::PutStatic { class, field, val } => {
                write!(f, "putstatic c{}.{field}, r{val}", class.0)
            }
            Op::GetField { obj, field } => write!(f, "getfield r{obj}.{field}"),
            Op::PutField { obj, field, val } => write!(f, "putfield r{obj}.{field}, r{val}"),
            Op::NewObject(class) => write!(f, "new c{}", class.0),
            Op::NewArray { kind, len } => write!(f, "newarray {kind:?}, r{len}"),
            Op::NewMultiArray { kind, dims } => {
                write!(f, "newmultiarray {kind:?}")?;
                for d in dims {
                    write!(f, ", r{d}")?;
                }
                Ok(())
            }
            Op::ArrLoad { kind, arr, idx } => write!(f, "arrload {kind:?}, r{arr}[r{idx}]"),
            Op::ArrStore { kind, arr, idx, val } => {
                write!(f, "arrstore {kind:?}, r{arr}[r{idx}], r{val}")
            }
            Op::ArrLen(r) => write!(f, "arrlen r{r}"),
            Op::Call { method, args } => {
                write!(f, "call m{}(", method.0)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "r{a}")?;
                }
                write!(f, ")")
            }
            Op::Println { kind, val } => write!(f, "println.{kind:?} r{val}"),
            Op::Mute => write!(f, "mute"),
            Op::Unmute => write!(f, "unmute"),
            Op::ThrowUser(r) => write!(f, "throw r{r}"),
            Op::Rethrow(r) => write!(f, "rethrow r{r}"),
            Op::CorruptHeap { bug } => write!(f, "corrupt-heap {bug:?}"),
            Op::CrashOnExec { bug } => write!(f, "crash-on-exec {bug:?}"),
            Op::BurnFuel { factor } => write!(f, "burn-fuel {factor}"),
        }
    }
}

fn bin_mnemonic(kind: BinKind) -> &'static str {
    match kind {
        BinKind::Add => "add",
        BinKind::Sub => "sub",
        BinKind::Mul => "mul",
        BinKind::Div => "div",
        BinKind::Rem => "rem",
        BinKind::Shl => "shl",
        BinKind::Shr => "shr",
        BinKind::Ushr => "ushr",
        BinKind::And => "and",
        BinKind::Or => "or",
        BinKind::Xor => "xor",
    }
}

/// An IR instruction with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// Destination register, when the op produces a value.
    pub dst: Option<Reg>,
    pub op: Op,
    /// The inline frame this instruction originates from (0 = outermost).
    pub frame: u16,
    /// The bytecode pc (within that frame's method) it lowers.
    pub bc_pc: u32,
}

impl std::fmt::Display for Inst {
    /// `r5 = add.i r1, r2  @f0:pc12` (destination omitted when absent).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(dst) = self.dst {
            write!(f, "r{dst} = ")?;
        }
        write!(f, "{}  @f{}:pc{}", self.op, self.frame, self.bc_pc)
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Jump(BlockId),
    Branch {
        cond: Reg,
        if_true: BlockId,
        if_false: BlockId,
    },
    Switch {
        scrut: Reg,
        cases: Vec<(i32, BlockId)>,
        default: BlockId,
    },
    /// Return from the compiled function (outermost frame only).
    Return(Option<Reg>),
    /// Uncommon trap: de-optimize and resume interpretation at `bc_pc`
    /// of the outermost method, rebuilding locals from anchor registers.
    Trap {
        bc_pc: u32,
        reason: DeoptReason,
    },
}

impl Term {
    /// Successor block ids (empty for `Return`/`Trap`).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jump(b) => vec![*b],
            Term::Branch { if_true, if_false, .. } => vec![*if_true, *if_false],
            Term::Switch { cases, default, .. } => {
                let mut out: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                out.push(*default);
                out
            }
            Term::Return(_) | Term::Trap { .. } => vec![],
        }
    }

    /// The successor slots, in [`Term::successors`] order.
    pub fn successors_mut(&mut self) -> Vec<&mut BlockId> {
        match self {
            Term::Jump(b) => vec![b],
            Term::Branch { if_true, if_false, .. } => vec![if_true, if_false],
            Term::Switch { cases, default, .. } => {
                cases.iter_mut().map(|(_, b)| b).chain([default]).collect()
            }
            Term::Return(_) | Term::Trap { .. } => vec![],
        }
    }

    /// Source registers read by the terminator.
    pub fn sources(&self) -> Vec<Reg> {
        match self {
            Term::Branch { cond, .. } => vec![*cond],
            Term::Switch { scrut, .. } => vec![*scrut],
            Term::Return(Some(r)) => vec![*r],
            _ => vec![],
        }
    }

    /// Rewrites source registers through `f`.
    pub fn map_sources(&mut self, f: impl Fn(Reg) -> Reg) {
        match self {
            Term::Branch { cond, .. } => *cond = f(*cond),
            Term::Switch { scrut, .. } => *scrut = f(*scrut),
            Term::Return(Some(r)) => *r = f(*r),
            _ => {}
        }
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Jump(b) => write!(f, "jump b{b}"),
            Term::Branch { cond, if_true, if_false } => {
                write!(f, "branch r{cond} ? b{if_true} : b{if_false}")
            }
            Term::Switch { scrut, cases, default } => {
                write!(f, "switch r{scrut} [")?;
                for (i, (v, b)) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} => b{b}")?;
                }
                write!(f, "] else b{default}")
            }
            Term::Return(Some(r)) => write!(f, "return r{r}"),
            Term::Return(None) => write!(f, "return"),
            Term::Trap { bc_pc, reason } => write!(f, "trap @pc{bc_pc} ({reason:?})"),
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub insts: Vec<Inst>,
    pub term: Term,
}

/// One inline frame of the compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineFrame {
    pub method: MethodId,
    /// First register of this frame's locals.
    pub local_base: Reg,
    pub num_locals: u32,
    /// Parent frame index and the call-site bytecode pc within the parent,
    /// for exception unwinding across inlined calls. `None` for frame 0.
    pub parent: Option<(u16, u32)>,
}

/// An exception-handler entry of the compiled function, in the bytecode
/// coordinates of one inline frame.
#[derive(Debug, Clone, PartialEq)]
pub struct IrHandler {
    pub frame: u16,
    pub start_bc: u32,
    pub end_bc: u32,
    pub target: BlockId,
    /// Anchor register to park the packed exception in, when the source
    /// handler had a save slot.
    pub save_reg: Option<Reg>,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    pub method: MethodId,
    pub tier: Tier,
    /// Entry is block 0.
    pub blocks: Vec<Block>,
    pub num_regs: u32,
    pub frames: Vec<InlineFrame>,
    pub handlers: Vec<IrHandler>,
    /// For OSR variants: the loop-header bytecode pc this function enters
    /// at. Entry still is block 0 (a prologue that jumps to the header).
    pub osr_entry: Option<u32>,
    /// Registers that are anchors (some frame's locals); passes must treat
    /// writes to these conservatively.
    pub anchor_limit_per_frame: Vec<(Reg, Reg)>,
}

impl IrFunc {
    /// Whether `reg` is an anchor register of any inline frame.
    pub fn is_anchor(&self, reg: Reg) -> bool {
        self.anchor_limit_per_frame.iter().any(|&(lo, hi)| reg >= lo && reg < hi)
    }

    /// Predecessor lists per block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, block) in self.blocks.iter().enumerate() {
            for succ in block.term.successors() {
                preds[succ as usize].push(id as BlockId);
            }
        }
        // Handler targets are reachable from every block whose instructions
        // may throw within the covered range; approximate with an edge from
        // each block containing a covered throwing instruction. Each
        // block's throwing `(frame, bc_pc)` sites are collected once.
        if self.handlers.is_empty() {
            return preds;
        }
        let sites = |b: &Block| {
            b.insts.iter().filter(|i| i.op.can_throw()).map(|i| (i.frame, i.bc_pc)).collect()
        };
        let throw_sites: Vec<Vec<(u16, u32)>> = self.blocks.iter().map(sites).collect();
        for handler in &self.handlers {
            for (id, sites) in throw_sites.iter().enumerate() {
                let throws_in_range = sites.iter().any(|&(frame, bc_pc)| {
                    frame == handler.frame && bc_pc >= handler.start_bc && bc_pc < handler.end_bc
                });
                if throws_in_range && !preds[handler.target as usize].contains(&(id as BlockId)) {
                    preds[handler.target as usize].push(id as BlockId);
                }
            }
        }
        preds
    }

    /// Full-function disassembly (used by the `CSE_DUMP_IR` debug path and
    /// verifier incident payloads).
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn m{} {} regs={} osr={:?}",
            self.method.0, self.tier, self.num_regs, self.osr_entry
        );
        for (i, frame) in self.frames.iter().enumerate() {
            let _ = writeln!(
                out,
                "  frame f{i}: m{} locals r{}..r{} parent={:?}",
                frame.method.0,
                frame.local_base,
                frame.local_base + frame.num_locals,
                frame.parent
            );
        }
        for h in &self.handlers {
            let _ = writeln!(
                out,
                "  handler f{} pc[{}, {}) -> b{} save={:?}",
                h.frame, h.start_bc, h.end_bc, h.target, h.save_reg
            );
        }
        for (id, block) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "b{id}:");
            for inst in &block.insts {
                let _ = writeln!(out, "    {inst}");
            }
            let _ = writeln!(out, "    {}", block.term);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::BinI(BinKind::Div, 0, 1).can_throw());
        assert!(!Op::BinI(BinKind::Add, 0, 1).can_throw());
        assert!(Op::BinI(BinKind::Add, 0, 1).is_pure());
        assert!(!Op::BinI(BinKind::Rem, 0, 1).is_pure());
        assert!(Op::PutField { obj: 0, field: 0, val: 1 }.is_memory_write());
        assert!(!Op::GetField { obj: 0, field: 0 }.is_memory_write());
        assert!(Op::GetField { obj: 0, field: 0 }.can_throw());
    }

    #[test]
    fn sources_and_mapping() {
        let mut op = Op::ArrStore { kind: ArrKind::I32, arr: 1, idx: 2, val: 3 };
        assert_eq!(op.sources(), vec![1, 2, 3]);
        op.map_sources(|r| r + 10);
        assert_eq!(op.sources(), vec![11, 12, 13]);
    }

    #[test]
    fn term_successors() {
        let t = Term::Switch { scrut: 0, cases: vec![(1, 4), (2, 5)], default: 6 };
        assert_eq!(t.successors(), vec![4, 5, 6]);
        assert!(Term::Return(None).successors().is_empty());
    }

    #[test]
    fn bin_kind_commutativity() {
        assert!(BinKind::Add.commutative());
        assert!(BinKind::Xor.commutative());
        assert!(!BinKind::Sub.commutative());
        assert!(!BinKind::Shl.commutative());
    }
}
