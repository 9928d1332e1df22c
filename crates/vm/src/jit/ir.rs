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
use std::fmt::Write;

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

    /// Source registers read by this op, in operand order, without
    /// allocating.
    pub fn sources(&self) -> Sources<'_> {
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
            | Op::BurnFuel { .. } => Sources::fixed([0; 3], 0),
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
            | Op::Rethrow(r)
            | Op::PutStatic { val: r, .. }
            | Op::GetField { obj: r, .. }
            | Op::NewArray { len: r, .. }
            | Op::Println { val: r, .. } => Sources::fixed([*r, 0, 0], 1),
            Op::BinI(_, a, b)
            | Op::BinL(_, a, b)
            | Op::Concat(a, b)
            | Op::CmpI(_, a, b)
            | Op::CmpL(_, a, b)
            | Op::RefCmp { a, b, .. }
            | Op::PutField { obj: a, val: b, .. }
            | Op::ArrLoad { arr: a, idx: b, .. } => Sources::fixed([*a, *b, 0], 2),
            Op::ArrStore { arr, idx, val, .. } => Sources::fixed([*arr, *idx, *val], 3),
            Op::NewMultiArray { dims: regs, .. } | Op::Call { args: regs, .. } => {
                Sources::slice(regs)
            }
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

/// The registers an [`Op`] or [`Term`] reads, in operand order: up to
/// three held inline, or a borrowed argument list (calls and
/// multi-dimensional allocations). Walking operands never allocates.
#[derive(Debug, Clone)]
pub struct Sources<'a> {
    inline: [Reg; 3],
    /// The next inline register, and how many there are.
    pos: u8,
    len: u8,
    list: std::slice::Iter<'a, Reg>,
}

impl<'a> Sources<'a> {
    fn fixed(inline: [Reg; 3], len: u8) -> Sources<'a> {
        Sources { inline, pos: 0, len, list: [].iter() }
    }

    fn slice(regs: &'a [Reg]) -> Sources<'a> {
        Sources { inline: [0; 3], pos: 0, len: 0, list: regs.iter() }
    }
}

impl Iterator for Sources<'_> {
    type Item = Reg;

    #[inline]
    fn next(&mut self) -> Option<Reg> {
        if self.pos < self.len {
            self.pos += 1;
            Some(self.inline[usize::from(self.pos - 1)])
        } else {
            self.list.next().copied()
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.len - self.pos) + self.list.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Sources<'_> {}

impl std::fmt::Display for Op {
    /// One-line disassembly, used by `CSE_DUMP_IR` dumps and by
    /// [`crate::jit::verify::IrVerifyError`] reports.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_op(f, self)
    }
}

/// `00` to `99`: the two-digit groups [`write_u64`] prints.
const DIGIT_PAIRS: &str = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Appends the decimal digits of `v`. The disassembly writers format
/// numbers here rather than through `write!`, which costs a formatting
/// pass per call; `IrFunc::pretty` prints thousands of them per dump,
/// nearly all below 10 000.
fn write_u64<W: Write>(out: &mut W, v: u64) -> std::fmt::Result {
    let pair = |n: u64| &DIGIT_PAIRS[2 * n as usize..2 * n as usize + 2];
    match v {
        0..=9 => out.write_str(&pair(v)[1..]),
        10..=99 => out.write_str(pair(v)),
        100..=9_999 => {
            let (hi, lo) = (v / 100, v % 100);
            out.write_str(if hi < 10 { &pair(hi)[1..] } else { pair(hi) })?;
            out.write_str(pair(lo))
        }
        _ => {
            write_u64(out, v / 10_000)?;
            let low = v % 10_000;
            out.write_str(pair(low / 100))?;
            out.write_str(pair(low % 100))
        }
    }
}

fn write_i64<W: Write>(out: &mut W, v: i64) -> std::fmt::Result {
    if v < 0 {
        out.write_char('-')?;
    }
    write_u64(out, v.unsigned_abs())
}

/// `prefix` then the register, as `rN`.
fn write_reg<W: Write>(out: &mut W, prefix: &str, r: Reg) -> std::fmt::Result {
    out.write_str(prefix)?;
    out.write_char('r')?;
    write_u64(out, u64::from(r))
}

/// `rA, rB`.
fn write_pair<W: Write>(out: &mut W, a: Reg, b: Reg) -> std::fmt::Result {
    write_reg(out, "", a)?;
    write_reg(out, ", ", b)
}

/// `prefix`, then `class.field` as numbers.
fn write_static<W: Write>(
    out: &mut W,
    prefix: &str,
    class: ClassId,
    field: u32,
) -> std::fmt::Result {
    out.write_str(prefix)?;
    write_u64(out, u64::from(class.0))?;
    out.write_char('.')?;
    write_u64(out, u64::from(field))
}

/// The one-line disassembly of an op (see its `Display`).
fn write_op<W: Write>(out: &mut W, op: &Op) -> std::fmt::Result {
    match op {
        Op::ConstI(v) => {
            out.write_str("const.i ")?;
            write_i64(out, i64::from(*v))
        }
        Op::ConstL(v) => {
            out.write_str("const.l ")?;
            write_i64(out, *v)
        }
        Op::ConstS(s) => {
            out.write_str("const.s str")?;
            write_u64(out, u64::from(s.0))
        }
        Op::ConstNull => out.write_str("const.null"),
        Op::Copy(r) => write_reg(out, "copy ", *r),
        Op::BinI(kind, a, b) => {
            out.write_str(bin_mnemonic(*kind))?;
            out.write_str(".i ")?;
            write_pair(out, *a, *b)
        }
        Op::BinL(kind, a, b) => {
            out.write_str(bin_mnemonic(*kind))?;
            out.write_str(".l ")?;
            write_pair(out, *a, *b)
        }
        Op::NegI(r) => write_reg(out, "neg.i ", *r),
        Op::NegL(r) => write_reg(out, "neg.l ", *r),
        Op::I2L(r) => write_reg(out, "i2l ", *r),
        Op::L2I(r) => write_reg(out, "l2i ", *r),
        Op::I2B(r) => write_reg(out, "i2b ", *r),
        Op::I2S(r) => write_reg(out, "i2s ", *r),
        Op::L2S(r) => write_reg(out, "l2s ", *r),
        Op::Bool2S(r) => write_reg(out, "bool2s ", *r),
        Op::Concat(a, b) => {
            out.write_str("concat ")?;
            write_pair(out, *a, *b)
        }
        Op::CmpI(op, a, b) => write!(out, "cmp.i.{op:?} r{a}, r{b}"),
        Op::CmpL(op, a, b) => write!(out, "cmp.l.{op:?} r{a}, r{b}"),
        Op::RefCmp { eq, a, b } => {
            out.write_str(if *eq { "refcmp.eq " } else { "refcmp.ne " })?;
            write_pair(out, *a, *b)
        }
        Op::GetStatic { class, field } => write_static(out, "getstatic c", *class, *field),
        Op::PutStatic { class, field, val } => {
            write_static(out, "putstatic c", *class, *field)?;
            write_reg(out, ", ", *val)
        }
        Op::GetField { obj, field } => {
            write_reg(out, "getfield ", *obj)?;
            out.write_char('.')?;
            write_u64(out, u64::from(*field))
        }
        Op::PutField { obj, field, val } => {
            write_reg(out, "putfield ", *obj)?;
            out.write_char('.')?;
            write_u64(out, u64::from(*field))?;
            write_reg(out, ", ", *val)
        }
        Op::NewObject(class) => {
            out.write_str("new c")?;
            write_u64(out, u64::from(class.0))
        }
        Op::NewArray { kind, len } => write!(out, "newarray {kind:?}, r{len}"),
        Op::NewMultiArray { kind, dims } => {
            write!(out, "newmultiarray {kind:?}")?;
            for d in dims {
                write_reg(out, ", ", *d)?;
            }
            Ok(())
        }
        Op::ArrLoad { kind, arr, idx } => write!(out, "arrload {kind:?}, r{arr}[r{idx}]"),
        Op::ArrStore { kind, arr, idx, val } => {
            write!(out, "arrstore {kind:?}, r{arr}[r{idx}], r{val}")
        }
        Op::ArrLen(r) => write_reg(out, "arrlen ", *r),
        Op::Call { method, args } => {
            out.write_str("call m")?;
            write_u64(out, u64::from(method.0))?;
            out.write_char('(')?;
            for (i, a) in args.iter().enumerate() {
                write_reg(out, if i > 0 { ", " } else { "" }, *a)?;
            }
            out.write_char(')')
        }
        Op::Println { kind, val } => write!(out, "println.{kind:?} r{val}"),
        Op::Mute => out.write_str("mute"),
        Op::Unmute => out.write_str("unmute"),
        Op::ThrowUser(r) => write_reg(out, "throw ", *r),
        Op::Rethrow(r) => write_reg(out, "rethrow ", *r),
        Op::CorruptHeap { bug } => write!(out, "corrupt-heap {bug:?}"),
        Op::CrashOnExec { bug } => write!(out, "crash-on-exec {bug:?}"),
        Op::BurnFuel { factor } => {
            out.write_str("burn-fuel ")?;
            write_u64(out, u64::from(*factor))
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
        write_inst(f, self)
    }
}

fn write_inst<W: Write>(out: &mut W, inst: &Inst) -> std::fmt::Result {
    if let Some(dst) = inst.dst {
        write_reg(out, "", dst)?;
        out.write_str(" = ")?;
    }
    write_op(out, &inst.op)?;
    out.write_str("  @f")?;
    write_u64(out, u64::from(inst.frame))?;
    out.write_str(":pc")?;
    write_u64(out, u64::from(inst.bc_pc))
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
    /// Successor block ids (none for `Return`/`Trap`): switch cases in
    /// order, then the default. Walking them never allocates.
    pub fn successors(&self) -> Successors<'_> {
        let (cases, rest, len): (&[(i32, BlockId)], _, _) = match self {
            Term::Jump(b) => (&[], [*b, 0], 1),
            Term::Branch { if_true, if_false, .. } => (&[], [*if_true, *if_false], 2),
            Term::Switch { cases, default, .. } => (cases, [*default, 0], 1),
            Term::Return(_) | Term::Trap { .. } => (&[], [0, 0], 0),
        };
        Successors { cases: cases.iter(), rest: rest.into_iter().take(len) }
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

    /// Source registers read by the terminator, without allocating.
    pub fn sources(&self) -> Sources<'static> {
        match self {
            Term::Branch { cond: r, .. }
            | Term::Switch { scrut: r, .. }
            | Term::Return(Some(r)) => Sources::fixed([*r, 0, 0], 1),
            _ => Sources::fixed([0; 3], 0),
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
        write_term(f, self)
    }
}

fn write_term<W: Write>(out: &mut W, term: &Term) -> std::fmt::Result {
    let block = |out: &mut W, prefix: &str, b: BlockId| {
        out.write_str(prefix)?;
        out.write_char('b')?;
        write_u64(out, u64::from(b))
    };
    match term {
        Term::Jump(b) => block(out, "jump ", *b),
        Term::Branch { cond, if_true, if_false } => {
            write_reg(out, "branch ", *cond)?;
            block(out, " ? ", *if_true)?;
            block(out, " : ", *if_false)
        }
        Term::Switch { scrut, cases, default } => {
            write_reg(out, "switch ", *scrut)?;
            out.write_str(" [")?;
            for (i, (v, b)) in cases.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                write_i64(out, i64::from(*v))?;
                block(out, " => ", *b)?;
            }
            block(out, "] else ", *default)
        }
        Term::Return(Some(r)) => write_reg(out, "return ", *r),
        Term::Return(None) => out.write_str("return"),
        Term::Trap { bc_pc, reason } => write!(out, "trap @pc{bc_pc} ({reason:?})"),
    }
}

/// The successors of a [`Term`]: a switch's case targets, then up to two
/// more held inline.
#[derive(Debug, Clone)]
pub struct Successors<'a> {
    cases: std::slice::Iter<'a, (i32, BlockId)>,
    rest: std::iter::Take<std::array::IntoIter<BlockId, 2>>,
}

impl Iterator for Successors<'_> {
    type Item = BlockId;

    #[inline]
    fn next(&mut self) -> Option<BlockId> {
        match self.cases.next() {
            Some(&(_, b)) => Some(b),
            None => self.rest.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cases.len() + self.rest.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Successors<'_> {}

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

/// Bytes reserved per line of [`IrFunc::pretty`]: an instruction line
/// (`    r12 = add.i r3, r4  @f0:pc17`) rarely runs longer.
const PRETTY_LINE_BYTES: usize = 40;

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
    /// verifier incident payloads), written straight into one buffer sized
    /// up front for the whole dump.
    pub fn pretty(&self) -> String {
        let lines = 1
            + self.frames.len()
            + self.handlers.len()
            + self.blocks.iter().map(|b| b.insts.len() + 2).sum::<usize>();
        let mut out = String::with_capacity(PRETTY_LINE_BYTES * lines);
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
            out.push('b');
            let _ = write_u64(&mut out, id as u64);
            out.push_str(":\n");
            for inst in &block.insts {
                out.push_str("    ");
                let _ = write_inst(&mut out, inst);
                out.push('\n');
            }
            out.push_str("    ");
            let _ = write_term(&mut out, &block.term);
            out.push('\n');
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
        assert_eq!(op.sources().collect::<Vec<_>>(), vec![1, 2, 3]);
        op.map_sources(|r| r + 10);
        assert_eq!(op.sources().collect::<Vec<_>>(), vec![11, 12, 13]);
    }

    /// The allocating operand lists `Op::sources` and `Term::sources`
    /// returned before the walk replaced them: the reference the walk must
    /// match register for register.
    fn reference_op_sources(op: &Op) -> Vec<Reg> {
        match op {
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

    fn reference_term_sources(term: &Term) -> Vec<Reg> {
        match term {
            Term::Branch { cond, .. } => vec![*cond],
            Term::Switch { scrut, .. } => vec![*scrut],
            Term::Return(Some(r)) => vec![*r],
            _ => vec![],
        }
    }

    /// The variant of `op`, by an exhaustive match: a new `Op` variant
    /// fails to compile here until it is numbered, and the test below
    /// fails until it has a sample.
    fn op_variant(op: &Op) -> usize {
        match op {
            Op::ConstI(_) => 0,
            Op::ConstL(_) => 1,
            Op::ConstS(_) => 2,
            Op::ConstNull => 3,
            Op::Copy(_) => 4,
            Op::BinI(..) => 5,
            Op::BinL(..) => 6,
            Op::NegI(_) => 7,
            Op::NegL(_) => 8,
            Op::I2L(_) => 9,
            Op::L2I(_) => 10,
            Op::I2B(_) => 11,
            Op::I2S(_) => 12,
            Op::L2S(_) => 13,
            Op::Bool2S(_) => 14,
            Op::Concat(..) => 15,
            Op::CmpI(..) => 16,
            Op::CmpL(..) => 17,
            Op::RefCmp { .. } => 18,
            Op::GetStatic { .. } => 19,
            Op::PutStatic { .. } => 20,
            Op::GetField { .. } => 21,
            Op::PutField { .. } => 22,
            Op::NewObject(_) => 23,
            Op::NewArray { .. } => 24,
            Op::NewMultiArray { .. } => 25,
            Op::ArrLoad { .. } => 26,
            Op::ArrStore { .. } => 27,
            Op::ArrLen(_) => 28,
            Op::Call { .. } => 29,
            Op::Println { .. } => 30,
            Op::Mute => 31,
            Op::Unmute => 32,
            Op::ThrowUser(_) => 33,
            Op::Rethrow(_) => 34,
            Op::CorruptHeap { .. } => 35,
            Op::CrashOnExec { .. } => 36,
            Op::BurnFuel { .. } => 37,
        }
    }

    #[test]
    fn source_walk_matches_the_reference_for_every_variant() {
        use cse_bytecode::{ClassId, CmpOp, MethodId, PrintKind, StrId};
        let bug = BugId::HsGvnArrayAlias;
        let ops = [
            Op::ConstI(7),
            Op::ConstL(-7),
            Op::ConstS(StrId(1)),
            Op::ConstNull,
            Op::Copy(4),
            Op::BinI(BinKind::Sub, 5, 6),
            Op::BinL(BinKind::Shl, 7, 8),
            Op::NegI(9),
            Op::NegL(10),
            Op::I2L(11),
            Op::L2I(12),
            Op::I2B(13),
            Op::I2S(14),
            Op::L2S(15),
            Op::Bool2S(16),
            Op::Concat(17, 18),
            Op::CmpI(CmpOp::Lt, 19, 20),
            Op::CmpL(CmpOp::Ge, 21, 22),
            Op::RefCmp { eq: false, a: 23, b: 24 },
            Op::GetStatic { class: ClassId(1), field: 2 },
            Op::PutStatic { class: ClassId(1), field: 2, val: 25 },
            Op::GetField { obj: 26, field: 3 },
            Op::PutField { obj: 27, field: 3, val: 28 },
            Op::NewObject(ClassId(2)),
            Op::NewArray { kind: ArrKind::I64, len: 29 },
            Op::NewMultiArray { kind: ArrKind::I32, dims: vec![30, 31, 32, 33, 34] },
            Op::NewMultiArray { kind: ArrKind::Ref, dims: vec![] },
            Op::ArrLoad { kind: ArrKind::I8, arr: 35, idx: 36 },
            Op::ArrStore { kind: ArrKind::Str, arr: 37, idx: 38, val: 39 },
            Op::ArrLen(40),
            Op::Call { method: MethodId(3), args: vec![41, 42, 43, 44] },
            Op::Call { method: MethodId(4), args: vec![] },
            Op::Println { kind: PrintKind::Long, val: 45 },
            Op::Mute,
            Op::Unmute,
            Op::ThrowUser(46),
            Op::Rethrow(47),
            Op::CorruptHeap { bug },
            Op::CrashOnExec { bug },
            Op::BurnFuel { factor: 3 },
        ];
        let mut seen = [false; 38];
        for op in &ops {
            seen[op_variant(op)] = true;
            let walk = op.sources();
            assert_eq!(walk.len(), reference_op_sources(op).len(), "{op}");
            assert_eq!(walk.collect::<Vec<_>>(), reference_op_sources(op), "{op}");
        }
        assert!(seen.iter().all(|&s| s), "an Op variant has no sample");
        let terms = [
            Term::Jump(1),
            Term::Branch { cond: 48, if_true: 1, if_false: 2 },
            Term::Switch { scrut: 49, cases: vec![(1, 2)], default: 3 },
            Term::Return(Some(50)),
            Term::Return(None),
            Term::Trap { bc_pc: 4, reason: DeoptReason::BranchSpeculation },
        ];
        for term in &terms {
            assert_eq!(term.sources().collect::<Vec<_>>(), reference_term_sources(term), "{term}");
        }
    }

    #[test]
    fn numbers_print_as_display_does() {
        let mut samples: Vec<u64> = (0..12_000).collect();
        samples.extend([99_999, 100_000, 1_234_567, u64::from(u32::MAX), u64::MAX]);
        for v in samples {
            let mut out = String::new();
            write_u64(&mut out, v).unwrap();
            assert_eq!(out, v.to_string());
        }
        for v in [i64::MIN, -1_000_001, -10, -1, 0, 7, i64::MAX] {
            let mut out = String::new();
            write_i64(&mut out, v).unwrap();
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn term_successors() {
        let t = Term::Switch { scrut: 0, cases: vec![(1, 4), (2, 5)], default: 6 };
        assert_eq!(t.successors().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(t.successors().len(), 3);
        let branch = Term::Branch { cond: 0, if_true: 7, if_false: 8 };
        assert_eq!(branch.successors().collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(Term::Jump(9).successors().collect::<Vec<_>>(), vec![9]);
        assert_eq!(Term::Return(None).successors().len(), 0);
    }

    #[test]
    fn bin_kind_commutativity() {
        assert!(BinKind::Add.commutative());
        assert!(BinKind::Xor.commutative());
        assert!(!BinKind::Sub.commutative());
        assert!(!BinKind::Shl.commutative());
    }
}
