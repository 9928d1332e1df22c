//! The bytecode instruction set.

/// Comparison operators shared by `ICmp`/`LCmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on an [`std::cmp::Ordering`]-comparable pair.
    pub fn eval<T: PartialOrd + PartialEq>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with swapped operands (`a op b == b op.swap() a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the comparison.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Runtime array element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrKind {
    /// `int[]`
    I32,
    /// `long[]`
    I64,
    /// `byte[]`
    I8,
    /// `boolean[]`
    Bool,
    /// `String[]`
    Str,
    /// arrays of arrays or of objects
    Ref,
}

/// The value category a `Println` instruction formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrintKind {
    Int,
    Long,
    Bool,
    Str,
}

/// A bytecode instruction.
///
/// Jump targets are absolute instruction indices within the method. The
/// operand stack holds dynamically-tagged [`cse-vm` values]; the verifier
/// proves tag discipline statically so the interpreter's tag checks never
/// fire on verified code.
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    // Constants.
    IConst(i32),
    LConst(i64),
    SConst(crate::program::StrId),
    NullConst,

    // Locals.
    Load(u16),
    Store(u16),

    // Stack shuffling.
    Pop,
    Dup,
    /// Duplicates the top *two* slots as a pair: `.. a b -> .. a b a b`.
    Dup2,

    // Fields.
    GetStatic {
        class: crate::program::ClassId,
        field: u32,
    },
    PutStatic {
        class: crate::program::ClassId,
        field: u32,
    },
    GetField {
        field: u32,
    },
    PutField {
        field: u32,
    },

    // Allocation.
    NewObject(crate::program::ClassId),
    /// Pops a length, pushes a new array of `kind`.
    NewArray(ArrKind),
    /// Pops `dims` lengths (outermost first on the bottom), allocates a
    /// rectangular nested array whose innermost elements have `kind`.
    NewMultiArray {
        kind: ArrKind,
        dims: u8,
    },

    // Arrays.
    ArrLoad(ArrKind),
    ArrStore(ArrKind),
    ArrLen,

    // Int arithmetic (operands and result are `int`).
    IAdd,
    ISub,
    IMul,
    IDiv,
    IRem,
    INeg,
    IShl,
    IShr,
    IUshr,
    IAnd,
    IOr,
    IXor,

    // Long arithmetic.
    LAdd,
    LSub,
    LMul,
    LDiv,
    LRem,
    LNeg,
    /// Shift distance is an `int` on top of the stack.
    LShl,
    LShr,
    LUshr,
    LAnd,
    LOr,
    LXor,

    // Conversions.
    I2L,
    L2I,
    /// Truncate to 8 bits and sign-extend (Java's `(byte)` cast).
    I2B,
    I2S,
    L2S,
    Bool2S,

    // Comparisons (push an int 0/1).
    ICmp(CmpOp),
    LCmp(CmpOp),
    RefEq,
    RefNe,

    // Strings.
    /// Pops two strings, pushes their concatenation; a null operand prints
    /// as `"null"`, as in Java.
    SConcat,

    // Control flow.
    Jump(u32),
    JumpIfTrue(u32),
    JumpIfFalse(u32),
    /// Dense or sparse switch: pairs of (label, target), plus default.
    /// The cases sit behind a thin pointer so that `Insn` stays at 16
    /// bytes.
    TableSwitch {
        cases: Box<Vec<(i32, u32)>>,
        default: u32,
    },

    // Calls.
    InvokeStatic(crate::program::MethodId),
    /// Receiver below the arguments; null receiver raises NPE.
    InvokeInstance(crate::program::MethodId),
    Return,
    ReturnVal,

    // Exceptions.
    /// Pops an `int` user code and raises `ExcKind::User`.
    ThrowUser,
    /// Re-raises the exception stored in the given local slot by a handler
    /// with a `save_slot` (used for `finally` lowering).
    Rethrow(u16),

    // Output.
    Println(PrintKind),
    Mute,
    Unmute,
}

impl Insn {
    /// Whether this instruction unconditionally transfers control.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Jump(_)
                | Insn::TableSwitch { .. }
                | Insn::Return
                | Insn::ReturnVal
                | Insn::ThrowUser
                | Insn::Rethrow(_)
        )
    }

    /// Appends this instruction's branch targets (none for
    /// fall-through-only instructions) to `out`. Every caller walks a
    /// whole method's code, so it clears and reuses one buffer instead of
    /// allocating a `Vec` per instruction.
    pub fn collect_targets(&self, out: &mut Vec<u32>) {
        match self {
            Insn::Jump(t) | Insn::JumpIfTrue(t) | Insn::JumpIfFalse(t) => out.push(*t),
            Insn::TableSwitch { cases, default } => {
                out.extend(cases.iter().map(|(_, t)| *t));
                out.push(*default);
            }
            _ => {}
        }
    }

    /// Rewrites branch targets through `f` (used by the JIT inliner and the
    /// compiler's backpatching).
    pub fn map_targets(&mut self, f: impl Fn(u32) -> u32) {
        match self {
            Insn::Jump(t) | Insn::JumpIfTrue(t) | Insn::JumpIfFalse(t) => *t = f(*t),
            Insn::TableSwitch { cases, default } => {
                for (_, t) in cases.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(!CmpOp::Ge.eval(1, 2));
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
    }

    #[test]
    fn cmp_negate_is_involution() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.swap().swap(), op);
        }
    }

    #[test]
    fn terminators_and_targets() {
        assert!(Insn::Jump(3).is_terminator());
        assert!(!Insn::JumpIfTrue(3).is_terminator());
        let mut targets = vec![1];
        Insn::JumpIfFalse(7).collect_targets(&mut targets);
        assert_eq!(targets, vec![1, 7], "appends");
        let sw = Insn::TableSwitch { cases: Box::new(vec![(1, 10), (2, 20)]), default: 30 };
        targets.clear();
        sw.collect_targets(&mut targets);
        assert_eq!(targets, vec![10, 20, 30]);
        targets.clear();
        Insn::IAdd.collect_targets(&mut targets);
        assert!(targets.is_empty());
        let mut j = Insn::Jump(5);
        j.map_targets(|t| t + 100);
        assert_eq!(j, Insn::Jump(105));
    }
}
