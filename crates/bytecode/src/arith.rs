//! MiniJava's integer arithmetic: the one definition of Java's `int` and
//! `long` binary operators.
//!
//! The interpreter, the JIT's IR builder and IR executor, constant
//! folding and translation validation all evaluate binops through
//! [`BinKind::eval_i`] and [`BinKind::eval_l`], and map bytecode to
//! operators through [`Insn::binop`]. Every point of a program's
//! compilation space therefore computes with the same rules, which is
//! what the cross-compilation oracle assumes. The rules are Java's:
//! `+ - *` wrap; `/` and `%` truncate toward zero, wrap `MIN / -1` to
//! `MIN` (and `MIN % -1` to `0`), and raise `ArithmeticException` on a
//! zero divisor; a shift uses only the low five (`int`) or six (`long`)
//! bits of its amount.

use crate::decoded::DInsn;
use crate::insn::Insn;

/// Integer binary operators (operands already promoted).
///
/// The discriminant order is part of translation validation's value
/// graph (`aux` of a `bin.*` node); keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    /// Throws `ArithmeticException` on a zero divisor.
    Div,
    /// Throws `ArithmeticException` on a zero divisor.
    Rem,
    Shl,
    Shr,
    Ushr,
    And,
    Or,
    Xor,
}

impl BinKind {
    /// Whether the operator can raise an exception.
    pub fn can_throw(self) -> bool {
        matches!(self, BinKind::Div | BinKind::Rem)
    }

    /// Whether the operator is commutative (used by value numbering).
    pub fn commutative(self) -> bool {
        matches!(self, BinKind::Add | BinKind::Mul | BinKind::And | BinKind::Or | BinKind::Xor)
    }

    /// Whether the operator is a shift: its `long` form takes an `int`
    /// amount.
    pub fn is_shift(self) -> bool {
        matches!(self, BinKind::Shl | BinKind::Shr | BinKind::Ushr)
    }

    /// `a op b` on `int`s; `None` exactly when it raises
    /// `ArithmeticException` (a `Div` or `Rem` by zero).
    #[inline(always)]
    pub fn eval_i(self, a: i32, b: i32) -> Option<i32> {
        Some(match self {
            BinKind::Add => a.wrapping_add(b),
            BinKind::Sub => a.wrapping_sub(b),
            BinKind::Mul => a.wrapping_mul(b),
            BinKind::Div | BinKind::Rem if b == 0 => return None,
            BinKind::Div => a.wrapping_div(b),
            BinKind::Rem => a.wrapping_rem(b),
            BinKind::Shl => a.wrapping_shl(b as u32),
            BinKind::Shr => a.wrapping_shr(b as u32),
            BinKind::Ushr => (a as u32).wrapping_shr(b as u32) as i32,
            BinKind::And => a & b,
            BinKind::Or => a | b,
            BinKind::Xor => a ^ b,
        })
    }

    /// `a op b` on `long`s; a shift's `b` is its `int` amount,
    /// sign-extended. `None` exactly when it raises `ArithmeticException`
    /// (a `Div` or `Rem` by zero).
    #[inline(always)]
    pub fn eval_l(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinKind::Add => a.wrapping_add(b),
            BinKind::Sub => a.wrapping_sub(b),
            BinKind::Mul => a.wrapping_mul(b),
            BinKind::Div | BinKind::Rem if b == 0 => return None,
            BinKind::Div => a.wrapping_div(b),
            BinKind::Rem => a.wrapping_rem(b),
            BinKind::Shl => a.wrapping_shl(b as u32),
            BinKind::Shr => a.wrapping_shr(b as u32),
            BinKind::Ushr => (a as u64).wrapping_shr(b as u32) as i64,
            BinKind::And => a & b,
            BinKind::Or => a | b,
            BinKind::Xor => a ^ b,
        })
    }
}

/// The binop opcodes, mapped once for [`Insn`] and for its plain-opcode
/// mirror [`DInsn`]: `Some((kind, long))`, or `None` for any other
/// instruction.
macro_rules! binop_of {
    ($insn:expr, $Insn:ident) => {
        match $insn {
            $Insn::IAdd => Some((BinKind::Add, false)),
            $Insn::ISub => Some((BinKind::Sub, false)),
            $Insn::IMul => Some((BinKind::Mul, false)),
            $Insn::IDiv => Some((BinKind::Div, false)),
            $Insn::IRem => Some((BinKind::Rem, false)),
            $Insn::IShl => Some((BinKind::Shl, false)),
            $Insn::IShr => Some((BinKind::Shr, false)),
            $Insn::IUshr => Some((BinKind::Ushr, false)),
            $Insn::IAnd => Some((BinKind::And, false)),
            $Insn::IOr => Some((BinKind::Or, false)),
            $Insn::IXor => Some((BinKind::Xor, false)),
            $Insn::LAdd => Some((BinKind::Add, true)),
            $Insn::LSub => Some((BinKind::Sub, true)),
            $Insn::LMul => Some((BinKind::Mul, true)),
            $Insn::LDiv => Some((BinKind::Div, true)),
            $Insn::LRem => Some((BinKind::Rem, true)),
            $Insn::LShl => Some((BinKind::Shl, true)),
            $Insn::LShr => Some((BinKind::Shr, true)),
            $Insn::LUshr => Some((BinKind::Ushr, true)),
            $Insn::LAnd => Some((BinKind::And, true)),
            $Insn::LOr => Some((BinKind::Or, true)),
            $Insn::LXor => Some((BinKind::Xor, true)),
            _ => None,
        }
    };
}

impl Insn {
    /// The binop this instruction performs and whether it is the `long`
    /// form; `None` for every other instruction.
    pub fn binop(&self) -> Option<(BinKind, bool)> {
        binop_of!(self, Insn)
    }
}

impl DInsn {
    /// [`Insn::binop`] of the plain instruction this one mirrors
    /// (`None` for superinstructions).
    #[inline(always)]
    pub fn binop(self) -> Option<(BinKind, bool)> {
        binop_of!(self, DInsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [BinKind; 11] = [
        BinKind::Add,
        BinKind::Sub,
        BinKind::Mul,
        BinKind::Div,
        BinKind::Rem,
        BinKind::Shl,
        BinKind::Shr,
        BinKind::Ushr,
        BinKind::And,
        BinKind::Or,
        BinKind::Xor,
    ];

    #[test]
    fn java_int_edge_cases() {
        let i = |kind: BinKind, a, b| kind.eval_i(a, b);
        assert_eq!(i(BinKind::Div, i32::MIN, -1), Some(i32::MIN));
        assert_eq!(i(BinKind::Rem, i32::MIN, -1), Some(0));
        assert_eq!(i(BinKind::Div, -7, 2), Some(-3));
        assert_eq!(i(BinKind::Rem, -7, 2), Some(-1));
        assert_eq!(i(BinKind::Rem, 7, -2), Some(1));
        assert_eq!(i(BinKind::Ushr, -7, 33), Some(2_147_483_644));
        assert_eq!(i(BinKind::Shl, 1, 32), Some(1));
        assert_eq!(i(BinKind::Shl, 1, -1), Some(i32::MIN));
        assert_eq!(i(BinKind::Shr, -8, -30), Some(-2));
        assert_eq!(i(BinKind::Add, i32::MAX, 1), Some(i32::MIN));
        assert_eq!(i(BinKind::Mul, 65_536, 65_536), Some(0));
        let l = |kind: BinKind, a, b| kind.eval_l(a, b);
        assert_eq!(l(BinKind::Div, i64::MIN, -1), Some(i64::MIN));
        assert_eq!(l(BinKind::Rem, i64::MIN, -1), Some(0));
        assert_eq!(l(BinKind::Ushr, -1, 65), Some(i64::MAX));
        assert_eq!(l(BinKind::Shl, 1, 64), Some(1));
        assert_eq!(l(BinKind::Shl, 1, -1), Some(i64::MIN));
    }

    #[test]
    fn only_a_zero_divisor_raises() {
        for kind in ALL {
            for (a, b) in [(5, 0), (i32::MIN, 0), (0, 0), (5, 1), (i32::MIN, -1)] {
                let raises = kind.can_throw() && b == 0;
                assert_eq!(kind.eval_i(a, b).is_none(), raises, "{kind:?} {a} {b}");
                assert_eq!(kind.eval_l(a.into(), b.into()).is_none(), raises, "{kind:?} {a} {b}");
            }
        }
    }

    /// Each opcode, in both instruction forms, evaluates `-13 op 3` to
    /// Java's value.
    #[test]
    fn opcodes_map_to_their_java_operators() {
        let cases = [
            (Insn::IAdd, DInsn::IAdd, -10),
            (Insn::ISub, DInsn::ISub, -16),
            (Insn::IMul, DInsn::IMul, -39),
            (Insn::IDiv, DInsn::IDiv, -4),
            (Insn::IRem, DInsn::IRem, -1),
            (Insn::IShl, DInsn::IShl, -104),
            (Insn::IShr, DInsn::IShr, -2),
            (Insn::IUshr, DInsn::IUshr, 536_870_910),
            (Insn::IAnd, DInsn::IAnd, 3),
            (Insn::IOr, DInsn::IOr, -13),
            (Insn::IXor, DInsn::IXor, -16),
            (Insn::LAdd, DInsn::LAdd, -10),
            (Insn::LSub, DInsn::LSub, -16),
            (Insn::LMul, DInsn::LMul, -39),
            (Insn::LDiv, DInsn::LDiv, -4),
            (Insn::LRem, DInsn::LRem, -1),
            (Insn::LShl, DInsn::LShl, -104),
            (Insn::LShr, DInsn::LShr, -2),
            (Insn::LUshr, DInsn::LUshr, 2_305_843_009_213_693_950),
            (Insn::LAnd, DInsn::LAnd, 3),
            (Insn::LOr, DInsn::LOr, -13),
            (Insn::LXor, DInsn::LXor, -16),
        ];
        for (insn, dinsn, want) in cases {
            let (kind, long) = insn.binop().expect("a binop");
            assert_eq!(dinsn.binop(), Some((kind, long)), "{insn:?}");
            let got = if long { kind.eval_l(-13, 3) } else { kind.eval_i(-13, 3).map(i64::from) };
            assert_eq!(got, Some(want), "{insn:?}");
            assert_eq!(long, format!("{insn:?}").starts_with('L'), "{insn:?}");
        }
        assert_eq!(Insn::INeg.binop(), None);
        assert_eq!(DInsn::OpStore { op: BinKind::Add, dst: 0 }.binop(), None);
    }
}
