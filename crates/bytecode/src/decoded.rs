//! Pre-decoded, flat instruction form for the interpreter hot path.
//!
//! [`Insn`] is the canonical bytecode representation, but it is not `Copy`:
//! `TableSwitch` owns a `Vec` of cases, so a naive fetch loop must
//! `clone()` every instruction it dispatches — an allocation per switch
//! dispatch and a memcpy-plus-branch for everything else. [`DecodedProgram`]
//! is decoded once per [`BProgram`] (once per attach to the VM's artifact
//! cache, shared by every run of that program) into [`DInsn`], a
//! bit-for-bit mirror of [`Insn`] whose switch
//! cases live out-of-line in a per-method pool so every decoded
//! instruction is a small `Copy` word pair. String literals are interned
//! as `Rc<String>` at decode time so `SConst` (and the JIT's `ConstS`)
//! is a refcount bump instead of a fresh heap allocation per execution.
//!
//! Decoding is a pure re-layout: there is exactly one [`DInsn`] per
//! [`Insn`] at the same pc, so profiling indices, jump targets, handler
//! ranges, and OSR entry pcs all carry over unchanged. On top of the
//! re-layout, a peephole pass rewrites the first slot of each hot
//! straight-line shape into a superinstruction that executes the whole
//! shape in one dispatch (see `DecodedMethod::fuse`):
//!
//! | Superinstruction | Shape | Ops |
//! |---|---|---|
//! | [`DInsn::LoadConstOpStore`] | `Load a; IConst k; op; Store b` | 4 |
//! | [`DInsn::LoadConstCmpBr`] | `Load a; IConst k; ICmp; JumpIf*` | 4 |
//! | [`DInsn::LoadConstOp`] | `Load a; IConst k; op` | 3 |
//! | [`DInsn::LoadLoad`] | `Load a; Load b` | 2 |
//! | [`DInsn::ConstStore`] | `IConst k; Store b` | 2 |
//! | [`DInsn::OpStore`] | `op; Store b` | 2 |
//! | [`DInsn::CmpBr`] | `ICmp`/`LCmp; JumpIf*` | 2 |
//!
//! `op` is an int [`BinKind`] that cannot raise (any but `Div` and
//! `Rem`), evaluated by the shared [`crate::arith`] semantics. The
//! successor slots keep their original instructions, so the pc layout
//! stays 1:1 and a jump into the middle of a shape runs unfused code. The interpreter takes a
//! shape's remaining ops in one step only when all of them fit in the
//! fuel and before the next watchdog/chaos side check; otherwise it runs
//! just the shape's first instruction and continues at `pc + 1`, so fuel
//! exhaustion, the watchdog and chaos panics fire at exactly the op they
//! would unfused. A fused branch records its profile and back-edge at the
//! original branch's pc (the shape's last slot).

use std::rc::Rc;

use crate::arith::BinKind;
use crate::insn::{ArrKind, CmpOp, Insn, PrintKind};
use crate::program::{BProgram, ClassId, MethodId, StrId};

/// A `Copy` mirror of [`Insn`] plus superinstructions; see the module
/// docs.
///
/// `TableSwitch` differs in layout: its cases are stored as a
/// `(start, len)` window into [`DecodedMethod::switch_pool`]. The
/// superinstructions occupy the first slot of the shape they fuse; the
/// slots after it keep their plain instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DInsn {
    IConst(i32),
    LConst(i64),
    SConst(StrId),
    NullConst,
    Load(u16),
    Store(u16),
    Pop,
    Dup,
    Dup2,
    GetStatic {
        class: ClassId,
        field: u32,
    },
    PutStatic {
        class: ClassId,
        field: u32,
    },
    GetField {
        field: u32,
    },
    PutField {
        field: u32,
    },
    NewObject(ClassId),
    NewArray(ArrKind),
    NewMultiArray {
        kind: ArrKind,
        dims: u8,
    },
    ArrLoad(ArrKind),
    ArrStore(ArrKind),
    ArrLen,
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
    LAdd,
    LSub,
    LMul,
    LDiv,
    LRem,
    LNeg,
    LShl,
    LShr,
    LUshr,
    LAnd,
    LOr,
    LXor,
    I2L,
    L2I,
    I2B,
    I2S,
    L2S,
    Bool2S,
    ICmp(CmpOp),
    LCmp(CmpOp),
    /// Superinstruction: an `ICmp`/`LCmp` immediately followed by a
    /// conditional jump, fused into one dispatch (`long_operands` picks
    /// the comparison width). Branches to `target` when the comparison
    /// equals `want`, else falls through to `pc + 2`. The following slot
    /// still holds the original `JumpIfTrue`/`JumpIfFalse`, so jumps
    /// landing there behave exactly as unfused code; the branch's
    /// profile/back-edge pc is `pc + 1`.
    CmpBr {
        op: CmpOp,
        long_operands: bool,
        want: bool,
        target: u32,
    },
    /// Superinstruction `Load src; IConst k; op; Store dst`.
    LoadConstOpStore {
        src: u16,
        k: i32,
        op: BinKind,
        dst: u16,
    },
    /// Superinstruction `Load src; IConst k; op`.
    LoadConstOp {
        src: u16,
        k: i32,
        op: BinKind,
    },
    /// Superinstruction `Load src; IConst k; ICmp(op); JumpIf*`: branches
    /// to `target` when `local[src] op k` equals `want`, else falls
    /// through to `pc + 4`. The branch's profile/back-edge pc is `pc + 3`.
    LoadConstCmpBr {
        src: u16,
        k: i32,
        op: CmpOp,
        want: bool,
        target: u32,
    },
    /// Superinstruction `op; Store dst`.
    OpStore {
        op: BinKind,
        dst: u16,
    },
    /// Superinstruction `IConst k; Store dst`.
    ConstStore {
        k: i32,
        dst: u16,
    },
    /// Superinstruction `Load a; Load b`.
    LoadLoad {
        a: u16,
        b: u16,
    },
    RefEq,
    RefNe,
    SConcat,
    Jump(u32),
    JumpIfTrue(u32),
    JumpIfFalse(u32),
    /// `cases_start..cases_start + cases_len` indexes the owning method's
    /// [`DecodedMethod::switch_pool`].
    TableSwitch {
        cases_start: u32,
        cases_len: u32,
        default: u32,
    },
    InvokeStatic(MethodId),
    InvokeInstance(MethodId),
    Return,
    ReturnVal,
    ThrowUser,
    Rethrow(u16),
    Println(PrintKind),
    Mute,
    Unmute,
}

/// One method's code in decoded form.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedMethod {
    /// One [`DInsn`] per bytecode instruction, same pcs as `BMethod::code`.
    pub code: Vec<DInsn>,
    /// Flattened `TableSwitch` cases for this method, windowed by
    /// [`DInsn::TableSwitch`].
    pub switch_pool: Vec<(i32, u32)>,
}

impl DecodedMethod {
    /// Decodes one method's code; a pure re-layout plus the `fuse`
    /// peephole.
    fn decode(code: &[Insn]) -> DecodedMethod {
        let mut switch_pool: Vec<(i32, u32)> = Vec::new();
        let decoded = code
            .iter()
            .map(|insn| match *insn {
                Insn::IConst(v) => DInsn::IConst(v),
                Insn::LConst(v) => DInsn::LConst(v),
                Insn::SConst(s) => DInsn::SConst(s),
                Insn::NullConst => DInsn::NullConst,
                Insn::Load(slot) => DInsn::Load(slot),
                Insn::Store(slot) => DInsn::Store(slot),
                Insn::Pop => DInsn::Pop,
                Insn::Dup => DInsn::Dup,
                Insn::Dup2 => DInsn::Dup2,
                Insn::GetStatic { class, field } => DInsn::GetStatic { class, field },
                Insn::PutStatic { class, field } => DInsn::PutStatic { class, field },
                Insn::GetField { field } => DInsn::GetField { field },
                Insn::PutField { field } => DInsn::PutField { field },
                Insn::NewObject(class) => DInsn::NewObject(class),
                Insn::NewArray(kind) => DInsn::NewArray(kind),
                Insn::NewMultiArray { kind, dims } => DInsn::NewMultiArray { kind, dims },
                Insn::ArrLoad(kind) => DInsn::ArrLoad(kind),
                Insn::ArrStore(kind) => DInsn::ArrStore(kind),
                Insn::ArrLen => DInsn::ArrLen,
                Insn::IAdd => DInsn::IAdd,
                Insn::ISub => DInsn::ISub,
                Insn::IMul => DInsn::IMul,
                Insn::IDiv => DInsn::IDiv,
                Insn::IRem => DInsn::IRem,
                Insn::INeg => DInsn::INeg,
                Insn::IShl => DInsn::IShl,
                Insn::IShr => DInsn::IShr,
                Insn::IUshr => DInsn::IUshr,
                Insn::IAnd => DInsn::IAnd,
                Insn::IOr => DInsn::IOr,
                Insn::IXor => DInsn::IXor,
                Insn::LAdd => DInsn::LAdd,
                Insn::LSub => DInsn::LSub,
                Insn::LMul => DInsn::LMul,
                Insn::LDiv => DInsn::LDiv,
                Insn::LRem => DInsn::LRem,
                Insn::LNeg => DInsn::LNeg,
                Insn::LShl => DInsn::LShl,
                Insn::LShr => DInsn::LShr,
                Insn::LUshr => DInsn::LUshr,
                Insn::LAnd => DInsn::LAnd,
                Insn::LOr => DInsn::LOr,
                Insn::LXor => DInsn::LXor,
                Insn::I2L => DInsn::I2L,
                Insn::L2I => DInsn::L2I,
                Insn::I2B => DInsn::I2B,
                Insn::I2S => DInsn::I2S,
                Insn::L2S => DInsn::L2S,
                Insn::Bool2S => DInsn::Bool2S,
                Insn::ICmp(op) => DInsn::ICmp(op),
                Insn::LCmp(op) => DInsn::LCmp(op),
                Insn::RefEq => DInsn::RefEq,
                Insn::RefNe => DInsn::RefNe,
                Insn::SConcat => DInsn::SConcat,
                Insn::Jump(t) => DInsn::Jump(t),
                Insn::JumpIfTrue(t) => DInsn::JumpIfTrue(t),
                Insn::JumpIfFalse(t) => DInsn::JumpIfFalse(t),
                Insn::TableSwitch { ref cases, default } => {
                    let cases_start = switch_pool.len() as u32;
                    switch_pool.extend_from_slice(cases);
                    DInsn::TableSwitch { cases_start, cases_len: cases.len() as u32, default }
                }
                Insn::InvokeStatic(id) => DInsn::InvokeStatic(id),
                Insn::InvokeInstance(id) => DInsn::InvokeInstance(id),
                Insn::Return => DInsn::Return,
                Insn::ReturnVal => DInsn::ReturnVal,
                Insn::ThrowUser => DInsn::ThrowUser,
                Insn::Rethrow(slot) => DInsn::Rethrow(slot),
                Insn::Println(kind) => DInsn::Println(kind),
                Insn::Mute => DInsn::Mute,
                Insn::Unmute => DInsn::Unmute,
            })
            .collect();
        let mut method = DecodedMethod { code: decoded, switch_pool };
        method.fuse();
        method
    }

    /// Peephole superinstruction pass: rewrites the first slot of every
    /// shape in the module docs' table into its superinstruction, saving
    /// up to three dispatches per shape — the counted loops and
    /// `x = x op k` updates that dominate interpreted fuzzer programs.
    ///
    /// Fusion is sound because it never disturbs the 1:1 pc layout: only
    /// `code[pc]` is rewritten and the successors keep their original
    /// instructions, so control transfers into the middle of a shape
    /// execute plain code, and only straight-line execution from the
    /// shape's first slot takes the fused path. No fused instruction can
    /// raise or allocate, so exception handler ranges are unaffected.
    /// Each shape is matched against *unfused* successors: the pass runs
    /// in ascending pc order and rewrites only the slot it matches.
    fn fuse(&mut self) {
        for pc in 0..self.code.len() {
            if let Some(fused) = superinstruction(&self.code[pc..]) {
                self.code[pc] = fused;
            }
        }
    }

    /// The case window of the `TableSwitch` described by `(start, len)`.
    pub fn switch_cases(&self, cases_start: u32, cases_len: u32) -> &[(i32, u32)] {
        &self.switch_pool[cases_start as usize..(cases_start + cases_len) as usize]
    }
}

/// The superinstruction for the shape `code` starts with, longest shape
/// first; `None` when no shape matches.
fn superinstruction(code: &[DInsn]) -> Option<DInsn> {
    use DInsn::{ICmp, IConst, JumpIfFalse, JumpIfTrue, LCmp, Load, Store};
    let fused = match *code {
        [Load(src), IConst(k), op, Store(dst), ..] if fusable(op).is_some() => {
            DInsn::LoadConstOpStore { src, k, op: fusable(op)?, dst }
        }
        [Load(src), IConst(k), ICmp(op), JumpIfTrue(target) | JumpIfFalse(target), ..] => {
            DInsn::LoadConstCmpBr { src, k, op, want: matches!(code[3], JumpIfTrue(_)), target }
        }
        [Load(src), IConst(k), op, ..] if fusable(op).is_some() => {
            DInsn::LoadConstOp { src, k, op: fusable(op)? }
        }
        [Load(a), Load(b), ..] => DInsn::LoadLoad { a, b },
        [IConst(k), Store(dst), ..] => DInsn::ConstStore { k, dst },
        [op, Store(dst), ..] if fusable(op).is_some() => DInsn::OpStore { op: fusable(op)?, dst },
        [ICmp(op) | LCmp(op), JumpIfTrue(target) | JumpIfFalse(target), ..] => DInsn::CmpBr {
            op,
            long_operands: matches!(code[0], LCmp(_)),
            want: matches!(code[1], JumpIfTrue(_)),
            target,
        },
        _ => return None,
    };
    Some(fused)
}

/// The `op` of the fused int shapes: an int binop that cannot raise.
fn fusable(insn: DInsn) -> Option<BinKind> {
    match insn.binop()? {
        (kind, false) if !kind.can_throw() => Some(kind),
        _ => None,
    }
}

/// A whole program in decoded form, plus its interned string pool.
///
/// Not `Send`: the interned strings are `Rc`, matching the deliberately
/// single-threaded JIT artifact cache that hands it to every run of its
/// program.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    /// Per-method decoded code, indexed by [`MethodId`].
    pub methods: Vec<DecodedMethod>,
    /// String literal pool, interned once; indexed by [`StrId`].
    pub strings: Vec<Rc<String>>,
}

impl DecodedProgram {
    /// Decodes every method of `program`; a pure re-layout, see module docs.
    pub fn decode(program: &BProgram) -> DecodedProgram {
        DecodedProgram {
            methods: program.methods.iter().map(|m| DecodedMethod::decode(&m.code)).collect(),
            strings: program.strings.iter().map(|s| Rc::new(s.clone())).collect(),
        }
    }

    /// Looks up a method's decoded code.
    pub fn method(&self, id: MethodId) -> &DecodedMethod {
        &self.methods[id.0 as usize]
    }

    /// The interned literal for `id`.
    pub fn string(&self, id: StrId) -> &Rc<String> {
        &self.strings[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dinsn_is_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<DInsn>();
        assert!(std::mem::size_of::<DInsn>() <= 16, "DInsn grew past 16 bytes");
    }

    /// Every method's `code` holds its `Insn`s inline, so their size is
    /// most of a compiled program's footprint. `TableSwitch` keeps its
    /// cases behind a thin pointer (`Box<Vec<_>>`), so the largest inline
    /// payload, `LConst`'s `i64`, sets the size.
    #[test]
    fn insn_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<crate::Insn>() <= 16, "Insn grew past 16 bytes");
    }

    /// Decodes `src` and returns the compiled and decoded `T.main`.
    fn decode_main(src: &str) -> (Vec<Insn>, DecodedMethod) {
        let program = cse_lang::parse_and_check(src).unwrap();
        let compiled = crate::compile(&program).unwrap();
        let main = compiled.find_method("T", "main").unwrap().0 as usize;
        let decoded = DecodedProgram::decode(&compiled);
        (compiled.methods[main].code.clone(), decoded.methods[main].clone())
    }

    #[test]
    fn loops_fuse_compare_and_branch() {
        let (code, main) = decode_main(
            "class T { static void main() { int s = 0; int n = 9; \
             for (int i = 0; i < n; i = i + 1) { s = s + i; } \
             int j = 0; while (j < 9) { j = j + 1; } println(s + j); } }",
        );
        let fused = |shape: fn(&DInsn) -> bool| -> Vec<usize> {
            main.code.iter().enumerate().filter(|(_, i)| shape(i)).map(|(pc, _)| pc).collect()
        };
        let cmp_br = fused(|i| matches!(i, DInsn::CmpBr { .. }));
        assert!(!cmp_br.is_empty(), "`i < n` must fuse: {:?}", main.code);
        for pc in cmp_br {
            // The successor slot keeps the plain branch so jumps into the
            // middle of the pair still work.
            assert!(
                matches!(main.code[pc + 1], DInsn::JumpIfTrue(_) | DInsn::JumpIfFalse(_)),
                "slot after a fused pair must keep the original branch"
            );
        }
        let const_cmp_br = fused(|i| matches!(i, DInsn::LoadConstCmpBr { .. }));
        assert_eq!(const_cmp_br.len(), 1, "`j < 9` must fuse: {:?}", main.code);
        assert!(matches!(code[const_cmp_br[0] + 3], Insn::JumpIfTrue(_) | Insn::JumpIfFalse(_)));
        let increments = fused(
            |i| matches!(i, DInsn::LoadConstOpStore { op: BinKind::Add, k: 1, src, dst } if src == dst),
        );
        assert_eq!(increments.len(), 2, "`i = i + 1` and `j = j + 1` must fuse: {:?}", main.code);
    }

    /// The unfused instructions a superinstruction stands for; `None` for
    /// a plain instruction.
    fn shape_of(dinsn: DInsn) -> Option<Vec<Insn>> {
        fn int_insn(op: BinKind) -> Insn {
            match op {
                BinKind::Add => Insn::IAdd,
                BinKind::Sub => Insn::ISub,
                BinKind::Mul => Insn::IMul,
                BinKind::Div => Insn::IDiv,
                BinKind::Rem => Insn::IRem,
                BinKind::Shl => Insn::IShl,
                BinKind::Shr => Insn::IShr,
                BinKind::Ushr => Insn::IUshr,
                BinKind::And => Insn::IAnd,
                BinKind::Or => Insn::IOr,
                BinKind::Xor => Insn::IXor,
            }
        }
        let branch = |want: bool, target| {
            if want {
                Insn::JumpIfTrue(target)
            } else {
                Insn::JumpIfFalse(target)
            }
        };
        Some(match dinsn {
            DInsn::CmpBr { op, long_operands, want, target } => vec![
                if long_operands { Insn::LCmp(op) } else { Insn::ICmp(op) },
                branch(want, target),
            ],
            DInsn::LoadConstOpStore { src, k, op, dst } => {
                vec![Insn::Load(src), Insn::IConst(k), int_insn(op), Insn::Store(dst)]
            }
            DInsn::LoadConstOp { src, k, op } => {
                vec![Insn::Load(src), Insn::IConst(k), int_insn(op)]
            }
            DInsn::LoadConstCmpBr { src, k, op, want, target } => {
                vec![Insn::Load(src), Insn::IConst(k), Insn::ICmp(op), branch(want, target)]
            }
            DInsn::OpStore { op, dst } => vec![int_insn(op), Insn::Store(dst)],
            DInsn::ConstStore { k, dst } => vec![Insn::IConst(k), Insn::Store(dst)],
            DInsn::LoadLoad { a, b } => vec![Insn::Load(a), Insn::Load(b)],
            _ => return None,
        })
    }

    #[test]
    fn decode_is_a_pure_relayout() {
        let program = cse_lang::parse_and_check(
            "class T { static void main() { int i = 0; int s = 0; int n = 5; long l = 0L; \
             while (i < n) { switch (i) { case 0: s = s + 1; break; \
             case 3: s = s + 10; break; default: s = s + 100; } i = i + 1; \
             int t = (s + i) * 2; s = t ^ (i << 1); if (l < 3L) { l = l + 1L; } } \
             while (i > 0) { i = i - 1; } println(\"s=\" + s); } }",
        )
        .unwrap();
        let compiled = crate::compile(&program).unwrap();
        let decoded = DecodedProgram::decode(&compiled);
        assert_eq!(decoded.methods.len(), compiled.methods.len());
        assert_eq!(decoded.strings.len(), compiled.strings.len());
        let mut seen = Vec::new();
        for (bm, dm) in compiled.methods.iter().zip(&decoded.methods) {
            assert_eq!(bm.code.len(), dm.code.len(), "{}: pc mapping must be 1:1", bm.name);
            for (pc, (insn, dinsn)) in bm.code.iter().zip(&dm.code).enumerate() {
                if let Some(shape) = shape_of(*dinsn) {
                    // A superinstruction: the bytecode at `pc..pc + n` must
                    // be exactly the shape it fuses...
                    assert_eq!(
                        bm.code.get(pc..pc + shape.len()),
                        Some(shape.as_slice()),
                        "bad fusion at pc {pc}: {dinsn:?}"
                    );
                    // ...and every successor slot must still begin with
                    // its own bytecode instruction (plain, or the head of
                    // a shape of its own), so a jump into the middle of
                    // the shape runs unfused code.
                    for (succ, plain) in shape.iter().enumerate().skip(1) {
                        let slot = dm.code[pc + succ];
                        let head =
                            shape_of(slot).map_or(format!("{slot:?}"), |s| format!("{:?}", s[0]));
                        assert_eq!(
                            head,
                            format!("{plain:?}"),
                            "successor {succ} of pc {pc} was rewritten"
                        );
                    }
                    seen.push(std::mem::discriminant(dinsn));
                    continue;
                }
                match (insn, dinsn) {
                    (
                        Insn::TableSwitch { cases, default },
                        DInsn::TableSwitch { cases_start, cases_len, default: ddefault },
                    ) => {
                        assert_eq!(dm.switch_cases(*cases_start, *cases_len), &cases[..]);
                        assert_eq!(ddefault, default);
                    }
                    (Insn::SConst(s), DInsn::SConst(ds)) => {
                        assert_eq!(s, ds);
                        assert_eq!(
                            decoded.string(*ds).as_str(),
                            compiled.strings[s.0 as usize].as_str()
                        );
                    }
                    // Every other variant carries the same payload in both
                    // forms, so the Debug renderings must match exactly.
                    _ => assert_eq!(format!("{insn:?}"), format!("{dinsn:?}"), "pc {pc}"),
                }
            }
        }
        // The program exercises every superinstruction.
        let all = [
            DInsn::CmpBr { op: CmpOp::Eq, long_operands: false, want: false, target: 0 },
            DInsn::LoadConstOpStore { src: 0, k: 0, op: BinKind::Add, dst: 0 },
            DInsn::LoadConstOp { src: 0, k: 0, op: BinKind::Add },
            DInsn::LoadConstCmpBr { src: 0, k: 0, op: CmpOp::Eq, want: false, target: 0 },
            DInsn::OpStore { op: BinKind::Add, dst: 0 },
            DInsn::ConstStore { k: 0, dst: 0 },
            DInsn::LoadLoad { a: 0, b: 0 },
        ];
        for fused in all {
            assert!(seen.contains(&std::mem::discriminant(&fused)), "{fused:?} never fused");
        }
    }
}
