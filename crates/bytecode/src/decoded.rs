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
//! re-layout, a peephole pass fuses compare-and-branch pairs into
//! [`DInsn::CmpBr`] superinstructions without disturbing the pc layout
//! (see `DecodedMethod::fuse`).

use std::rc::Rc;

use crate::insn::{ArrKind, CmpOp, Insn, PrintKind};
use crate::program::{BProgram, ClassId, MethodId, StrId};

/// A `Copy` mirror of [`Insn`]; see the module docs.
///
/// Only `TableSwitch` differs in layout: its cases are stored as a
/// `(start, len)` window into [`DecodedMethod::switch_pool`].
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

    /// Peephole superinstruction pass: rewrites each `ICmp`/`LCmp` whose
    /// successor is a conditional jump into [`DInsn::CmpBr`], saving one
    /// dispatch per compare-and-branch — the once-per-iteration pattern
    /// of every counted loop.
    ///
    /// Fusion is unconditionally sound because it never disturbs the 1:1
    /// pc layout: the successor slot keeps its original `JumpIfTrue`/
    /// `JumpIfFalse`, so control transfers into the middle of a fused
    /// pair execute the plain branch, and only straight-line execution
    /// (which by construction just ran the comparison) takes the fused
    /// fast path. Neither fused instruction can raise, so exception
    /// handler ranges are unaffected.
    fn fuse(&mut self) {
        for pc in 0..self.code.len().saturating_sub(1) {
            let (op, long_operands) = match self.code[pc] {
                DInsn::ICmp(op) => (op, false),
                DInsn::LCmp(op) => (op, true),
                _ => continue,
            };
            let (want, target) = match self.code[pc + 1] {
                DInsn::JumpIfTrue(target) => (true, target),
                DInsn::JumpIfFalse(target) => (false, target),
                _ => continue,
            };
            self.code[pc] = DInsn::CmpBr { op, long_operands, want, target };
        }
    }

    /// The case window of the `TableSwitch` described by `(start, len)`.
    pub fn switch_cases(&self, cases_start: u32, cases_len: u32) -> &[(i32, u32)] {
        &self.switch_pool[cases_start as usize..(cases_start + cases_len) as usize]
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

    #[test]
    fn loops_fuse_compare_and_branch() {
        let program = cse_lang::parse_and_check(
            "class T { static void main() { int s = 0; \
             for (int i = 0; i < 9; i++) { s = s + i; } println(s); } }",
        )
        .unwrap();
        let compiled = crate::compile(&program).unwrap();
        let decoded = DecodedProgram::decode(&compiled);
        let main = &decoded.methods[compiled.find_method("T", "main").unwrap().0 as usize];
        let fused: Vec<usize> = main
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, DInsn::CmpBr { .. }))
            .map(|(pc, _)| pc)
            .collect();
        assert!(!fused.is_empty(), "loop condition must fuse: {:?}", main.code);
        for pc in fused {
            // The successor slot keeps the plain branch so jumps into the
            // middle of the pair still work.
            assert!(
                matches!(main.code[pc + 1], DInsn::JumpIfTrue(_) | DInsn::JumpIfFalse(_)),
                "slot after a fused pair must keep the original branch"
            );
        }
    }

    #[test]
    fn decode_is_a_pure_relayout() {
        let program = cse_lang::parse_and_check(
            "class T { static void main() { int i = 0; int s = 0; \
             while (i < 5) { switch (i) { case 0: s = s + 1; break; \
             case 3: s = s + 10; break; default: s = s + 100; } i = i + 1; } \
             println(\"s=\" + s); } }",
        )
        .unwrap();
        let compiled = crate::compile(&program).unwrap();
        let decoded = DecodedProgram::decode(&compiled);
        assert_eq!(decoded.methods.len(), compiled.methods.len());
        assert_eq!(decoded.strings.len(), compiled.strings.len());
        for (bm, dm) in compiled.methods.iter().zip(&decoded.methods) {
            assert_eq!(bm.code.len(), dm.code.len(), "{}: pc mapping must be 1:1", bm.name);
            for (pc, (insn, dinsn)) in bm.code.iter().zip(&dm.code).enumerate() {
                match (insn, dinsn) {
                    (
                        Insn::TableSwitch { cases, default },
                        DInsn::TableSwitch { cases_start, cases_len, default: ddefault },
                    ) => {
                        assert_eq!(dm.switch_cases(*cases_start, *cases_len), cases.as_slice());
                        assert_eq!(ddefault, default);
                    }
                    (Insn::Jump(t), DInsn::Jump(dt)) => assert_eq!(t, dt),
                    (
                        Insn::ICmp(op) | Insn::LCmp(op),
                        DInsn::CmpBr { op: dop, long_operands, want, target },
                    ) => {
                        assert_eq!(op, dop);
                        assert_eq!(*long_operands, matches!(insn, Insn::LCmp(_)));
                        // A fused pair: the next slot must hold the matching
                        // unfused branch.
                        match (&bm.code[pc + 1], want) {
                            (Insn::JumpIfTrue(t), true) | (Insn::JumpIfFalse(t), false) => {
                                assert_eq!(t, target);
                            }
                            other => panic!("bad fusion at pc {pc}: {other:?}"),
                        }
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
    }
}
