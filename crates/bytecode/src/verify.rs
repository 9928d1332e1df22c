//! Bytecode verification by abstract interpretation.
//!
//! The verifier proves the stack discipline the interpreter and the JIT's
//! IR builder rely on: every pc has a consistent stack shape regardless of
//! the path that reaches it, slots are in range, branch targets are valid,
//! exception handlers are entered with an empty stack, and control never
//! falls off the end of the code.

use cse_lang::Ty;

use crate::insn::{ArrKind, Insn, PrintKind};
use crate::program::{BMethod, BProgram};

/// Verification error with method context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub method: String,
    pub pc: u32,
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @{}: {}", self.method, self.pc, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Abstract value categories tracked on the verification stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AType {
    /// int / byte / boolean.
    I,
    /// long.
    L,
    /// string (possibly null).
    S,
    /// object or array reference (possibly null).
    R,
    /// the `null` constant — joins with S and R.
    Null,
    /// statically unknown (field loads); merges with anything.
    Any,
}

impl AType {
    fn merge(self, other: AType) -> Option<AType> {
        use AType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, S) | (S, Null) => Some(S),
            (Null, R) | (R, Null) => Some(R),
            (Any, _) | (_, Any) => Some(Any),
            _ => None,
        }
    }

    fn of_ty(ty: &Ty) -> AType {
        match ty {
            Ty::Int | Ty::Byte | Ty::Bool => AType::I,
            Ty::Long => AType::L,
            Ty::Str => AType::S,
            _ => AType::R,
        }
    }

    fn of_elem(kind: ArrKind) -> AType {
        match kind {
            ArrKind::I32 | ArrKind::I8 | ArrKind::Bool => AType::I,
            ArrKind::I64 => AType::L,
            ArrKind::Str => AType::S,
            ArrKind::Ref => AType::R,
        }
    }

    fn is_ref_like(self) -> bool {
        matches!(self, AType::R | AType::S | AType::Null | AType::Any)
    }
}

/// Verifies every method of the program.
pub fn verify_program(program: &BProgram) -> Result<(), VerifyError> {
    for (idx, method) in program.methods.iter().enumerate() {
        verify_method(program, method).map_err(|mut e| {
            e.method = program.qualified_name(crate::program::MethodId(idx as u32));
            e
        })?;
    }
    Ok(())
}

/// Verifies a single method.
pub fn verify_method(program: &BProgram, method: &BMethod) -> Result<(), VerifyError> {
    Verifier { program, method }.run()
}

struct Verifier<'a> {
    program: &'a BProgram,
    method: &'a BMethod,
}

impl Verifier<'_> {
    fn err(&self, pc: u32, message: impl Into<String>) -> VerifyError {
        VerifyError { method: String::new(), pc, message: message.into() }
    }

    fn run(&self) -> Result<(), VerifyError> {
        let code = &self.method.code;
        if code.is_empty() {
            return Err(self.err(0, "empty code"));
        }
        if !code.last().map(Insn::is_terminator).unwrap_or(false)
            && !matches!(code.last(), Some(Insn::Return | Insn::ReturnVal))
        {
            return Err(self.err(code.len() as u32 - 1, "code may fall off the end"));
        }
        // The entry stack shape of each reached pc is `arena[offset..][..height]`
        // (`UNREACHED` until a path reaches it). A pc's height never
        // changes once set (a different one is an error), so its slice is
        // allocated once and every later join merges into it in place.
        const UNREACHED: u32 = u32::MAX;
        let mut states: Vec<(u32, u32)> = vec![(UNREACHED, 0); code.len()];
        let mut arena: Vec<AType> = Vec::new();
        let mut worklist: Vec<u32> = vec![0];
        states[0] = (0, 0);
        // Exception handler entries start with an empty stack.
        for handler in &self.method.handlers {
            if handler.target as usize >= code.len()
                || handler.start as usize >= code.len()
                || handler.end as usize > code.len()
                || handler.start >= handler.end
            {
                return Err(self.err(handler.target, "handler range out of bounds"));
            }
            if let Some(slot) = handler.save_slot {
                if slot >= self.method.num_locals {
                    return Err(self.err(handler.target, "handler save slot out of range"));
                }
            }
            if states[handler.target as usize].0 == UNREACHED {
                states[handler.target as usize] = (0, 0);
                worklist.push(handler.target);
            }
        }
        // Scratch buffers reused across the whole fixpoint loop: the
        // verifier runs over every compiled mutant, so its inner loop
        // stays allocation-free.
        let mut stack: Vec<AType> = Vec::new();
        let mut succs: Vec<u32> = Vec::new();
        while let Some(pc) = worklist.pop() {
            let (offset, height) = states[pc as usize];
            debug_assert_ne!(offset, UNREACHED, "worklist entries have state");
            stack.clear();
            stack.extend_from_slice(&arena[offset as usize..][..height as usize]);
            let insn = &code[pc as usize];
            self.step(pc, insn, &mut stack)?;
            // Propagate to successors.
            succs.clear();
            insn.collect_targets(&mut succs);
            let falls_through = !insn.is_terminator();
            if falls_through {
                succs.push(pc + 1);
            }
            for &succ in &succs {
                if succ as usize >= code.len() {
                    return Err(self.err(pc, format!("branch target {succ} out of range")));
                }
                let (offset, height) = states[succ as usize];
                if offset == UNREACHED {
                    states[succ as usize] = (arena.len() as u32, stack.len() as u32);
                    arena.extend_from_slice(&stack);
                    worklist.push(succ);
                    continue;
                }
                if height as usize != stack.len() {
                    return Err(self.err(
                        pc,
                        format!("stack height mismatch at {succ}: {height} vs {}", stack.len()),
                    ));
                }
                let mut changed = false;
                for (a, b) in arena[offset as usize..][..height as usize].iter_mut().zip(&stack) {
                    let m = a.merge(*b).ok_or_else(|| {
                        self.err(pc, format!("stack type mismatch at {succ}: {a:?} vs {b:?}"))
                    })?;
                    if m != *a {
                        *a = m;
                        changed = true;
                    }
                }
                if changed {
                    worklist.push(succ);
                }
            }
        }
        Ok(())
    }

    fn pop(&self, pc: u32, stack: &mut Vec<AType>) -> Result<AType, VerifyError> {
        stack.pop().ok_or_else(|| self.err(pc, "stack underflow"))
    }

    fn pop_expect(&self, pc: u32, stack: &mut Vec<AType>, want: AType) -> Result<(), VerifyError> {
        let got = self.pop(pc, stack)?;
        if got != AType::Any && got.merge(want).is_none() {
            return Err(self.err(pc, format!("expected {want:?}, found {got:?}")));
        }
        Ok(())
    }

    fn pop_ref(&self, pc: u32, stack: &mut Vec<AType>) -> Result<(), VerifyError> {
        let got = self.pop(pc, stack)?;
        if !got.is_ref_like() {
            return Err(self.err(pc, format!("expected reference, found {got:?}")));
        }
        Ok(())
    }

    fn check_slot(&self, pc: u32, slot: u16) -> Result<(), VerifyError> {
        if slot >= self.method.num_locals {
            return Err(self.err(pc, format!("local slot {slot} out of range")));
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn step(&self, pc: u32, insn: &Insn, stack: &mut Vec<AType>) -> Result<(), VerifyError> {
        use AType::*;
        match insn {
            Insn::IConst(_) => stack.push(I),
            Insn::LConst(_) => stack.push(L),
            Insn::SConst(id) => {
                if id.0 as usize >= self.program.strings.len() {
                    return Err(self.err(pc, "string id out of range"));
                }
                stack.push(S);
            }
            Insn::NullConst => stack.push(Null),
            Insn::Load(slot) => {
                self.check_slot(pc, *slot)?;
                // Slot types are dynamic; treat as unknown by deriving from
                // the declared local type when available.
                let ty = self
                    .method
                    .local_types
                    .get(*slot as usize)
                    .and_then(|t| t.as_ref())
                    .map(AType::of_ty)
                    .unwrap_or(AType::Any);
                stack.push(ty);
            }
            Insn::Store(slot) => {
                self.check_slot(pc, *slot)?;
                self.pop(pc, stack)?;
            }
            Insn::Pop => {
                self.pop(pc, stack)?;
            }
            Insn::Dup => {
                let top = *stack.last().ok_or_else(|| self.err(pc, "stack underflow"))?;
                stack.push(top);
            }
            Insn::Dup2 => {
                if stack.len() < 2 {
                    return Err(self.err(pc, "stack underflow"));
                }
                let b = stack[stack.len() - 1];
                let a = stack[stack.len() - 2];
                stack.push(a);
                stack.push(b);
            }
            Insn::GetStatic { class, field } => {
                let class_def = self
                    .program
                    .classes
                    .get(class.0 as usize)
                    .ok_or_else(|| self.err(pc, "class id out of range"))?;
                let field_def = class_def
                    .static_fields
                    .get(*field as usize)
                    .ok_or_else(|| self.err(pc, "static field out of range"))?;
                stack.push(AType::of_ty(&field_def.ty));
            }
            Insn::PutStatic { class, field } => {
                let class_def = self
                    .program
                    .classes
                    .get(class.0 as usize)
                    .ok_or_else(|| self.err(pc, "class id out of range"))?;
                let field_def = class_def
                    .static_fields
                    .get(*field as usize)
                    .ok_or_else(|| self.err(pc, "static field out of range"))?;
                self.pop_expect(pc, stack, AType::of_ty(&field_def.ty))?;
            }
            Insn::GetField { .. } => {
                self.pop_ref(pc, stack)?;
                // The verifier does not track receiver classes, so a field
                // load has a statically unknown category.
                stack.push(Any);
            }
            Insn::PutField { .. } => {
                self.pop(pc, stack)?;
                self.pop_ref(pc, stack)?;
            }
            Insn::NewObject(class) => {
                if class.0 as usize >= self.program.classes.len() {
                    return Err(self.err(pc, "class id out of range"));
                }
                stack.push(R);
            }
            Insn::NewArray(_) => {
                self.pop_expect(pc, stack, I)?;
                stack.push(R);
            }
            Insn::NewMultiArray { dims, .. } => {
                if *dims < 2 {
                    return Err(self.err(pc, "multiarray needs at least 2 dims"));
                }
                for _ in 0..*dims {
                    self.pop_expect(pc, stack, I)?;
                }
                stack.push(R);
            }
            Insn::ArrLoad(kind) => {
                self.pop_expect(pc, stack, I)?;
                self.pop_ref(pc, stack)?;
                stack.push(AType::of_elem(*kind));
            }
            Insn::ArrStore(kind) => {
                self.pop_expect(pc, stack, AType::of_elem(*kind))?;
                self.pop_expect(pc, stack, I)?;
                self.pop_ref(pc, stack)?;
            }
            Insn::ArrLen => {
                self.pop_ref(pc, stack)?;
                stack.push(I);
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
            | Insn::IXor => {
                self.pop_expect(pc, stack, I)?;
                self.pop_expect(pc, stack, I)?;
                stack.push(I);
            }
            Insn::INeg => {
                self.pop_expect(pc, stack, I)?;
                stack.push(I);
            }
            Insn::LAdd
            | Insn::LSub
            | Insn::LMul
            | Insn::LDiv
            | Insn::LRem
            | Insn::LAnd
            | Insn::LOr
            | Insn::LXor => {
                self.pop_expect(pc, stack, L)?;
                self.pop_expect(pc, stack, L)?;
                stack.push(L);
            }
            Insn::LShl | Insn::LShr | Insn::LUshr => {
                self.pop_expect(pc, stack, I)?;
                self.pop_expect(pc, stack, L)?;
                stack.push(L);
            }
            Insn::LNeg => {
                self.pop_expect(pc, stack, L)?;
                stack.push(L);
            }
            Insn::I2L => {
                self.pop_expect(pc, stack, I)?;
                stack.push(L);
            }
            Insn::L2I => {
                self.pop_expect(pc, stack, L)?;
                stack.push(I);
            }
            Insn::I2B => {
                self.pop_expect(pc, stack, I)?;
                stack.push(I);
            }
            Insn::I2S => {
                self.pop_expect(pc, stack, I)?;
                stack.push(S);
            }
            Insn::L2S => {
                self.pop_expect(pc, stack, L)?;
                stack.push(S);
            }
            Insn::Bool2S => {
                self.pop_expect(pc, stack, I)?;
                stack.push(S);
            }
            Insn::ICmp(_) => {
                self.pop_expect(pc, stack, I)?;
                self.pop_expect(pc, stack, I)?;
                stack.push(I);
            }
            Insn::LCmp(_) => {
                self.pop_expect(pc, stack, L)?;
                self.pop_expect(pc, stack, L)?;
                stack.push(I);
            }
            Insn::RefEq | Insn::RefNe => {
                self.pop_ref(pc, stack)?;
                self.pop_ref(pc, stack)?;
                stack.push(I);
            }
            Insn::SConcat => {
                self.pop_expect(pc, stack, S)?;
                self.pop_expect(pc, stack, S)?;
                stack.push(S);
            }
            Insn::Jump(_) => {}
            Insn::JumpIfTrue(_) | Insn::JumpIfFalse(_) => {
                self.pop_expect(pc, stack, I)?;
            }
            Insn::TableSwitch { .. } => {
                self.pop_expect(pc, stack, I)?;
            }
            Insn::InvokeStatic(id) | Insn::InvokeInstance(id) => {
                let callee = self
                    .program
                    .methods
                    .get(id.0 as usize)
                    .ok_or_else(|| self.err(pc, "method id out of range"))?;
                for param in callee.params.iter().rev() {
                    self.pop_expect(pc, stack, AType::of_ty(param))?;
                }
                if matches!(insn, Insn::InvokeInstance(_)) {
                    if callee.is_static {
                        return Err(self.err(pc, "InvokeInstance on a static method"));
                    }
                    self.pop_ref(pc, stack)?;
                } else if !callee.is_static {
                    return Err(self.err(pc, "InvokeStatic on an instance method"));
                }
                if callee.ret != Ty::Void {
                    stack.push(AType::of_ty(&callee.ret));
                }
            }
            Insn::Return => {
                if self.method.ret != Ty::Void {
                    return Err(self.err(pc, "Return in a non-void method"));
                }
                if !stack.is_empty() {
                    return Err(self.err(pc, "Return with a non-empty stack"));
                }
            }
            Insn::ReturnVal => {
                if self.method.ret == Ty::Void {
                    return Err(self.err(pc, "ReturnVal in a void method"));
                }
                self.pop_expect(pc, stack, AType::of_ty(&self.method.ret))?;
                if !stack.is_empty() {
                    return Err(self.err(pc, "ReturnVal with extra stack values"));
                }
            }
            Insn::ThrowUser => {
                self.pop_expect(pc, stack, I)?;
            }
            Insn::Rethrow(slot) => {
                self.check_slot(pc, *slot)?;
            }
            Insn::Println(kind) => match kind {
                PrintKind::Int | PrintKind::Bool => self.pop_expect(pc, stack, I)?,
                PrintKind::Long => self.pop_expect(pc, stack, L)?,
                PrintKind::Str => self.pop_expect(pc, stack, S)?,
            },
            Insn::Mute | Insn::Unmute => {}
        }
        Ok(())
    }
}
