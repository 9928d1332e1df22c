//! AST-to-bytecode lowering.

use std::collections::HashMap;

use cse_lang::ast::*;
use cse_lang::ty::Ty;
use cse_lang::typeck::ClassTable;
use cse_lang::FrontError;

use crate::insn::{ArrKind, CmpOp, Insn, PrintKind};
use crate::program::*;

/// Compiles a checked program to bytecode.
///
/// The input must be checked and resolved ([`cse_lang::typeck::check`] or
/// [`cse_lang::typeck::checked`]); unresolved names or type errors surface
/// here as [`FrontError`]s (they indicate a caller bug, not a user error).
pub fn compile(program: &Program) -> Result<BProgram, FrontError> {
    // Validate shape invariants (duplicates, reserved names) once more.
    ClassTable::build(program)?;
    let mut layout = Layout::new(program)?;
    layout.compile_all(program)?;
    layout.finish()
}

/// The element kind used by array instructions for a given element type.
fn arr_kind(ty: &Ty) -> ArrKind {
    match ty {
        Ty::Int => ArrKind::I32,
        Ty::Long => ArrKind::I64,
        Ty::Byte => ArrKind::I8,
        Ty::Bool => ArrKind::Bool,
        Ty::Str => ArrKind::Str,
        _ => ArrKind::Ref,
    }
}

struct FieldSlot {
    index: u32,
    is_static: bool,
    ty: Ty,
}

struct Layout {
    classes: Vec<BClass>,
    methods: Vec<BMethod>,
    strings: Vec<String>,
    string_ids: HashMap<String, StrId>,
    class_ids: HashMap<String, ClassId>,
    /// Class name to method name to id, and class name to field name to
    /// slot: nested so lookups borrow both names instead of building a
    /// key of two `String`s per reference.
    method_ids: HashMap<String, HashMap<String, MethodId>>,
    field_slots: HashMap<String, HashMap<String, FieldSlot>>,
    entry: MethodId,
    clinit: Option<MethodId>,
}

impl Layout {
    fn new(program: &Program) -> Result<Self, FrontError> {
        let mut layout = Layout {
            classes: Vec::new(),
            methods: Vec::new(),
            strings: Vec::new(),
            string_ids: HashMap::new(),
            class_ids: HashMap::new(),
            method_ids: HashMap::new(),
            field_slots: HashMap::new(),
            entry: MethodId(0),
            clinit: None,
        };
        // Pass 1: assign class ids, field slots, and method ids (including
        // synthetic `$init` / `$clinit`).
        for (class_idx, class) in program.classes.iter().enumerate() {
            let class_id = ClassId(class_idx as u32);
            layout.class_ids.insert(class.name.clone(), class_id);
            let mut static_fields = Vec::new();
            let mut inst_fields = Vec::new();
            let mut slots = HashMap::new();
            for field in &class.fields {
                let (list, is_static) = if field.is_static {
                    (&mut static_fields, true)
                } else {
                    (&mut inst_fields, false)
                };
                slots.insert(
                    field.name.clone(),
                    FieldSlot { index: list.len() as u32, is_static, ty: field.ty.clone() },
                );
                list.push(BField { name: field.name.clone(), ty: field.ty.clone() });
            }
            layout.field_slots.insert(class.name.clone(), slots);
            layout.classes.push(BClass {
                name: class.name.clone(),
                static_fields,
                inst_fields,
                init: None,
                methods: Vec::new(),
            });
        }
        for (class_idx, class) in program.classes.iter().enumerate() {
            let class_id = ClassId(class_idx as u32);
            let ids = layout.method_ids.entry(class.name.clone()).or_default();
            for method in &class.methods {
                let id = MethodId(layout.methods.len() as u32);
                ids.insert(method.name.clone(), id);
                layout.classes[class_idx].methods.push(id);
                layout.methods.push(BMethod {
                    name: method.name.clone(),
                    class: class_id,
                    is_static: method.is_static,
                    params: method.params.iter().map(|p| p.ty.clone()).collect(),
                    ret: method.ret.clone(),
                    num_locals: 0,
                    local_types: Vec::new(),
                    code: Vec::new(),
                    handlers: Vec::new(),
                    loop_headers: Vec::new(),
                });
            }
            if class.fields.iter().any(|f| !f.is_static && f.init.is_some()) {
                let id = MethodId(layout.methods.len() as u32);
                layout.classes[class_idx].init = Some(id);
                layout.classes[class_idx].methods.push(id);
                layout.methods.push(BMethod {
                    name: "$init".into(),
                    class: class_id,
                    is_static: false,
                    params: vec![],
                    ret: Ty::Void,
                    num_locals: 0,
                    local_types: Vec::new(),
                    code: Vec::new(),
                    handlers: Vec::new(),
                    loop_headers: Vec::new(),
                });
            }
        }
        let (entry_class, _) =
            program.entry().ok_or_else(|| FrontError::msg("program has no entry point"))?;
        layout.entry =
            layout.method_id(&entry_class.name, "main").expect("the entry point has an id");
        if program.classes.iter().any(|c| c.fields.iter().any(|f| f.is_static && f.init.is_some()))
        {
            let id = MethodId(layout.methods.len() as u32);
            layout.clinit = Some(id);
            let entry_class_id = layout.class_ids[&entry_class.name];
            layout.classes[entry_class_id.0 as usize].methods.push(id);
            layout.methods.push(BMethod {
                name: "$clinit".into(),
                class: entry_class_id,
                is_static: true,
                params: vec![],
                ret: Ty::Void,
                num_locals: 0,
                local_types: Vec::new(),
                code: Vec::new(),
                handlers: Vec::new(),
                loop_headers: Vec::new(),
            });
        }
        Ok(layout)
    }

    fn method_id(&self, class: &str, method: &str) -> Option<MethodId> {
        self.method_ids.get(class)?.get(method).copied()
    }

    fn field_slot(&self, class: &str, field: &str) -> Option<&FieldSlot> {
        self.field_slots.get(class)?.get(field)
    }

    fn intern(&mut self, text: &str) -> StrId {
        if let Some(id) = self.string_ids.get(text) {
            return *id;
        }
        let id = StrId(self.strings.len() as u32);
        self.strings.push(text.to_string());
        self.string_ids.insert(text.to_string(), id);
        id
    }

    fn compile_all(&mut self, program: &Program) -> Result<(), FrontError> {
        // Method bodies.
        for class in &program.classes {
            for method in &class.methods {
                let id = self.method_id(&class.name, &method.name).expect("every method has an id");
                let compiled = self.compile_method(class, method)?;
                self.install(id, compiled);
            }
            // Synthetic `$init`.
            if let Some(init_id) = self.classes[self.class_ids[&class.name].0 as usize].init {
                let mut ctx = MethodCtx::new(self, false, &[], Some(&class.name), Ty::Void);
                for field in &class.fields {
                    if field.is_static {
                        continue;
                    }
                    if let Some(init) = &field.init {
                        ctx.emit(Insn::Load(0));
                        let ty = ctx.expr(init)?;
                        ctx.coerce(&ty, &field.ty);
                        let (index, ..) = ctx.field_slot(&class.name, &field.name)?;
                        ctx.emit(Insn::PutField { field: index });
                    }
                }
                ctx.emit(Insn::Return);
                let compiled = ctx.finish();
                self.install(init_id, compiled);
            }
        }
        // Synthetic `$clinit` running all static initializers in program
        // order.
        if let Some(clinit_id) = self.clinit {
            let mut ctx = MethodCtx::new(self, true, &[], None, Ty::Void);
            for class in &program.classes {
                for field in &class.fields {
                    if !field.is_static {
                        continue;
                    }
                    if let Some(init) = &field.init {
                        let ty = ctx.expr(init)?;
                        ctx.coerce(&ty, &field.ty);
                        let class_id = ctx.layout.class_ids[&class.name];
                        let (index, ..) = ctx.field_slot(&class.name, &field.name)?;
                        ctx.emit(Insn::PutStatic { class: class_id, field: index });
                    }
                }
            }
            ctx.emit(Insn::Return);
            let compiled = ctx.finish();
            self.install(clinit_id, compiled);
        }
        Ok(())
    }

    fn install(&mut self, id: MethodId, compiled: CompiledBody) {
        let method = &mut self.methods[id.0 as usize];
        // Stored at its exact length: the emit buffer's spare capacity
        // would otherwise live as long as the program.
        method.code = compiled.code.into_boxed_slice().into_vec();
        method.handlers = compiled.handlers;
        method.num_locals = compiled.num_locals;
        method.local_types = compiled.local_types;
        method.compute_loop_headers();
    }

    fn compile_method(
        &mut self,
        class: &ClassDecl,
        method: &MethodDecl,
    ) -> Result<CompiledBody, FrontError> {
        let this_class = if method.is_static { None } else { Some(class.name.as_str()) };
        let mut ctx =
            MethodCtx::new(self, method.is_static, &method.params, this_class, method.ret.clone());
        ctx.block(&method.body)?;
        // Pad the method end when control can fall off it, or when an
        // (unreachable) branch was patched to one-past-the-end — e.g. the
        // jump-over-catch of a `try` whose body always returns. Non-void
        // methods passed the definite-exit check, so the non-void pad is
        // unreachable, but every branch target must index real code.
        let end = ctx.pc();
        let last_terminates = ctx.code.last().map(Insn::is_terminator).unwrap_or(false);
        let mut targets = Vec::new();
        let dangling = ctx.code.iter().any(|insn| {
            targets.clear();
            insn.collect_targets(&mut targets);
            targets.contains(&end)
        });
        if method.ret == Ty::Void {
            if !last_terminates || dangling {
                ctx.emit(Insn::Return);
            }
        } else if !last_terminates || dangling {
            ctx.emit(Insn::IConst(i32::MIN));
            ctx.emit(Insn::ThrowUser);
        }
        Ok(ctx.finish())
    }

    fn finish(self) -> Result<BProgram, FrontError> {
        Ok(BProgram {
            classes: self.classes,
            methods: self.methods,
            strings: self.strings,
            entry: self.entry,
            clinit: self.clinit,
        })
    }
}

struct CompiledBody {
    code: Vec<Insn>,
    handlers: Vec<Handler>,
    num_locals: u16,
    local_types: Vec<Option<Ty>>,
}

/// A loop or switch on the break/continue resolution stack.
struct Frame {
    is_loop: bool,
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
}

struct MethodCtx<'l> {
    layout: &'l mut Layout,
    code: Vec<Insn>,
    handlers: Vec<Handler>,
    /// Every local in scope with its slot and type, outermost first; the
    /// latest declaration of a name wins.
    locals: Vec<(String, u16, Ty)>,
    /// `locals.len()` at each open nested scope's entry.
    scope_marks: Vec<usize>,
    local_types: Vec<Option<Ty>>,
    frames: Vec<Frame>,
    /// Static type of `this`, for instance methods.
    this_class: Option<String>,
    ret: Ty,
}

impl<'l> MethodCtx<'l> {
    fn new(
        layout: &'l mut Layout,
        is_static: bool,
        params: &[Param],
        this_class: Option<&str>,
        ret: Ty,
    ) -> Self {
        let mut ctx = MethodCtx {
            layout,
            code: Vec::new(),
            handlers: Vec::new(),
            locals: Vec::new(),
            scope_marks: Vec::new(),
            local_types: Vec::new(),
            frames: Vec::new(),
            this_class: this_class.map(str::to_string),
            ret,
        };
        if !is_static {
            let class = this_class.expect("instance methods have a class").to_string();
            ctx.declare("this", Ty::Class(class));
        }
        for param in params {
            ctx.declare(&param.name, param.ty.clone());
        }
        ctx
    }

    fn finish(self) -> CompiledBody {
        CompiledBody {
            code: self.code,
            handlers: self.handlers,
            num_locals: self.local_types.len() as u16,
            local_types: self.local_types,
        }
    }

    // ----- low-level emission ----------------------------------------------

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn emit(&mut self, insn: Insn) {
        self.code.push(insn);
    }

    /// Emits a jump with a placeholder target; returns its index for
    /// [`MethodCtx::patch`].
    fn emit_patch(&mut self, insn: Insn) -> usize {
        let at = self.code.len();
        self.code.push(insn);
        at
    }

    fn patch(&mut self, at: usize, target: u32) {
        self.code[at].map_targets(|_| target);
    }

    fn patch_all(&mut self, patches: &[usize], target: u32) {
        for &at in patches {
            self.patch(at, target);
        }
    }

    /// Inserts the instructions `emit` writes at `at`, ahead of the code
    /// already emitted from there, and shifts that code's jump targets at
    /// or past `at` by the inserted length. The moved code must be the
    /// rest of an expression whose earlier part ends at `at`: see
    /// [`MethodCtx::debug_check_insertion`].
    fn insert_at(&mut self, at: u32, emit: impl FnOnce(&mut Self)) {
        let end = self.code.len();
        emit(self);
        let len = (self.code.len() - end) as u32;
        if len == 0 {
            return;
        }
        self.debug_check_insertion(at, end as u32);
        self.code[at as usize..].rotate_right(len as usize);
        for insn in &mut self.code[(at + len) as usize..] {
            insn.map_targets(|t| if t >= at { t + len } else { t });
        }
    }

    /// Asserts, in debug builds, why [`MethodCtx::insert_at`] may move the
    /// code in `at..end` without touching anything else: inside an
    /// expression only `&&`, `||` and `Math.min/max/abs` jump, those jumps
    /// are patched before the expression returns, and no jump, patch site
    /// or handler boundary recorded before `at` points past it.
    fn debug_check_insertion(&self, at: u32, end: u32) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut targets = Vec::new();
        for (pc, insn) in self.code[..end as usize].iter().enumerate() {
            targets.clear();
            insn.collect_targets(&mut targets);
            if (pc as u32) < at {
                assert!(targets.iter().all(|&t| t <= at), "jump at {pc} lands past {at}");
            } else {
                assert!(!matches!(insn, Insn::TableSwitch { .. }), "switch inside an expression");
                assert!(
                    targets.iter().all(|&t| at < t && t <= end),
                    "jump at {pc} leaves the moved code {at}..{end} or is unpatched"
                );
            }
        }
        let mut patches =
            self.frames.iter().flat_map(|f| f.break_patches.iter().chain(&f.continue_patches));
        assert!(patches.all(|&site| (site as u32) < at), "patch site past {at}");
        assert!(
            self.handlers.iter().all(|h| h.start < at && h.end < at && h.target < at),
            "handler boundary past {at}"
        );
    }

    // ----- locals -----------------------------------------------------------

    fn declare(&mut self, name: &str, ty: Ty) -> u16 {
        let slot = self.local_types.len() as u16;
        self.local_types.push(Some(ty.clone()));
        self.locals.push((name.to_string(), slot, ty));
        slot
    }

    /// A fresh anonymous slot (exception saves, desugaring temporaries).
    fn fresh_slot(&mut self) -> u16 {
        let slot = self.local_types.len() as u16;
        self.local_types.push(None);
        slot
    }

    fn lookup(&self, name: &str) -> Option<(u16, Ty)> {
        self.locals
            .iter()
            .rev()
            .find(|(local, ..)| local == name)
            .map(|(_, slot, ty)| (*slot, ty.clone()))
    }

    fn push_scope(&mut self) {
        self.scope_marks.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scope_marks.pop().expect("scopes are balanced");
        self.locals.truncate(mark);
    }

    fn local(&self, name: &str) -> Result<(u16, Ty), FrontError> {
        self.lookup(name)
            .ok_or_else(|| FrontError::msg(format!("internal: unresolved local `{name}`")))
    }

    // ----- type plumbing ----------------------------------------------------

    fn field_slot(&self, class: &str, field: &str) -> Result<(u32, bool, Ty), FrontError> {
        let slot = self
            .layout
            .field_slot(class, field)
            .ok_or_else(|| FrontError::msg(format!("internal: unknown field `{class}.{field}`")))?;
        Ok((slot.index, slot.is_static, slot.ty.clone()))
    }

    fn method_id(&self, class: &str, method: &str) -> Result<MethodId, FrontError> {
        self.layout
            .method_id(class, method)
            .ok_or_else(|| FrontError::msg(format!("internal: unknown method `{class}.{method}`")))
    }

    /// Emits the conversion from `from` to `to` (widening or equal kinds).
    fn coerce(&mut self, from: &Ty, to: &Ty) {
        match (from, to) {
            (Ty::Int | Ty::Byte, Ty::Long) => self.emit(Insn::I2L),
            (Ty::Int, Ty::Byte) => self.emit(Insn::I2B),
            (Ty::Long, Ty::Int) => self.emit(Insn::L2I),
            (Ty::Long, Ty::Byte) => {
                self.emit(Insn::L2I);
                self.emit(Insn::I2B);
            }
            _ => {}
        }
    }

    /// Converts the value on top of the stack to a string for concatenation.
    fn emit_to_str(&mut self, ty: &Ty) {
        match ty {
            Ty::Int | Ty::Byte => self.emit(Insn::I2S),
            Ty::Long => self.emit(Insn::L2S),
            Ty::Bool => self.emit(Insn::Bool2S),
            Ty::Str => {}
            other => unreachable!("to_str on non-primitive {other}"),
        }
    }

    // ----- statements -------------------------------------------------------

    fn block(&mut self, block: &Block) -> Result<(), FrontError> {
        self.push_scope();
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), FrontError> {
        match stmt {
            Stmt::VarDecl { name, ty, init } => {
                let from = self.expr(init)?;
                self.coerce(&from, ty);
                let slot = self.declare(name, ty.clone());
                self.emit(Insn::Store(slot));
                Ok(())
            }
            Stmt::Assign { target, op, value } => self.assign(target, *op, value),
            Stmt::IncDec { target, inc } => {
                let op = if *inc { AssignOp::Add } else { AssignOp::Sub };
                self.assign(target, op, &Expr::IntLit(1))
            }
            Stmt::If { cond, then_blk, else_blk } => {
                self.expr(cond)?;
                let to_else = self.emit_patch(Insn::JumpIfFalse(0));
                self.block(then_blk)?;
                match else_blk {
                    Some(else_blk) => {
                        let to_end = self.emit_patch(Insn::Jump(0));
                        let else_pc = self.pc();
                        self.patch(to_else, else_pc);
                        self.block(else_blk)?;
                        let end = self.pc();
                        self.patch(to_end, end);
                    }
                    None => {
                        let end = self.pc();
                        self.patch(to_else, end);
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond_pc = self.pc();
                self.expr(cond)?;
                let to_end = self.emit_patch(Insn::JumpIfFalse(0));
                self.frames.push(Frame {
                    is_loop: true,
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                self.block(body)?;
                self.emit(Insn::Jump(cond_pc));
                let end = self.pc();
                let frame = self.frames.pop().expect("frame pushed above");
                self.patch(to_end, end);
                self.patch_all(&frame.break_patches, end);
                self.patch_all(&frame.continue_patches, cond_pc);
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let body_pc = self.pc();
                self.frames.push(Frame {
                    is_loop: true,
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                self.block(body)?;
                let cond_pc = self.pc();
                self.expr(cond)?;
                self.emit(Insn::JumpIfTrue(body_pc));
                let end = self.pc();
                let frame = self.frames.pop().expect("frame pushed above");
                self.patch_all(&frame.break_patches, end);
                self.patch_all(&frame.continue_patches, cond_pc);
                Ok(())
            }
            Stmt::For { init, cond, step, body } => {
                self.push_scope();
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let cond_pc = self.pc();
                let to_end = match cond {
                    Some(cond) => {
                        self.expr(cond)?;
                        Some(self.emit_patch(Insn::JumpIfFalse(0)))
                    }
                    None => None,
                };
                self.frames.push(Frame {
                    is_loop: true,
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                self.block(body)?;
                let step_pc = self.pc();
                if let Some(step) = step {
                    self.stmt(step)?;
                }
                self.emit(Insn::Jump(cond_pc));
                let end = self.pc();
                let frame = self.frames.pop().expect("frame pushed above");
                if let Some(to_end) = to_end {
                    self.patch(to_end, end);
                }
                self.patch_all(&frame.break_patches, end);
                self.patch_all(&frame.continue_patches, step_pc);
                self.pop_scope();
                Ok(())
            }
            Stmt::Switch { scrutinee, cases } => {
                self.expr(scrutinee)?;
                let switch_at =
                    self.emit_patch(Insn::TableSwitch { cases: Box::default(), default: 0 });
                self.frames.push(Frame {
                    is_loop: false,
                    break_patches: vec![],
                    continue_patches: vec![],
                });
                let mut case_targets: Vec<(Vec<i32>, u32)> = Vec::new();
                let mut default_target: Option<u32> = None;
                for case in cases {
                    let target = self.pc();
                    case_targets.push((case.labels.clone(), target));
                    if case.is_default {
                        default_target = Some(target);
                    }
                    self.push_scope();
                    for inner in &case.body {
                        self.stmt(inner)?;
                    }
                    self.pop_scope();
                }
                let end = self.pc();
                let mut pairs = Vec::new();
                for (labels, target) in case_targets {
                    for label in labels {
                        pairs.push((label, target));
                    }
                }
                self.code[switch_at] = Insn::TableSwitch {
                    cases: Box::new(pairs),
                    default: default_target.unwrap_or(end),
                };
                let frame = self.frames.pop().expect("frame pushed above");
                self.patch_all(&frame.break_patches, end);
                Ok(())
            }
            Stmt::Break => {
                let at = self.emit_patch(Insn::Jump(0));
                let frame = self
                    .frames
                    .last_mut()
                    .ok_or_else(|| FrontError::msg("internal: break without frame"))?;
                frame.break_patches.push(at);
                Ok(())
            }
            Stmt::Continue => {
                let at = self.emit_patch(Insn::Jump(0));
                let frame = self
                    .frames
                    .iter_mut()
                    .rev()
                    .find(|f| f.is_loop)
                    .ok_or_else(|| FrontError::msg("internal: continue without loop frame"))?;
                frame.continue_patches.push(at);
                Ok(())
            }
            Stmt::Return(value) => {
                match value {
                    Some(value) => {
                        let from = self.expr(value)?;
                        let ret = self.ret.clone();
                        self.coerce(&from, &ret);
                        self.emit(Insn::ReturnVal);
                    }
                    None => self.emit(Insn::Return),
                }
                Ok(())
            }
            Stmt::ExprStmt(expr) => {
                let ty = self.expr(expr)?;
                if ty != Ty::Void {
                    self.emit(Insn::Pop);
                }
                Ok(())
            }
            Stmt::Block(block) => self.block(block),
            Stmt::Try { body, catch, finally } => {
                self.try_stmt(body, catch.as_ref(), finally.as_ref())
            }
            Stmt::Throw(code) => {
                let ty = self.expr(code)?;
                self.coerce(&ty, &Ty::Int);
                self.emit(Insn::ThrowUser);
                Ok(())
            }
            Stmt::Println(value) => {
                let ty = self.expr(value)?;
                let kind = match ty {
                    Ty::Int | Ty::Byte => PrintKind::Int,
                    Ty::Long => PrintKind::Long,
                    Ty::Bool => PrintKind::Bool,
                    Ty::Str => PrintKind::Str,
                    other => {
                        return Err(FrontError::msg(format!("internal: println of `{other}`")));
                    }
                };
                self.emit(Insn::Println(kind));
                Ok(())
            }
            Stmt::Mute => {
                self.emit(Insn::Mute);
                Ok(())
            }
            Stmt::Unmute => {
                self.emit(Insn::Unmute);
                Ok(())
            }
        }
    }

    fn try_stmt(
        &mut self,
        body: &Block,
        catch: Option<&Block>,
        finally: Option<&Block>,
    ) -> Result<(), FrontError> {
        match (catch, finally) {
            (Some(catch), None) => {
                let start = self.pc();
                self.block(body)?;
                let end = self.pc();
                let to_after = self.emit_patch(Insn::Jump(0));
                let target = self.pc();
                self.block(catch)?;
                let after = self.pc();
                self.patch(to_after, after);
                if end > start {
                    self.handlers.push(Handler { start, end, target, save_slot: None });
                }
                Ok(())
            }
            (None, Some(finally)) => {
                let start = self.pc();
                self.block(body)?;
                let end = self.pc();
                self.block(finally)?;
                let to_after = self.emit_patch(Insn::Jump(0));
                let target = self.pc();
                let save = self.fresh_slot();
                self.block(finally)?;
                self.emit(Insn::Rethrow(save));
                let after = self.pc();
                self.patch(to_after, after);
                if end > start {
                    self.handlers.push(Handler { start, end, target, save_slot: Some(save) });
                }
                Ok(())
            }
            (Some(catch), Some(finally)) => {
                let body_start = self.pc();
                self.block(body)?;
                let body_end = self.pc();
                // Normal path: finally then continue.
                self.block(finally)?;
                let to_after1 = self.emit_patch(Insn::Jump(0));
                // Exception in body: catch, then finally, then continue.
                let catch_start = self.pc();
                self.block(catch)?;
                let catch_end = self.pc();
                self.block(finally)?;
                let to_after2 = self.emit_patch(Insn::Jump(0));
                // Exception in catch: finally, then re-raise.
                let rethrow_start = self.pc();
                let save = self.fresh_slot();
                self.block(finally)?;
                self.emit(Insn::Rethrow(save));
                let after = self.pc();
                self.patch(to_after1, after);
                self.patch(to_after2, after);
                if body_end > body_start {
                    self.handlers.push(Handler {
                        start: body_start,
                        end: body_end,
                        target: catch_start,
                        save_slot: None,
                    });
                }
                if catch_end > catch_start {
                    self.handlers.push(Handler {
                        start: catch_start,
                        end: catch_end,
                        target: rethrow_start,
                        save_slot: Some(save),
                    });
                }
                Ok(())
            }
            (None, None) => Err(FrontError::msg("internal: try without catch or finally")),
        }
    }

    // ----- assignments ------------------------------------------------------

    fn assign(&mut self, target: &LValue, op: AssignOp, value: &Expr) -> Result<(), FrontError> {
        match op.binop() {
            None => self.assign_set(target, value),
            Some(binop) => self.assign_compound(target, binop, value),
        }
    }

    fn assign_set(&mut self, target: &LValue, value: &Expr) -> Result<(), FrontError> {
        match target {
            LValue::Local(name) => {
                let (slot, ty) = self.local(name)?;
                let from = self.expr(value)?;
                self.coerce(&from, &ty);
                self.emit(Insn::Store(slot));
            }
            LValue::StaticField { class, field } => {
                let (index, _, ty) = self.field_slot(class, field)?;
                let from = self.expr(value)?;
                self.coerce(&from, &ty);
                let class_id = self.layout.class_ids[class];
                self.emit(Insn::PutStatic { class: class_id, field: index });
            }
            LValue::InstField { recv, field } => {
                let recv_ty = self.expr(recv)?;
                let class = class_name(&recv_ty)?;
                let (index, _, ty) = self.field_slot(&class, field)?;
                let from = self.expr(value)?;
                self.coerce(&from, &ty);
                self.emit(Insn::PutField { field: index });
            }
            LValue::Index { array, index } => {
                let arr_ty = self.expr(array)?;
                let elem = arr_ty
                    .elem()
                    .ok_or_else(|| FrontError::msg("internal: indexing non-array"))?
                    .clone();
                let idx_ty = self.expr(index)?;
                self.coerce(&idx_ty, &Ty::Int);
                let from = self.expr(value)?;
                self.coerce(&from, &elem);
                self.emit(Insn::ArrStore(arr_kind(&elem)));
            }
            LValue::Name(name) => {
                return Err(FrontError::msg(format!("internal: unresolved lvalue `{name}`")));
            }
        }
        Ok(())
    }

    /// `target op= value`: loads the target, applies the operator at the
    /// promoted type, narrows back to the target type (Java's implicit
    /// compound-assignment cast), and stores.
    fn assign_compound(
        &mut self,
        target: &LValue,
        op: BinOp,
        value: &Expr,
    ) -> Result<(), FrontError> {
        // Phase 1: push any address components and the current value.
        let target_ty: Ty;
        enum Addr {
            Local(u16),
            Static { class: ClassId, field: u32 },
            Field { field: u32 },
            Index(ArrKind),
        }
        let addr: Addr;
        match target {
            LValue::Local(name) => {
                let (slot, ty) = self.local(name)?;
                target_ty = ty;
                addr = Addr::Local(slot);
                self.emit(Insn::Load(slot));
            }
            LValue::StaticField { class, field } => {
                let (index, _, ty) = self.field_slot(class, field)?;
                target_ty = ty;
                let class_id = self.layout.class_ids[class];
                addr = Addr::Static { class: class_id, field: index };
                self.emit(Insn::GetStatic { class: class_id, field: index });
            }
            LValue::InstField { recv, field } => {
                let recv_ty = self.expr(recv)?;
                let class = class_name(&recv_ty)?;
                let (index, _, ty) = self.field_slot(&class, field)?;
                target_ty = ty;
                addr = Addr::Field { field: index };
                self.emit(Insn::Dup);
                self.emit(Insn::GetField { field: index });
            }
            LValue::Index { array, index } => {
                let arr_ty = self.expr(array)?;
                let elem = arr_ty
                    .elem()
                    .ok_or_else(|| FrontError::msg("internal: indexing non-array"))?
                    .clone();
                let idx_ty = self.expr(index)?;
                self.coerce(&idx_ty, &Ty::Int);
                target_ty = elem.clone();
                addr = Addr::Index(arr_kind(&elem));
                self.emit(Insn::Dup2);
                self.emit(Insn::ArrLoad(arr_kind(&elem)));
            }
            LValue::Name(name) => {
                return Err(FrontError::msg(format!("internal: unresolved lvalue `{name}`")));
            }
        }
        // Phase 2: apply the operator.
        let result_ty = self.binary_on_loaded(&target_ty, op, value)?;
        // Phase 3: narrow back to the target type.
        self.coerce(&result_ty, &target_ty);
        // Phase 4: store.
        match addr {
            Addr::Local(slot) => self.emit(Insn::Store(slot)),
            Addr::Static { class, field } => self.emit(Insn::PutStatic { class, field }),
            Addr::Field { field } => self.emit(Insn::PutField { field }),
            Addr::Index(kind) => self.emit(Insn::ArrStore(kind)),
        }
        Ok(())
    }

    /// With the left operand (of type `lhs_ty`) already on the stack,
    /// compiles `rhs` and the operator, returning the result type. Serves
    /// compound assignment and every binary operator but `&&` and `||`.
    ///
    /// Java puts the left operand's conversion (a widening, or a string
    /// conversion for concatenation) between the operands, but which one
    /// is known only with the right operand's type, so the conversion is
    /// inserted where the left operand ended once `rhs` is lowered.
    fn binary_on_loaded(&mut self, lhs_ty: &Ty, op: BinOp, rhs: &Expr) -> Result<Ty, FrontError> {
        let at = self.pc();
        let rhs_ty = self.expr(rhs)?;
        match op {
            BinOp::Add if *lhs_ty == Ty::Str || rhs_ty == Ty::Str => {
                self.emit_to_str(&rhs_ty);
                self.insert_at(at, |ctx| ctx.emit_to_str(lhs_ty));
                self.emit(Insn::SConcat);
                Ok(Ty::Str)
            }
            BinOp::Shl | BinOp::Shr | BinOp::Ushr => {
                // The result is the promoted left operand (byte is
                // int-represented); the shift distance is an int.
                let result = if *lhs_ty == Ty::Long { Ty::Long } else { Ty::Int };
                self.coerce(&rhs_ty, &Ty::Int);
                let insn = match (op, &result) {
                    (BinOp::Shl, Ty::Int) => Insn::IShl,
                    (BinOp::Shr, Ty::Int) => Insn::IShr,
                    (BinOp::Ushr, Ty::Int) => Insn::IUshr,
                    (BinOp::Shl, Ty::Long) => Insn::LShl,
                    (BinOp::Shr, Ty::Long) => Insn::LShr,
                    (BinOp::Ushr, Ty::Long) => Insn::LUshr,
                    _ => unreachable!(),
                };
                self.emit(insn);
                Ok(result)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let cmp = match op {
                    BinOp::Eq => CmpOp::Eq,
                    BinOp::Ne => CmpOp::Ne,
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                if lhs_ty.is_numeric() {
                    match self.promote_operands(lhs_ty, at, &rhs_ty)? {
                        Ty::Long => self.emit(Insn::LCmp(cmp)),
                        _ => self.emit(Insn::ICmp(cmp)),
                    }
                } else if *lhs_ty == Ty::Bool {
                    self.emit(Insn::ICmp(cmp));
                } else if cmp == CmpOp::Eq {
                    // Reference identity.
                    self.emit(Insn::RefEq);
                } else {
                    self.emit(Insn::RefNe);
                }
                Ok(Ty::Bool)
            }
            // Boolean bitwise ops share the int instructions.
            BinOp::And | BinOp::Or | BinOp::Xor if *lhs_ty == Ty::Bool => {
                let insn = match op {
                    BinOp::And => Insn::IAnd,
                    BinOp::Or => Insn::IOr,
                    _ => Insn::IXor,
                };
                self.emit(insn);
                Ok(Ty::Bool)
            }
            _ => {
                let promoted = self.promote_operands(lhs_ty, at, &rhs_ty)?;
                let insn = match (&promoted, op) {
                    (Ty::Int, BinOp::Add) => Insn::IAdd,
                    (Ty::Int, BinOp::Sub) => Insn::ISub,
                    (Ty::Int, BinOp::Mul) => Insn::IMul,
                    (Ty::Int, BinOp::Div) => Insn::IDiv,
                    (Ty::Int, BinOp::Rem) => Insn::IRem,
                    (Ty::Int, BinOp::And) => Insn::IAnd,
                    (Ty::Int, BinOp::Or) => Insn::IOr,
                    (Ty::Int, BinOp::Xor) => Insn::IXor,
                    (Ty::Long, BinOp::Add) => Insn::LAdd,
                    (Ty::Long, BinOp::Sub) => Insn::LSub,
                    (Ty::Long, BinOp::Mul) => Insn::LMul,
                    (Ty::Long, BinOp::Div) => Insn::LDiv,
                    (Ty::Long, BinOp::Rem) => Insn::LRem,
                    (Ty::Long, BinOp::And) => Insn::LAnd,
                    (Ty::Long, BinOp::Or) => Insn::LOr,
                    (Ty::Long, BinOp::Xor) => Insn::LXor,
                    other => return Err(FrontError::msg(format!("internal: arith {other:?}"))),
                };
                self.emit(insn);
                Ok(promoted)
            }
        }
    }

    /// Widens both operands of a numeric operator to their promoted type:
    /// the right one (of type `rhs_ty`, on top of the stack) in place, the
    /// left one by insertion at `at`, where it ended. Returns the type.
    fn promote_operands(&mut self, lhs_ty: &Ty, at: u32, rhs_ty: &Ty) -> Result<Ty, FrontError> {
        let promoted = lhs_ty
            .promote(rhs_ty)
            .ok_or_else(|| FrontError::msg("internal: non-numeric operands"))?;
        self.coerce(rhs_ty, &promoted);
        self.insert_at(at, |ctx| ctx.coerce(lhs_ty, &promoted));
        Ok(promoted)
    }

    // ----- expressions ------------------------------------------------------

    /// Compiles an expression, returning its static type.
    fn expr(&mut self, expr: &Expr) -> Result<Ty, FrontError> {
        match expr {
            Expr::IntLit(v) => {
                self.emit(Insn::IConst(*v));
                Ok(Ty::Int)
            }
            Expr::LongLit(v) => {
                self.emit(Insn::LConst(*v));
                Ok(Ty::Long)
            }
            Expr::BoolLit(b) => {
                self.emit(Insn::IConst(i32::from(*b)));
                Ok(Ty::Bool)
            }
            Expr::StrLit(s) => {
                let id = self.layout.intern(s);
                self.emit(Insn::SConst(id));
                Ok(Ty::Str)
            }
            Expr::Null => {
                self.emit(Insn::NullConst);
                Ok(Ty::Class("null".into()))
            }
            Expr::Local(name) => {
                let (slot, ty) = self.local(name)?;
                self.emit(Insn::Load(slot));
                Ok(ty)
            }
            Expr::This => {
                self.emit(Insn::Load(0));
                let class = self
                    .this_class
                    .clone()
                    .ok_or_else(|| FrontError::msg("internal: `this` in static method"))?;
                Ok(Ty::Class(class))
            }
            Expr::Name(name) => Err(FrontError::msg(format!("internal: unresolved name `{name}`"))),
            Expr::FreeCall { name, .. } => {
                Err(FrontError::msg(format!("internal: unresolved call `{name}`")))
            }
            Expr::StaticField { class, field } => {
                let (index, _, ty) = self.field_slot(class, field)?;
                let class_id = self.layout.class_ids[class];
                self.emit(Insn::GetStatic { class: class_id, field: index });
                Ok(ty)
            }
            Expr::InstField { recv, field } => {
                let recv_ty = self.expr(recv)?;
                let class = class_name(&recv_ty)?;
                let (index, _, ty) = self.field_slot(&class, field)?;
                self.emit(Insn::GetField { field: index });
                Ok(ty)
            }
            Expr::Index { array, index } => {
                let arr_ty = self.expr(array)?;
                let elem = arr_ty
                    .elem()
                    .ok_or_else(|| FrontError::msg("internal: indexing non-array"))?
                    .clone();
                let idx_ty = self.expr(index)?;
                self.coerce(&idx_ty, &Ty::Int);
                self.emit(Insn::ArrLoad(arr_kind(&elem)));
                Ok(elem)
            }
            Expr::Length(array) => {
                self.expr(array)?;
                self.emit(Insn::ArrLen);
                Ok(Ty::Int)
            }
            Expr::NewObject(class) => {
                let class_id = self.layout.class_ids[class];
                self.emit(Insn::NewObject(class_id));
                if let Some(init) = self.layout.classes[class_id.0 as usize].init {
                    self.emit(Insn::Dup);
                    self.emit(Insn::InvokeInstance(init));
                }
                Ok(Ty::Class(class.clone()))
            }
            Expr::NewArray { elem, dims, extra_dims } => {
                for dim in dims {
                    let ty = self.expr(dim)?;
                    self.coerce(&ty, &Ty::Int);
                }
                let total_dims = dims.len() + extra_dims;
                // The innermost *allocated* level holds elements with
                // `extra_dims` residual dimensions.
                let innermost = if *extra_dims == 0 { arr_kind(elem) } else { ArrKind::Ref };
                if dims.len() == 1 {
                    self.emit(Insn::NewArray(innermost));
                } else {
                    self.emit(Insn::NewMultiArray { kind: innermost, dims: dims.len() as u8 });
                }
                let mut ty = elem.clone();
                for _ in 0..total_dims {
                    ty = ty.array_of();
                }
                Ok(ty)
            }
            Expr::NewArrayInit { elem, elems } => {
                self.emit(Insn::IConst(elems.len() as i32));
                self.emit(Insn::NewArray(arr_kind(elem)));
                for (i, e) in elems.iter().enumerate() {
                    self.emit(Insn::Dup);
                    self.emit(Insn::IConst(i as i32));
                    let ty = self.expr(e)?;
                    self.coerce(&ty, elem);
                    self.emit(Insn::ArrStore(arr_kind(elem)));
                }
                Ok(elem.clone().array_of())
            }
            Expr::StaticCall { class, method, args } => {
                let id = self.method_id(class, method)?;
                let params = self.layout.methods[id.0 as usize].params.clone();
                let ret = self.layout.methods[id.0 as usize].ret.clone();
                for (arg, param) in args.iter().zip(&params) {
                    let ty = self.expr(arg)?;
                    self.coerce(&ty, param);
                }
                self.emit(Insn::InvokeStatic(id));
                Ok(ret)
            }
            Expr::InstCall { recv, method, args } => {
                let recv_ty = self.expr(recv)?;
                let class = class_name(&recv_ty)?;
                let id = self.method_id(&class, method)?;
                let params = self.layout.methods[id.0 as usize].params.clone();
                let ret = self.layout.methods[id.0 as usize].ret.clone();
                for (arg, param) in args.iter().zip(&params) {
                    let ty = self.expr(arg)?;
                    self.coerce(&ty, param);
                }
                self.emit(Insn::InvokeInstance(id));
                Ok(ret)
            }
            Expr::IntrinsicCall { which, args } => {
                // `min`/`max` take two arguments and `abs` one. Each
                // converts to the promoted type of all of them: the last in
                // place, the first of two by insertion where it ended.
                let (first, last) = match args.as_slice() {
                    [first, last] => {
                        let ty = self.expr(first)?;
                        (Some((ty, self.pc())), last)
                    }
                    [last] => (None, last),
                    _ => return Err(FrontError::msg("internal: intrinsic arity")),
                };
                let last_ty = self.expr(last)?;
                let first_ty = first.as_ref().map_or(&Ty::Int, |(ty, _)| ty);
                let result = Ty::Int
                    .promote(first_ty)
                    .unwrap_or(Ty::Long)
                    .promote(&last_ty)
                    .unwrap_or(Ty::Long);
                self.coerce(&last_ty, &result);
                if let Some((ty, at)) = first {
                    self.insert_at(at, |ctx| ctx.coerce(&ty, &result));
                }
                // min/max/abs lower to compare-and-select sequences using a
                // scratch local, keeping the instruction set lean.
                self.intrinsic(*which, &result)?;
                Ok(result)
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => {
                    let ty = self.expr(expr)?;
                    match ty {
                        Ty::Long => {
                            self.emit(Insn::LNeg);
                            Ok(Ty::Long)
                        }
                        _ => {
                            self.emit(Insn::INeg);
                            Ok(Ty::Int)
                        }
                    }
                }
                UnOp::Not => {
                    self.expr(expr)?;
                    self.emit(Insn::IConst(1));
                    self.emit(Insn::IXor);
                    Ok(Ty::Bool)
                }
                UnOp::BitNot => {
                    let ty = self.expr(expr)?;
                    match ty {
                        Ty::Long => {
                            self.emit(Insn::LConst(-1));
                            self.emit(Insn::LXor);
                            Ok(Ty::Long)
                        }
                        _ => {
                            self.emit(Insn::IConst(-1));
                            self.emit(Insn::IXor);
                            Ok(Ty::Int)
                        }
                    }
                }
            },
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs),
            Expr::Cast { ty, expr } => {
                let from = self.expr(expr)?;
                match (from.clone(), ty.clone()) {
                    (Ty::Int | Ty::Byte, Ty::Long) => self.emit(Insn::I2L),
                    (Ty::Int, Ty::Byte) => self.emit(Insn::I2B),
                    (Ty::Long, Ty::Int) => self.emit(Insn::L2I),
                    (Ty::Long, Ty::Byte) => {
                        self.emit(Insn::L2I);
                        self.emit(Insn::I2B);
                    }
                    _ => {}
                }
                Ok(ty.clone())
            }
        }
    }

    fn binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Ty, FrontError> {
        match op {
            // `a && b` is `a ? b : false` and `a || b` is `a ? true : b`.
            BinOp::LAnd | BinOp::LOr => {
                let is_and = op == BinOp::LAnd;
                self.expr(lhs)?;
                let to_short = self.emit_patch(if is_and {
                    Insn::JumpIfFalse(0)
                } else {
                    Insn::JumpIfTrue(0)
                });
                self.expr(rhs)?;
                let to_end = self.emit_patch(Insn::Jump(0));
                let short_pc = self.pc();
                self.patch(to_short, short_pc);
                self.emit(Insn::IConst(i32::from(!is_and)));
                let end = self.pc();
                self.patch(to_end, end);
                Ok(Ty::Bool)
            }
            _ => {
                let lhs_ty = self.expr(lhs)?;
                self.binary_on_loaded(&lhs_ty, op, rhs)
            }
        }
    }

    /// Lowers `Math.min/max/abs` to branch-free-ish compare sequences using
    /// scratch locals.
    fn intrinsic(&mut self, which: Intrinsic, ty: &Ty) -> Result<(), FrontError> {
        let is_long = *ty == Ty::Long;
        match which {
            Intrinsic::Min | Intrinsic::Max => {
                // Stack: [a, b]. Keep b in a scratch local, compare, select.
                let b_slot = self.fresh_slot();
                let a_slot = self.fresh_slot();
                self.emit(Insn::Store(b_slot));
                self.emit(Insn::Store(a_slot));
                self.emit(Insn::Load(a_slot));
                self.emit(Insn::Load(b_slot));
                let cmp = if which == Intrinsic::Min { CmpOp::Le } else { CmpOp::Ge };
                if is_long {
                    self.emit(Insn::LCmp(cmp));
                } else {
                    self.emit(Insn::ICmp(cmp));
                }
                let to_a = self.emit_patch(Insn::JumpIfTrue(0));
                self.emit(Insn::Load(b_slot));
                let to_end = self.emit_patch(Insn::Jump(0));
                let a_pc = self.pc();
                self.patch(to_a, a_pc);
                self.emit(Insn::Load(a_slot));
                let end = self.pc();
                self.patch(to_end, end);
            }
            Intrinsic::Abs => {
                let slot = self.fresh_slot();
                self.emit(Insn::Store(slot));
                self.emit(Insn::Load(slot));
                if is_long {
                    self.emit(Insn::LConst(0));
                    self.emit(Insn::LCmp(CmpOp::Ge));
                } else {
                    self.emit(Insn::IConst(0));
                    self.emit(Insn::ICmp(CmpOp::Ge));
                }
                let to_pos = self.emit_patch(Insn::JumpIfTrue(0));
                self.emit(Insn::Load(slot));
                if is_long {
                    self.emit(Insn::LNeg);
                } else {
                    self.emit(Insn::INeg);
                }
                let to_end = self.emit_patch(Insn::Jump(0));
                let pos_pc = self.pc();
                self.patch(to_pos, pos_pc);
                self.emit(Insn::Load(slot));
                let end = self.pc();
                self.patch(to_end, end);
            }
        }
        Ok(())
    }
}

fn class_name(ty: &Ty) -> Result<String, FrontError> {
    match ty {
        Ty::Class(name) => Ok(name.clone()),
        other => Err(FrontError::msg(format!("internal: `{other}` is not a class type"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_program;

    fn compile_src(src: &str) -> BProgram {
        let program = cse_lang::parse_and_check(src).unwrap();
        let compiled = compile(&program).unwrap();
        verify_program(&compiled).unwrap_or_else(|e| panic!("verify failed: {e}"));
        compiled
    }

    #[test]
    fn compiles_and_verifies_basics() {
        let p = compile_src(
            r#"
            class T {
                static int f(int a, long b) {
                    int c = a + (int) b;
                    long d = a + b;
                    byte e = (byte) (c * 3);
                    return c + (int) d + e;
                }
                static void main() { println(f(1, 2L)); }
            }
            "#,
        );
        assert_eq!(p.classes.len(), 1);
        assert!(p.clinit.is_none());
        let main = p.method(p.entry);
        assert_eq!(main.name, "main");
    }

    #[test]
    fn widens_int_variable_against_long_variable() {
        let p = compile_src(
            r#"
            class T {
                static void main() {
                    int a = 3;
                    long b = 4L;
                    long c = a + b;
                    println(c);
                }
            }
            "#,
        );
        // The int operand must be widened before LAdd.
        let main = p.method(p.entry);
        assert!(main.code.contains(&Insn::I2L), "missing I2L in {:?}", main.code);
        assert!(main.code.contains(&Insn::LAdd));
    }

    #[test]
    fn control_flow_compiles_with_loop_headers() {
        let p = compile_src(
            r#"
            class T {
                static int f(int n) {
                    int acc = 0;
                    for (int i = 0; i < n; i++) {
                        if (i % 2 == 0) { acc += i; } else { acc -= 1; }
                        while (acc > 50) { acc /= 2; }
                    }
                    do { acc++; } while (acc < 0);
                    return acc;
                }
                static void main() { println(f(5)); }
            }
            "#,
        );
        let f = p.find_method("T", "f").unwrap();
        assert!(p.method(f).loop_headers.len() >= 3);
    }

    #[test]
    fn switch_compiles_with_fallthrough() {
        let p = compile_src(
            r#"
            class T {
                static int f(int x) {
                    int r = 0;
                    switch (x) {
                        case 1: r += 1;
                        case 2: r += 2; break;
                        case 3: r += 3; break;
                        default: r = -1;
                    }
                    return r;
                }
                static void main() { println(f(1)); }
            }
            "#,
        );
        let f = p.method(p.find_method("T", "f").unwrap());
        let has_switch =
            f.code.iter().any(|i| matches!(i, Insn::TableSwitch { cases, .. } if cases.len() == 3));
        assert!(has_switch);
    }

    #[test]
    fn try_catch_finally_lowering_duplicates_finally() {
        let p = compile_src(
            r#"
            class T {
                static void main() {
                    int x = 1;
                    try { x = 10 / x; } catch { x = -1; } finally { x += 100; }
                    try { x += 1; } finally { x += 2; }
                    try { x /= 0; } catch { x = 7; }
                    println(x);
                }
            }
            "#,
        );
        let main = p.method(p.entry);
        // try/catch/finally => 2 handler entries, try/finally => 1,
        // try/catch => 1.
        assert_eq!(main.handlers.len(), 4);
        assert!(main.handlers.iter().filter(|h| h.save_slot.is_some()).count() >= 2);
        assert!(main.code.iter().any(|i| matches!(i, Insn::Rethrow(_))));
    }

    #[test]
    fn field_initializers_become_synthetic_methods() {
        let p = compile_src(
            r#"
            class A { static int s = 5; int f = 6; static void main() { println(new A().f + A.s); } }
            "#,
        );
        assert!(p.clinit.is_some());
        assert!(p.find_method("A", "$init").is_some());
        let a = &p.classes[0];
        assert!(a.init.is_some());
    }

    #[test]
    fn string_concat_lowers_to_sconcat() {
        let p = compile_src(r#"class T { static void main() { println("x=" + 1 + true + 2L); } }"#);
        let main = p.method(p.entry);
        assert!(main.code.iter().filter(|i| matches!(i, Insn::SConcat)).count() >= 3);
        assert!(main.code.contains(&Insn::I2S));
        assert!(main.code.contains(&Insn::L2S));
        assert!(main.code.contains(&Insn::Bool2S));
    }

    #[test]
    fn compound_assign_on_array_uses_dup2() {
        let p = compile_src(
            r#"
            class T {
                static void main() {
                    int[] a = new int[3];
                    a[1] += 5;
                    byte[] b = new byte[2];
                    b[0] += 1;
                    println(a[1] + b[0]);
                }
            }
            "#,
        );
        let main = p.method(p.entry);
        assert!(main.code.iter().filter(|i| matches!(i, Insn::Dup2)).count() >= 2);
        // Byte compound must narrow back.
        assert!(main.code.contains(&Insn::I2B));
    }

    #[test]
    fn multi_dim_arrays() {
        compile_src(
            r#"
            class T {
                static void main() {
                    int[][] m = new int[2][3];
                    long[][] n = new long[4][];
                    n[0] = new long[1];
                    m[1][2] = 9;
                    println(m[1][2] + n[0][0]);
                }
            }
            "#,
        );
    }

    #[test]
    fn intrinsics_lower_to_branches() {
        let p = compile_src(
            r#"
            class T {
                static void main() {
                    println(Math.min(3, 4) + Math.max(5L, 6L) + Math.abs(-7));
                }
            }
            "#,
        );
        let main = p.method(p.entry);
        assert!(main.code.iter().any(|i| matches!(i, Insn::LCmp(_))));
        assert!(main.code.iter().any(|i| matches!(i, Insn::ICmp(_))));
    }

    #[test]
    fn instance_dispatch_and_this() {
        compile_src(
            r#"
            class P { int v = 2; int get() { return v; } }
            class T {
                int w = 3;
                int sum(P p) { return w + p.get(); }
                static void main() {
                    T t = new T();
                    println(t.sum(new P()));
                }
            }
            "#,
        );
    }

    #[test]
    fn throw_and_user_exceptions() {
        let p = compile_src(
            r#"
            class T {
                static void main() {
                    try { throw 42; } catch { println("caught"); }
                }
            }
            "#,
        );
        let main = p.method(p.entry);
        assert!(main.code.contains(&Insn::ThrowUser));
    }

    #[test]
    fn mute_unmute_emit_insns() {
        let p =
            compile_src(r#"class T { static void main() { __mute(); println(1); __unmute(); } }"#);
        let main = p.method(p.entry);
        assert!(main.code.contains(&Insn::Mute));
        assert!(main.code.contains(&Insn::Unmute));
    }

    #[test]
    fn logical_operators_short_circuit_shape() {
        let p = compile_src(
            r#"
            class T {
                static boolean t() { return true; }
                static void main() {
                    boolean b = t() && (1 / 0 > 0) || t();
                    println(b);
                }
            }
            "#,
        );
        let main = p.method(p.entry);
        assert!(main.code.iter().any(|i| matches!(i, Insn::JumpIfFalse(_))));
        assert!(main.code.iter().any(|i| matches!(i, Insn::JumpIfTrue(_))));
    }

    /// Source whose methods put a left operand's conversion ahead of code
    /// that holds jumps, or after a left operand whose own jumps land where
    /// the conversion goes.
    const CONVERSIONS_AROUND_JUMPS: &str = r#"
        class T {
            int f;
            static int s;
            static long add(int i, long l) { return i + Math.max(l, 2L); }
            static boolean less(int i, long l) { return i < Math.max(l, 2L); }
            static String concat(int a, int b) { return (a > 0 && b > 0) + "s"; }
            static long nested(int i, long l) { return Math.min(i, Math.max(l, 1L)); }
            static long both(int a, int b, long l) { return Math.max(a, b) + Math.max(l, 1L); }
            static int onLocal(int i, long l) { i += Math.max(l, 1L); return i; }
            static void onStatic(long l) { s += Math.max(l, 1L); }
            void onField(long l) { f += Math.max(l, 1L); }
            static void onElement(int[] a, long l) { a[0] += Math.max(l, 1L); }
            static void main() { println(add(1, 2L)); }
        }
    "#;

    /// Asserts the listing of `T.<method>` in [`CONVERSIONS_AROUND_JUMPS`],
    /// line by line with surrounding blanks trimmed.
    fn assert_listing(method: &str, expected: &str) {
        let p = compile_src(CONVERSIONS_AROUND_JUMPS);
        let id = p.find_method("T", method).unwrap();
        let listing = crate::disasm::disasm_method(&p, id, p.method(id));
        let actual: Vec<&str> = listing.lines().map(str::trim).collect();
        let expected: Vec<&str> =
            expected.lines().map(str::trim).filter(|line| !line.is_empty()).collect();
        assert_eq!(actual, expected, "listing of T.{method}");
    }

    #[test]
    fn widening_goes_ahead_of_a_right_operand_with_jumps() {
        assert_listing(
            "add",
            "
            long T.add(int, long) [4 locals] static
            0: Load(0)
            1: I2L
            2: Load(1)
            3: LConst(2)
            4: Store(2)
            5: Store(3)
            6: Load(3)
            7: Load(2)
            8: LCmp(Ge)
            9: JumpIfTrue(12)
            10: Load(2)
            11: Jump(13)
            12: Load(3)
            13: LAdd
            14: ReturnVal
        ",
        );
        assert_listing(
            "less",
            "
            boolean T.less(int, long) [4 locals] static
            0: Load(0)
            1: I2L
            2: Load(1)
            3: LConst(2)
            4: Store(2)
            5: Store(3)
            6: Load(3)
            7: Load(2)
            8: LCmp(Ge)
            9: JumpIfTrue(12)
            10: Load(2)
            11: Jump(13)
            12: Load(3)
            13: LCmp(Lt)
            14: ReturnVal
        ",
        );
        assert_listing(
            "nested",
            "
            long T.nested(int, long) [6 locals] static
            0: Load(0)
            1: I2L
            2: Load(1)
            3: LConst(1)
            4: Store(2)
            5: Store(3)
            6: Load(3)
            7: Load(2)
            8: LCmp(Ge)
            9: JumpIfTrue(12)
            10: Load(2)
            11: Jump(13)
            12: Load(3)
            13: Store(4)
            14: Store(5)
            15: Load(5)
            16: Load(4)
            17: LCmp(Le)
            18: JumpIfTrue(21)
            19: Load(4)
            20: Jump(22)
            21: Load(5)
            22: ReturnVal
        ",
        );
    }

    #[test]
    fn to_string_goes_where_the_left_operands_jumps_land() {
        assert_listing(
            "concat",
            "
            String T.concat(int, int) [2 locals] static
            0: Load(0)
            1: IConst(0)
            2: ICmp(Gt)
            3: JumpIfFalse(8)
            4: Load(1)
            5: IConst(0)
            6: ICmp(Gt)
            7: Jump(9)
            8: IConst(0)
            9: Bool2S
            10: SConst \"s\"
            11: SConcat
            12: ReturnVal
        ",
        );
    }

    #[test]
    fn widening_goes_between_two_operands_with_jumps() {
        assert_listing(
            "both",
            "
            long T.both(int, int, long) [7 locals] static
            0: Load(0)
            1: Load(1)
            2: Store(3)
            3: Store(4)
            4: Load(4)
            5: Load(3)
            6: ICmp(Ge)
            7: JumpIfTrue(10)
            8: Load(3)
            9: Jump(11)
            10: Load(4)
            11: I2L
            12: Load(2)
            13: LConst(1)
            14: Store(5)
            15: Store(6)
            16: Load(6)
            17: Load(5)
            18: LCmp(Ge)
            19: JumpIfTrue(22)
            20: Load(5)
            21: Jump(23)
            22: Load(6)
            23: LAdd
            24: ReturnVal
        ",
        );
    }

    #[test]
    fn compound_assignment_widens_the_loaded_target_ahead_of_jumps() {
        assert_listing(
            "onLocal",
            "
            int T.onLocal(int, long) [4 locals] static
            0: Load(0)
            1: I2L
            2: Load(1)
            3: LConst(1)
            4: Store(2)
            5: Store(3)
            6: Load(3)
            7: Load(2)
            8: LCmp(Ge)
            9: JumpIfTrue(12)
            10: Load(2)
            11: Jump(13)
            12: Load(3)
            13: LAdd
            14: L2I
            15: Store(0)
            16: Load(0)
            17: ReturnVal
        ",
        );
        assert_listing(
            "onStatic",
            "
            void T.onStatic(long) [3 locals] static
            0: GetStatic T.s
            1: I2L
            2: Load(0)
            3: LConst(1)
            4: Store(1)
            5: Store(2)
            6: Load(2)
            7: Load(1)
            8: LCmp(Ge)
            9: JumpIfTrue(12)
            10: Load(1)
            11: Jump(13)
            12: Load(2)
            13: LAdd
            14: L2I
            15: PutStatic T.s
            16: Return
        ",
        );
        assert_listing(
            "onField",
            "
            void T.onField(long) [4 locals]
            0: Load(0)
            1: Dup
            2: GetField { field: 0 }
            3: I2L
            4: Load(1)
            5: LConst(1)
            6: Store(2)
            7: Store(3)
            8: Load(3)
            9: Load(2)
            10: LCmp(Ge)
            11: JumpIfTrue(14)
            12: Load(2)
            13: Jump(15)
            14: Load(3)
            15: LAdd
            16: L2I
            17: PutField { field: 0 }
            18: Return
        ",
        );
        assert_listing(
            "onElement",
            "
            void T.onElement(int[], long) [4 locals] static
            0: Load(0)
            1: IConst(0)
            2: Dup2
            3: ArrLoad(I32)
            4: I2L
            5: Load(1)
            6: LConst(1)
            7: Store(2)
            8: Store(3)
            9: Load(3)
            10: Load(2)
            11: LCmp(Ge)
            12: JumpIfTrue(15)
            13: Load(2)
            14: Jump(16)
            15: Load(3)
            16: LAdd
            17: L2I
            18: ArrStore(I32)
            19: Return
        ",
        );
    }
}
