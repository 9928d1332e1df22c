//! Type checking and name resolution, as two passes.
//!
//! The parser leaves every name as written: bare names as [`Expr::Name`],
//! [`Expr::FreeCall`] and [`LValue::Name`], and class names in receiver
//! position (`C.f`, `C.m()`) as [`Expr::Name`] receivers of
//! [`Expr::InstField`], [`LValue::InstField`] and [`Expr::InstCall`].
//!
//! * The checker reads the program and never writes to it. It verifies
//!   every expression against Java-like typing rules (numeric promotion,
//!   implicit widening, explicit narrowing casts, boolean conditions,
//!   single-name method resolution without overloading), looking each
//!   bare name up where it meets one.
//! * The resolver then rewrites each bare name in place into its resolved
//!   form (a local, a static field or call, or an instance field or call
//!   through `this`) and each class-name receiver into the static access
//!   it names. Both passes ask one name table what a name denotes, so
//!   they cannot disagree.
//!
//! [`check`] runs both on a program the caller owns. [`checked`] runs the
//! checker on a shared program and copies it only when it holds a bare
//! name, so a resolved program (fuzzer output, or any program that passed
//! [`check`]) is checked without a copy.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::mem::take;

use crate::ast::*;
use crate::ty::Ty;
use crate::FrontError;

/// Method signature in the class table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSig {
    pub is_static: bool,
    pub params: Vec<Ty>,
    pub ret: Ty,
}

/// Field signature in the class table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSig {
    pub is_static: bool,
    pub ty: Ty,
}

/// A summary of every class, used by the checker, the bytecode compiler, and
/// the JoNM mutators.
#[derive(Debug, Clone, Default)]
pub struct ClassTable {
    classes: HashMap<String, ClassInfo>,
}

#[derive(Debug, Clone, Default)]
struct ClassInfo {
    fields: HashMap<String, FieldSig>,
    methods: HashMap<String, MethodSig>,
}

impl ClassTable {
    /// Builds the table, rejecting duplicate classes/fields/methods and
    /// reserved names.
    pub fn build(program: &Program) -> Result<ClassTable, FrontError> {
        let mut table = ClassTable::default();
        for class in &program.classes {
            if class.name == "Math" {
                return Err(FrontError::msg("class name `Math` is reserved"));
            }
            if table.classes.contains_key(&class.name) {
                return Err(FrontError::msg(format!("duplicate class `{}`", class.name)));
            }
            let mut info = ClassInfo::default();
            for field in &class.fields {
                if info
                    .fields
                    .insert(
                        field.name.clone(),
                        FieldSig { is_static: field.is_static, ty: field.ty.clone() },
                    )
                    .is_some()
                {
                    return Err(FrontError::msg(format!(
                        "duplicate field `{}` in class `{}`",
                        field.name, class.name
                    )));
                }
            }
            for method in &class.methods {
                if matches!(method.name.as_str(), "println" | "__mute" | "__unmute" | "length") {
                    return Err(FrontError::msg(format!(
                        "method name `{}` is reserved",
                        method.name
                    )));
                }
                let sig = MethodSig {
                    is_static: method.is_static,
                    params: method.params.iter().map(|p| p.ty.clone()).collect(),
                    ret: method.ret.clone(),
                };
                if info.methods.insert(method.name.clone(), sig).is_some() {
                    return Err(FrontError::msg(format!(
                        "duplicate method `{}` in class `{}` (overloading is not supported)",
                        method.name, class.name
                    )));
                }
            }
            table.classes.insert(class.name.clone(), info);
        }
        Ok(table)
    }

    /// Whether `name` is a declared class.
    pub fn has_class(&self, name: &str) -> bool {
        self.classes.contains_key(name)
    }

    /// Looks up a field signature.
    pub fn field(&self, class: &str, field: &str) -> Option<&FieldSig> {
        self.classes.get(class)?.fields.get(field)
    }

    /// Looks up a method signature.
    pub fn method(&self, class: &str, method: &str) -> Option<&MethodSig> {
        self.classes.get(class)?.methods.get(method)
    }

    /// Validates that a class type name refers to a declared class.
    fn check_ty(&self, ty: &Ty) -> Result<(), FrontError> {
        match ty.base() {
            Ty::Class(name) if !self.has_class(name) => {
                Err(FrontError::msg(format!("unknown class `{name}`")))
            }
            _ => Ok(()),
        }
    }
}

/// Type-checks the program and resolves its bare names in place. On error
/// the program is untouched: the checker runs first and writes nothing.
pub fn check(program: &mut Program) -> Result<(), FrontError> {
    let table = ClassTable::build(program)?;
    let bare_names = check_program(&table, program)?;
    if bare_names.contains(&true) {
        resolve(&table, program, &bare_names);
    }
    Ok(())
}

/// Type-checks a program without writing to it and returns it resolved:
/// the program itself when it holds no bare name, otherwise a resolved
/// copy.
pub fn checked(program: &Program) -> Result<Cow<'_, Program>, FrontError> {
    let table = ClassTable::build(program)?;
    let bare_names = check_program(&table, program)?;
    if !bare_names.contains(&true) {
        return Ok(Cow::Borrowed(program));
    }
    let mut copy = program.clone();
    resolve(&table, &mut copy, &bare_names);
    Ok(Cow::Owned(copy))
}

/// Runs the checker over every field initializer and method, in program
/// order. Returns, in the same order, whether each holds a bare name: the
/// resolver rewrites only those (a mutant's are the few methods JoNM
/// edited).
fn check_program(table: &ClassTable, program: &Program) -> Result<Vec<bool>, FrontError> {
    if program.entry().is_none() {
        return Err(FrontError::msg("program has no `static void main()` entry point"));
    }
    let mut bare_names = Vec::new();
    for class in &program.classes {
        for field in &class.fields {
            table.check_ty(&field.ty)?;
            if let Some(init) = &field.init {
                let mut ck = Checker::new(table, &class.name, field.is_static);
                let init_ty = ck.expr(init)?;
                ck.require_assignable(&field.ty, &init_ty, init)?;
                bare_names.push(ck.bare_names);
            }
        }
        for method in &class.methods {
            bare_names.push(check_method(table, &class.name, method)?);
        }
    }
    Ok(bare_names)
}

/// Type-checks one method; returns whether its body holds a bare name.
fn check_method(
    table: &ClassTable,
    class_name: &str,
    method: &MethodDecl,
) -> Result<bool, FrontError> {
    table.check_ty(&method.ret)?;
    let mut ck = Checker::new(table, class_name, method.is_static);
    ck.ret = method.ret.clone();
    let mut seen = HashSet::new();
    for param in &method.params {
        table.check_ty(&param.ty)?;
        if !seen.insert(param.name.as_str()) {
            return Err(FrontError::msg(format!("duplicate parameter `{}`", param.name)));
        }
        ck.declare(&param.name, &param.ty)?;
    }
    ck.stmts(&method.body.stmts)?;
    if method.ret != Ty::Void && !block_definitely_exits(&method.body) {
        return Err(FrontError::msg(format!(
            "method `{}.{}` may fall off the end without returning",
            class_name, method.name
        )));
    }
    Ok(ck.bare_names)
}

/// Rewrites every bare name of a program that passed the checker, visiting
/// only the field initializers and methods `bare_names` (the checker's
/// report, in the same order) marks.
fn resolve(table: &ClassTable, program: &mut Program, bare_names: &[bool]) {
    let mut bare_names = bare_names.iter().copied();
    for ClassDecl { name, fields, methods } in &mut program.classes {
        let class: &str = name;
        let inits = fields.iter_mut().filter_map(|field| field.init.as_mut());
        for (init, _) in inits.zip(&mut bare_names).filter(|&(_, bare)| bare) {
            Resolver { names: Names::new(table, class) }.expr(init);
        }
        for (method, _) in methods.iter_mut().zip(&mut bare_names).filter(|&(_, bare)| bare) {
            let MethodDecl { params, body, .. } = method;
            let mut resolver = Resolver { names: Names::new(table, class) };
            for param in params.iter() {
                resolver.names.declare(&param.name, ());
            }
            resolver.stmts(&mut body.stmts);
        }
    }
}

/// Conservative definite-exit analysis: does this block always `return`
/// or `throw` (directly or through an exhaustive `if`/`else`)?
pub fn block_definitely_exits(block: &Block) -> bool {
    block.stmts.iter().any(stmt_definitely_exits)
}

fn stmt_definitely_exits(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Return(_) | Stmt::Throw(_) => true,
        Stmt::Block(b) => block_definitely_exits(b),
        Stmt::If { then_blk, else_blk: Some(else_blk), .. } => {
            block_definitely_exits(then_blk) && block_definitely_exits(else_blk)
        }
        Stmt::While { cond: Expr::BoolLit(true), body } => !breaks(&body.stmts),
        Stmt::Switch { cases, .. } => switch_definitely_exits(cases),
        Stmt::Try { body, catch, finally } => {
            if let Some(finally) = finally {
                if block_definitely_exits(finally) {
                    return true;
                }
            }
            match catch {
                Some(catch) => block_definitely_exits(body) && block_definitely_exits(catch),
                None => block_definitely_exits(body),
            }
        }
        _ => false,
    }
}

/// A switch definitely exits when it has a `default` arm, no arm contains
/// a `break` targeting the switch itself (one at the arm's top level, not
/// inside a nested loop or switch, escapes without exiting), and from
/// every arm the fall-through suffix of arm bodies reaches an exiting
/// statement. Every suffix ends with the last arm, so that last condition
/// holds exactly when the last arm exits.
fn switch_definitely_exits(cases: &[SwitchCase]) -> bool {
    cases.iter().any(|c| c.is_default)
        && !cases.iter().any(|c| breaks(&c.body))
        && cases.last().is_some_and(|c| c.body.iter().any(stmt_definitely_exits))
}

/// Whether statements contain a `break` that targets the enclosing loop
/// or switch.
fn breaks(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Break => true,
        Stmt::Block(b) => breaks(&b.stmts),
        Stmt::If { then_blk, else_blk, .. } => {
            breaks(&then_blk.stmts) || else_blk.as_ref().is_some_and(|b| breaks(&b.stmts))
        }
        Stmt::Try { body, catch, finally } => {
            breaks(&body.stmts)
                || catch.as_ref().is_some_and(|b| breaks(&b.stmts))
                || finally.as_ref().is_some_and(|b| breaks(&b.stmts))
        }
        // `break` inside nested loops/switch targets the inner construct.
        _ => false,
    })
}

/// What a bare name denotes where it is used.
enum Denotes<'n, T> {
    /// A local in scope, with what the pass recorded for it.
    Local(&'n T),
    /// A field of the enclosing class.
    Field(&'n FieldSig),
}

/// The name table both passes share: the classes, the enclosing class,
/// and the locals in scope at the current point of a method body.
struct Names<'p, T> {
    table: &'p ClassTable,
    class: &'p str,
    /// Every local in scope, outermost first, with what the pass records
    /// for it. Shadowing is rejected, so in a checked method a name occurs
    /// at most once and a linear search is exact.
    locals: Vec<(&'p str, T)>,
    /// `locals.len()` at each open nested scope's entry.
    scope_marks: Vec<usize>,
}

impl<'p, T> Names<'p, T> {
    fn new(table: &'p ClassTable, class: &'p str) -> Self {
        Names { table, class, locals: Vec::new(), scope_marks: Vec::new() }
    }

    fn push_scope(&mut self) {
        self.scope_marks.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scope_marks.pop().expect("scopes are balanced");
        self.locals.truncate(mark);
    }

    fn declare(&mut self, name: &'p str, value: T) {
        self.locals.push((name, value));
    }

    fn lookup(&self, name: &str) -> Option<&T> {
        self.locals.iter().rev().find(|(local, _)| *local == name).map(|(_, value)| value)
    }

    /// A bare name denotes the local in scope, else a field of the
    /// enclosing class.
    fn denotes(&self, name: &str) -> Option<Denotes<'_, T>> {
        match self.lookup(name) {
            Some(local) => Some(Denotes::Local(local)),
            None => self.table.field(self.class, name).map(Denotes::Field),
        }
    }

    /// The class a receiver names: a bare name that denotes no local and
    /// no field but a declared class (`C.f`, `C.m()`).
    fn class_receiver<'e>(&self, recv: &'e Expr) -> Option<&'e str> {
        match recv {
            Expr::Name(name) if self.denotes(name).is_none() && self.table.has_class(name) => {
                Some(name)
            }
            _ => None,
        }
    }
}

/// The read-only type checker of one method body or field initializer.
struct Checker<'p> {
    names: Names<'p, &'p Ty>,
    is_static: bool,
    ret: Ty,
    loop_depth: usize,
    switch_depth: usize,
    /// Loop/switch depths recorded when entering a `try` (or `catch`)
    /// protected by a `finally`. Control transfers that would escape the
    /// protected region are rejected so the bytecode compiler can lower
    /// `finally` by duplicating the block on each exit edge.
    finally_barriers: Vec<(usize, usize)>,
    /// Whether a bare name was met, which the resolver has to rewrite.
    bare_names: bool,
}

impl<'p> Checker<'p> {
    fn new(table: &'p ClassTable, class: &'p str, is_static: bool) -> Self {
        Checker {
            names: Names::new(table, class),
            is_static,
            ret: Ty::Void,
            loop_depth: 0,
            switch_depth: 0,
            finally_barriers: Vec::new(),
            bare_names: false,
        }
    }

    /// Whether a `break` (`for_continue = false`) or `continue` at the
    /// current depth would jump out of a `finally`-protected region.
    fn escapes_finally(&self, for_continue: bool) -> bool {
        match self.finally_barriers.last() {
            None => false,
            Some(&(loops, switches)) => {
                if for_continue {
                    self.loop_depth <= loops
                } else {
                    self.loop_depth + self.switch_depth <= loops + switches
                }
            }
        }
    }

    fn declare(&mut self, name: &'p str, ty: &'p Ty) -> Result<(), FrontError> {
        if self.names.lookup(name).is_some() {
            return Err(FrontError::msg(format!("variable `{name}` shadows an existing variable")));
        }
        self.names.declare(name, ty);
        Ok(())
    }

    fn require_assignable(&self, target: &Ty, from: &Ty, value: &Expr) -> Result<(), FrontError> {
        if target.accepts(from) {
            return Ok(());
        }
        // `null` is assignable to any reference type.
        if target.is_reference() && matches!(value, Expr::Null) {
            return Ok(());
        }
        // Constant int literals in range implicitly narrow to byte (Java's
        // constant-expression narrowing rule, simplified to literals).
        if *target == Ty::Byte {
            if let Expr::IntLit(v) = value {
                if i8::try_from(*v).is_ok() {
                    return Ok(());
                }
            }
        }
        Err(FrontError::msg(format!("cannot assign `{from}` to `{target}`")))
    }

    /// Checks a block's (or a switch arm's) statements in a scope of their own.
    fn stmts(&mut self, stmts: &'p [Stmt]) -> Result<(), FrontError> {
        self.names.push_scope();
        for stmt in stmts {
            self.stmt(stmt)?;
        }
        self.names.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, stmt: &'p Stmt) -> Result<(), FrontError> {
        match stmt {
            Stmt::VarDecl { name, ty, init } => {
                self.names.table.check_ty(ty)?;
                let init_ty = self.expr(init)?;
                self.require_assignable(ty, &init_ty, init)?;
                self.declare(name, ty)
            }
            Stmt::Assign { target, op, value } => {
                let target_ty = self.lvalue(target)?;
                let value_ty = self.expr(value)?;
                match op.binop() {
                    None => self.require_assignable(&target_ty, &value_ty, value),
                    Some(binop) => {
                        // Compound assignment implicitly narrows back to the
                        // target type (Java `b += x` semantics); the operand
                        // types must still be compatible with the operator.
                        let result = self.binop_result(binop, &target_ty, &value_ty)?;
                        // Numeric targets accept any numeric result via the
                        // implicit cast; booleans and strings must match.
                        if (target_ty.is_numeric() && result.is_numeric()) || target_ty == result {
                            Ok(())
                        } else {
                            Err(FrontError::msg(format!(
                                "compound assignment result `{result}` does not fit `{target_ty}`"
                            )))
                        }
                    }
                }
            }
            Stmt::IncDec { target, .. } => {
                let ty = self.lvalue(target)?;
                if ty.is_numeric() {
                    Ok(())
                } else {
                    Err(FrontError::msg(format!("cannot increment value of type `{ty}`")))
                }
            }
            Stmt::If { cond, then_blk, else_blk } => {
                self.require_bool(cond)?;
                self.stmts(&then_blk.stmts)?;
                if let Some(else_blk) = else_blk {
                    self.stmts(&else_blk.stmts)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.require_bool(cond)?;
                self.loop_depth += 1;
                self.stmts(&body.stmts)?;
                self.loop_depth -= 1;
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                self.loop_depth += 1;
                self.stmts(&body.stmts)?;
                self.loop_depth -= 1;
                self.require_bool(cond)
            }
            Stmt::For { init, cond, step, body } => {
                self.names.push_scope();
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.require_bool(cond)?;
                }
                self.loop_depth += 1;
                self.stmts(&body.stmts)?;
                if let Some(step) = step {
                    self.stmt(step)?;
                }
                self.loop_depth -= 1;
                self.names.pop_scope();
                Ok(())
            }
            Stmt::Switch { scrutinee, cases } => {
                let ty = self.expr(scrutinee)?;
                if !matches!(ty, Ty::Int | Ty::Byte) {
                    return Err(FrontError::msg(format!(
                        "switch scrutinee must be int, found `{ty}`"
                    )));
                }
                let mut seen_labels = HashSet::new();
                let mut seen_default = false;
                self.switch_depth += 1;
                for case in cases {
                    for label in &case.labels {
                        if !seen_labels.insert(*label) {
                            return Err(FrontError::msg(format!("duplicate case label {label}")));
                        }
                    }
                    if case.is_default {
                        if seen_default {
                            return Err(FrontError::msg("duplicate default label"));
                        }
                        seen_default = true;
                    }
                    self.stmts(&case.body)?;
                }
                self.switch_depth -= 1;
                Ok(())
            }
            Stmt::Break => {
                if self.loop_depth == 0 && self.switch_depth == 0 {
                    Err(FrontError::msg("`break` outside of a loop or switch"))
                } else if self.escapes_finally(false) {
                    Err(FrontError::msg("`break` may not jump out of a try..finally body"))
                } else {
                    Ok(())
                }
            }
            Stmt::Continue => {
                if self.loop_depth == 0 {
                    Err(FrontError::msg("`continue` outside of a loop"))
                } else if self.escapes_finally(true) {
                    Err(FrontError::msg("`continue` may not jump out of a try..finally body"))
                } else {
                    Ok(())
                }
            }
            Stmt::Return(_) if !self.finally_barriers.is_empty() => {
                Err(FrontError::msg("`return` inside a try..finally body is not supported"))
            }
            Stmt::Return(value) => match (&self.ret, value) {
                (Ty::Void, None) => Ok(()),
                (Ty::Void, Some(_)) => Err(FrontError::msg("void method cannot return a value")),
                (ret, None) => Err(FrontError::msg(format!("method must return `{ret}`"))),
                (ret, Some(value)) => {
                    let ret = ret.clone();
                    let value_ty = self.expr(value)?;
                    self.require_assignable(&ret, &value_ty, value)
                }
            },
            Stmt::ExprStmt(expr) => {
                self.expr(expr)?;
                if matches!(
                    expr,
                    Expr::StaticCall { .. } | Expr::InstCall { .. } | Expr::FreeCall { .. }
                ) {
                    Ok(())
                } else {
                    Err(FrontError::msg("expression statements must be method calls"))
                }
            }
            Stmt::Block(block) => self.stmts(&block.stmts),
            Stmt::Try { body, catch, finally } => {
                let protected = finally.is_some();
                if protected {
                    self.finally_barriers.push((self.loop_depth, self.switch_depth));
                }
                self.stmts(&body.stmts)?;
                if let Some(catch) = catch {
                    self.stmts(&catch.stmts)?;
                }
                if protected {
                    self.finally_barriers.pop();
                }
                if let Some(finally) = finally {
                    self.stmts(&finally.stmts)?;
                }
                Ok(())
            }
            Stmt::Throw(code) => {
                let ty = self.expr(code)?;
                if matches!(ty, Ty::Int | Ty::Byte) {
                    Ok(())
                } else {
                    Err(FrontError::msg(format!("throw requires an int code, found `{ty}`")))
                }
            }
            Stmt::Println(value) => {
                let ty = self.expr(value)?;
                if ty.is_primitive_alike() {
                    Ok(())
                } else {
                    Err(FrontError::msg(format!(
                        "println argument must be a primitive or String, found `{ty}`"
                    )))
                }
            }
            Stmt::Mute | Stmt::Unmute => Ok(()),
        }
    }

    fn require_bool(&mut self, expr: &'p Expr) -> Result<(), FrontError> {
        let ty = self.expr(expr)?;
        if ty == Ty::Bool {
            Ok(())
        } else {
            Err(FrontError::msg(format!("condition must be boolean, found `{ty}`")))
        }
    }

    fn lvalue(&mut self, lvalue: &'p LValue) -> Result<Ty, FrontError> {
        match lvalue {
            LValue::Name(name) => self.bare_name(name),
            LValue::Local(name) => self.local(name),
            LValue::StaticField { class, field } => self.static_field(class, field),
            LValue::InstField { recv, field } => self.inst_field(recv, field),
            LValue::Index { array, index } => self.index(array, index),
        }
    }

    /// The type of a bare name, which the resolver will rewrite.
    fn bare_name(&mut self, name: &str) -> Result<Ty, FrontError> {
        self.bare_names = true;
        match self.names.denotes(name) {
            Some(Denotes::Local(ty)) => Ok(Ty::clone(ty)),
            Some(Denotes::Field(sig)) if !sig.is_static && self.is_static => Err(FrontError::msg(
                format!("instance field `{name}` referenced from a static context"),
            )),
            Some(Denotes::Field(sig)) => Ok(sig.ty.clone()),
            None => Err(FrontError::msg(format!("unknown variable `{name}`"))),
        }
    }

    fn local(&self, name: &str) -> Result<Ty, FrontError> {
        self.names
            .lookup(name)
            .map(|ty| Ty::clone(ty))
            .ok_or_else(|| FrontError::msg(format!("unknown local `{name}`")))
    }

    fn static_field(&self, class: &str, field: &str) -> Result<Ty, FrontError> {
        let sig = self
            .names
            .table
            .field(class, field)
            .ok_or_else(|| FrontError::msg(format!("unknown field `{class}.{field}`")))?;
        if !sig.is_static {
            return Err(FrontError::msg(format!("field `{class}.{field}` is not static")));
        }
        Ok(sig.ty.clone())
    }

    fn inst_field(&mut self, recv: &'p Expr, field: &str) -> Result<Ty, FrontError> {
        // A bare class name as receiver means a static field access.
        if let Some(class) = self.names.class_receiver(recv) {
            self.bare_names = true;
            return self.static_field(class, field);
        }
        let recv_ty = self.expr(recv)?;
        let Ty::Class(class) = &recv_ty else {
            return Err(FrontError::msg(format!("type `{recv_ty}` has no fields")));
        };
        let sig = self
            .names
            .table
            .field(class, field)
            .ok_or_else(|| FrontError::msg(format!("unknown field `{class}.{field}`")))?;
        if sig.is_static {
            return Err(FrontError::msg(format!(
                "static field `{class}.{field}` accessed through an instance"
            )));
        }
        Ok(sig.ty.clone())
    }

    fn index(&mut self, array: &'p Expr, index: &'p Expr) -> Result<Ty, FrontError> {
        let array_ty = self.expr(array)?;
        let index_ty = self.expr(index)?;
        if !matches!(index_ty, Ty::Int | Ty::Byte) {
            return Err(FrontError::msg(format!("array index must be int, found `{index_ty}`")));
        }
        match array_ty.elem() {
            Some(elem) => Ok(elem.clone()),
            None => Err(FrontError::msg(format!("cannot index non-array type `{array_ty}`"))),
        }
    }

    fn static_call(
        &mut self,
        class: &str,
        method: &str,
        args: &'p [Expr],
    ) -> Result<Ty, FrontError> {
        let table = self.names.table;
        let sig = table
            .method(class, method)
            .ok_or_else(|| FrontError::msg(format!("unknown method `{class}.{method}`")))?;
        if !sig.is_static {
            return Err(FrontError::msg(format!("method `{class}.{method}` is not static")));
        }
        self.check_args(method, sig, args)?;
        Ok(sig.ret.clone())
    }

    /// Type-checks an expression, returning its type.
    fn expr(&mut self, expr: &'p Expr) -> Result<Ty, FrontError> {
        let table = self.names.table;
        let ty = match expr {
            Expr::IntLit(_) => Ty::Int,
            Expr::LongLit(_) => Ty::Long,
            Expr::BoolLit(_) => Ty::Bool,
            Expr::StrLit(_) => Ty::Str,
            Expr::Null => {
                // `null` only appears where the context supplies a reference
                // type; the pseudo-type is reported as a class named `null`
                // and handled specially in assignability/equality checks.
                Ty::Class("null".into())
            }
            Expr::Name(name) => self.bare_name(name)?,
            Expr::Local(name) => self.local(name)?,
            Expr::This => {
                if self.is_static {
                    return Err(FrontError::msg("`this` used in a static context"));
                }
                Ty::Class(self.names.class.to_string())
            }
            Expr::StaticField { class, field } => self.static_field(class, field)?,
            Expr::InstField { recv, field } => self.inst_field(recv, field)?,
            Expr::Index { array, index } => self.index(array, index)?,
            Expr::Length(array) => {
                let ty = self.expr(array)?;
                if ty.elem().is_none() {
                    return Err(FrontError::msg(format!(
                        "`.length` requires an array, found `{ty}`"
                    )));
                }
                Ty::Int
            }
            Expr::NewObject(class) => {
                if !table.has_class(class) {
                    return Err(FrontError::msg(format!("unknown class `{class}`")));
                }
                Ty::Class(class.clone())
            }
            Expr::NewArray { elem, dims, extra_dims } => {
                table.check_ty(elem)?;
                if dims.is_empty() {
                    return Err(FrontError::msg(
                        "array creation needs at least one sized dimension",
                    ));
                }
                for dim in dims {
                    let dim_ty = self.expr(dim)?;
                    if !matches!(dim_ty, Ty::Int | Ty::Byte) {
                        return Err(FrontError::msg(format!(
                            "array size must be int, found `{dim_ty}`"
                        )));
                    }
                }
                let mut ty = elem.clone();
                for _ in 0..(dims.len() + *extra_dims) {
                    ty = ty.array_of();
                }
                ty
            }
            Expr::NewArrayInit { elem, elems } => {
                table.check_ty(elem)?;
                for e in elems {
                    let t = self.expr(e)?;
                    self.require_assignable(elem, &t, e)?;
                }
                elem.clone().array_of()
            }
            Expr::FreeCall { name, args } => {
                self.bare_names = true;
                let sig = table
                    .method(self.names.class, name)
                    .ok_or_else(|| FrontError::msg(format!("unknown method `{name}`")))?;
                self.check_args(name, sig, args)?;
                if !sig.is_static && self.is_static {
                    return Err(FrontError::msg(format!(
                        "instance method `{name}` called from a static context"
                    )));
                }
                sig.ret.clone()
            }
            Expr::StaticCall { class, method, args } => self.static_call(class, method, args)?,
            Expr::InstCall { recv, method, args } => {
                // A bare class name as receiver means a static call.
                if let Some(class) = self.names.class_receiver(recv) {
                    self.bare_names = true;
                    return self.static_call(class, method, args);
                }
                let recv_ty = self.expr(recv)?;
                let Ty::Class(class) = &recv_ty else {
                    return Err(FrontError::msg(format!("type `{recv_ty}` has no methods")));
                };
                let sig = table
                    .method(class, method)
                    .ok_or_else(|| FrontError::msg(format!("unknown method `{class}.{method}`")))?;
                if sig.is_static {
                    return Err(FrontError::msg(format!(
                        "static method `{class}.{method}` called through an instance"
                    )));
                }
                self.check_args(method, sig, args)?;
                sig.ret.clone()
            }
            Expr::IntrinsicCall { which, args } => {
                let expected = match which {
                    Intrinsic::Min | Intrinsic::Max => 2,
                    Intrinsic::Abs => 1,
                };
                if args.len() != expected {
                    return Err(FrontError::msg(format!(
                        "Math intrinsic expects {expected} arguments, found {}",
                        args.len()
                    )));
                }
                let mut ty = Ty::Int;
                for arg in args {
                    let t = self.expr(arg)?;
                    if !t.is_numeric() {
                        return Err(FrontError::msg(format!(
                            "Math intrinsic requires numeric args, found `{t}`"
                        )));
                    }
                    ty = ty.promote(&t).expect("both numeric");
                }
                ty
            }
            Expr::Unary { op, expr: inner } => {
                let ty = self.expr(inner)?;
                match op {
                    UnOp::Neg | UnOp::BitNot => {
                        if !ty.is_numeric() {
                            return Err(FrontError::msg(format!("numeric operator on `{ty}`")));
                        }
                        // Unary numeric promotion: byte -> int.
                        if ty == Ty::Byte {
                            Ty::Int
                        } else {
                            ty
                        }
                    }
                    UnOp::Not => {
                        if ty != Ty::Bool {
                            return Err(FrontError::msg(format!(
                                "`!` requires boolean, found `{ty}`"
                            )));
                        }
                        Ty::Bool
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lhs_ty = self.expr(lhs)?;
                let rhs_ty = self.expr(rhs)?;
                self.binop_result(*op, &lhs_ty, &rhs_ty)?
            }
            Expr::Cast { ty, expr: inner } => {
                let from = self.expr(inner)?;
                if !ty.is_numeric() || !from.is_numeric() {
                    return Err(FrontError::msg(format!(
                        "unsupported cast from `{from}` to `{ty}`"
                    )));
                }
                ty.clone()
            }
        };
        Ok(ty)
    }

    fn check_args(
        &mut self,
        name: &str,
        sig: &MethodSig,
        args: &'p [Expr],
    ) -> Result<(), FrontError> {
        if args.len() != sig.params.len() {
            return Err(FrontError::msg(format!(
                "method `{name}` expects {} arguments, found {}",
                sig.params.len(),
                args.len()
            )));
        }
        for (arg, param_ty) in args.iter().zip(&sig.params) {
            let arg_ty = self.expr(arg)?;
            self.require_assignable(param_ty, &arg_ty, arg)?;
        }
        Ok(())
    }

    /// Computes the result type of a binary operator, or an error.
    fn binop_result(&self, op: BinOp, lhs: &Ty, rhs: &Ty) -> Result<Ty, FrontError> {
        let err =
            || FrontError::msg(format!("operator `{op:?}` not applicable to `{lhs}` and `{rhs}`"));
        match op {
            BinOp::Add if *lhs == Ty::Str || *rhs == Ty::Str => {
                let other = if *lhs == Ty::Str { rhs } else { lhs };
                if other.is_primitive_alike() {
                    Ok(Ty::Str)
                } else {
                    Err(err())
                }
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                lhs.promote(rhs).ok_or_else(err)
            }
            BinOp::And | BinOp::Or | BinOp::Xor => {
                if *lhs == Ty::Bool && *rhs == Ty::Bool {
                    Ok(Ty::Bool)
                } else {
                    lhs.promote(rhs).ok_or_else(err)
                }
            }
            BinOp::Shl | BinOp::Shr | BinOp::Ushr => {
                if !lhs.is_numeric() || !rhs.is_numeric() {
                    return Err(err());
                }
                // The result type is the promoted *left* operand only.
                Ok(if *lhs == Ty::Long { Ty::Long } else { Ty::Int })
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if lhs.promote(rhs).is_some() {
                    Ok(Ty::Bool)
                } else {
                    Err(err())
                }
            }
            BinOp::Eq | BinOp::Ne => {
                let null = Ty::Class("null".into());
                if lhs.promote(rhs).is_some()
                    || (*lhs == Ty::Bool && *rhs == Ty::Bool)
                    || (lhs.is_reference() && *rhs == null)
                    || (*lhs == null && rhs.is_reference())
                    || (*lhs == null && *rhs == null)
                    || (lhs == rhs && lhs.is_reference() && *lhs != Ty::Str)
                {
                    Ok(Ty::Bool)
                } else {
                    Err(err())
                }
            }
            BinOp::LAnd | BinOp::LOr => {
                if *lhs == Ty::Bool && *rhs == Ty::Bool {
                    Ok(Ty::Bool)
                } else {
                    Err(err())
                }
            }
        }
    }
}

/// The in-place resolver of one method body or field initializer. It runs
/// only on programs the checker accepted, so every bare name denotes
/// something.
struct Resolver<'p> {
    names: Names<'p, ()>,
}

impl<'p> Resolver<'p> {
    /// Resolves a block's (or a switch arm's) statements in a scope of
    /// their own.
    fn stmts(&mut self, stmts: &'p mut [Stmt]) {
        self.names.push_scope();
        for stmt in stmts {
            self.stmt(stmt);
        }
        self.names.pop_scope();
    }

    fn stmt(&mut self, stmt: &'p mut Stmt) {
        match stmt {
            Stmt::VarDecl { name, init, .. } => {
                self.expr(init);
                self.names.declare(name, ());
            }
            Stmt::Assign { target, value, .. } => {
                self.lvalue(target);
                self.expr(value);
            }
            Stmt::IncDec { target, .. } => self.lvalue(target),
            Stmt::If { cond, then_blk, else_blk } => {
                self.expr(cond);
                self.stmts(&mut then_blk.stmts);
                if let Some(else_blk) = else_blk {
                    self.stmts(&mut else_blk.stmts);
                }
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                self.expr(cond);
                self.stmts(&mut body.stmts);
            }
            Stmt::For { init, cond, step, body } => {
                self.names.push_scope();
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(cond) = cond {
                    self.expr(cond);
                }
                self.stmts(&mut body.stmts);
                if let Some(step) = step {
                    self.stmt(step);
                }
                self.names.pop_scope();
            }
            Stmt::Switch { scrutinee, cases } => {
                self.expr(scrutinee);
                for case in cases {
                    self.stmts(&mut case.body);
                }
            }
            Stmt::Return(Some(expr))
            | Stmt::ExprStmt(expr)
            | Stmt::Throw(expr)
            | Stmt::Println(expr) => self.expr(expr),
            Stmt::Block(block) => self.stmts(&mut block.stmts),
            Stmt::Try { body, catch, finally } => {
                self.stmts(&mut body.stmts);
                for block in [catch, finally].into_iter().flatten() {
                    self.stmts(&mut block.stmts);
                }
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue | Stmt::Mute | Stmt::Unmute => {}
        }
    }

    fn lvalue(&mut self, lvalue: &mut LValue) {
        match lvalue {
            LValue::Name(name) => {
                *lvalue = match self.names.denotes(name) {
                    Some(Denotes::Local(())) => LValue::Local(take(name)),
                    Some(Denotes::Field(sig)) if sig.is_static => LValue::StaticField {
                        class: self.names.class.to_string(),
                        field: take(name),
                    },
                    Some(Denotes::Field(_)) => {
                        LValue::InstField { recv: Box::new(Expr::This), field: take(name) }
                    }
                    None => return,
                }
            }
            LValue::InstField { recv, field } => match self.names.class_receiver(recv) {
                Some(class) => {
                    *lvalue = LValue::StaticField { class: class.to_string(), field: take(field) }
                }
                None => self.expr(recv),
            },
            LValue::Index { array, index } => {
                self.expr(array);
                self.expr(index);
            }
            LValue::Local(_) | LValue::StaticField { .. } => {}
        }
    }

    fn expr(&mut self, expr: &mut Expr) {
        match expr {
            Expr::Name(name) => {
                *expr = match self.names.denotes(name) {
                    Some(Denotes::Local(())) => Expr::Local(take(name)),
                    Some(Denotes::Field(sig)) if sig.is_static => {
                        Expr::StaticField { class: self.names.class.to_string(), field: take(name) }
                    }
                    Some(Denotes::Field(_)) => {
                        Expr::InstField { recv: Box::new(Expr::This), field: take(name) }
                    }
                    None => return,
                }
            }
            Expr::InstField { recv, field } => match self.names.class_receiver(recv) {
                Some(class) => {
                    *expr = Expr::StaticField { class: class.to_string(), field: take(field) }
                }
                None => self.expr(recv),
            },
            Expr::FreeCall { name, args } => {
                self.exprs(args);
                let Some(sig) = self.names.table.method(self.names.class, name) else { return };
                let (method, args) = (take(name), take(args));
                *expr = if sig.is_static {
                    Expr::StaticCall { class: self.names.class.to_string(), method, args }
                } else {
                    Expr::InstCall { recv: Box::new(Expr::This), method, args }
                };
            }
            Expr::InstCall { recv, method, args } => {
                self.exprs(args);
                match self.names.class_receiver(recv) {
                    Some(class) => {
                        *expr = Expr::StaticCall {
                            class: class.to_string(),
                            method: take(method),
                            args: take(args),
                        }
                    }
                    None => self.expr(recv),
                }
            }
            Expr::StaticCall { args, .. }
            | Expr::IntrinsicCall { args, .. }
            | Expr::NewArray { dims: args, .. }
            | Expr::NewArrayInit { elems: args, .. } => self.exprs(args),
            Expr::Index { array: lhs, index: rhs } | Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Length(inner)
            | Expr::Unary { expr: inner, .. }
            | Expr::Cast { expr: inner, .. } => self.expr(inner),
            Expr::IntLit(_)
            | Expr::LongLit(_)
            | Expr::BoolLit(_)
            | Expr::StrLit(_)
            | Expr::Null
            | Expr::Local(_)
            | Expr::This
            | Expr::StaticField { .. }
            | Expr::NewObject(_) => {}
        }
    }

    fn exprs(&mut self, exprs: &mut [Expr]) {
        for expr in exprs {
            self.expr(expr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_check;

    fn ok(src: &str) -> Program {
        parse_and_check(src).unwrap()
    }

    fn fails(src: &str) -> String {
        parse_and_check(src).unwrap_err().message
    }

    #[test]
    fn resolves_locals_fields_and_calls() {
        let p = ok(r#"
            class T {
                int f;
                static int s;
                int get() { return f + T.s; }
                static void main() {
                    T t = new T();
                    t.f = 3;
                    T.s = 4;
                    println(t.get());
                }
            }
        "#);
        // `f` resolved to this.f inside get().
        let get = p.classes[0].method("get").unwrap();
        let Stmt::Return(Some(Expr::Binary { lhs, rhs, .. })) = &get.body.stmts[0] else {
            panic!();
        };
        assert!(matches!(lhs.as_ref(), Expr::InstField { .. }));
        assert!(matches!(rhs.as_ref(), Expr::StaticField { .. }));
    }

    #[test]
    fn resolves_unqualified_calls() {
        let p = ok(r#"
            class T {
                int a() { return 1; }
                static int b() { return 2; }
                int c() { return a() + b(); }
                static void main() { println(new T().c()); }
            }
        "#);
        let c = p.classes[0].method("c").unwrap();
        let Stmt::Return(Some(Expr::Binary { lhs, rhs, .. })) = &c.body.stmts[0] else {
            panic!();
        };
        assert!(matches!(lhs.as_ref(), Expr::InstCall { .. }));
        assert!(matches!(rhs.as_ref(), Expr::StaticCall { .. }));
    }

    #[test]
    fn rejects_type_errors() {
        assert!(fails("class T { static void main() { int x = true; } }").contains("assign"));
        assert!(fails("class T { static void main() { if (1) { } } }").contains("boolean"));
        assert!(
            fails("class T { static void main() { long l = 1L; int x = l; } }").contains("assign")
        );
        assert!(fails("class T { static void main() { byte b = 200; } }").contains("assign"));
        assert!(fails("class T { static void main() { int x = y; } }").contains("unknown variable"));
        assert!(fails("class T { static void main() { boolean b = true << 2 > 1; } }")
            .contains("not applicable"));
    }

    /// The checker works in place, so a failed check must leave every
    /// node where it was: quarantined mutants are printed after it fails.
    #[test]
    fn type_error_leaves_the_program_printing_unchanged() {
        for src in [
            "class T { static void main() { int x = 1; int y = x + true; } }",
            "class T { static void main() { int a = 1; foo(a, 2); } }",
            "class T { static int m(int a) { return a; } static void main() { m(true); } }",
            "class T { int f; static void main() { T t = new T(); int x = t.g; } }",
            "class T { int f; static void main() { T t = new T(); t.g = 1; } }",
            "class T { static void main() { int x = 1; x.f = 2; } }",
            "class T { static int f = true; static void main() { } }",
            "class T { static int m(int a) { a = a + 1; } static void main() { } }",
        ] {
            let mut program = crate::parse(src).unwrap();
            let before = crate::pretty::print(&program);
            assert!(check(&mut program).is_err(), "{src} type-checked");
            assert_eq!(crate::pretty::print(&program), before, "{src}");
        }
    }

    /// A resolved program is checked where it is; one that holds bare
    /// names is copied and resolved exactly as `check` resolves in place.
    #[test]
    fn checked_copies_only_programs_with_bare_names() {
        let src = r#"
            class P { static int n; int v; static int twice(int x) { return 2 * x; } }
            class T {
                int f;
                static int s;
                int g = s + P.n;
                int get() { f += s; return f + g + P.n + P.twice(s) + T.s; }
                static void main() {
                    T t = new T();
                    s = 4;
                    P.n = 1;
                    t.f = P.twice(3);
                    println(t.get());
                }
            }
        "#;
        let resolved = ok(src);
        assert!(matches!(checked(&resolved), Ok(Cow::Borrowed(_))));
        let parsed = crate::parse(src).unwrap();
        match checked(&parsed) {
            Ok(Cow::Owned(copy)) => assert_eq!(copy, resolved),
            other => panic!("expected a resolved copy, got {other:?}"),
        }
        // Only the members that hold bare names are resolved, the way a
        // mutant's edited methods are.
        for (member, edit) in [("get", 0), ("main", 1)] {
            let mut mixed = resolved.clone();
            mixed.classes[1].methods[edit] = parsed.classes[1].methods[edit].clone();
            assert_ne!(mixed, resolved, "{member}");
            check(&mut mixed).unwrap();
            assert_eq!(mixed, resolved, "{member}");
        }
    }

    #[test]
    fn byte_rules() {
        // Literal in range narrows implicitly; arithmetic promotes to int.
        ok("class T { static void main() { byte b = 127; b += 5; b++; int x = b * b; } }");
        assert!(fails("class T { static void main() { byte b = 1; byte c = b + b; } }")
            .contains("assign"));
        ok("class T { static void main() { byte b = 1; byte c = (byte) (b + b); } }");
    }

    #[test]
    fn static_context_rules() {
        assert!(
            fails("class T { int f; static void main() { f = 1; } }").contains("static context")
        );
        assert!(fails("class T { static void main() { this.x(); } int x() { return 1; } }")
            .contains("`this`"));
        assert!(fails("class T { int a() { return 1; } static void main() { a(); } }")
            .contains("static context"));
    }

    #[test]
    fn requires_entry_point() {
        assert!(fails("class T { static void f() { } }").contains("entry point"));
    }

    #[test]
    fn requires_definite_return() {
        assert!(fails("class T { static int f() { int x = 1; } static void main() { } }")
            .contains("fall off"));
        ok("class T { static int f(boolean b) { if (b) { return 1; } else { return 2; } } static void main() { } }");
        ok("class T { static int f() { while (true) { } } static void main() { } }");
        assert!(fails(
            "class T { static int f() { while (true) { break; } } static void main() { } }"
        )
        .contains("fall off"));
        ok("class T { static int f() { throw 3; } static void main() { } }");
    }

    #[test]
    fn switch_rules() {
        assert!(fails(
            "class T { static void main() { switch (1) { case 1: break; case 1: break; } } }"
        )
        .contains("duplicate case"));
        assert!(fails("class T { static void main() { switch (true) { default: break; } } }")
            .contains("scrutinee"));
    }

    #[test]
    fn break_continue_placement() {
        assert!(fails("class T { static void main() { break; } }").contains("break"));
        assert!(fails("class T { static void main() { continue; } }").contains("continue"));
        assert!(fails("class T { static void main() { switch (1) { default: continue; } } }")
            .contains("continue"));
        ok("class T { static void main() { while (true) { switch (1) { default: break; } break; } } }");
    }

    #[test]
    fn null_and_reference_equality() {
        ok(r#"
            class P { int v; }
            class T {
                static void main() {
                    P p = new P();
                    P q = null;
                    int[] a = new int[2];
                    if (p == q || a != null) { println(1); }
                }
            }
        "#);
        assert!(fails(r#"class T { static void main() { String s = "a"; if (s == "a") { } } }"#)
            .contains("not applicable"));
    }

    #[test]
    fn string_concat() {
        ok(r#"class T { static void main() { println("v=" + 3 + ";" + true + 7L); } }"#);
        assert!(fails(
            r#"class T { static void main() { int[] a = new int[1]; println("x" + a); } }"#
        )
        .contains("not applicable"));
    }

    #[test]
    fn shadowing_rejected() {
        assert!(fails("class T { static void main() { int x = 1; { int x = 2; } } }")
            .contains("shadows"));
        // Non-overlapping scopes may reuse names.
        ok("class T { static void main() { { int x = 1; } { int x = 2; } } }");
    }

    #[test]
    fn shadowing_rejected_at_any_depth() {
        // Parameters, outer locals and for-loop variables are all visible
        // to every nested scope, however deep.
        for body in [
            "int x = 1; if (x > 0) { while (x > 0) { int x = 2; } }",
            "for (int i = 0; i < 2; i++) { switch (i) { case 0: int i = 3; break; } }",
            "int x = 1; try { { int y = 2; int x = 3; } } catch { }",
            "int x = 1; int x = 2;",
        ] {
            let src = format!("class T {{ static void main() {{ {body} }} }}");
            assert!(fails(&src).contains("shadows"), "{body}");
        }
        assert!(fails(
            "class T { static void f(int p) { if (true) { int p = 1; } } \
                       static void main() { } }"
        )
        .contains("shadows"));
    }

    #[test]
    fn sibling_scopes_reuse_names() {
        // A closed scope's locals are gone: siblings, later loops and the
        // enclosing scope after it may declare the same name with another
        // type, and each use resolves to the declaration in scope.
        ok("class T { static void main() { \
              for (int i = 0; i < 2; i++) { println(i); } \
              for (int i = 0; i < 2; i++) { println(i); } \
              if (true) { long v = 1L; println(v); } else { boolean v = true; println(v); } \
              switch (1) { case 0: int w = 1; println(w); break; \
                           default: long w = 2L; println(w); } \
              { boolean z = true; println(z); } \
              int z = 3; println(z + 1); } }");
        assert!(fails("class T { static void main() { { long v = 1L; } long w = v; } }")
            .contains("unknown variable `v`"));
    }

    #[test]
    fn reserved_names_rejected() {
        assert!(fails("class Math { static void main() { } }").contains("reserved"));
        assert!(fails("class T { static void println() { } static void main() { } }")
            .contains("reserved"));
    }

    #[test]
    fn duplicate_members_rejected() {
        assert!(
            fails("class T { int x; int x; static void main() { } }").contains("duplicate field")
        );
        assert!(fails(
            "class T { static void f() { } static void f() { } static void main() { } }"
        )
        .contains("duplicate method"));
        assert!(fails("class T { static void main() { } } class T { }").contains("duplicate class"));
    }

    #[test]
    fn field_initializers_checked() {
        ok("class T { static int a = 3; static int b = a + 1; static void main() { } }");
        assert!(fails("class T { static int a = true; static void main() { } }").contains("assign"));
        assert!(fails("class T { int f; static int a = f; static void main() { } }")
            .contains("static context"));
    }

    #[test]
    fn finally_escape_rules() {
        assert!(fails(
            "class T { static int f() { try { return 1; } finally { } } static void main() { } }"
        )
        .contains("finally"));
        assert!(fails(
            "class T { static void main() { while (true) { try { break; } finally { } } } }"
        )
        .contains("finally"));
        assert!(fails(
            "class T { static void main() { while (true) { try { continue; } finally { } } } }"
        )
        .contains("finally"));
        // Breaks whose target loop is inside the protected region are fine.
        ok("class T { static void main() { try { while (true) { break; } } finally { } } }");
        // Code inside the finally block itself is unrestricted.
        ok("class T { static void main() { try { } finally { while (true) { break; } } } }");
        // try..catch without finally is unrestricted.
        ok("class T { static int f() { try { return 1; } catch { } return 2; } static void main() { } }");
    }

    #[test]
    fn foreach_resolves_after_desugaring() {
        ok(r#"
            class T {
                static int sum(int[] k) {
                    int s = 0;
                    for (int m : k) { s += m; }
                    return s;
                }
                static void main() { println(sum(new int[] { 1, 2, 3 })); }
            }
        "#);
    }
}
