//! Name resolution and type checking.
//!
//! [`check`] rewrites the AST in place: every [`Expr::Name`],
//! [`Expr::FreeCall`], and [`LValue::Name`] is replaced by its resolved form
//! (local, static field/call, or instance field/call through `this`), and
//! every expression is verified against Java-like typing rules (numeric
//! promotion, implicit widening, explicit narrowing casts, boolean
//! conditions, single-name method resolution without overloading).

use std::collections::{HashMap, HashSet};

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

/// Resolves names and type-checks the program in place, copying no
/// part of the AST. On error every node is still in place: the program
/// prints as the same source, except that names resolved before the
/// error print qualified (`T.f`, `this.f`, `T.m()`).
pub fn check(program: &mut Program) -> Result<(), FrontError> {
    let table = ClassTable::build(program)?;
    if program.entry().is_none() {
        return Err(FrontError::msg("program has no `static void main()` entry point"));
    }
    for class in &mut program.classes {
        for field in &mut class.fields {
            table.check_ty(&field.ty)?;
            if let Some(init) = &mut field.init {
                let mut ck = Checker::new(&table, &class.name, field.is_static);
                let init_ty = ck.expr(init)?;
                ck.require_assignable(&field.ty, &init_ty, init)?;
            }
        }
        for method in &mut class.methods {
            check_method(&table, &class.name, method)?;
        }
    }
    Ok(())
}

/// Resolves and type-checks one method body in place.
fn check_method(
    table: &ClassTable,
    class_name: &str,
    method: &mut MethodDecl,
) -> Result<(), FrontError> {
    table.check_ty(&method.ret)?;
    let mut ck = Checker::new(table, class_name, method.is_static);
    ck.ret = method.ret.clone();
    ck.push_scope();
    let mut seen = HashSet::new();
    for param in &method.params {
        table.check_ty(&param.ty)?;
        if !seen.insert(param.name.as_str()) {
            return Err(FrontError::msg(format!("duplicate parameter `{}`", param.name)));
        }
        ck.declare(&param.name, param.ty.clone())?;
    }
    ck.block(&mut method.body)?;
    ck.pop_scope();
    if method.ret != Ty::Void && !block_definitely_exits(&method.body) {
        return Err(FrontError::msg(format!(
            "method `{}.{}` may fall off the end without returning",
            class_name, method.name
        )));
    }
    Ok(())
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
        Stmt::While { cond: Expr::BoolLit(true), body } => !block_breaks(body),
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
/// a `break` targeting the switch itself, and from every arm the
/// fall-through suffix of arm bodies reaches an exiting statement.
fn switch_definitely_exits(cases: &[SwitchCase]) -> bool {
    if !cases.iter().any(|c| c.is_default) {
        return false;
    }
    // A `break` at switch top level (not inside a nested loop/switch)
    // escapes without exiting.
    let escapes = |stmts: &[Stmt]| -> bool {
        let block = Block { stmts: stmts.to_vec() };
        block_breaks(&block)
    };
    for start in 0..cases.len() {
        let mut exits = false;
        for case in &cases[start..] {
            if escapes(&case.body) {
                return false;
            }
            if case.body.iter().any(stmt_definitely_exits) {
                exits = true;
                break;
            }
        }
        if !exits {
            return false;
        }
    }
    true
}

/// Whether a loop body contains a `break` that targets the enclosing loop.
fn block_breaks(block: &Block) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Break => true,
        Stmt::Block(b) => block_breaks(b),
        Stmt::If { then_blk, else_blk, .. } => {
            block_breaks(then_blk) || else_blk.as_ref().is_some_and(block_breaks)
        }
        Stmt::Try { body, catch, finally } => {
            block_breaks(body)
                || catch.as_ref().is_some_and(block_breaks)
                || finally.as_ref().is_some_and(block_breaks)
        }
        // `break` inside nested loops/switch targets the inner construct.
        _ => false,
    })
}

struct Checker<'a> {
    table: &'a ClassTable,
    class: &'a str,
    is_static: bool,
    ret: Ty,
    /// Every local in scope, outermost first. Shadowing is rejected, so
    /// a name occurs at most once and a linear search is exact.
    locals: Vec<(String, Ty)>,
    /// `locals.len()` at each open nested scope's entry.
    scope_marks: Vec<usize>,
    loop_depth: usize,
    switch_depth: usize,
    /// Loop/switch depths recorded when entering a `try` (or `catch`)
    /// protected by a `finally`. Control transfers that would escape the
    /// protected region are rejected so the bytecode compiler can lower
    /// `finally` by duplicating the block on each exit edge.
    finally_barriers: Vec<(usize, usize)>,
}

impl<'a> Checker<'a> {
    fn new(table: &'a ClassTable, class: &'a str, is_static: bool) -> Self {
        Checker {
            table,
            class,
            is_static,
            ret: Ty::Void,
            locals: Vec::new(),
            scope_marks: Vec::new(),
            loop_depth: 0,
            switch_depth: 0,
            finally_barriers: Vec::new(),
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

    fn push_scope(&mut self) {
        self.scope_marks.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.scope_marks.pop().expect("scopes are balanced");
        self.locals.truncate(mark);
    }

    fn declare(&mut self, name: &str, ty: Ty) -> Result<(), FrontError> {
        if self.lookup(name).is_some() {
            return Err(FrontError::msg(format!("variable `{name}` shadows an existing variable")));
        }
        self.locals.push((name.to_string(), ty));
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&Ty> {
        self.locals.iter().rev().find(|(local, _)| local == name).map(|(_, ty)| ty)
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

    fn block(&mut self, block: &mut Block) -> Result<(), FrontError> {
        self.push_scope();
        for stmt in &mut block.stmts {
            self.stmt(stmt)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, stmt: &mut Stmt) -> Result<(), FrontError> {
        match stmt {
            Stmt::VarDecl { name, ty, init } => {
                self.table.check_ty(ty)?;
                let init_ty = self.expr(init)?;
                self.require_assignable(ty, &init_ty, init)?;
                self.declare(name, ty.clone())
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
                self.block(then_blk)?;
                if let Some(else_blk) = else_blk {
                    self.block(else_blk)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.require_bool(cond)?;
                self.loop_depth += 1;
                self.block(body)?;
                self.loop_depth -= 1;
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                self.loop_depth += 1;
                self.block(body)?;
                self.loop_depth -= 1;
                self.require_bool(cond)
            }
            Stmt::For { init, cond, step, body } => {
                self.push_scope();
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.require_bool(cond)?;
                }
                self.loop_depth += 1;
                self.block(body)?;
                if let Some(step) = step {
                    self.stmt(step)?;
                }
                self.loop_depth -= 1;
                self.pop_scope();
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
                for case in cases.iter_mut() {
                    for label in &case.labels {
                        if !seen_labels.insert(*label) {
                            self.switch_depth -= 1;
                            return Err(FrontError::msg(format!("duplicate case label {label}")));
                        }
                    }
                    if case.is_default {
                        if seen_default {
                            self.switch_depth -= 1;
                            return Err(FrontError::msg("duplicate default label"));
                        }
                        seen_default = true;
                    }
                    self.push_scope();
                    for stmt in &mut case.body {
                        if let Err(e) = self.stmt(stmt) {
                            self.switch_depth -= 1;
                            return Err(e);
                        }
                    }
                    self.pop_scope();
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
                let resolved_is_call = {
                    self.expr(expr)?;
                    matches!(expr, Expr::StaticCall { .. } | Expr::InstCall { .. })
                };
                if resolved_is_call {
                    Ok(())
                } else {
                    Err(FrontError::msg("expression statements must be method calls"))
                }
            }
            Stmt::Block(block) => self.block(block),
            Stmt::Try { body, catch, finally } => {
                let protected = finally.is_some();
                if protected {
                    self.finally_barriers.push((self.loop_depth, self.switch_depth));
                }
                let mut result = self.block(body);
                if result.is_ok() {
                    if let Some(catch) = catch {
                        result = self.block(catch);
                    }
                }
                if protected {
                    self.finally_barriers.pop();
                }
                result?;
                if let Some(finally) = finally {
                    self.block(finally)?;
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

    fn require_bool(&mut self, expr: &mut Expr) -> Result<(), FrontError> {
        let ty = self.expr(expr)?;
        if ty == Ty::Bool {
            Ok(())
        } else {
            Err(FrontError::msg(format!("condition must be boolean, found `{ty}`")))
        }
    }

    fn lvalue(&mut self, lvalue: &mut LValue) -> Result<Ty, FrontError> {
        // Resolve a bare-name target the same way expressions are resolved.
        if let LValue::Name(name) = lvalue {
            let name = name.clone();
            if let Some(ty) = self.lookup(&name) {
                let ty = ty.clone();
                *lvalue = LValue::Local(name);
                return Ok(ty);
            }
            if let Some(sig) = self.table.field(self.class, &name) {
                let sig = sig.clone();
                if sig.is_static {
                    *lvalue = LValue::StaticField { class: self.class.to_string(), field: name };
                } else {
                    if self.is_static {
                        return Err(FrontError::msg(format!(
                            "instance field `{name}` referenced from a static context"
                        )));
                    }
                    *lvalue = LValue::InstField { recv: Box::new(Expr::This), field: name };
                }
                return Ok(sig.ty);
            }
            return Err(FrontError::msg(format!("unknown variable `{name}`")));
        }
        match lvalue {
            LValue::Name(_) => unreachable!("handled above"),
            LValue::Local(name) => self
                .lookup(name)
                .cloned()
                .ok_or_else(|| FrontError::msg(format!("unknown local `{name}`"))),
            LValue::StaticField { class, field } => {
                let sig = self
                    .table
                    .field(class, field)
                    .ok_or_else(|| FrontError::msg(format!("unknown field `{class}.{field}`")))?;
                if !sig.is_static {
                    return Err(FrontError::msg(format!("field `{class}.{field}` is not static")));
                }
                Ok(sig.ty.clone())
            }
            LValue::InstField { recv, field } => {
                // A bare class name as receiver means a static field access.
                if let Expr::Name(name) = recv.as_ref() {
                    if self.lookup(name).is_none()
                        && self.table.field(self.class, name).is_none()
                        && self.table.has_class(name)
                    {
                        let class = name.clone();
                        let sig = self.table.field(&class, field).cloned().ok_or_else(|| {
                            FrontError::msg(format!("unknown field `{class}.{field}`"))
                        })?;
                        if !sig.is_static {
                            return Err(FrontError::msg(format!(
                                "field `{class}.{field}` is not static"
                            )));
                        }
                        let field = std::mem::take(field);
                        *lvalue = LValue::StaticField { class, field };
                        return Ok(sig.ty);
                    }
                }
                let recv_ty = self.expr(recv)?;
                let Ty::Class(class) = &recv_ty else {
                    return Err(FrontError::msg(format!("type `{recv_ty}` has no fields")));
                };
                let sig = self
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
            LValue::Index { array, index } => {
                let array_ty = self.expr(array)?;
                let index_ty = self.expr(index)?;
                if !matches!(index_ty, Ty::Int | Ty::Byte) {
                    return Err(FrontError::msg(format!(
                        "array index must be int, found `{index_ty}`"
                    )));
                }
                match array_ty.elem() {
                    Some(elem) => Ok(elem.clone()),
                    None => {
                        Err(FrontError::msg(format!("cannot index non-array type `{array_ty}`")))
                    }
                }
            }
        }
    }

    /// Type-checks and resolves an expression in place, returning its type.
    fn expr(&mut self, expr: &mut Expr) -> Result<Ty, FrontError> {
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
            Expr::Name(name) => {
                let name = name.clone();
                if let Some(ty) = self.lookup(&name) {
                    let ty = ty.clone();
                    *expr = Expr::Local(name);
                    return Ok(ty);
                }
                if let Some(sig) = self.table.field(self.class, &name) {
                    let sig = sig.clone();
                    if sig.is_static {
                        *expr = Expr::StaticField { class: self.class.to_string(), field: name };
                    } else {
                        if self.is_static {
                            return Err(FrontError::msg(format!(
                                "instance field `{name}` referenced from a static context"
                            )));
                        }
                        *expr = Expr::InstField { recv: Box::new(Expr::This), field: name };
                    }
                    return Ok(sig.ty);
                }
                return Err(FrontError::msg(format!("unknown variable `{name}`")));
            }
            Expr::Local(name) => self
                .lookup(name)
                .cloned()
                .ok_or_else(|| FrontError::msg(format!("unknown local `{name}`")))?,
            Expr::This => {
                if self.is_static {
                    return Err(FrontError::msg("`this` used in a static context"));
                }
                Ty::Class(self.class.to_string())
            }
            Expr::StaticField { class, field } => {
                let sig = self
                    .table
                    .field(class, field)
                    .ok_or_else(|| FrontError::msg(format!("unknown field `{class}.{field}`")))?;
                if !sig.is_static {
                    return Err(FrontError::msg(format!("field `{class}.{field}` is not static")));
                }
                sig.ty.clone()
            }
            Expr::InstField { .. } => {
                // Reuse the lvalue resolution logic, then convert back
                // (on error too, so the node survives a failed check).
                let mut lv = match std::mem::replace(expr, Expr::Null) {
                    Expr::InstField { recv, field } => LValue::InstField { recv, field },
                    _ => unreachable!(),
                };
                let ty = self.lvalue(&mut lv);
                *expr = match lv {
                    LValue::InstField { recv, field } => Expr::InstField { recv, field },
                    LValue::StaticField { class, field } => Expr::StaticField { class, field },
                    _ => unreachable!(),
                };
                ty?
            }
            Expr::Index { array, index } => {
                let array_ty = self.expr(array)?;
                let index_ty = self.expr(index)?;
                if !matches!(index_ty, Ty::Int | Ty::Byte) {
                    return Err(FrontError::msg(format!(
                        "array index must be int, found `{index_ty}`"
                    )));
                }
                match array_ty.elem() {
                    Some(elem) => elem.clone(),
                    None => {
                        return Err(FrontError::msg(format!(
                            "cannot index non-array type `{array_ty}`"
                        )));
                    }
                }
            }
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
                if !self.table.has_class(class) {
                    return Err(FrontError::msg(format!("unknown class `{class}`")));
                }
                Ty::Class(class.clone())
            }
            Expr::NewArray { elem, dims, extra_dims } => {
                self.table.check_ty(elem)?;
                if dims.is_empty() {
                    return Err(FrontError::msg(
                        "array creation needs at least one sized dimension",
                    ));
                }
                for dim in dims.iter_mut() {
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
                self.table.check_ty(elem)?;
                let elem_ty = elem.clone();
                for e in elems.iter_mut() {
                    let t = self.expr(e)?;
                    self.require_assignable(&elem_ty, &t, e)?;
                }
                elem_ty.array_of()
            }
            Expr::FreeCall { name, args } => {
                let sig = self
                    .table
                    .method(self.class, name)
                    .cloned()
                    .ok_or_else(|| FrontError::msg(format!("unknown method `{name}`")))?;
                self.check_args(name, &sig, args)?;
                if !sig.is_static && self.is_static {
                    return Err(FrontError::msg(format!(
                        "instance method `{name}` called from a static context"
                    )));
                }
                let (method, args) = (std::mem::take(name), std::mem::take(args));
                *expr = if sig.is_static {
                    Expr::StaticCall { class: self.class.to_string(), method, args }
                } else {
                    Expr::InstCall { recv: Box::new(Expr::This), method, args }
                };
                return Ok(sig.ret);
            }
            Expr::StaticCall { class, method, args } => {
                let sig =
                    self.table.method(class, method).cloned().ok_or_else(|| {
                        FrontError::msg(format!("unknown method `{class}.{method}`"))
                    })?;
                if !sig.is_static {
                    return Err(FrontError::msg(format!(
                        "method `{class}.{method}` is not static"
                    )));
                }
                let method = method.clone();
                self.check_args(&method, &sig, args)?;
                sig.ret
            }
            Expr::InstCall { recv, method, args } => {
                let method_name = method.clone();
                // A bare class name as receiver means a static call.
                if let Expr::Name(name) = recv.as_ref() {
                    if self.lookup(name).is_none()
                        && self.table.field(self.class, name).is_none()
                        && self.table.has_class(name)
                    {
                        let class = name.clone();
                        let args = std::mem::take(args);
                        *expr = Expr::StaticCall { class, method: method_name, args };
                        return self.expr(expr);
                    }
                }
                let recv_ty = self.expr(recv)?;
                let Ty::Class(class) = &recv_ty else {
                    return Err(FrontError::msg(format!("type `{recv_ty}` has no methods")));
                };
                let sig = self.table.method(class, &method_name).cloned().ok_or_else(|| {
                    FrontError::msg(format!("unknown method `{class}.{method_name}`"))
                })?;
                if sig.is_static {
                    return Err(FrontError::msg(format!(
                        "static method `{class}.{method_name}` called through an instance"
                    )));
                }
                self.check_args(&method_name, &sig, args)?;
                sig.ret
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
                for arg in args.iter_mut() {
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
                let op = *op;
                let lhs_ty = self.expr(lhs)?;
                let rhs_ty = self.expr(rhs)?;
                self.binop_result(op, &lhs_ty, &rhs_ty)?
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
        args: &mut [Expr],
    ) -> Result<(), FrontError> {
        if args.len() != sig.params.len() {
            return Err(FrontError::msg(format!(
                "method `{name}` expects {} arguments, found {}",
                sig.params.len(),
                args.len()
            )));
        }
        for (arg, param_ty) in args.iter_mut().zip(&sig.params) {
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
