//! Program points, scopes, and AST navigation for mutation.
//!
//! The JoNM mutators (paper §3.4, Algorithm 1) pick "an arbitrary program
//! point ρ within method m" and need the set of variables `V` available at
//! ρ (Algorithm 2, line 3). This module walks the insertion points of a
//! checked program in one fixed order ([`walk_points_in`]), builds a point
//! with its in-scope variables only when asked to ([`PointView::info`],
//! [`nth_point_in`]), and navigates a mutable AST back to a chosen point so
//! synthesized code can be spliced in (copying only the method body it
//! writes to, see [`crate::ast`]).

use std::ops::ControlFlow;
use std::rc::Rc;

use crate::ast::*;
use crate::ty::Ty;

/// One navigation step from a block into a nested block of its `index`-th
/// statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    /// Into the `then` block of an `if`.
    Then(usize),
    /// Into the `else` block of an `if`.
    Else(usize),
    /// Into the body of a `while`/`do`/`for` loop.
    Body(usize),
    /// Into the statements of the `case`-th arm of a `switch`.
    Case { stmt: usize, case: usize },
    /// Into the body of a `try`.
    TryBody(usize),
    /// Into a `catch` block.
    Catch(usize),
    /// Into a `finally` block.
    Finally(usize),
    /// Into a bare nested block.
    Inner(usize),
}

/// A statement-granularity program point: "before the `index`-th statement
/// of the block reached by `path` inside method `method` of class `class`".
/// `index` may equal the block length, meaning "at the end of the block".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgPoint {
    pub class: usize,
    pub method: usize,
    pub path: Vec<Seg>,
    pub index: usize,
}

/// A variable visible at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    pub name: String,
    pub ty: Ty,
    /// `true` for method parameters.
    pub is_param: bool,
}

/// A program point plus its static context.
#[derive(Debug, Clone)]
pub struct PointInfo {
    pub point: ProgPoint,
    /// Locals and parameters in scope, in declaration order.
    pub vars: Vec<VarInfo>,
    /// Nesting depth of enclosing loops (0 = not inside a loop).
    pub loop_depth: usize,
    /// Whether the point sits inside a `switch` arm.
    pub in_switch: bool,
}

/// A variable in scope as [`walk_points_in`] meets it, borrowed from the
/// AST.
#[derive(Clone, Copy)]
struct VarRef<'a> {
    name: &'a str,
    ty: &'a Ty,
    is_param: bool,
}

impl VarRef<'_> {
    fn info(self) -> VarInfo {
        VarInfo { name: self.name.to_string(), ty: self.ty.clone(), is_param: self.is_param }
    }
}

/// One insertion point as [`walk_points_in`] meets it. It borrows the
/// walk's state: nothing is copied until [`PointView::info`] builds the
/// point a caller keeps.
pub struct PointView<'w, 'a> {
    class: usize,
    method: usize,
    /// Navigation from the method body to the point's block.
    pub path: &'w [Seg],
    /// The point sits before `stmts[index]` (at the end when `index ==
    /// stmts.len()`).
    pub index: usize,
    /// The statements of the point's block.
    pub stmts: &'a [Stmt],
    vars: &'w [VarRef<'a>],
    /// Nesting depth of enclosing loops (0 = not inside a loop).
    pub loop_depth: usize,
    /// Whether the point sits inside a `switch` arm.
    pub in_switch: bool,
}

impl PointView<'_, '_> {
    /// The point's coordinates.
    pub fn point(&self) -> ProgPoint {
        ProgPoint {
            class: self.class,
            method: self.method,
            path: self.path.to_vec(),
            index: self.index,
        }
    }

    /// The point with its in-scope variables, built.
    pub fn info(&self) -> PointInfo {
        PointInfo {
            point: self.point(),
            vars: self.vars.iter().map(|v| v.info()).collect(),
            loop_depth: self.loop_depth,
            in_switch: self.in_switch,
        }
    }
}

/// Enumerates every insertion point of every method body in the program.
pub fn collect_points(program: &Program) -> Vec<PointInfo> {
    let mut points = Vec::new();
    for (class_idx, class) in program.classes.iter().enumerate() {
        for method_idx in 0..class.methods.len() {
            walk_points_in(program, class_idx, method_idx, &mut |view| {
                points.push(view.info());
                ControlFlow::Continue(())
            });
        }
    }
    points
}

/// Builds the `n`-th insertion point of one method, in
/// [`collect_points`] order, and no other.
pub fn nth_point_in(
    program: &Program,
    class_idx: usize,
    method_idx: usize,
    n: usize,
) -> Option<PointInfo> {
    let (mut seen, mut found) = (0, None);
    walk_points_in(program, class_idx, method_idx, &mut |view| {
        if seen == n {
            found = Some(view.info());
            return ControlFlow::Break(());
        }
        seen += 1;
        ControlFlow::Continue(())
    });
    found
}

/// Builds the context of one known point, and of no other.
pub fn point_info(program: &Program, point: &ProgPoint) -> Option<PointInfo> {
    let mut found = None;
    walk_points_in(program, point.class, point.method, &mut |view| {
        if view.index == point.index && view.path == point.path.as_slice() {
            found = Some(view.info());
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    found
}

/// Visits the insertion points of one method body in [`collect_points`]
/// order, until `visit` breaks. The walk keeps one path and one stack of
/// borrowed in-scope variables and builds no point: a mutator that uses
/// one point draws it first and then builds that one.
pub fn walk_points_in<'a>(
    program: &'a Program,
    class_idx: usize,
    method_idx: usize,
    visit: &mut dyn FnMut(&PointView<'_, 'a>) -> ControlFlow<()>,
) {
    let method = &program.classes[class_idx].methods[method_idx];
    let mut vars: Vec<VarRef<'a>> =
        method.params.iter().map(|p| VarRef { name: &p.name, ty: &p.ty, is_param: true }).collect();
    let mut walker = Walker {
        class: class_idx,
        method: method_idx,
        path: Vec::new(),
        loop_depth: 0,
        in_switch: false,
        done: false,
        visit,
    };
    walker.block(&method.body.stmts, &mut vars);
}

struct Walker<'v, 'a> {
    class: usize,
    method: usize,
    path: Vec<Seg>,
    loop_depth: usize,
    in_switch: bool,
    /// Set once `visit` breaks; every loop of the walk then unwinds.
    done: bool,
    visit: &'v mut dyn FnMut(&PointView<'_, 'a>) -> ControlFlow<()>,
}

impl<'a> Walker<'_, 'a> {
    fn emit(&mut self, stmts: &'a [Stmt], index: usize, vars: &[VarRef<'a>]) {
        let view = PointView {
            class: self.class,
            method: self.method,
            path: &self.path,
            index,
            stmts,
            vars,
            loop_depth: self.loop_depth,
            in_switch: self.in_switch,
        };
        self.done = (self.visit)(&view).is_break();
    }

    /// The points of one block: before each statement, inside it, and at
    /// the end. Declarations are visible from the next statement on and
    /// go out of scope with the block.
    fn block(&mut self, stmts: &'a [Stmt], vars: &mut Vec<VarRef<'a>>) {
        let base = vars.len();
        for (i, stmt) in stmts.iter().enumerate() {
            self.emit(stmts, i, vars);
            if self.done {
                return;
            }
            self.stmt(stmt, i, vars);
            if self.done {
                return;
            }
            if let Stmt::VarDecl { name, ty, .. } = stmt {
                vars.push(VarRef { name, ty, is_param: false });
            }
        }
        self.emit(stmts, stmts.len(), vars);
        vars.truncate(base);
    }

    fn nested(&mut self, seg: Seg, stmts: &'a [Stmt], vars: &mut Vec<VarRef<'a>>) {
        if self.done {
            return;
        }
        self.path.push(seg);
        self.block(stmts, vars);
        self.path.pop();
    }

    fn stmt(&mut self, stmt: &'a Stmt, index: usize, vars: &mut Vec<VarRef<'a>>) {
        match stmt {
            Stmt::If { then_blk, else_blk, .. } => {
                self.nested(Seg::Then(index), &then_blk.stmts, vars);
                if let Some(else_blk) = else_blk {
                    self.nested(Seg::Else(index), &else_blk.stmts, vars);
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                self.loop_depth += 1;
                self.nested(Seg::Body(index), &body.stmts, vars);
                self.loop_depth -= 1;
            }
            Stmt::For { init, body, .. } => {
                // The loop variable (if any) is visible inside the body.
                let base = vars.len();
                if let Some(Stmt::VarDecl { name, ty, .. }) = init.as_deref() {
                    vars.push(VarRef { name, ty, is_param: false });
                }
                self.loop_depth += 1;
                self.nested(Seg::Body(index), &body.stmts, vars);
                self.loop_depth -= 1;
                vars.truncate(base);
            }
            Stmt::Switch { cases, .. } => {
                let was_in_switch = self.in_switch;
                self.in_switch = true;
                for (case_idx, case) in cases.iter().enumerate() {
                    // Case bodies share a scope in Java, but MiniJava locals
                    // are per-arm for mutation purposes (declarations in one
                    // arm are not offered to later arms; fall-through code
                    // that uses them still type-checks since the checker
                    // scopes arms separately).
                    self.nested(Seg::Case { stmt: index, case: case_idx }, &case.body, vars);
                }
                self.in_switch = was_in_switch;
            }
            Stmt::Block(inner) => self.nested(Seg::Inner(index), &inner.stmts, vars),
            Stmt::Try { body, catch, finally } => {
                self.nested(Seg::TryBody(index), &body.stmts, vars);
                if let Some(catch) = catch {
                    self.nested(Seg::Catch(index), &catch.stmts, vars);
                }
                if let Some(finally) = finally {
                    self.nested(Seg::Finally(index), &finally.stmts, vars);
                }
            }
            _ => {}
        }
    }
}

/// Fallible variant of [`stmts_at_mut`], for callers holding paths that a
/// mutation may have invalidated (e.g. the reducer). The method body is
/// copied first if another program shares it ([`Rc::make_mut`]), so the
/// write lands in this program only; a path that does not match still
/// leaves this program with its own copy of the body.
pub fn try_stmts_at_mut<'a>(
    program: &'a mut Program,
    point: &ProgPoint,
) -> Option<&'a mut Vec<Stmt>> {
    let method = program.classes.get_mut(point.class)?.methods.get_mut(point.method)?;
    let mut stmts: &mut Vec<Stmt> = &mut Rc::make_mut(&mut method.body).stmts;
    for seg in &point.path {
        stmts = match *seg {
            Seg::Then(i) => match stmts.get_mut(i)? {
                Stmt::If { then_blk, .. } => &mut then_blk.stmts,
                _ => return None,
            },
            Seg::Else(i) => match stmts.get_mut(i)? {
                Stmt::If { else_blk: Some(else_blk), .. } => &mut else_blk.stmts,
                _ => return None,
            },
            Seg::Body(i) => match stmts.get_mut(i)? {
                Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                    &mut body.stmts
                }
                _ => return None,
            },
            Seg::Case { stmt, case } => match stmts.get_mut(stmt)? {
                Stmt::Switch { cases, .. } => &mut cases.get_mut(case)?.body,
                _ => return None,
            },
            Seg::TryBody(i) => match stmts.get_mut(i)? {
                Stmt::Try { body, .. } => &mut body.stmts,
                _ => return None,
            },
            Seg::Catch(i) => match stmts.get_mut(i)? {
                Stmt::Try { catch: Some(catch), .. } => &mut catch.stmts,
                _ => return None,
            },
            Seg::Finally(i) => match stmts.get_mut(i)? {
                Stmt::Try { finally: Some(finally), .. } => &mut finally.stmts,
                _ => return None,
            },
            Seg::Inner(i) => match stmts.get_mut(i)? {
                Stmt::Block(inner) => &mut inner.stmts,
                _ => return None,
            },
        };
    }
    Some(stmts)
}

/// Returns the statement list addressed by `point`'s path (not applying
/// `point.index`), copying the method body first if another program
/// shares it. Panics if the path does not match the program shape; paths
/// must come from [`collect_points`] on the same program.
pub fn stmts_at_mut<'a>(program: &'a mut Program, point: &ProgPoint) -> &'a mut Vec<Stmt> {
    try_stmts_at_mut(program, point).expect("path mismatch: the point is not in this program")
}

/// Read-only variant of [`try_stmts_at_mut`]: copies nothing.
pub fn try_stmts_at<'a>(program: &'a Program, point: &ProgPoint) -> Option<&'a [Stmt]> {
    let method = program.classes.get(point.class)?.methods.get(point.method)?;
    let mut stmts: &[Stmt] = &method.body.stmts;
    for seg in &point.path {
        stmts = match *seg {
            Seg::Then(i) => match stmts.get(i)? {
                Stmt::If { then_blk, .. } => &then_blk.stmts,
                _ => return None,
            },
            Seg::Else(i) => match stmts.get(i)? {
                Stmt::If { else_blk: Some(else_blk), .. } => &else_blk.stmts,
                _ => return None,
            },
            Seg::Body(i) => match stmts.get(i)? {
                Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                    &body.stmts
                }
                _ => return None,
            },
            Seg::Case { stmt, case } => match stmts.get(stmt)? {
                Stmt::Switch { cases, .. } => &cases.get(case)?.body,
                _ => return None,
            },
            Seg::TryBody(i) => match stmts.get(i)? {
                Stmt::Try { body, .. } => &body.stmts,
                _ => return None,
            },
            Seg::Catch(i) => match stmts.get(i)? {
                Stmt::Try { catch: Some(catch), .. } => &catch.stmts,
                _ => return None,
            },
            Seg::Finally(i) => match stmts.get(i)? {
                Stmt::Try { finally: Some(finally), .. } => &finally.stmts,
                _ => return None,
            },
            Seg::Inner(i) => match stmts.get(i)? {
                Stmt::Block(inner) => &inner.stmts,
                _ => return None,
            },
        };
    }
    Some(stmts)
}

/// Read-only variant of [`stmts_at_mut`]; panics on the same mismatch.
pub fn stmts_at<'a>(program: &'a Program, point: &ProgPoint) -> &'a [Stmt] {
    try_stmts_at(program, point).expect("path mismatch: the point is not in this program")
}

/// Calls `f` on every expression in a statement (pre-order, including
/// nested statements' expressions).
pub fn for_each_expr_in_stmt(stmt: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match stmt {
        Stmt::VarDecl { init, .. } => walk_expr(init, f),
        Stmt::Assign { target, value, .. } => {
            walk_lvalue(target, f);
            walk_expr(value, f);
        }
        Stmt::IncDec { target, .. } => walk_lvalue(target, f),
        Stmt::If { cond, then_blk, else_blk } => {
            walk_expr(cond, f);
            for s in &then_blk.stmts {
                for_each_expr_in_stmt(s, f);
            }
            if let Some(else_blk) = else_blk {
                for s in &else_blk.stmts {
                    for_each_expr_in_stmt(s, f);
                }
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            walk_expr(cond, f);
            for s in &body.stmts {
                for_each_expr_in_stmt(s, f);
            }
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(init) = init {
                for_each_expr_in_stmt(init, f);
            }
            if let Some(cond) = cond {
                walk_expr(cond, f);
            }
            if let Some(step) = step {
                for_each_expr_in_stmt(step, f);
            }
            for s in &body.stmts {
                for_each_expr_in_stmt(s, f);
            }
        }
        Stmt::Switch { scrutinee, cases } => {
            walk_expr(scrutinee, f);
            for case in cases {
                for s in &case.body {
                    for_each_expr_in_stmt(s, f);
                }
            }
        }
        Stmt::Return(Some(value)) => walk_expr(value, f),
        Stmt::ExprStmt(expr) => walk_expr(expr, f),
        Stmt::Block(block) => {
            for s in &block.stmts {
                for_each_expr_in_stmt(s, f);
            }
        }
        Stmt::Try { body, catch, finally } => {
            for s in &body.stmts {
                for_each_expr_in_stmt(s, f);
            }
            if let Some(catch) = catch {
                for s in &catch.stmts {
                    for_each_expr_in_stmt(s, f);
                }
            }
            if let Some(finally) = finally {
                for s in &finally.stmts {
                    for_each_expr_in_stmt(s, f);
                }
            }
        }
        Stmt::Throw(code) => walk_expr(code, f),
        Stmt::Println(value) => walk_expr(value, f),
        Stmt::Break | Stmt::Continue | Stmt::Return(None) | Stmt::Mute | Stmt::Unmute => {}
    }
}

fn walk_lvalue(lvalue: &LValue, f: &mut dyn FnMut(&Expr)) {
    match lvalue {
        LValue::InstField { recv, .. } => walk_expr(recv, f),
        LValue::Index { array, index } => {
            walk_expr(array, f);
            walk_expr(index, f);
        }
        LValue::Local(_) | LValue::Name(_) | LValue::StaticField { .. } => {}
    }
}

/// Calls `f` on `expr` and every sub-expression (pre-order).
pub fn walk_expr(expr: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::InstField { recv, .. } => walk_expr(recv, f),
        Expr::Index { array, index } => {
            walk_expr(array, f);
            walk_expr(index, f);
        }
        Expr::Length(array) => walk_expr(array, f),
        Expr::NewArray { dims, .. } => {
            for dim in dims {
                walk_expr(dim, f);
            }
        }
        Expr::NewArrayInit { elems, .. } => {
            for elem in elems {
                walk_expr(elem, f);
            }
        }
        Expr::StaticCall { args, .. }
        | Expr::FreeCall { args, .. }
        | Expr::IntrinsicCall { args, .. } => {
            for arg in args {
                walk_expr(arg, f);
            }
        }
        Expr::InstCall { recv, args, .. } => {
            walk_expr(recv, f);
            for arg in args {
                walk_expr(arg, f);
            }
        }
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        _ => {}
    }
}

/// Collects every (point, statement-contains-call) pair for calls to
/// `class.method`: the returned points address the statements that contain
/// at least one call to the target, so code can be inserted right before
/// them (the paper's MI mutator). Sites come in [`collect_points`] order;
/// the walk copies a path only at a hit and never builds the in-scope
/// variable lists the points carry.
pub fn call_sites(program: &Program, class_name: &str, method_name: &str) -> Vec<ProgPoint> {
    let mut sites = Vec::new();
    for (class, decl) in program.classes.iter().enumerate() {
        for method in 0..decl.methods.len() {
            walk_points_in(program, class, method, &mut |view| {
                let stmt = view.stmts.get(view.index);
                if stmt.is_some_and(|stmt| calls(stmt, class_name, method_name)) {
                    sites.push(view.point());
                }
                ControlFlow::Continue(())
            });
        }
    }
    sites
}

/// Whether `stmt`, nested statements included, calls `class.method`.
fn calls(stmt: &Stmt, class_name: &str, method_name: &str) -> bool {
    let mut found = false;
    for_each_expr_in_stmt(stmt, &mut |e| match e {
        Expr::StaticCall { class, method, .. } if class == class_name && method == method_name => {
            found = true;
        }
        Expr::InstCall { method, .. } if method == method_name => {
            // Receiver-class match is validated by the mutator, which
            // knows the receiver's static type; method names are unique
            // enough in practice for site collection.
            found = true;
        }
        _ => {}
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_check;

    const SRC: &str = r#"
        class T {
            int f;
            int g(int p) {
                int a = p + 1;
                if (a > 0) {
                    int b = a * 2;
                    while (b > 0) {
                        b--;
                    }
                }
                for (int i = 0; i < 3; i++) {
                    a += i;
                }
                return a;
            }
            static void main() {
                T t = new T();
                println(t.g(5));
            }
        }
    "#;

    #[test]
    fn collects_points_with_scopes() {
        let program = parse_and_check(SRC).unwrap();
        let points = collect_points(&program);
        assert!(!points.is_empty());
        // Inside the while body, `p`, `a`, and `b` are all visible.
        let in_while = points
            .iter()
            .find(|pi| pi.point.path.len() == 2 && pi.loop_depth == 1)
            .expect("point inside while body");
        let names: Vec<&str> = in_while.vars.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["p", "a", "b"]);
        // Inside the for body, the loop variable is visible.
        let in_for = points
            .iter()
            .find(|pi| pi.loop_depth == 1 && pi.vars.iter().any(|v| v.name == "i"))
            .expect("point inside for body");
        assert!(in_for.vars.iter().any(|v| v.name == "a"));
    }

    #[test]
    fn navigation_reaches_every_point() {
        let mut program = parse_and_check(SRC).unwrap();
        let points = collect_points(&program);
        for info in &points {
            let stmts = stmts_at_mut(&mut program, &info.point);
            assert!(info.point.index <= stmts.len());
        }
    }

    #[test]
    fn insertion_at_point_changes_block() {
        let mut program = parse_and_check(SRC).unwrap();
        let points = collect_points(&program);
        let target = points.iter().find(|pi| pi.loop_depth == 1).unwrap();
        let stmts = stmts_at_mut(&mut program, &target.point);
        let before = stmts.len();
        stmts.insert(target.point.index, Stmt::Break);
        assert_eq!(stmts.len(), before + 1);
    }

    #[test]
    fn finds_call_sites() {
        let program = parse_and_check(SRC).unwrap();
        let sites = call_sites(&program, "T", "g");
        assert_eq!(sites.len(), 1);
        let stmts = stmts_at(&program, &sites[0]);
        assert!(matches!(stmts[sites[0].index], Stmt::Println(_)));
    }

    /// Building one point, by position or by its coordinates, gives
    /// what enumerating them all gives for it.
    #[test]
    fn single_points_match_the_enumeration() {
        let program = parse_and_check(SRC).unwrap();
        let points = collect_points(&program);
        let mut checked = 0;
        for (class, decl) in program.classes.iter().enumerate() {
            for method in 0..decl.methods.len() {
                let ours =
                    points.iter().filter(|p| (p.point.class, p.point.method) == (class, method));
                for (n, expected) in ours.enumerate() {
                    for built in [
                        nth_point_in(&program, class, method, n).unwrap(),
                        point_info(&program, &expected.point).unwrap(),
                    ] {
                        assert_eq!(built.point, expected.point);
                        assert_eq!(built.vars, expected.vars);
                        assert_eq!(built.loop_depth, expected.loop_depth);
                        assert_eq!(built.in_switch, expected.in_switch);
                    }
                    checked += 1;
                }
                let past =
                    points.iter().filter(|p| (p.point.class, p.point.method) == (class, method));
                assert!(nth_point_in(&program, class, method, past.count()).is_none());
            }
        }
        assert_eq!(checked, points.len());
    }

    #[test]
    fn params_flagged() {
        let program = parse_and_check(SRC).unwrap();
        let points = collect_points(&program);
        let first = &points[0];
        assert!(first.vars.iter().any(|v| v.is_param && v.name == "p"));
    }
}
