//! Program points, scopes, and AST navigation for mutation.
//!
//! The JoNM mutators (paper §3.4, Algorithm 1) pick "an arbitrary program
//! point ρ within method m" and need the set of variables `V` available at
//! ρ (Algorithm 2, line 3). This module enumerates every insertion point of
//! a checked program together with its in-scope variables, and navigates a
//! mutable AST back to a chosen point so synthesized code can be spliced in.

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

/// Enumerates every insertion point of every method body in the program.
pub fn collect_points(program: &Program) -> Vec<PointInfo> {
    let mut points = Vec::new();
    for (class_idx, class) in program.classes.iter().enumerate() {
        for method_idx in 0..class.methods.len() {
            collect_method_points(program, class_idx, method_idx, &mut points);
        }
    }
    points
}

/// Enumerates the insertion points of a single method body. Mutators that
/// target one method at a time use this instead of [`collect_points`]:
/// walking the whole program once per mutated method made JoNM quadratic
/// in program size.
pub fn collect_points_in(program: &Program, class_idx: usize, method_idx: usize) -> Vec<PointInfo> {
    let mut points = Vec::new();
    collect_method_points(program, class_idx, method_idx, &mut points);
    points
}

fn collect_method_points(
    program: &Program,
    class_idx: usize,
    method_idx: usize,
    points: &mut Vec<PointInfo>,
) {
    let method = &program.classes[class_idx].methods[method_idx];
    let mut vars: Vec<VarInfo> = method
        .params
        .iter()
        .map(|p| VarInfo { name: p.name.clone(), ty: p.ty.clone(), is_param: true })
        .collect();
    let mut walker = Walker {
        class: class_idx,
        method: method_idx,
        path: Vec::new(),
        loop_depth: 0,
        in_switch: false,
        points,
    };
    walker.block(&method.body, &mut vars);
}

struct Walker<'a> {
    class: usize,
    method: usize,
    path: Vec<Seg>,
    loop_depth: usize,
    in_switch: bool,
    points: &'a mut Vec<PointInfo>,
}

impl Walker<'_> {
    fn emit(&mut self, index: usize, vars: &[VarInfo]) {
        self.points.push(PointInfo {
            point: ProgPoint {
                class: self.class,
                method: self.method,
                path: self.path.clone(),
                index,
            },
            vars: vars.to_vec(),
            loop_depth: self.loop_depth,
            in_switch: self.in_switch,
        });
    }

    fn block(&mut self, block: &Block, vars: &mut Vec<VarInfo>) {
        let base = vars.len();
        for (i, stmt) in block.stmts.iter().enumerate() {
            self.emit(i, vars);
            self.stmt(stmt, i, vars);
            if let Stmt::VarDecl { name, ty, .. } = stmt {
                vars.push(VarInfo { name: name.clone(), ty: ty.clone(), is_param: false });
            }
        }
        self.emit(block.stmts.len(), vars);
        vars.truncate(base);
    }

    fn nested(&mut self, seg: Seg, block: &Block, vars: &mut Vec<VarInfo>) {
        self.path.push(seg);
        self.block(block, vars);
        self.path.pop();
    }

    fn stmt(&mut self, stmt: &Stmt, index: usize, vars: &mut Vec<VarInfo>) {
        match stmt {
            Stmt::If { then_blk, else_blk, .. } => {
                self.nested(Seg::Then(index), then_blk, vars);
                if let Some(else_blk) = else_blk {
                    self.nested(Seg::Else(index), else_blk, vars);
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                self.loop_depth += 1;
                self.nested(Seg::Body(index), body, vars);
                self.loop_depth -= 1;
            }
            Stmt::For { init, body, .. } => {
                // The loop variable (if any) is visible inside the body.
                let base = vars.len();
                if let Some(Stmt::VarDecl { name, ty, .. }) = init.as_deref() {
                    vars.push(VarInfo { name: name.clone(), ty: ty.clone(), is_param: false });
                }
                self.loop_depth += 1;
                self.nested(Seg::Body(index), body, vars);
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
                    let base = vars.len();
                    self.path.push(Seg::Case { stmt: index, case: case_idx });
                    for (i, inner) in case.body.iter().enumerate() {
                        self.emit(i, vars);
                        self.stmt(inner, i, vars);
                        if let Stmt::VarDecl { name, ty, .. } = inner {
                            vars.push(VarInfo {
                                name: name.clone(),
                                ty: ty.clone(),
                                is_param: false,
                            });
                        }
                    }
                    self.emit(case.body.len(), vars);
                    self.path.pop();
                    vars.truncate(base);
                }
                self.in_switch = was_in_switch;
            }
            Stmt::Block(inner) => self.nested(Seg::Inner(index), inner, vars),
            Stmt::Try { body, catch, finally } => {
                self.nested(Seg::TryBody(index), body, vars);
                if let Some(catch) = catch {
                    self.nested(Seg::Catch(index), catch, vars);
                }
                if let Some(finally) = finally {
                    self.nested(Seg::Finally(index), finally, vars);
                }
            }
            _ => {}
        }
    }
}

/// Fallible variant of [`stmts_at_mut`], for callers holding paths that a
/// mutation may have invalidated (e.g. the reducer).
pub fn try_stmts_at_mut<'a>(
    program: &'a mut Program,
    point: &ProgPoint,
) -> Option<&'a mut Vec<Stmt>> {
    let method = program.classes.get_mut(point.class)?.methods.get_mut(point.method)?;
    let mut stmts: &mut Vec<Stmt> = &mut method.body.stmts;
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
/// `point.index`). Panics if the path does not match the program shape;
/// paths must come from [`collect_points`] on the same program.
pub fn stmts_at_mut<'a>(program: &'a mut Program, point: &ProgPoint) -> &'a mut Vec<Stmt> {
    try_stmts_at_mut(program, point).expect("path mismatch: the point is not in this program")
}

/// Immutable variant of [`stmts_at_mut`].
pub fn stmts_at<'a>(program: &'a Program, point: &ProgPoint) -> &'a [Stmt] {
    let method = &program.classes[point.class].methods[point.method];
    let mut stmts: &[Stmt] = &method.body.stmts;
    for seg in &point.path {
        stmts = match *seg {
            Seg::Then(i) => match &stmts[i] {
                Stmt::If { then_blk, .. } => &then_blk.stmts,
                other => panic!("path mismatch: expected if, found {other:?}"),
            },
            Seg::Else(i) => match &stmts[i] {
                Stmt::If { else_blk: Some(else_blk), .. } => &else_blk.stmts,
                other => panic!("path mismatch: expected if/else, found {other:?}"),
            },
            Seg::Body(i) => match &stmts[i] {
                Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                    &body.stmts
                }
                other => panic!("path mismatch: expected loop, found {other:?}"),
            },
            Seg::Case { stmt, case } => match &stmts[stmt] {
                Stmt::Switch { cases, .. } => &cases[case].body,
                other => panic!("path mismatch: expected switch, found {other:?}"),
            },
            Seg::TryBody(i) => match &stmts[i] {
                Stmt::Try { body, .. } => &body.stmts,
                other => panic!("path mismatch: expected try, found {other:?}"),
            },
            Seg::Catch(i) => match &stmts[i] {
                Stmt::Try { catch: Some(catch), .. } => &catch.stmts,
                other => panic!("path mismatch: expected catch, found {other:?}"),
            },
            Seg::Finally(i) => match &stmts[i] {
                Stmt::Try { finally: Some(finally), .. } => &finally.stmts,
                other => panic!("path mismatch: expected finally, found {other:?}"),
            },
            Seg::Inner(i) => match &stmts[i] {
                Stmt::Block(inner) => &inner.stmts,
                other => panic!("path mismatch: expected block, found {other:?}"),
            },
        };
    }
    stmts
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
/// them (the paper's MI mutator). Sites come in [`collect_points`] order,
/// but the walk visits statements directly: it copies a path only at a
/// hit and never builds the in-scope variable lists the points carry.
pub fn call_sites(program: &Program, class_name: &str, method_name: &str) -> Vec<ProgPoint> {
    let mut walk = SiteWalk { class_name, method_name, path: Vec::new(), sites: Vec::new() };
    for (class, decl) in program.classes.iter().enumerate() {
        for (method, decl) in decl.methods.iter().enumerate() {
            walk.stmts(class, method, &decl.body.stmts);
        }
    }
    walk.sites
}

struct SiteWalk<'a> {
    class_name: &'a str,
    method_name: &'a str,
    path: Vec<Seg>,
    sites: Vec<ProgPoint>,
}

impl SiteWalk<'_> {
    fn stmts(&mut self, class: usize, method: usize, stmts: &[Stmt]) {
        for (index, stmt) in stmts.iter().enumerate() {
            if self.calls_target(stmt) {
                self.sites.push(ProgPoint { class, method, path: self.path.clone(), index });
            }
            // Nested blocks in `Walker::stmt` order.
            match stmt {
                Stmt::If { then_blk, else_blk, .. } => {
                    self.nested(class, method, Seg::Then(index), &then_blk.stmts);
                    if let Some(else_blk) = else_blk {
                        self.nested(class, method, Seg::Else(index), &else_blk.stmts);
                    }
                }
                Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                    self.nested(class, method, Seg::Body(index), &body.stmts);
                }
                Stmt::Switch { cases, .. } => {
                    for (case_idx, case) in cases.iter().enumerate() {
                        let seg = Seg::Case { stmt: index, case: case_idx };
                        self.nested(class, method, seg, &case.body);
                    }
                }
                Stmt::Block(inner) => self.nested(class, method, Seg::Inner(index), &inner.stmts),
                Stmt::Try { body, catch, finally } => {
                    self.nested(class, method, Seg::TryBody(index), &body.stmts);
                    if let Some(catch) = catch {
                        self.nested(class, method, Seg::Catch(index), &catch.stmts);
                    }
                    if let Some(finally) = finally {
                        self.nested(class, method, Seg::Finally(index), &finally.stmts);
                    }
                }
                _ => {}
            }
        }
    }

    fn nested(&mut self, class: usize, method: usize, seg: Seg, stmts: &[Stmt]) {
        self.path.push(seg);
        self.stmts(class, method, stmts);
        self.path.pop();
    }

    /// Whether `stmt`, nested statements included, calls the target.
    fn calls_target(&self, stmt: &Stmt) -> bool {
        let mut found = false;
        for_each_expr_in_stmt(stmt, &mut |e| match e {
            Expr::StaticCall { class, method, .. }
                if class == self.class_name && method == self.method_name =>
            {
                found = true;
            }
            Expr::InstCall { method, .. } if method == self.method_name => {
                // Receiver-class match is validated by the mutator, which
                // knows the receiver's static type; method names are unique
                // enough in practice for site collection.
                found = true;
            }
            _ => {}
        });
        found
    }
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

    #[test]
    fn params_flagged() {
        let program = parse_and_check(SRC).unwrap();
        let points = collect_points(&program);
        let first = &points[0];
        assert!(first.vars.iter().any(|v| v.is_param && v.name == "p"));
    }
}
