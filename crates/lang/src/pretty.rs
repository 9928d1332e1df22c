//! Precedence-aware pretty printer.
//!
//! Printing a checked program and re-checking the printed text yields an
//! identical AST (a property test in the crate root enforces this); the JoNM
//! pipeline relies on it to emit reproducer sources for bug reports.

use std::fmt::Write as _;

use crate::ast::*;

/// Prints a whole program as compilable MiniJava source.
pub fn print(program: &Program) -> String {
    let mut p = Printer::default();
    for class in &program.classes {
        p.class(class);
    }
    p.out
}

/// Prints a single statement at indentation level zero.
pub fn print_stmt(stmt: &Stmt) -> String {
    let mut p = Printer::default();
    p.stmt(stmt);
    p.out
}

/// Writes the whole output into one `String`: statements, expressions and
/// `for` headers all append in place, with no per-node buffers.
#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    /// Starts a line at the current indentation.
    fn begin(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    /// Ends the current line with `tail`.
    fn end(&mut self, tail: &str) {
        self.out.push_str(tail);
        self.out.push('\n');
    }

    /// Ends the current line with `tail` and indents what follows.
    fn end_open(&mut self, tail: &str) {
        self.end(tail);
        self.indent += 1;
    }

    fn line(&mut self, text: &str) {
        self.begin();
        self.end(text);
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    fn close(&mut self, text: &str) {
        self.indent -= 1;
        self.line(text);
    }

    /// The `} else {`-style line between two bodies of one statement.
    fn reopen(&mut self, text: &str) {
        self.indent -= 1;
        self.line(text);
        self.indent += 1;
    }

    fn class(&mut self, class: &ClassDecl) {
        self.begin();
        let _ = write!(self.out, "class {}", class.name);
        self.end_open(" {");
        for field in &class.fields {
            self.begin();
            if field.is_static {
                self.out.push_str("static ");
            }
            let _ = write!(self.out, "{} {}", field.ty, field.name);
            if let Some(init) = &field.init {
                self.out.push_str(" = ");
                self.expr(init, 0);
            }
            self.end(";");
        }
        for method in &class.methods {
            self.method(method);
        }
        self.close("}");
    }

    fn method(&mut self, method: &MethodDecl) {
        self.begin();
        if method.is_static {
            self.out.push_str("static ");
        }
        let _ = write!(self.out, "{} {}(", method.ret, method.name);
        for (i, p) in method.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{} {}", p.ty, p.name);
        }
        self.end_open(") {");
        for stmt in &method.body.stmts {
            self.stmt(stmt);
        }
        self.close("}");
    }

    fn block_body(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
    }

    /// One line `head`, `expr`, `tail`.
    fn expr_line(&mut self, head: &str, expr: &Expr, tail: &str) {
        self.begin();
        self.out.push_str(head);
        self.expr(expr, 0);
        self.end(tail);
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::VarDecl { name, ty, init } => {
                self.begin();
                let _ = write!(self.out, "{ty} {name} = ");
                self.expr(init, 0);
                self.end(";");
            }
            Stmt::Assign { target, op, value } => {
                let op_text = match op {
                    AssignOp::Set => "=",
                    AssignOp::Add => "+=",
                    AssignOp::Sub => "-=",
                    AssignOp::Mul => "*=",
                    AssignOp::Div => "/=",
                    AssignOp::Rem => "%=",
                    AssignOp::And => "&=",
                    AssignOp::Or => "|=",
                    AssignOp::Xor => "^=",
                    AssignOp::Shl => "<<=",
                    AssignOp::Shr => ">>=",
                    AssignOp::Ushr => ">>>=",
                };
                self.begin();
                self.lvalue(target);
                self.out.push(' ');
                self.out.push_str(op_text);
                self.out.push(' ');
                self.expr(value, 0);
                self.end(";");
            }
            Stmt::IncDec { target, inc } => {
                self.begin();
                self.lvalue(target);
                self.end(if *inc { "++;" } else { "--;" });
            }
            Stmt::If { cond, then_blk, else_blk } => {
                self.expr_line("if (", cond, ") {");
                self.indent += 1;
                self.block_body(then_blk);
                if let Some(else_blk) = else_blk {
                    self.reopen("} else {");
                    self.block_body(else_blk);
                }
                self.close("}");
            }
            Stmt::While { cond, body } => {
                self.expr_line("while (", cond, ") {");
                self.indent += 1;
                self.block_body(body);
                self.close("}");
            }
            Stmt::DoWhile { body, cond } => {
                self.open("do {");
                self.block_body(body);
                self.indent -= 1;
                self.expr_line("} while (", cond, ");");
            }
            Stmt::For { init, cond, step, body } => {
                self.begin();
                self.out.push_str("for (");
                if let Some(init) = init {
                    self.inline_stmt(init);
                }
                self.out.push_str("; ");
                if let Some(cond) = cond {
                    self.expr(cond, 0);
                }
                self.out.push_str("; ");
                if let Some(step) = step {
                    self.inline_stmt(step);
                }
                self.end_open(") {");
                self.block_body(body);
                self.close("}");
            }
            Stmt::Switch { scrutinee, cases } => {
                self.expr_line("switch (", scrutinee, ") {");
                self.indent += 1;
                for case in cases {
                    for label in &case.labels {
                        self.begin();
                        let _ = write!(self.out, "case {label}:");
                        self.end("");
                    }
                    if case.is_default {
                        self.line("default:");
                    }
                    self.indent += 1;
                    for stmt in &case.body {
                        self.stmt(stmt);
                    }
                    self.indent -= 1;
                }
                self.close("}");
            }
            Stmt::Break => self.line("break;"),
            Stmt::Continue => self.line("continue;"),
            Stmt::Return(None) => self.line("return;"),
            Stmt::Return(Some(value)) => self.expr_line("return ", value, ";"),
            Stmt::ExprStmt(expr) => self.expr_line("", expr, ";"),
            Stmt::Block(block) => {
                self.open("{");
                self.block_body(block);
                self.close("}");
            }
            Stmt::Try { body, catch, finally } => {
                self.open("try {");
                self.block_body(body);
                if let Some(catch) = catch {
                    self.reopen("} catch {");
                    self.block_body(catch);
                }
                if let Some(finally) = finally {
                    self.reopen("} finally {");
                    self.block_body(finally);
                }
                self.close("}");
            }
            Stmt::Throw(code) => self.expr_line("throw ", code, ";"),
            Stmt::Println(value) => self.expr_line("println(", value, ");"),
            Stmt::Mute => self.line("__mute();"),
            Stmt::Unmute => self.line("__unmute();"),
        }
    }

    /// Writes a statement for a `for (init; cond; step)` header: printed at
    /// indentation zero, without its trailing newline and semicolon.
    fn inline_stmt(&mut self, stmt: &Stmt) {
        let start = self.out.len();
        let indent = std::mem::take(&mut self.indent);
        self.stmt(stmt);
        self.indent = indent;
        let text = self.out[start..].trim_end();
        let text = text.strip_suffix(';').unwrap_or(text);
        let keep = start + text.len();
        self.out.truncate(keep);
    }

    fn lvalue(&mut self, lvalue: &LValue) {
        match lvalue {
            LValue::Local(name) | LValue::Name(name) => self.out.push_str(name),
            LValue::StaticField { class, field } => {
                let _ = write!(self.out, "{class}.{field}");
            }
            LValue::InstField { recv, field } => {
                self.expr(recv, POSTFIX);
                let _ = write!(self.out, ".{field}");
            }
            LValue::Index { array, index } => {
                self.expr(array, POSTFIX);
                self.out.push('[');
                self.expr(index, 0);
                self.out.push(']');
            }
        }
    }

    /// Writes `expr`, parenthesized when its precedence is below
    /// `min_level`.
    fn expr(&mut self, expr: &Expr, min_level: u8) {
        let level = level_of(expr);
        let paren = level < min_level;
        if paren {
            self.out.push('(');
        }
        self.expr_inner(expr, level);
        if paren {
            self.out.push(')');
        }
    }

    /// Writes `args` separated by `, `.
    fn expr_list(&mut self, args: &[Expr]) {
        for (i, arg) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(arg, 0);
        }
    }

    fn expr_inner(&mut self, expr: &Expr, level: u8) {
        match expr {
            Expr::IntLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            Expr::LongLit(v) => {
                let _ = write!(self.out, "{v}L");
            }
            Expr::BoolLit(b) => {
                let _ = write!(self.out, "{b}");
            }
            Expr::StrLit(s) => {
                self.out.push('"');
                for c in s.chars() {
                    match c {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        other => self.out.push(other),
                    }
                }
                self.out.push('"');
            }
            Expr::Null => self.out.push_str("null"),
            Expr::Name(name) | Expr::Local(name) => self.out.push_str(name),
            Expr::This => self.out.push_str("this"),
            Expr::StaticField { class, field } => {
                let _ = write!(self.out, "{class}.{field}");
            }
            Expr::InstField { recv, field } => {
                self.expr(recv, POSTFIX);
                let _ = write!(self.out, ".{field}");
            }
            Expr::Index { array, index } => {
                self.expr(array, POSTFIX);
                self.out.push('[');
                self.expr(index, 0);
                self.out.push(']');
            }
            Expr::Length(array) => {
                self.expr(array, POSTFIX);
                self.out.push_str(".length");
            }
            Expr::NewObject(class) => {
                let _ = write!(self.out, "new {class}()");
            }
            Expr::NewArray { elem, dims, extra_dims } => {
                let _ = write!(self.out, "new {elem}");
                for dim in dims {
                    self.out.push('[');
                    self.expr(dim, 0);
                    self.out.push(']');
                }
                for _ in 0..*extra_dims {
                    self.out.push_str("[]");
                }
            }
            Expr::NewArrayInit { elem, elems } => {
                let _ = write!(self.out, "new {elem}[] {{ ");
                self.expr_list(elems);
                self.out.push_str(" }");
            }
            Expr::StaticCall { class, method, args } => {
                let _ = write!(self.out, "{class}.{method}(");
                self.expr_list(args);
                self.out.push(')');
            }
            Expr::InstCall { recv, method, args } => {
                self.expr(recv, POSTFIX);
                let _ = write!(self.out, ".{method}(");
                self.expr_list(args);
                self.out.push(')');
            }
            Expr::FreeCall { name, args } => {
                let _ = write!(self.out, "{name}(");
                self.expr_list(args);
                self.out.push(')');
            }
            Expr::IntrinsicCall { which, args } => {
                let name = match which {
                    Intrinsic::Min => "min",
                    Intrinsic::Max => "max",
                    Intrinsic::Abs => "abs",
                };
                let _ = write!(self.out, "Math.{name}(");
                self.expr_list(args);
                self.out.push(')');
            }
            Expr::Unary { op, expr } => {
                let symbol = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                    UnOp::BitNot => "~",
                };
                self.out.push_str(symbol);
                // `Neg` always parenthesizes its operand so that `-(5)` does
                // not re-parse as the folded literal `-5` (which would change
                // the AST shape on a round trip).
                match op {
                    UnOp::Neg => {
                        self.out.push('(');
                        self.expr(expr, 0);
                        self.out.push(')');
                    }
                    _ => self.expr(expr, level),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let symbol = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::Ushr => ">>>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::LAnd => "&&",
                    BinOp::LOr => "||",
                };
                self.expr(lhs, level);
                self.out.push(' ');
                self.out.push_str(symbol);
                self.out.push(' ');
                self.expr(rhs, level + 1);
            }
            Expr::Cast { ty, expr } => {
                let _ = write!(self.out, "({ty}) ");
                self.expr(expr, level);
            }
        }
    }
}

const POSTFIX: u8 = 12;
const UNARY: u8 = 11;

fn level_of(expr: &Expr) -> u8 {
    match expr {
        Expr::Binary { op, .. } => match op {
            BinOp::LOr => 1,
            BinOp::LAnd => 2,
            BinOp::Or => 3,
            BinOp::Xor => 4,
            BinOp::And => 5,
            BinOp::Eq | BinOp::Ne => 6,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
            BinOp::Shl | BinOp::Shr | BinOp::Ushr => 8,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
        },
        Expr::Unary { .. } | Expr::Cast { .. } => UNARY,
        _ => POSTFIX + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_check;

    fn round_trip(src: &str) {
        let p1 = parse_and_check(src).unwrap();
        let printed = print(&p1);
        let p2 = parse_and_check(&printed).unwrap_or_else(|e| {
            panic!("printed source failed to parse: {e}\n---\n{printed}");
        });
        assert_eq!(p1, p2, "round trip changed the AST:\n---\n{printed}");
    }

    #[test]
    fn round_trips_expressions() {
        round_trip(
            r#"
            class T {
                static int f(int a, int b) {
                    int c = (a + b) * 3 - a % (b | 1);
                    long d = ((long) c << 3) >>> 2;
                    boolean e = !(a < b) && (b >= 0 || a == 3);
                    byte g = (byte) (c + 1);
                    int h = -(a) + ~b;
                    if (e) { return (int) d; }
                    return c + g + h;
                }
                static void main() { println(f(3, 4)); }
            }
        "#,
        );
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            r#"
            class T {
                static int s;
                int inst = 4;
                static void main() {
                    int acc = 0;
                    for (int i = 0; i < 10; i++) {
                        switch (i % 4) {
                            case 0: acc += 1; break;
                            case 1:
                            case 2: acc -= 1;
                            default: acc ^= 3;
                        }
                    }
                    while (acc > 0) { acc--; }
                    do { acc++; } while (acc < 3);
                    try { T.s = 9 / acc; } catch { T.s = -1; } finally { acc = 0; }
                    T t = new T();
                    println(t.inst + T.s + acc);
                }
            }
        "#,
        );
    }

    #[test]
    fn round_trips_arrays_and_strings() {
        round_trip(
            r#"
            class T {
                static void main() {
                    int[] a = new int[] { 1, 2, 3 };
                    int[][] m = new int[2][3];
                    long[][] n = new long[4][];
                    n[0] = new long[2];
                    String s = "x\n\"y\"\\";
                    println(s + a[1] + m[1][2] + a.length);
                }
            }
        "#,
        );
    }

    #[test]
    fn round_trips_extreme_literals() {
        round_trip(
            r#"
            class T {
                static void main() {
                    println(-2147483648 + 1);
                    println(-9223372036854775808L + 1L);
                }
            }
        "#,
        );
    }

    #[test]
    fn neg_of_variable_survives() {
        round_trip("class T { static void main() { int x = 3; println(-(x) * 2); } }");
    }
}
