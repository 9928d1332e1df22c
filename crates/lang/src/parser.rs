//! Recursive-descent parser for the MiniJava subset.
//!
//! The grammar is LL(2): one token of lookahead plus a peek distinguishes
//! declarations (`Foo x = ..`) from expression statements (`foo[x] = ..`).
//! `for (T v : arr)` loops are desugared here into indexed `for` loops, so
//! the rest of the pipeline never sees a for-each construct.

use std::rc::Rc;

use crate::ast::*;
use crate::token::{Tok, Token};
use crate::ty::Ty;
use crate::FrontError;

/// Parses a token stream (as produced by [`crate::lexer::lex`]).
pub fn parse_tokens(tokens: &[Token]) -> Result<Program, FrontError> {
    let mut parser = Parser { tokens, pos: 0, foreach_counter: 0 };
    parser.program()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Counter for fresh names introduced by for-each desugaring.
    foreach_counter: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        let idx = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> &Tok {
        let tok = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, kind: &Tok) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: Tok) -> Result<(), FrontError> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(FrontError::at(
                self.line(),
                format!("expected {}, found {}", kind.describe(), self.peek().describe()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, FrontError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(FrontError::at(
                self.line(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    // ----- declarations ---------------------------------------------------

    fn program(&mut self) -> Result<Program, FrontError> {
        let mut classes = Vec::new();
        while self.peek() != &Tok::Eof {
            classes.push(self.class_decl()?);
        }
        if classes.is_empty() {
            return Err(FrontError::msg("empty program: expected at least one class"));
        }
        Ok(Program { classes })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, FrontError> {
        self.expect(Tok::KwClass)?;
        let name = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let mut class = ClassDecl::new(name);
        while !self.eat(&Tok::RBrace) {
            self.member(&mut class)?;
        }
        Ok(class)
    }

    fn member(&mut self, class: &mut ClassDecl) -> Result<(), FrontError> {
        let is_static = self.eat(&Tok::KwStatic);
        let ty = self.parse_type(true)?;
        let name = self.expect_ident()?;
        if self.peek() == &Tok::LParen {
            let method = self.method_rest(name, is_static, ty)?;
            class.methods.push(method);
        } else {
            if ty == Ty::Void {
                return Err(FrontError::at(self.line(), "fields cannot have type void"));
            }
            let init = if self.eat(&Tok::Assign) { Some(self.expr()?) } else { None };
            self.expect(Tok::Semi)?;
            class.fields.push(FieldDecl { name, ty, is_static, init });
        }
        Ok(())
    }

    fn method_rest(
        &mut self,
        name: String,
        is_static: bool,
        ret: Ty,
    ) -> Result<MethodDecl, FrontError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let ty = self.parse_type(false)?;
                let pname = self.expect_ident()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = Rc::new(self.block()?);
        Ok(MethodDecl { name, is_static, params, ret, body })
    }

    /// Parses a type. `allow_void` permits the `void` return type.
    fn parse_type(&mut self, allow_void: bool) -> Result<Ty, FrontError> {
        let base = match self.peek().clone() {
            Tok::KwInt => {
                self.bump();
                Ty::Int
            }
            Tok::KwLong => {
                self.bump();
                Ty::Long
            }
            Tok::KwByte => {
                self.bump();
                Ty::Byte
            }
            Tok::KwBoolean => {
                self.bump();
                Ty::Bool
            }
            Tok::KwString => {
                self.bump();
                Ty::Str
            }
            Tok::KwVoid if allow_void => {
                self.bump();
                return Ok(Ty::Void);
            }
            Tok::Ident(name) => {
                self.bump();
                Ty::Class(name)
            }
            other => {
                return Err(FrontError::at(
                    self.line(),
                    format!("expected a type, found {}", other.describe()),
                ));
            }
        };
        let mut ty = base;
        while self.peek() == &Tok::LBracket && self.peek2() == &Tok::RBracket {
            self.bump();
            self.bump();
            ty = ty.array_of();
        }
        Ok(ty)
    }

    /// Whether the current position starts a local-variable declaration.
    fn starts_decl(&self) -> bool {
        match self.peek() {
            Tok::KwInt | Tok::KwLong | Tok::KwByte | Tok::KwBoolean | Tok::KwString => true,
            Tok::Ident(_) => {
                // `Foo x` or `Foo[] x` begins a declaration; `foo[i]` and
                // `foo.bar` and `foo =` do not.
                match self.peek2() {
                    Tok::Ident(_) => true,
                    Tok::LBracket => {
                        let idx = (self.pos + 2).min(self.tokens.len() - 1);
                        self.tokens[idx].kind == Tok::RBracket
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }

    // ----- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Block, FrontError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    /// Parses a block, or a single statement as a one-statement block.
    fn block_or_stmt(&mut self) -> Result<Block, FrontError> {
        if self.peek() == &Tok::LBrace {
            self.block()
        } else {
            Ok(Block::of(vec![self.stmt()?]))
        }
    }

    fn stmt(&mut self) -> Result<Stmt, FrontError> {
        match self.peek().clone() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Block(Block::default()))
            }
            Tok::KwIf => self.if_stmt(),
            Tok::KwWhile => self.while_stmt(),
            Tok::KwDo => self.do_while_stmt(),
            Tok::KwFor => self.for_stmt(),
            Tok::KwSwitch => self.switch_stmt(),
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break)
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue)
            }
            Tok::KwReturn => {
                self.bump();
                let value = if self.peek() == &Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(value))
            }
            Tok::KwTry => self.try_stmt(),
            Tok::KwThrow => {
                self.bump();
                let code = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Throw(code))
            }
            Tok::Ident(name) if name == "println" && self.peek2() == &Tok::LParen => {
                self.bump();
                self.bump();
                let value = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Println(value))
            }
            Tok::Ident(name) if name == "__mute" && self.peek2() == &Tok::LParen => {
                self.bump();
                self.bump();
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Mute)
            }
            Tok::Ident(name) if name == "__unmute" && self.peek2() == &Tok::LParen => {
                self.bump();
                self.bump();
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Unmute)
            }
            _ if self.starts_decl() => {
                let stmt = self.var_decl()?;
                self.expect(Tok::Semi)?;
                Ok(stmt)
            }
            _ => {
                let stmt = self.simple_stmt()?;
                self.expect(Tok::Semi)?;
                Ok(stmt)
            }
        }
    }

    fn var_decl(&mut self) -> Result<Stmt, FrontError> {
        let ty = self.parse_type(false)?;
        let name = self.expect_ident()?;
        self.expect(Tok::Assign)?;
        let init = self.expr()?;
        Ok(Stmt::VarDecl { name, ty, init })
    }

    /// An assignment, increment/decrement, or call — the statement forms
    /// allowed without a keyword (also used for `for` init/step clauses).
    fn simple_stmt(&mut self) -> Result<Stmt, FrontError> {
        let line = self.line();
        let expr = self.expr()?;
        let op = match self.peek() {
            Tok::Assign => Some(AssignOp::Set),
            Tok::PlusAssign => Some(AssignOp::Add),
            Tok::MinusAssign => Some(AssignOp::Sub),
            Tok::StarAssign => Some(AssignOp::Mul),
            Tok::SlashAssign => Some(AssignOp::Div),
            Tok::PercentAssign => Some(AssignOp::Rem),
            Tok::AmpAssign => Some(AssignOp::And),
            Tok::PipeAssign => Some(AssignOp::Or),
            Tok::CaretAssign => Some(AssignOp::Xor),
            Tok::ShlAssign => Some(AssignOp::Shl),
            Tok::ShrAssign => Some(AssignOp::Shr),
            Tok::UshrAssign => Some(AssignOp::Ushr),
            Tok::PlusPlus => {
                self.bump();
                let target = expr_to_lvalue(expr, line)?;
                return Ok(Stmt::IncDec { target, inc: true });
            }
            Tok::MinusMinus => {
                self.bump();
                let target = expr_to_lvalue(expr, line)?;
                return Ok(Stmt::IncDec { target, inc: false });
            }
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let value = self.expr()?;
                let target = expr_to_lvalue(expr, line)?;
                Ok(Stmt::Assign { target, op, value })
            }
            None => match expr {
                Expr::StaticCall { .. } | Expr::InstCall { .. } | Expr::FreeCall { .. } => {
                    Ok(Stmt::ExprStmt(expr))
                }
                _ => Err(FrontError::at(line, "expression statements must be method calls")),
            },
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, FrontError> {
        self.expect(Tok::KwIf)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_blk = self.block_or_stmt()?;
        let else_blk = if self.eat(&Tok::KwElse) { Some(self.block_or_stmt()?) } else { None };
        Ok(Stmt::If { cond, then_blk, else_blk })
    }

    fn while_stmt(&mut self) -> Result<Stmt, FrontError> {
        self.expect(Tok::KwWhile)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let body = self.block_or_stmt()?;
        Ok(Stmt::While { cond, body })
    }

    fn do_while_stmt(&mut self) -> Result<Stmt, FrontError> {
        self.expect(Tok::KwDo)?;
        let body = self.block_or_stmt()?;
        self.expect(Tok::KwWhile)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::DoWhile { body, cond })
    }

    fn for_stmt(&mut self) -> Result<Stmt, FrontError> {
        self.expect(Tok::KwFor)?;
        self.expect(Tok::LParen)?;
        // Detect `for (T v : arr)` for-each form.
        if self.starts_decl() {
            let checkpoint = self.pos;
            let ty = self.parse_type(false)?;
            let name = self.expect_ident()?;
            if self.eat(&Tok::Colon) {
                let array = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.block_or_stmt()?;
                return Ok(self.desugar_foreach(ty, name, array, body));
            }
            self.pos = checkpoint;
        }
        let init = if self.peek() == &Tok::Semi {
            None
        } else if self.starts_decl() {
            Some(Box::new(self.var_decl()?))
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(Tok::Semi)?;
        let cond = if self.peek() == &Tok::Semi { None } else { Some(self.expr()?) };
        self.expect(Tok::Semi)?;
        let step =
            if self.peek() == &Tok::RParen { None } else { Some(Box::new(self.simple_stmt()?)) };
        self.expect(Tok::RParen)?;
        let body = self.block_or_stmt()?;
        Ok(Stmt::For { init, cond, step, body })
    }

    /// Desugars `for (T v : arr) body` into an indexed loop over a temporary
    /// holding `arr`, so the array expression is evaluated exactly once.
    fn desugar_foreach(&mut self, ty: Ty, name: String, array: Expr, mut body: Block) -> Stmt {
        self.foreach_counter += 1;
        let arr_tmp = format!("$fe_a{}", self.foreach_counter);
        let idx_tmp = format!("$fe_i{}", self.foreach_counter);
        body.stmts.insert(
            0,
            Stmt::VarDecl {
                name,
                ty: ty.clone(),
                init: Expr::Index {
                    array: Box::new(Expr::local(&arr_tmp)),
                    index: Box::new(Expr::local(&idx_tmp)),
                },
            },
        );
        let loop_stmt = Stmt::For {
            init: Some(Box::new(Stmt::VarDecl {
                name: idx_tmp.clone(),
                ty: Ty::Int,
                init: Expr::IntLit(0),
            })),
            cond: Some(Expr::bin(
                BinOp::Lt,
                Expr::local(&idx_tmp),
                Expr::Length(Box::new(Expr::local(&arr_tmp))),
            )),
            step: Some(Box::new(Stmt::IncDec { target: LValue::Local(idx_tmp), inc: true })),
            body,
        };
        Stmt::Block(Block::of(vec![
            Stmt::VarDecl { name: arr_tmp, ty: ty.array_of(), init: array },
            loop_stmt,
        ]))
    }

    fn switch_stmt(&mut self) -> Result<Stmt, FrontError> {
        self.expect(Tok::KwSwitch)?;
        self.expect(Tok::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let mut labels = Vec::new();
            let mut is_default = false;
            loop {
                match self.peek() {
                    Tok::KwCase => {
                        self.bump();
                        labels.push(self.case_label()?);
                        self.expect(Tok::Colon)?;
                    }
                    Tok::KwDefault => {
                        self.bump();
                        self.expect(Tok::Colon)?;
                        is_default = true;
                    }
                    _ => break,
                }
            }
            if labels.is_empty() && !is_default {
                return Err(FrontError::at(self.line(), "expected `case` or `default` label"));
            }
            let mut body = Vec::new();
            while !matches!(self.peek(), Tok::KwCase | Tok::KwDefault | Tok::RBrace) {
                body.push(self.stmt()?);
            }
            cases.push(SwitchCase { labels, is_default, body });
        }
        Ok(Stmt::Switch { scrutinee, cases })
    }

    fn case_label(&mut self) -> Result<i32, FrontError> {
        let negative = self.eat(&Tok::Minus);
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                let v = if negative { -v } else { v };
                i32::try_from(v)
                    .map_err(|_| FrontError::at(self.line(), "case label out of int range"))
            }
            other => Err(FrontError::at(
                self.line(),
                format!("expected integer case label, found {}", other.describe()),
            )),
        }
    }

    fn try_stmt(&mut self) -> Result<Stmt, FrontError> {
        self.expect(Tok::KwTry)?;
        let body = self.block()?;
        let catch = if self.eat(&Tok::KwCatch) {
            // Optional `(Exception e)` style binder is accepted and ignored;
            // the catch-all clause has no binding in MiniJava.
            if self.eat(&Tok::LParen) {
                let _ = self.expect_ident();
                let _ = self.expect_ident();
                self.expect(Tok::RParen)?;
            }
            Some(self.block()?)
        } else {
            None
        };
        let finally = if self.eat(&Tok::KwFinally) { Some(self.block()?) } else { None };
        if catch.is_none() && finally.is_none() {
            return Err(FrontError::at(self.line(), "try requires a catch or finally clause"));
        }
        Ok(Stmt::Try { body, catch, finally })
    }

    // ----- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, FrontError> {
        self.binary_expr(0)
    }

    /// Precedence-climbing binary-expression parser.
    fn binary_expr(&mut self, min_level: u8) -> Result<Expr, FrontError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, level) = match self.peek() {
                Tok::PipePipe => (BinOp::LOr, 1),
                Tok::AmpAmp => (BinOp::LAnd, 2),
                Tok::Pipe => (BinOp::Or, 3),
                Tok::Caret => (BinOp::Xor, 4),
                Tok::Amp => (BinOp::And, 5),
                Tok::EqEq => (BinOp::Eq, 6),
                Tok::BangEq => (BinOp::Ne, 6),
                Tok::Lt => (BinOp::Lt, 7),
                Tok::Le => (BinOp::Le, 7),
                Tok::Gt => (BinOp::Gt, 7),
                Tok::Ge => (BinOp::Ge, 7),
                Tok::Shl => (BinOp::Shl, 8),
                Tok::Shr => (BinOp::Shr, 8),
                Tok::Ushr => (BinOp::Ushr, 8),
                Tok::Plus => (BinOp::Add, 9),
                Tok::Minus => (BinOp::Sub, 9),
                Tok::Star => (BinOp::Mul, 10),
                Tok::Slash => (BinOp::Div, 10),
                Tok::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if level < min_level {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(level + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, FrontError> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                // Fold `-literal` immediately so i32::MIN / i64::MIN parse.
                match self.peek().clone() {
                    Tok::IntLit(v) => {
                        self.bump();
                        let v = -v;
                        let v = i32::try_from(v)
                            .map_err(|_| FrontError::at(self.line(), "int literal out of range"))?;
                        Ok(self.postfix(Expr::IntLit(v))?)
                    }
                    Tok::LongLit(v) => {
                        self.bump();
                        Ok(Expr::LongLit(v.wrapping_neg()))
                    }
                    _ => {
                        let inner = self.unary_expr()?;
                        Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(inner) })
                    }
                }
            }
            Tok::Bang => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(inner) })
            }
            Tok::Tilde => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(Expr::Unary { op: UnOp::BitNot, expr: Box::new(inner) })
            }
            Tok::LParen => {
                // Cast or parenthesized expression. Casts are restricted to
                // primitive target types, so one token of lookahead decides.
                match self.peek2() {
                    Tok::KwInt | Tok::KwLong | Tok::KwByte | Tok::KwBoolean => {
                        self.bump();
                        let ty = self.parse_type(false)?;
                        self.expect(Tok::RParen)?;
                        let inner = self.unary_expr()?;
                        Ok(Expr::Cast { ty, expr: Box::new(inner) })
                    }
                    _ => {
                        self.bump();
                        let inner = self.expr()?;
                        self.expect(Tok::RParen)?;
                        self.postfix(inner)
                    }
                }
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, FrontError> {
        let expr = match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                let v = i32::try_from(v)
                    .map_err(|_| FrontError::at(self.line(), "int literal out of range"))?;
                Expr::IntLit(v)
            }
            Tok::LongLit(v) => {
                self.bump();
                Expr::LongLit(v)
            }
            Tok::StrLit(s) => {
                self.bump();
                Expr::StrLit(s)
            }
            Tok::KwTrue => {
                self.bump();
                Expr::BoolLit(true)
            }
            Tok::KwFalse => {
                self.bump();
                Expr::BoolLit(false)
            }
            Tok::KwNull => {
                self.bump();
                Expr::Null
            }
            Tok::KwThis => {
                self.bump();
                Expr::This
            }
            Tok::KwNew => return self.new_expr(),
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::LParen {
                    let args = self.call_args()?;
                    Expr::FreeCall { name, args }
                } else {
                    Expr::Name(name)
                }
            }
            other => {
                return Err(FrontError::at(
                    self.line(),
                    format!("expected expression, found {}", other.describe()),
                ));
            }
        };
        self.postfix(expr)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, FrontError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn postfix(&mut self, mut expr: Expr) -> Result<Expr, FrontError> {
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.expect_ident()?;
                    if self.peek() == &Tok::LParen {
                        let args = self.call_args()?;
                        // `Math.min(..)` and friends become intrinsics here;
                        // other `name.method(..)` forms are resolved later.
                        if let Expr::Name(recv) = &expr {
                            if recv == "Math" {
                                let which = match name.as_str() {
                                    "min" => Intrinsic::Min,
                                    "max" => Intrinsic::Max,
                                    "abs" => Intrinsic::Abs,
                                    other => {
                                        return Err(FrontError::at(
                                            self.line(),
                                            format!("unknown Math intrinsic `{other}`"),
                                        ));
                                    }
                                };
                                expr = Expr::IntrinsicCall { which, args };
                                continue;
                            }
                        }
                        expr = Expr::InstCall { recv: Box::new(expr), method: name, args };
                    } else if name == "length" {
                        expr = Expr::Length(Box::new(expr));
                    } else {
                        expr = Expr::InstField { recv: Box::new(expr), field: name };
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    expr = Expr::Index { array: Box::new(expr), index: Box::new(index) };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn new_expr(&mut self) -> Result<Expr, FrontError> {
        self.expect(Tok::KwNew)?;
        let base = match self.peek().clone() {
            Tok::KwInt => {
                self.bump();
                Ty::Int
            }
            Tok::KwLong => {
                self.bump();
                Ty::Long
            }
            Tok::KwByte => {
                self.bump();
                Ty::Byte
            }
            Tok::KwBoolean => {
                self.bump();
                Ty::Bool
            }
            Tok::KwString => {
                self.bump();
                Ty::Str
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::LParen {
                    self.expect(Tok::LParen)?;
                    self.expect(Tok::RParen)?;
                    return self.postfix(Expr::NewObject(name));
                }
                Ty::Class(name)
            }
            other => {
                return Err(FrontError::at(
                    self.line(),
                    format!("expected type after `new`, found {}", other.describe()),
                ));
            }
        };
        if self.peek() != &Tok::LBracket {
            return Err(FrontError::at(self.line(), "expected `[` or `(` after `new T`"));
        }
        // `new T[] { .. }` initializer form.
        if self.peek2() == &Tok::RBracket {
            self.bump();
            self.bump();
            self.expect(Tok::LBrace)?;
            let mut elems = Vec::new();
            if self.peek() != &Tok::RBrace {
                loop {
                    elems.push(self.expr()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(Tok::RBrace)?;
            return self.postfix(Expr::NewArrayInit { elem: base, elems });
        }
        // `new T[e0][e1]..[][]..` sized dimensions then optional empty ones.
        let mut dims = Vec::new();
        while self.peek() == &Tok::LBracket && self.peek2() != &Tok::RBracket {
            self.bump();
            dims.push(self.expr()?);
            self.expect(Tok::RBracket)?;
        }
        let mut extra_dims = 0;
        while self.peek() == &Tok::LBracket && self.peek2() == &Tok::RBracket {
            self.bump();
            self.bump();
            extra_dims += 1;
        }
        self.postfix(Expr::NewArray { elem: base, dims, extra_dims })
    }
}

/// Converts a parsed expression into an assignable location.
fn expr_to_lvalue(expr: Expr, line: u32) -> Result<LValue, FrontError> {
    match expr {
        Expr::Name(name) => Ok(LValue::Name(name)),
        Expr::Local(name) => Ok(LValue::Local(name)),
        Expr::InstField { recv, field } => Ok(LValue::InstField { recv, field }),
        Expr::StaticField { class, field } => Ok(LValue::StaticField { class, field }),
        Expr::Index { array, index } => Ok(LValue::Index { array, index }),
        _ => Err(FrontError::at(line, "invalid assignment target")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parses_minimal_program() {
        let p = parse("class T { static void main() { } }").unwrap();
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].methods.len(), 1);
    }

    #[test]
    fn parses_fields_and_initializers() {
        let p =
            parse("class T { int x; static long y = 7L; boolean z = true; byte b = 1; }").unwrap();
        let c = &p.classes[0];
        assert_eq!(c.fields.len(), 4);
        assert!(c.fields[1].is_static);
        assert_eq!(c.fields[1].init, Some(Expr::LongLit(7)));
    }

    #[test]
    fn precedence_is_java_like() {
        let p = parse("class T { static int f() { return 1 + 2 * 3 << 1 & 7; } }").unwrap();
        let body = &p.classes[0].methods[0].body.stmts[0];
        // ((1 + (2*3)) << 1) & 7
        let Stmt::Return(Some(Expr::Binary { op: BinOp::And, lhs, .. })) = body else {
            panic!("unexpected shape: {body:?}");
        };
        let Expr::Binary { op: BinOp::Shl, lhs: add, .. } = lhs.as_ref() else {
            panic!("expected shl under and");
        };
        assert!(matches!(add.as_ref(), Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            class T {
                static int f(int n) {
                    int acc = 0;
                    for (int i = 0; i < n; i++) {
                        if (i % 2 == 0) { acc += i; } else acc--;
                    }
                    while (acc > 100) { acc /= 2; }
                    do { acc++; } while (acc < 0);
                    switch (acc % 3) {
                        case 0: acc += 1; break;
                        case 1:
                        case 2: acc += 2; break;
                        default: acc = 0;
                    }
                    return acc;
                }
                static void main() { println(f(10)); }
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.classes[0].methods[0].params.len(), 1);
    }

    #[test]
    fn parses_foreach_desugared() {
        let src = "class T { static int f(int[] k) { int s = 0; for (int m : k) { s += m; } return s; } }";
        let p = parse(src).unwrap();
        let Stmt::Block(b) = &p.classes[0].methods[0].body.stmts[1] else {
            panic!("expected desugared block");
        };
        assert!(matches!(b.stmts[0], Stmt::VarDecl { .. }));
        assert!(matches!(b.stmts[1], Stmt::For { .. }));
    }

    #[test]
    fn parses_negative_literals_at_extremes() {
        let p = parse("class T { static void main() { println(-2147483648); println(-9223372036854775808L); } }");
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn parses_new_forms() {
        let src = r#"
            class P { int v; }
            class T {
                static void main() {
                    int[] a = new int[3];
                    int[][] b = new int[2][4];
                    long[][] c = new long[5][];
                    int[] d = new int[] { 1, 2, 3 };
                    P p = new P();
                }
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn parses_try_catch_finally_and_throw() {
        let src = r#"
            class T {
                static void main() {
                    try { throw 3; } catch { println(1); } finally { println(2); }
                    try { println(0); } finally { println(9); }
                }
            }
        "#;
        parse(src).unwrap();
        assert!(parse("class T { static void main() { try { } } }").is_err());
    }

    #[test]
    fn parses_math_intrinsics() {
        let src = "class T { static void main() { println(Math.min(1, Math.max(2, 3))); } }";
        let p = parse(src).unwrap();
        let Stmt::Println(Expr::IntrinsicCall { which: Intrinsic::Min, .. }) =
            &p.classes[0].methods[0].body.stmts[0]
        else {
            panic!("expected intrinsic call");
        };
    }

    #[test]
    fn rejects_non_call_expression_statement() {
        assert!(parse("class T { static void main() { 1 + 2; } }").is_err());
    }

    #[test]
    fn parses_casts_vs_parens() {
        let src = "class T { static void main() { int x = (int) 5L; int y = (x) + 1; byte b = (byte) x; } }";
        parse(src).unwrap();
    }

    #[test]
    fn parses_compound_assignments() {
        let src =
            "class T { static void main() { int x = 1; x += 2; x <<= 1; x >>>= 2; x ^= 3; x--; } }";
        let p = parse(src).unwrap();
        assert_eq!(p.classes[0].methods[0].body.stmts.len(), 6);
    }

    #[test]
    fn parses_mute_intrinsics() {
        let src = "class T { static void main() { __mute(); println(1); __unmute(); } }";
        let p = parse(src).unwrap();
        assert_eq!(p.classes[0].methods[0].body.stmts[0], Stmt::Mute);
        assert_eq!(p.classes[0].methods[0].body.stmts[2], Stmt::Unmute);
    }
}
