//! The MiniJava abstract syntax tree.
//!
//! The AST is plain data (`Clone + PartialEq`), except that every method
//! body sits behind an [`Rc`]: cloning a [`Program`] copies its class and
//! method shells and shares every body. A JoNM mutant is an edit of its
//! seed: each write site takes [`Rc::make_mut`] on the body it changes,
//! so the mutant copies only the bodies it edits and shares the rest with
//! the seed (and with every other mutant of it).
//!
//! Bare names parse as [`Expr::Name`] and are rewritten by the resolver
//! (`typeck::check`) into [`Expr::Local`] or field accesses; every later
//! stage may assume resolution already happened.

use std::rc::Rc;

use crate::ty::Ty;

/// A whole program: one or more classes, one of which holds
/// `static void main()`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Declared classes, in source order.
    pub classes: Vec<ClassDecl>,
}

impl Program {
    /// Finds a class by name.
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Locates the entry point: the first `static void main()` method.
    pub fn entry(&self) -> Option<(&ClassDecl, &MethodDecl)> {
        self.classes.iter().find_map(|c| {
            c.methods
                .iter()
                .find(|m| m.name == "main" && m.is_static && m.params.is_empty())
                .map(|m| (c, m))
        })
    }

    /// Total number of methods across all classes.
    pub fn method_count(&self) -> usize {
        self.classes.iter().map(|c| c.methods.len()).sum()
    }
}

/// A class declaration. MiniJava has no inheritance; every class implicitly
/// extends a featureless `Object` and has exactly the implicit no-argument
/// constructor (which runs the instance-field initializers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDecl {
    pub name: String,
    pub fields: Vec<FieldDecl>,
    pub methods: Vec<MethodDecl>,
}

impl ClassDecl {
    /// Creates an empty class.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDecl { name: name.into(), fields: Vec::new(), methods: Vec::new() }
    }

    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Finds a method by name (methods are not overloadable).
    pub fn method(&self, name: &str) -> Option<&MethodDecl> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// A field declaration with an optional initializer expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    pub name: String,
    pub ty: Ty,
    pub is_static: bool,
    /// Evaluated in declaration order by `<clinit>` (static) or the implicit
    /// constructor (instance). `None` means the type's default value.
    pub init: Option<Expr>,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDecl {
    pub name: String,
    pub is_static: bool,
    pub params: Vec<Param>,
    /// [`Ty::Void`] for `void` methods.
    pub ret: Ty,
    /// Shared between clones of the program until one of them writes to
    /// it through [`Rc::make_mut`] (see the module docs).
    pub body: Rc<Block>,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    pub name: String,
    pub ty: Ty,
}

/// A `{ ... }` statement sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// A block holding the given statements.
    pub fn of(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }
}

/// Compound-assignment operators (`x op= e`), including plain `=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Ushr,
}

impl AssignOp {
    /// The underlying binary operator for compound assignments.
    pub fn binop(self) -> Option<BinOp> {
        Some(match self {
            AssignOp::Set => return None,
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Div => BinOp::Div,
            AssignOp::Rem => BinOp::Rem,
            AssignOp::And => BinOp::And,
            AssignOp::Or => BinOp::Or,
            AssignOp::Xor => BinOp::Xor,
            AssignOp::Shl => BinOp::Shl,
            AssignOp::Shr => BinOp::Shr,
            AssignOp::Ushr => BinOp::Ushr,
        })
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `ty name = init;` — locals are block-scoped and must be initialized.
    VarDecl {
        name: String,
        ty: Ty,
        init: Expr,
    },
    /// `target op= value;`
    Assign {
        target: LValue,
        op: AssignOp,
        value: Expr,
    },
    /// `target++;` / `target--;`
    IncDec {
        target: LValue,
        inc: bool,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    /// `while (cond) { .. }`
    While {
        cond: Expr,
        body: Block,
    },
    /// `do { .. } while (cond);`
    DoWhile {
        body: Block,
        cond: Expr,
    },
    /// `for (init; cond; step) { .. }`; all three pieces optional.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Block,
    },
    /// `switch (scrutinee) { case .. }` with C-style fall-through.
    Switch {
        scrutinee: Expr,
        cases: Vec<SwitchCase>,
    },
    Break,
    Continue,
    /// `return;` or `return expr;`
    Return(Option<Expr>),
    /// An expression evaluated for its side effect (a call).
    ExprStmt(Expr),
    /// A nested block.
    Block(Block),
    /// `try { .. } catch { .. } finally { .. }`. The catch clause is
    /// catch-all (MiniJava has a single exception hierarchy root); at least
    /// one of `catch`/`finally` is present.
    Try {
        body: Block,
        catch: Option<Block>,
        finally: Option<Block>,
    },
    /// `throw expr;` — raises a user exception carrying an `int` code.
    Throw(Expr),
    /// `println(expr);` — prints a primitive-alike value and a newline.
    Println(Expr),
    /// `__mute();` — pushes a null output sink (the paper's `System.out`
    /// replacement trick, §3.4 "other considerations").
    Mute,
    /// `__unmute();` — pops the output sink pushed by the matching `__mute()`.
    Unmute,
}

/// One `case`/`default` arm of a `switch`. Execution falls through to the
/// next arm unless the body ends in `break`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchCase {
    /// `case` labels for this arm (several labels may share a body).
    pub labels: Vec<i32>,
    /// Whether this arm is (also) the `default` arm.
    pub is_default: bool,
    pub body: Vec<Stmt>,
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A local variable or parameter (post-resolution).
    Local(String),
    /// A bare name the parser could not resolve; eliminated by the resolver.
    Name(String),
    /// `Class.field`
    StaticField { class: String, field: String },
    /// `expr.field`
    InstField { recv: Box<Expr>, field: String },
    /// `expr[expr]`
    Index { array: Box<Expr>, index: Box<Expr> },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Ushr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// Short-circuiting `&&`.
    LAnd,
    /// Short-circuiting `||`.
    LOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean `!`.
    Not,
    /// Bitwise `~`.
    BitNot,
}

/// Built-in static functions (parsed from `Math.min`/`Math.max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Min,
    Max,
    Abs,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    IntLit(i32),
    LongLit(i64),
    BoolLit(bool),
    StrLit(String),
    Null,
    /// A bare name; eliminated by the resolver.
    Name(String),
    /// A local variable or parameter (post-resolution).
    Local(String),
    This,
    /// `Class.field`
    StaticField {
        class: String,
        field: String,
    },
    /// `expr.field`
    InstField {
        recv: Box<Expr>,
        field: String,
    },
    /// `expr[expr]`
    Index {
        array: Box<Expr>,
        index: Box<Expr>,
    },
    /// `expr.length`
    Length(Box<Expr>),
    /// `new C()`
    NewObject(String),
    /// `new T[e0][e1]...` — `elem` is the *scalar* base type; the number of
    /// sized dimensions is `dims.len()`.
    NewArray {
        elem: Ty,
        dims: Vec<Expr>,
        extra_dims: usize,
    },
    /// `new T[] { e, e, .. }` (single dimension).
    NewArrayInit {
        elem: Ty,
        elems: Vec<Expr>,
    },
    /// `Class.method(args)` (post-resolution for static calls).
    StaticCall {
        class: String,
        method: String,
        args: Vec<Expr>,
    },
    /// `recv.method(args)`; receiver is `This` for unqualified calls to
    /// instance methods of the enclosing class.
    InstCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
    },
    /// An unresolved unqualified call `name(args)`; eliminated by the
    /// resolver into `StaticCall`/`InstCall`.
    FreeCall {
        name: String,
        args: Vec<Expr>,
    },
    /// `Math.min` / `Math.max` / `Math.abs`.
    IntrinsicCall {
        which: Intrinsic,
        args: Vec<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `(ty) expr` — numeric casts only.
    Cast {
        ty: Ty,
        expr: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for binary expressions.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Convenience constructor for a local-variable read.
    pub fn local(name: impl Into<String>) -> Expr {
        Expr::Local(name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_entry_lookup() {
        let mut program = Program::default();
        let mut class = ClassDecl::new("Main");
        class.methods.push(MethodDecl {
            name: "main".into(),
            is_static: true,
            params: vec![],
            ret: Ty::Void,
            body: Rc::default(),
        });
        program.classes.push(class);
        let (c, m) = program.entry().unwrap();
        assert_eq!(c.name, "Main");
        assert_eq!(m.name, "main");
        assert_eq!(program.method_count(), 1);
    }

    #[test]
    fn entry_requires_static_and_no_params() {
        let mut program = Program::default();
        let mut class = ClassDecl::new("Main");
        class.methods.push(MethodDecl {
            name: "main".into(),
            is_static: false,
            params: vec![],
            ret: Ty::Void,
            body: Rc::default(),
        });
        program.classes.push(class);
        assert!(program.entry().is_none());
    }

    #[test]
    fn assign_op_to_binop() {
        assert_eq!(AssignOp::Set.binop(), None);
        assert_eq!(AssignOp::Add.binop(), Some(BinOp::Add));
        assert_eq!(AssignOp::Ushr.binop(), Some(BinOp::Ushr));
    }
}
