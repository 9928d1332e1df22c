//! The seed-program generator.

use cse_lang::ast::*;
use cse_lang::ty::Ty;
use cse_rng::Rng64;

/// Tunable generation parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of non-`main` methods.
    pub methods: std::ops::RangeInclusive<usize>,
    /// Number of fields.
    pub fields: std::ops::RangeInclusive<usize>,
    /// Statements per generated block.
    pub stmts_per_block: std::ops::RangeInclusive<usize>,
    /// Maximum statement nesting depth.
    pub max_depth: usize,
    /// Maximum loop trip count (kept short, like JavaFuzzer's seeds).
    pub max_loop_iters: i32,
    /// Probability (percent) of emitting the Figure-2-like nested
    /// loop/switch/byte-accumulator pattern in a method body.
    pub fig2_pattern_pct: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            methods: 3..=6,
            fields: 4..=8,
            stmts_per_block: 2..=5,
            max_depth: 3,
            max_loop_iters: 12,
            fig2_pattern_pct: 25,
        }
    }
}

/// Generates a deterministic random program for `seed`.
pub fn generate(seed: u64, config: &FuzzConfig) -> Program {
    let mut g = Gen {
        rng: Rng64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        config: config.clone(),
        fields: Vec::new(),
        methods: Vec::new(),
        local_counter: 0,
    };
    g.program()
}

#[derive(Debug, Clone)]
struct FieldInfo {
    name: String,
    ty: Ty,
    is_static: bool,
}

#[derive(Debug, Clone)]
struct MethodInfo {
    name: String,
    is_static: bool,
    params: Vec<Param>,
    ret: Ty,
}

/// A local variable in scope during generation.
#[derive(Debug, Clone)]
struct LocalInfo {
    name: String,
    ty: Ty,
    /// Loop counters are read-only so loops stay bounded.
    mutable: bool,
}

struct Gen {
    rng: Rng64,
    config: FuzzConfig,
    fields: Vec<FieldInfo>,
    methods: Vec<MethodInfo>,
    local_counter: u32,
}

/// Generation context for one method body.
struct Ctx {
    /// Call statements emitted so far (capped to keep call trees shallow —
    /// uncapped calls inside nested loops make seeds hot and long-running,
    /// which JavaFuzzer-style seed generators deliberately avoid).
    calls_emitted: usize,
    /// Index of the method being generated (may only call lower indices).
    method_idx: usize,
    is_static: bool,
    locals: Vec<LocalInfo>,
    /// Current loop nesting (break/continue legality).
    loop_depth: usize,
    /// Whether `continue` is currently forbidden (counter `while` loops).
    no_continue: bool,
    /// Nesting depth budget.
    depth: usize,
}

impl Gen {
    fn pct(&mut self, p: u32) -> bool {
        self.rng.gen_range(0u32..100) < p
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.local_counter += 1;
        format!("{prefix}{}", self.local_counter)
    }

    fn scalar_ty(&mut self) -> Ty {
        match self.rng.gen_range(0..10) {
            0..=3 => Ty::Int,
            4..=5 => Ty::Long,
            6..=7 => Ty::Byte,
            _ => Ty::Bool,
        }
    }

    // ----- program skeleton -------------------------------------------------

    fn program(&mut self) -> Program {
        // Fields: a mix of scalars and one or two int arrays.
        let field_count = self.rng.gen_range(self.config.fields.clone());
        for i in 0..field_count {
            let ty = if i == 0 {
                // Guarantee at least one byte field (Figure-2 patterns).
                Ty::Byte
            } else if i == 1 {
                Ty::Int.array_of()
            } else if i == 2 {
                Ty::Class("P".into())
            } else {
                self.scalar_ty()
            };
            let is_static = self.rng.gen_bool(0.4);
            let name = format!("f{i}");
            self.fields.push(FieldInfo { name, ty, is_static });
        }
        // Method signatures first (bodies may call lower-index methods).
        let method_count = self.rng.gen_range(self.config.methods.clone());
        for i in 0..method_count {
            let is_static = self.rng.gen_bool(0.35);
            let params: Vec<Param> = (0..self.rng.gen_range(0..=2))
                .map(|j| Param {
                    name: format!("p{i}_{j}"),
                    ty: match self.rng.gen_range(0..3) {
                        0 => Ty::Int,
                        1 => Ty::Long,
                        _ => Ty::Int,
                    },
                })
                .collect();
            let ret = match self.rng.gen_range(0..4) {
                0 => Ty::Void,
                1 => Ty::Long,
                _ => Ty::Int,
            };
            self.methods.push(MethodInfo { name: format!("m{i}"), is_static, params, ret });
        }
        // A small helper class gives seeds object allocation and pointer
        // traffic (JavaFuzzer programs allocate too), which exercises the
        // VM's escape analysis and GC interplay.
        let helper = {
            let mut p = ClassDecl::new("P");
            p.fields.push(FieldDecl {
                name: "x".into(),
                ty: Ty::Int,
                is_static: false,
                init: None,
            });
            p.fields.push(FieldDecl {
                name: "y".into(),
                ty: Ty::Long,
                is_static: false,
                init: Some(Expr::LongLit(1)),
            });
            p
        };
        let mut class = ClassDecl::new("T");
        for f in self.fields.clone() {
            // Arrays are always initialized: a null array field would kill
            // most runs with an early NPE, starving the rest of the
            // program (and every mutation site in it) of execution.
            let init = if matches!(f.ty, Ty::Array(_)) || self.rng.gen_bool(0.5) {
                Some(self.field_init(&f.ty))
            } else {
                None
            };
            class.fields.push(FieldDecl { name: f.name, ty: f.ty, is_static: f.is_static, init });
        }
        for i in 0..method_count {
            let info = self.methods[i].clone();
            let body = self.method_body(i, &info);
            class.methods.push(MethodDecl {
                name: info.name,
                is_static: info.is_static,
                params: info.params,
                ret: info.ret,
                body,
            });
        }
        class.methods.push(self.main_method());
        Program { classes: vec![helper, class] }
    }

    fn field_init(&mut self, ty: &Ty) -> Expr {
        match ty {
            Ty::Int => Expr::IntLit(self.rng.gen_range(-100..100)),
            Ty::Long => Expr::LongLit(self.rng.gen_range(-1000..1000)),
            Ty::Byte => Expr::IntLit(self.rng.gen_range(-128..=127)),
            Ty::Bool => Expr::BoolLit(self.rng.gen_bool(0.5)),
            Ty::Array(_) => {
                let elems = (0..self.rng.gen_range(4..=8))
                    .map(|_| Expr::IntLit(self.rng.gen_range(0..100)))
                    .collect();
                Expr::NewArrayInit { elem: Ty::Int, elems }
            }
            Ty::Class(name) => Expr::NewObject(name.clone()),
            _ => Expr::Null,
        }
    }

    fn main_method(&mut self) -> MethodDecl {
        let mut stmts = vec![Stmt::VarDecl {
            name: "t".into(),
            ty: Ty::Class("T".into()),
            init: Expr::NewObject("T".into()),
        }];
        // Call every method once (JavaFuzzer's mainTest convention keeps
        // all generated code live), plus a couple of random repeats like
        // the paper's `t.p(); t.p();`.
        let mut order: Vec<usize> = (0..self.methods.len()).collect();
        for _ in 0..self.rng.gen_range(1..=3) {
            if self.methods.is_empty() {
                break;
            }
            order.push(self.rng.gen_range(0..self.methods.len()));
        }
        for idx in order {
            let info = self.methods[idx].clone();
            let args: Vec<Expr> = info.params.iter().map(|p| self.literal(&p.ty)).collect();
            let call = if info.is_static {
                Expr::StaticCall { class: "T".into(), method: info.name.clone(), args }
            } else {
                Expr::InstCall { recv: Box::new(Expr::local("t")), method: info.name.clone(), args }
            };
            let stmt = if info.ret == Ty::Void {
                Stmt::ExprStmt(call)
            } else if info.ret.is_primitive_alike() && self.pct(40) {
                Stmt::Println(call)
            } else {
                Stmt::ExprStmt(call)
            };
            let guarded = self.pct(30);
            if guarded {
                stmts.push(Stmt::Try {
                    body: Block::of(vec![stmt]),
                    catch: Some(Block::of(vec![Stmt::Println(Expr::StrLit("exc".into()))])),
                    finally: None,
                });
            } else {
                stmts.push(stmt);
            }
        }
        // Checksum: print every field (the JavaFuzzer convention).
        for f in self.fields.clone() {
            let read = if f.is_static {
                Expr::StaticField { class: "T".into(), field: f.name.clone() }
            } else {
                Expr::InstField { recv: Box::new(Expr::local("t")), field: f.name.clone() }
            };
            match &f.ty {
                Ty::Class(_) => {
                    // Object checksum: nullness plus a field read, guarded.
                    stmts.push(Stmt::Println(Expr::bin(BinOp::Eq, read.clone(), Expr::Null)));
                    stmts.push(Stmt::Try {
                        body: Block::of(vec![Stmt::Println(Expr::InstField {
                            recv: Box::new(read),
                            field: "x".into(),
                        })]),
                        catch: Some(Block::of(vec![Stmt::Println(Expr::StrLit("nobj".into()))])),
                        finally: None,
                    });
                }
                Ty::Array(_) => {
                    // Print one element and the length, guarded.
                    stmts.push(Stmt::Try {
                        body: Block::of(vec![Stmt::Println(Expr::bin(
                            BinOp::Add,
                            Expr::Index {
                                array: Box::new(read.clone()),
                                index: Box::new(Expr::IntLit(0)),
                            },
                            Expr::Length(Box::new(read)),
                        ))]),
                        catch: Some(Block::of(vec![Stmt::Println(Expr::StrLit("narr".into()))])),
                        finally: None,
                    });
                }
                _ => stmts.push(Stmt::Println(read)),
            }
        }
        MethodDecl {
            name: "main".into(),
            is_static: true,
            params: vec![],
            ret: Ty::Void,
            body: Block::of(stmts),
        }
    }

    fn method_body(&mut self, method_idx: usize, info: &MethodInfo) -> Block {
        let mut ctx = Ctx {
            calls_emitted: 0,
            method_idx,
            is_static: info.is_static,
            locals: info
                .params
                .iter()
                .map(|p| LocalInfo { name: p.name.clone(), ty: p.ty.clone(), mutable: true })
                .collect(),
            loop_depth: 0,
            no_continue: false,
            depth: 0,
        };
        let mut stmts = self.block_stmts(&mut ctx);
        if self.pct(self.config.fig2_pattern_pct) {
            let pattern = self.fig2_pattern(&mut ctx);
            stmts.extend(pattern);
        }
        if info.ret != Ty::Void {
            let value = self.expr(&mut ctx, &info.ret, 2);
            stmts.push(Stmt::Return(Some(value)));
        }
        Block::of(stmts)
    }

    // ----- statements -------------------------------------------------------

    fn block_stmts(&mut self, ctx: &mut Ctx) -> Vec<Stmt> {
        let n = self.rng.gen_range(self.config.stmts_per_block.clone());
        let local_mark = ctx.locals.len();
        let mut stmts = Vec::with_capacity(n);
        for _ in 0..n {
            stmts.push(self.stmt(ctx));
        }
        ctx.locals.truncate(local_mark);
        stmts
    }

    fn stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        let deep = ctx.depth >= self.config.max_depth;
        let choice = if deep { self.rng.gen_range(0..50) } else { self.rng.gen_range(0..100) };
        match choice {
            0..=17 => self.assign_stmt(ctx),
            18..=29 => self.decl_stmt(ctx),
            30..=37 => self.incdec_stmt(ctx),
            38..=43 => self.call_stmt(ctx),
            44..=46 => self.alloc_stmt(ctx),
            47..=49 => self.throwy_stmt(ctx),
            50..=62 => self.if_stmt(ctx),
            63..=77 => self.for_stmt(ctx),
            78..=84 => self.while_stmt(ctx),
            85..=93 => self.switch_stmt(ctx),
            _ => self.try_stmt(ctx),
        }
    }

    fn decl_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        let ty = self.scalar_ty();
        let name = self.fresh("v");
        let init = self.expr(ctx, &ty, 2);
        ctx.locals.push(LocalInfo { name: name.clone(), ty: ty.clone(), mutable: true });
        Stmt::VarDecl { name, ty, init }
    }

    /// A writable location plus its type, if any is in scope.
    fn lvalue(&mut self, ctx: &Ctx) -> Option<(LValue, Ty)> {
        let locals = ctx.locals.iter().filter(|l| l.mutable && l.ty.is_primitive_alike());
        let fields = self
            .fields
            .iter()
            .filter(|f| f.ty.is_primitive_alike() && (f.is_static || !ctx.is_static));
        let mut candidates = locals.map(Var::Local).chain(fields.map(Var::Field));
        let count = candidates.clone().count();
        if count == 0 {
            return None;
        }
        Some(match candidates.nth(self.rng.gen_range(0..count))? {
            Var::Local(l) => (LValue::Local(l.name.clone()), l.ty.clone()),
            Var::Field(f) if f.is_static => {
                (LValue::StaticField { class: "T".into(), field: f.name.clone() }, f.ty.clone())
            }
            Var::Field(f) => (
                LValue::InstField { recv: Box::new(Expr::This), field: f.name.clone() },
                f.ty.clone(),
            ),
        })
    }

    fn assign_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        // Occasionally store into the int array instead.
        if self.pct(20) {
            if let Some(read) = self.array_read_base(ctx) {
                let index = self.bounded_index(ctx);
                let value = self.expr(ctx, &Ty::Int, 2);
                let op = if self.pct(40) { AssignOp::Add } else { AssignOp::Set };
                return Stmt::Assign {
                    target: LValue::Index { array: Box::new(read), index: Box::new(index) },
                    op,
                    value,
                };
            }
        }
        let Some((target, ty)) = self.lvalue(ctx) else {
            return Stmt::Println(Expr::IntLit(0));
        };
        let op = if ty.is_numeric() && self.pct(55) {
            match self.rng.gen_range(0..8) {
                0 => AssignOp::Add,
                1 => AssignOp::Sub,
                2 => AssignOp::Mul,
                3 => AssignOp::Xor,
                4 => AssignOp::Or,
                5 => AssignOp::And,
                6 => AssignOp::Shl,
                _ => AssignOp::Shr,
            }
        } else {
            AssignOp::Set
        };
        let value = if op == AssignOp::Set {
            self.expr(ctx, &ty, 2)
        } else if ty == Ty::Bool {
            self.expr(ctx, &Ty::Bool, 1)
        } else {
            // Compound numeric: any numeric operand works (implicit
            // narrowing back to the target).
            self.expr(ctx, &Ty::Int, 2)
        };
        if op != AssignOp::Set && ty == Ty::Bool {
            // Bool compound is only &=, |=, ^=.
            let op = match self.rng.gen_range(0..3) {
                0 => AssignOp::And,
                1 => AssignOp::Or,
                _ => AssignOp::Xor,
            };
            return Stmt::Assign { target, op, value };
        }
        Stmt::Assign { target, op, value }
    }

    fn incdec_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        match self.lvalue(ctx) {
            Some((target, ty)) if ty.is_numeric() => {
                Stmt::IncDec { target, inc: self.rng.gen_bool(0.5) }
            }
            _ => Stmt::Println(Expr::IntLit(1)),
        }
    }

    fn call_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        // Calls only outside loops, a few per method: cold seeds by
        // construction (§2.2's observation about JavaFuzzer).
        if ctx.loop_depth > 0 || ctx.calls_emitted >= 3 {
            return self.assign_stmt(ctx);
        }
        match self.callable(ctx) {
            Some(call) => {
                ctx.calls_emitted += 1;
                Stmt::ExprStmt(call)
            }
            None => self.assign_stmt(ctx),
        }
    }

    /// Allocates a helper object, writes through it, and sometimes parks
    /// it in the `P`-typed field (escape) for GC/EA-relevant traffic.
    fn alloc_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        let var = self.fresh("o");
        let mut stmts = vec![
            Stmt::VarDecl {
                name: var.clone(),
                ty: Ty::Class("P".into()),
                init: Expr::NewObject("P".into()),
            },
            Stmt::Assign {
                target: LValue::InstField { recv: Box::new(Expr::local(&var)), field: "x".into() },
                op: AssignOp::Set,
                value: self.expr(ctx, &Ty::Int, 1),
            },
        ];
        let p_field = self
            .fields
            .iter()
            .find(|f| f.ty == Ty::Class("P".into()) && (f.is_static || !ctx.is_static))
            .cloned();
        match p_field {
            Some(f) if self.pct(50) => {
                let target = if f.is_static {
                    LValue::StaticField { class: "T".into(), field: f.name }
                } else {
                    LValue::InstField { recv: Box::new(Expr::This), field: f.name }
                };
                stmts.push(Stmt::Assign { target, op: AssignOp::Set, value: Expr::local(&var) });
            }
            _ => {
                let read = Expr::InstField { recv: Box::new(Expr::local(&var)), field: "x".into() };
                stmts.push(Stmt::Println(Expr::bin(BinOp::Add, read, Expr::IntLit(0))));
            }
        }
        Stmt::Block(Block::of(stmts))
    }

    fn throwy_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        // A throw wrapped so the program still completes deterministically.
        let code = self.expr(ctx, &Ty::Int, 1);
        Stmt::Try {
            body: Block::of(vec![Stmt::Throw(code)]),
            catch: Some(Block::of(vec![self.assign_stmt(ctx)])),
            finally: None,
        }
    }

    fn if_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        let cond = self.expr(ctx, &Ty::Bool, 2);
        ctx.depth += 1;
        let then_blk = Block::of(self.block_stmts(ctx));
        let else_blk = if self.pct(45) { Some(Block::of(self.block_stmts(ctx))) } else { None };
        ctx.depth -= 1;
        Stmt::If { cond, then_blk, else_blk }
    }

    fn for_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        let var = self.fresh("i");
        let lo = self.rng.gen_range(-3..3);
        let hi = lo + self.rng.gen_range(1..=self.config.max_loop_iters);
        let step = if self.pct(25) { self.rng.gen_range(2..=4) } else { 1 };
        ctx.locals.push(LocalInfo { name: var.clone(), ty: Ty::Int, mutable: false });
        ctx.depth += 1;
        ctx.loop_depth += 1;
        let mut body = self.block_stmts(ctx);
        if ctx.loop_depth >= 1 && self.pct(15) {
            body.push(Stmt::If {
                cond: self.expr(ctx, &Ty::Bool, 1),
                then_blk: Block::of(vec![if self.pct(60) || ctx.no_continue {
                    Stmt::Break
                } else {
                    Stmt::Continue
                }]),
                else_blk: None,
            });
        }
        ctx.loop_depth -= 1;
        ctx.depth -= 1;
        ctx.locals.pop();
        let step_stmt = if step == 1 {
            Stmt::IncDec { target: LValue::Local(var.clone()), inc: true }
        } else {
            Stmt::Assign {
                target: LValue::Local(var.clone()),
                op: AssignOp::Add,
                value: Expr::IntLit(step),
            }
        };
        Stmt::For {
            init: Some(Box::new(Stmt::VarDecl {
                name: var.clone(),
                ty: Ty::Int,
                init: Expr::IntLit(lo),
            })),
            cond: Some(Expr::bin(BinOp::Lt, Expr::local(&var), Expr::IntLit(hi))),
            step: Some(Box::new(step_stmt)),
            body: Block::of(body),
        }
    }

    fn while_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        // `int c = 0; while (c < N) { ...; c++; }` — `continue` is
        // forbidden inside so the counter always advances.
        let var = self.fresh("w");
        let bound = self.rng.gen_range(1..=self.config.max_loop_iters);
        ctx.locals.push(LocalInfo { name: var.clone(), ty: Ty::Int, mutable: false });
        ctx.depth += 1;
        ctx.loop_depth += 1;
        let saved = ctx.no_continue;
        ctx.no_continue = true;
        let mut body = self.block_stmts(ctx);
        ctx.no_continue = saved;
        ctx.loop_depth -= 1;
        ctx.depth -= 1;
        ctx.locals.pop();
        body.push(Stmt::IncDec { target: LValue::Local(var.clone()), inc: true });
        Stmt::Block(Block::of(vec![
            Stmt::VarDecl { name: var.clone(), ty: Ty::Int, init: Expr::IntLit(0) },
            Stmt::While {
                cond: Expr::bin(BinOp::Lt, Expr::local(&var), Expr::IntLit(bound)),
                body: Block::of(body),
            },
        ]))
    }

    fn switch_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        let modulus = self.rng.gen_range(3..=6);
        let scrutinee = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Rem, self.expr(ctx, &Ty::Int, 2), Expr::IntLit(modulus)),
            Expr::IntLit(self.rng.gen_range(0..40)),
        );
        let arm_count = self.rng.gen_range(2..=6);
        let base = self.rng.gen_range(0..40);
        ctx.depth += 1;
        let mut cases = Vec::new();
        for a in 0..arm_count {
            let mut body = self.block_stmts(ctx);
            // Fall through sometimes (Figure 2's `case 36:` does).
            if self.pct(65) {
                body.push(Stmt::Break);
            }
            cases.push(SwitchCase { labels: vec![base + a], is_default: false, body });
        }
        if self.pct(60) {
            let mut body = self.block_stmts(ctx);
            body.push(Stmt::Break);
            cases.push(SwitchCase { labels: vec![], is_default: true, body });
        }
        ctx.depth -= 1;
        Stmt::Switch { scrutinee, cases }
    }

    fn try_stmt(&mut self, ctx: &mut Ctx) -> Stmt {
        ctx.depth += 1;
        // Risky body: a raw division or array access that may throw.
        let denom = self.expr(ctx, &Ty::Int, 1);
        let risky = match self.lvalue(ctx) {
            Some((target, ty)) if ty.is_numeric() => Stmt::Assign {
                target,
                op: AssignOp::Set,
                value: Expr::Cast {
                    ty,
                    expr: Box::new(Expr::bin(BinOp::Div, self.expr(ctx, &Ty::Int, 1), denom)),
                },
            },
            _ => Stmt::Println(Expr::bin(BinOp::Div, Expr::IntLit(100), denom)),
        };
        let mut body = self.block_stmts(ctx);
        body.push(risky);
        let catch = Block::of(self.block_stmts(ctx));
        ctx.depth -= 1;
        Stmt::Try { body: Block::of(body), catch: Some(catch), finally: None }
    }

    /// The Figure-2-like shape: iterate an array, switch on a masked
    /// element, run a short inner loop, accumulate into the byte field.
    fn fig2_pattern(&mut self, ctx: &mut Ctx) -> Vec<Stmt> {
        let Some(array) = self.array_read_base(ctx) else {
            return vec![];
        };
        let idx = self.fresh("z");
        let elem = self.fresh("e");
        let inner = self.fresh("q");
        let byte_field = self.fields.iter().find(|f| f.ty == Ty::Byte).cloned();
        let accum: Stmt = match byte_field {
            Some(f) if f.is_static || !ctx.is_static => Stmt::Assign {
                target: if f.is_static {
                    LValue::StaticField { class: "T".into(), field: f.name }
                } else {
                    LValue::InstField { recv: Box::new(Expr::This), field: f.name }
                },
                op: AssignOp::Add,
                value: Expr::IntLit(2),
            },
            _ => Stmt::Println(Expr::StrLit("acc".into())),
        };
        let base = self.rng.gen_range(30..40);
        let inner_loop = Stmt::For {
            init: Some(Box::new(Stmt::VarDecl {
                name: inner.clone(),
                ty: Ty::Int,
                init: Expr::IntLit(self.rng.gen_range(-8..0)),
            })),
            cond: Some(Expr::bin(
                BinOp::Lt,
                Expr::local(&inner),
                Expr::IntLit(self.rng.gen_range(1..8)),
            )),
            step: Some(Box::new(Stmt::IncDec { target: LValue::Local(inner.clone()), inc: true })),
            body: Block::default(),
        };
        let switch = Stmt::Switch {
            scrutinee: Expr::bin(
                BinOp::Add,
                Expr::bin(
                    BinOp::Rem,
                    Expr::bin(BinOp::Ushr, Expr::local(&elem), Expr::IntLit(1)),
                    Expr::IntLit(10),
                ),
                Expr::IntLit(base),
            ),
            cases: vec![
                SwitchCase { labels: vec![base], is_default: false, body: vec![inner_loop, accum] },
                SwitchCase { labels: vec![base + 4], is_default: false, body: vec![Stmt::Break] },
                SwitchCase {
                    labels: vec![base + 5],
                    is_default: false,
                    body: vec![Stmt::Assign {
                        target: LValue::Index {
                            array: Box::new(array.clone()),
                            index: Box::new(Expr::IntLit(1)),
                        },
                        op: AssignOp::Set,
                        value: Expr::IntLit(9),
                    }],
                },
            ],
        };
        let body = Block::of(vec![
            Stmt::VarDecl {
                name: elem.clone(),
                ty: Ty::Int,
                init: Expr::Index {
                    array: Box::new(array.clone()),
                    index: Box::new(Expr::local(&idx)),
                },
            },
            switch,
        ]);
        let loop_stmt = Stmt::For {
            init: Some(Box::new(Stmt::VarDecl {
                name: idx.clone(),
                ty: Ty::Int,
                init: Expr::IntLit(0),
            })),
            cond: Some(Expr::bin(
                BinOp::Lt,
                Expr::local(&idx),
                Expr::Length(Box::new(array.clone())),
            )),
            step: Some(Box::new(Stmt::IncDec { target: LValue::Local(idx), inc: true })),
            body,
        };
        // Guard against a null array field; sometimes wrap the whole
        // pattern in an outer repetition loop (deepening the nest, like
        // the method under Figure 2's caller loop).
        let guarded = Stmt::If {
            cond: Expr::bin(BinOp::Ne, array, Expr::Null),
            then_blk: Block::of(vec![loop_stmt]),
            else_blk: None,
        };
        if self.pct(50) {
            let rep = self.fresh("rr");
            vec![Stmt::For {
                init: Some(Box::new(Stmt::VarDecl {
                    name: rep.clone(),
                    ty: Ty::Int,
                    init: Expr::IntLit(0),
                })),
                cond: Some(Expr::bin(BinOp::Lt, Expr::local(&rep), Expr::IntLit(2))),
                step: Some(Box::new(Stmt::IncDec { target: LValue::Local(rep), inc: true })),
                body: Block::of(vec![guarded]),
            }]
        } else {
            vec![guarded]
        }
    }

    // ----- expressions ------------------------------------------------------

    /// A readable int-array expression (field), if one exists and is
    /// accessible from this context.
    fn array_read_base(&mut self, ctx: &Ctx) -> Option<Expr> {
        let f = self
            .fields
            .iter()
            .find(|f| matches!(f.ty, Ty::Array(_)) && (f.is_static || !ctx.is_static))?
            .clone();
        Some(if f.is_static {
            Expr::StaticField { class: "T".into(), field: f.name }
        } else {
            Expr::InstField { recv: Box::new(Expr::This), field: f.name }
        })
    }

    /// An index expression that is *usually* in bounds (`x & 3`), with an
    /// occasional raw index for exception diversity.
    fn bounded_index(&mut self, ctx: &mut Ctx) -> Expr {
        if self.pct(95) {
            Expr::bin(BinOp::And, self.expr(ctx, &Ty::Int, 1), Expr::IntLit(3))
        } else {
            self.expr(ctx, &Ty::Int, 1)
        }
    }

    fn literal(&mut self, ty: &Ty) -> Expr {
        match ty {
            Ty::Int => Expr::IntLit(self.rng.gen_range(-50..50)),
            Ty::Long => Expr::LongLit(self.rng.gen_range(-500..500)),
            Ty::Byte => Expr::IntLit(self.rng.gen_range(-128..=127)),
            Ty::Bool => Expr::BoolLit(self.rng.gen_bool(0.5)),
            _ => Expr::Null,
        }
    }

    /// A call expression to a lower-index method, legal in this context.
    fn callable(&mut self, ctx: &mut Ctx) -> Option<Expr> {
        if ctx.method_idx == 0 {
            return None;
        }
        let callee_idx = self.rng.gen_range(0..ctx.method_idx);
        let info = self.methods[callee_idx].clone();
        // Static callers may only call static callees (no receiver).
        if ctx.is_static && !info.is_static {
            return None;
        }
        let args: Vec<Expr> = info
            .params
            .iter()
            .map(|p| if self.pct(60) { self.expr_shallow(ctx, &p.ty) } else { self.literal(&p.ty) })
            .collect();
        Some(if info.is_static {
            Expr::StaticCall { class: "T".into(), method: info.name, args }
        } else {
            Expr::InstCall { recv: Box::new(Expr::This), method: info.name, args }
        })
    }

    fn expr_shallow(&mut self, ctx: &mut Ctx, ty: &Ty) -> Expr {
        self.expr(ctx, ty, 0)
    }

    /// A type-correct random expression with the given depth budget.
    fn expr(&mut self, ctx: &mut Ctx, ty: &Ty, depth: usize) -> Expr {
        if depth == 0 {
            return self.leaf(ctx, ty);
        }
        match ty {
            Ty::Int => match self.rng.gen_range(0..10) {
                0..=2 => self.leaf(ctx, ty),
                3..=5 => {
                    let op = match self.rng.gen_range(0..8) {
                        0 => BinOp::Add,
                        1 => BinOp::Sub,
                        2 => BinOp::Mul,
                        3 => BinOp::And,
                        4 => BinOp::Or,
                        5 => BinOp::Xor,
                        6 => BinOp::Shl,
                        _ => BinOp::Ushr,
                    };
                    Expr::bin(
                        op,
                        self.expr(ctx, &Ty::Int, depth - 1),
                        self.expr(ctx, &Ty::Int, depth - 1),
                    )
                }
                6 => Expr::bin(
                    BinOp::Rem,
                    self.expr(ctx, &Ty::Int, depth - 1),
                    // Division by `x | 1` cannot trap.
                    Expr::bin(BinOp::Or, self.expr(ctx, &Ty::Int, depth - 1), Expr::IntLit(1)),
                ),
                7 => {
                    Expr::Cast { ty: Ty::Int, expr: Box::new(self.expr(ctx, &Ty::Long, depth - 1)) }
                }
                8 => Expr::Unary {
                    op: if self.pct(50) { UnOp::Neg } else { UnOp::BitNot },
                    expr: Box::new(self.expr(ctx, &Ty::Int, depth - 1)),
                },
                _ => match self.array_read_base(ctx) {
                    Some(array) => Expr::Index {
                        array: Box::new(array),
                        index: Box::new(self.bounded_index(ctx)),
                    },
                    None => self.leaf(ctx, ty),
                },
            },
            Ty::Long => match self.rng.gen_range(0..6) {
                0..=1 => self.leaf(ctx, ty),
                2..=3 => {
                    let op = match self.rng.gen_range(0..5) {
                        0 => BinOp::Add,
                        1 => BinOp::Sub,
                        2 => BinOp::Mul,
                        3 => BinOp::Xor,
                        _ => BinOp::And,
                    };
                    Expr::bin(
                        op,
                        self.expr(ctx, &Ty::Long, depth - 1),
                        self.expr(ctx, &Ty::Long, depth - 1),
                    )
                }
                4 => {
                    Expr::Cast { ty: Ty::Long, expr: Box::new(self.expr(ctx, &Ty::Int, depth - 1)) }
                }
                _ => Expr::bin(
                    BinOp::Shr,
                    self.expr(ctx, &Ty::Long, depth - 1),
                    Expr::IntLit(self.rng.gen_range(0..8)),
                ),
            },
            Ty::Byte => {
                Expr::Cast { ty: Ty::Byte, expr: Box::new(self.expr(ctx, &Ty::Int, depth - 1)) }
            }
            Ty::Bool => match self.rng.gen_range(0..6) {
                0 => self.leaf(ctx, ty),
                1..=3 => {
                    let op = match self.rng.gen_range(0..4) {
                        0 => BinOp::Lt,
                        1 => BinOp::Gt,
                        2 => BinOp::Eq,
                        _ => BinOp::Ne,
                    };
                    Expr::bin(
                        op,
                        self.expr(ctx, &Ty::Int, depth - 1),
                        self.expr(ctx, &Ty::Int, depth - 1),
                    )
                }
                4 => Expr::bin(
                    if self.rng.gen_bool(0.5) { BinOp::LAnd } else { BinOp::LOr },
                    self.expr(ctx, &Ty::Bool, depth - 1),
                    self.expr(ctx, &Ty::Bool, depth - 1),
                ),
                _ => Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(self.expr(ctx, &Ty::Bool, depth - 1)),
                },
            },
            _ => self.leaf(ctx, ty),
        }
    }

    /// A leaf expression: literal, local, or field of the right type.
    fn leaf(&mut self, ctx: &Ctx, ty: &Ty) -> Expr {
        // The literal is drawn first and is candidate 0.
        let literal = self.literal(ty);
        let locals = ctx.locals.iter().filter(|l| &l.ty == ty);
        let fields = self.fields.iter().filter(|f| &f.ty == ty && (f.is_static || !ctx.is_static));
        // Int contexts also accept byte variables (implicit widening).
        let widened = ctx.locals.iter().filter(|l| *ty == Ty::Int && l.ty == Ty::Byte);
        let mut candidates =
            locals.map(Var::Local).chain(fields.map(Var::Field)).chain(widened.map(Var::Local));
        let pick = self.rng.gen_range(0..1 + candidates.clone().count());
        match pick.checked_sub(1).and_then(|i| candidates.nth(i)) {
            None => literal,
            Some(Var::Local(l)) => Expr::local(&l.name),
            Some(Var::Field(f)) if f.is_static => {
                Expr::StaticField { class: "T".into(), field: f.name.clone() }
            }
            Some(Var::Field(f)) => {
                Expr::InstField { recv: Box::new(Expr::This), field: f.name.clone() }
            }
        }
    }
}

/// A variable [`Gen::leaf`] or [`Gen::lvalue`] may draw. Candidates are
/// counted and drawn before any is built, so only the pick allocates.
#[derive(Clone, Copy)]
enum Var<'a> {
    Local(&'a LocalInfo),
    Field(&'a FieldInfo),
}
