//! JIT-op neutral mutation (JoNM) — the paper's §3.3/§3.4 and Algorithm 1.
//!
//! Given a seed program, [`Artemis::jonm`] stochastically mutates its
//! methods with the three mutators of Figure 3:
//!
//! * **LI (Loop Inserter)** — inserts a synthesized hot loop at a random
//!   program point, driving OSR compilation of the enclosing method.
//! * **SW (Statement Wrapper)** — wraps the statement after the point
//!   inside a synthesized loop, guarded by an `exec` flag so it still
//!   runs exactly once; the wrapped statement and the loop now compile
//!   together.
//! * **MI (Method Invocator)** — pre-invokes a method thousands of times
//!   before one of its real call sites, with a control-flag prologue that
//!   makes the pre-invocations return early (the paper's Figure 2
//!   example), driving method-counter JIT compilation.
//!
//! Every mutation is *semantics-preserving*: synthesized code is muted,
//! exception-fenced, and bracketed by backup/restore of every reused
//! variable. The crate's tests enforce neutrality by running mutants
//! against the reference interpreter.

use cse_lang::ast::*;
use cse_lang::scope::{self, PointInfo, VarInfo};
use cse_lang::ty::Ty;
use cse_lang::Program;
use cse_rng::Rng64;

use crate::synth::{Synth, SynthParams};

/// The three JoNM mutators (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutator {
    /// Loop Inserter.
    Li,
    /// Statement Wrapper.
    Sw,
    /// Method Invocator.
    Mi,
}

impl Mutator {
    /// All mutators (Algorithm 1's `{LI, SW, MI}`).
    pub const ALL: [Mutator; 3] = [Mutator::Li, Mutator::Sw, Mutator::Mi];
}

/// A record of one applied mutation (for reports and statistics).
#[derive(Debug, Clone)]
pub struct AppliedMutation {
    pub mutator: Mutator,
    /// `Class.method` the mutation landed in.
    pub location: String,
}

/// The Artemis mutation engine.
pub struct Artemis {
    rng: Rng64,
    pub params: SynthParams,
    counter: u64,
    /// Which mutators are enabled (all three by default; ablations
    /// restrict this).
    pub enabled: Vec<Mutator>,
    /// Chaos knob for supervision tests: after the normal JoNM pass,
    /// deliberately break semantic neutrality by flipping every integer
    /// literal assignment. Exercises the harness's neutrality-violation
    /// detection; never set outside tests.
    pub chaos_break_neutrality: bool,
    /// `Class.method` locations whose mutation probability is boosted
    /// (coverage guidance's mutation-site weighting). Empty — the
    /// default — leaves the RNG draw sequence bit-identical to an
    /// unguided engine.
    pub focus: Vec<String>,
}

impl Artemis {
    /// Creates an engine with a deterministic RNG.
    pub fn new(seed: u64, params: SynthParams) -> Artemis {
        Artemis {
            rng: Rng64::seed_from_u64(seed ^ 0xa5a5_5a5a_c3c3_3c3c),
            params,
            counter: 0,
            enabled: Mutator::ALL.to_vec(),
            chaos_break_neutrality: false,
            focus: Vec::new(),
        }
    }

    /// Algorithm 1's `JoNM(P)`: clones the seed and mutates a random
    /// subset of its methods. Returns the mutant and what was applied
    /// (possibly nothing — callers typically retry or accept).
    pub fn jonm(&mut self, seed: &Program) -> (Program, Vec<AppliedMutation>) {
        let mut mutant = seed.clone();
        let mut applied = Vec::new();
        // Snapshot the method list up front; mutations change indices
        // within bodies but never add/remove/reorder methods.
        let methods: Vec<(usize, usize)> = mutant
            .classes
            .iter()
            .enumerate()
            .flat_map(|(c, class)| (0..class.methods.len()).map(move |m| (c, m)))
            .collect();
        for (class_idx, method_idx) in methods {
            // `main` stays unmutated: its checksum printing is the oracle's
            // anchor, and the paper's seeds route all logic through helper
            // methods anyway.
            if mutant.classes[class_idx].methods[method_idx].name == "main" {
                continue;
            }
            // Focused methods mutate with boosted probability; exactly
            // one RNG draw happens either way, so an empty focus list
            // preserves the unguided draw sequence bit-for-bit.
            let boosted = !self.focus.is_empty() && {
                let class = &mutant.classes[class_idx];
                let location = format!("{}.{}", class.name, class.methods[method_idx].name);
                self.focus.iter().any(|f| f == &location)
            };
            let prob = if boosted {
                (self.params.mutation_prob * 3.0).min(0.95)
            } else {
                self.params.mutation_prob
            };
            if !self.rng.gen_bool(prob) {
                continue;
            }
            let mutator = self.enabled[self.rng.gen_range(0..self.enabled.len())];
            if let Some(record) = self.apply(&mut mutant, class_idx, method_idx, mutator) {
                applied.push(record);
            }
        }
        if self.chaos_break_neutrality && chaos_flip_literals(&mut mutant) > 0 {
            applied.push(AppliedMutation {
                mutator: Mutator::Li,
                location: "<chaos: literal flip>".to_string(),
            });
        }
        (mutant, applied)
    }

    /// Applies one mutator to one method; falls back to LI when the
    /// chosen mutator has no applicable site.
    fn apply(
        &mut self,
        program: &mut Program,
        class_idx: usize,
        method_idx: usize,
        mutator: Mutator,
    ) -> Option<AppliedMutation> {
        let location = format!(
            "{}.{}",
            program.classes[class_idx].name, program.classes[class_idx].methods[method_idx].name
        );
        let done = match mutator {
            Mutator::Li => self.apply_li(program, class_idx, method_idx),
            Mutator::Sw => {
                self.apply_sw(program, class_idx, method_idx)
                    || self.apply_li(program, class_idx, method_idx)
            }
            Mutator::Mi => {
                self.apply_mi(program, class_idx, method_idx)
                    || self.apply_li(program, class_idx, method_idx)
            }
        };
        done.then_some(AppliedMutation { mutator, location })
    }

    /// Program points within one method.
    fn points_in(&self, program: &Program, class_idx: usize, method_idx: usize) -> Vec<PointInfo> {
        scope::collect_points_in(program, class_idx, method_idx)
    }

    fn synth(&mut self) -> Synth<'_> {
        Synth { rng: &mut self.rng, params: &self.params, counter: &mut self.counter }
    }

    /// Picks a program point, biased toward shallow nesting: deeply nested
    /// points often sit in dead branches (untaken switch arms, cold `if`
    /// sides) where a synthesized loop would never run, so half the picks
    /// come from the method's top level. (The paper samples uniformly and
    /// names smarter point selection as future work, §4.5.)
    fn pick_point(&mut self, points: &[PointInfo]) -> PointInfo {
        let shallow: Vec<&PointInfo> = points.iter().filter(|p| p.point.path.is_empty()).collect();
        if !shallow.is_empty() && self.rng.gen_bool(0.7) {
            return shallow[self.rng.gen_range(0..shallow.len())].clone();
        }
        points[self.rng.gen_range(0..points.len())].clone()
    }

    // ----- LI ---------------------------------------------------------------

    fn apply_li(&mut self, program: &mut Program, class_idx: usize, method_idx: usize) -> bool {
        let points = self.points_in(program, class_idx, method_idx);
        if points.is_empty() {
            return false;
        }
        let info = self.pick_point(&points);
        let vars = info.vars.clone();
        let mut reused: Vec<VarInfo> = Vec::new();
        let mut synth = self.synth();
        let mut body = synth.syn_stmts(&vars, &mut reused);
        if synth.rng.gen_bool(0.5) {
            body.extend(synth.syn_stmts(&vars, &mut reused));
        }
        let l = synth.wrap_loop(&vars, reused, vec![], body, vec![]);
        let stmts = scope::stmts_at_mut(program, &info.point);
        splice(stmts, info.point.index, l);
        true
    }

    // ----- SW ---------------------------------------------------------------

    fn apply_sw(&mut self, program: &mut Program, class_idx: usize, method_idx: usize) -> bool {
        let candidates: Vec<PointInfo> = self
            .points_in(program, class_idx, method_idx)
            .into_iter()
            .filter(|info| {
                let stmts = scope::stmts_at(program, &info.point);
                info.point.index < stmts.len() && sw_wrappable(&stmts[info.point.index])
            })
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let info = self.pick_point(&candidates);
        // Variables the wrapped statement writes are off-limits to
        // synthesis: backing one up before `s` runs and restoring it after
        // the loop would silently undo `s`'s own effect.
        let written_by_s = {
            let stmts = scope::stmts_at(program, &info.point);
            locals_written(&stmts[info.point.index])
        };
        let vars: Vec<VarInfo> =
            info.vars.iter().filter(|v| !written_by_s.contains(&v.name)).cloned().collect();
        let mut reused: Vec<VarInfo> = Vec::new();
        let mut synth = self.synth();
        let exec = synth.fresh_public("ex");
        // First batch writes only fresh locals (corpus-only), so the
        // wrapped statement's reads are unaffected on its one execution.
        let before = synth.syn_stmts_pure(&vars, &mut reused);
        let after = synth.syn_stmts(&vars, &mut reused);
        // Assemble the loop body around the wrapped statement.
        let pre =
            vec![Stmt::VarDecl { name: exec.clone(), ty: Ty::Bool, init: Expr::BoolLit(false) }];
        // Temporarily detach the wrapped statement from the program.
        let stmts = scope::stmts_at_mut(program, &info.point);
        let wrapped = stmts.remove(info.point.index);
        let mut body = before;
        body.push(Stmt::If {
            cond: Expr::Unary { op: UnOp::Not, expr: Box::new(Expr::local(&exec)) },
            then_blk: Block::of(vec![
                Stmt::Unmute,
                wrapped,
                Stmt::Mute,
                Stmt::Assign {
                    target: LValue::Local(exec.clone()),
                    op: AssignOp::Set,
                    value: Expr::BoolLit(true),
                },
            ]),
            else_blk: None,
        });
        body.extend(after);
        let l = {
            let mut synth =
                Synth { rng: &mut self.rng, params: &self.params, counter: &mut self.counter };
            synth.wrap_loop(&vars, reused, pre, body, vec![])
        };
        let stmts = scope::stmts_at_mut(program, &info.point);
        splice(stmts, info.point.index, l);
        true
    }

    // ----- MI ---------------------------------------------------------------

    fn apply_mi(&mut self, program: &mut Program, class_idx: usize, method_idx: usize) -> bool {
        let class_name = program.classes[class_idx].name.clone();
        // The target's signature only: its body is never read here.
        let (name, params, ret, is_static) = {
            let target = &program.classes[class_idx].methods[method_idx];
            (target.name.clone(), target.params.clone(), target.ret.clone(), target.is_static)
        };
        // Collect call sites of the target outside the target itself, with
        // a reusable receiver.
        let sites: Vec<_> = scope::call_sites(program, &class_name, &name)
            .into_iter()
            .filter(|site| !(site.class == class_idx && site.method == method_idx))
            .filter_map(|site| {
                let stmts = scope::stmts_at(program, &site);
                let stmt = &stmts[site.index];
                find_reusable_call(stmt, &class_name, &name, is_static).map(|recv| (site, recv))
            })
            .collect();
        if sites.is_empty() {
            return false;
        }
        let (site, receiver) = sites[self.rng.gen_range(0..sites.len())].clone();
        // Fresh control field on the target's class.
        let ctrl = {
            self.counter += 1;
            format!("$c{}", self.counter)
        };
        program.classes[class_idx].fields.push(FieldDecl {
            name: ctrl.clone(),
            ty: Ty::Bool,
            is_static: true,
            init: Some(Expr::BoolLit(false)),
        });
        let ctrl_read = Expr::StaticField { class: class_name.clone(), field: ctrl.clone() };
        let ctrl_set = |value: bool| Stmt::Assign {
            target: LValue::StaticField { class: class_name.clone(), field: ctrl.clone() },
            op: AssignOp::Set,
            value: Expr::BoolLit(value),
        };
        // Prologue: `if (C.$c) { …synthesized…; return <expr>; }`.
        let params_as_vars: Vec<VarInfo> = params
            .iter()
            .map(|p| VarInfo { name: p.name.clone(), ty: p.ty.clone(), is_param: true })
            .collect();
        let prologue = {
            let mut synth =
                Synth { rng: &mut self.rng, params: &self.params, counter: &mut self.counter };
            let mut reused = Vec::new();
            let stmts = synth.syn_stmts(&params_as_vars, &mut reused);
            let mut guts: Vec<Stmt> = Vec::new();
            let mut restores: Vec<Stmt> = Vec::new();
            for var in &reused {
                let bk = synth.fresh_public("bk");
                guts.push(Stmt::VarDecl {
                    name: bk.clone(),
                    ty: var.ty.clone(),
                    init: Expr::local(&var.name),
                });
                restores.push(Stmt::Assign {
                    target: LValue::Local(var.name.clone()),
                    op: AssignOp::Set,
                    value: Expr::local(&bk),
                });
            }
            guts.push(Stmt::Mute);
            guts.push(Stmt::Try {
                body: Block::of(stmts),
                catch: Some(Block::default()),
                finally: None,
            });
            guts.push(Stmt::Unmute);
            guts.extend(restores);
            let ret_value = if ret == Ty::Void {
                None
            } else {
                let mut reused_ret = Vec::new();
                Some(synth.syn_expr(&ret, &params_as_vars, &mut reused_ret))
            };
            guts.push(Stmt::Return(ret_value));
            Stmt::If { cond: ctrl_read, then_blk: Block::of(guts), else_blk: None }
        };
        program.classes[class_idx].methods[method_idx].body.stmts.insert(0, prologue);
        // Build the pre-invocation loop at the chosen site.
        let site_info = scope::collect_points_in(program, site.class, site.method)
            .into_iter()
            .find(|p| p.point == site)
            .expect("site still exists after prologue insertion");
        let vars = site_info.vars.clone();
        let call: Expr = {
            let mut synth =
                Synth { rng: &mut self.rng, params: &self.params, counter: &mut self.counter };
            let mut reused_args = Vec::new();
            let args: Vec<Expr> =
                params.iter().map(|p| synth.syn_expr(&p.ty, &vars, &mut reused_args)).collect();
            if is_static {
                Expr::StaticCall { class: class_name.clone(), method: name, args }
            } else {
                Expr::InstCall { recv: Box::new(receiver), method: name, args }
            }
        };
        let body = vec![ctrl_set(true), Stmt::ExprStmt(call), ctrl_set(false)];
        let l = {
            let mut synth =
                Synth { rng: &mut self.rng, params: &self.params, counter: &mut self.counter };
            // The post-loop reset covers exceptional exits from the loop.
            synth.wrap_loop(&vars, Vec::new(), vec![], body, vec![ctrl_set(false)])
        };
        let stmts = scope::stmts_at_mut(program, &site);
        splice(stmts, site.index, l);
        true
    }
}

impl Synth<'_> {
    /// Fresh-name helper shared with the mutators.
    pub fn fresh_public(&mut self, tag: &str) -> String {
        *self.counter += 1;
        format!("${tag}{}", self.counter)
    }
}

/// Inserts `new_stmts` at `index` within `stmts`.
fn splice(stmts: &mut Vec<Stmt>, index: usize, new_stmts: Vec<Stmt>) {
    for (offset, stmt) in new_stmts.into_iter().enumerate() {
        stmts.insert(index + offset, stmt);
    }
}

/// Finds a call to `class.target` in `stmt` whose receiver is reusable
/// (`this` or a local); returns the receiver expression to clone
/// (`Expr::This` placeholder for static calls).
fn find_reusable_call(stmt: &Stmt, class: &str, target: &str, is_static: bool) -> Option<Expr> {
    let mut found: Option<Expr> = None;
    scope::for_each_expr_in_stmt(stmt, &mut |e| {
        if found.is_some() {
            return;
        }
        match e {
            Expr::StaticCall { class: c, method, .. }
                if is_static && c == class && method == target =>
            {
                found = Some(Expr::This);
            }
            Expr::InstCall { recv, method, .. } if !is_static && method == target => {
                match recv.as_ref() {
                    Expr::This => found = Some(Expr::This),
                    Expr::Local(name) => found = Some(Expr::local(name)),
                    _ => {}
                }
            }
            _ => {}
        }
    });
    found
}

/// The local variables a statement writes (assignment targets and
/// increment/decrement targets, at any nesting depth).
fn locals_written(stmt: &Stmt) -> std::collections::HashSet<String> {
    fn walk(stmt: &Stmt, out: &mut std::collections::HashSet<String>) {
        match stmt {
            Stmt::Assign { target, .. } | Stmt::IncDec { target, .. } => {
                if let LValue::Local(name) | LValue::Name(name) = target {
                    out.insert(name.clone());
                }
            }
            Stmt::VarDecl { name, .. } => {
                out.insert(name.clone());
            }
            Stmt::If { then_blk, else_blk, .. } => {
                then_blk.stmts.iter().for_each(|s| walk(s, out));
                if let Some(e) = else_blk {
                    e.stmts.iter().for_each(|s| walk(s, out));
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                body.stmts.iter().for_each(|s| walk(s, out));
            }
            Stmt::For { init, step, body, .. } => {
                if let Some(init) = init {
                    walk(init, out);
                }
                if let Some(step) = step {
                    walk(step, out);
                }
                body.stmts.iter().for_each(|s| walk(s, out));
            }
            Stmt::Switch { cases, .. } => {
                for case in cases {
                    case.body.iter().for_each(|s| walk(s, out));
                }
            }
            Stmt::Block(b) => b.stmts.iter().for_each(|s| walk(s, out)),
            Stmt::Try { body, catch, finally } => {
                body.stmts.iter().for_each(|s| walk(s, out));
                if let Some(c) = catch {
                    c.stmts.iter().for_each(|s| walk(s, out));
                }
                if let Some(f) = finally {
                    f.stmts.iter().for_each(|s| walk(s, out));
                }
            }
            _ => {}
        }
    }
    let mut out = std::collections::HashSet::new();
    walk(stmt, &mut out);
    out
}

/// The deliberate non-neutral mutation behind
/// [`Artemis::chaos_break_neutrality`]: increments every integer-literal
/// assignment in the program. Returns how many literals were flipped.
fn chaos_flip_literals(mutant: &mut Program) -> usize {
    let mut flipped = 0;
    let points = scope::collect_points(mutant);
    for info in points {
        let stmts = scope::stmts_at_mut(mutant, &info.point);
        if info.point.index < stmts.len() {
            if let Stmt::Assign { value: Expr::IntLit(v), .. } = &mut stmts[info.point.index] {
                *v = v.wrapping_add(1);
                flipped += 1;
            }
        }
    }
    flipped
}

/// Whether SW may wrap this statement while preserving semantics: it must
/// not declare scope the following statements use, must not throw (its
/// exceptions would be swallowed by the loop's catch-all), and must not
/// jump out of itself.
pub fn sw_wrappable(stmt: &Stmt) -> bool {
    if matches!(
        stmt,
        Stmt::VarDecl { .. }
            | Stmt::Mute
            | Stmt::Unmute
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Throw(_)
    ) {
        return false;
    }
    stmt_cannot_throw(stmt, 0) && !has_escaping_jump(stmt, 0, 0)
}

/// Conservative "cannot throw" analysis. `_depth` reserved for future
/// refinement.
fn stmt_cannot_throw(stmt: &Stmt, _depth: usize) -> bool {
    let mut safe = true;
    // Every contained expression must be non-throwing.
    scope::for_each_expr_in_stmt(stmt, &mut |e| {
        if !expr_cannot_throw(e) {
            safe = false;
        }
    });
    if !safe {
        return false;
    }
    // Statement forms that throw regardless of expressions — including
    // throwing *lvalues* (an indexed store raises OOB through the LValue,
    // which the expression walk above never sees) and compound division.
    fn lvalue_safe(target: &LValue) -> bool {
        match target {
            LValue::Local(_) | LValue::StaticField { .. } => true,
            LValue::InstField { recv, .. } => matches!(recv.as_ref(), Expr::This),
            LValue::Index { .. } | LValue::Name(_) => false,
        }
    }
    fn scan(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Throw(_) => false,
            Stmt::Assign { target, op, value } => {
                let div_safe = match op.binop() {
                    Some(BinOp::Div | BinOp::Rem) => {
                        matches!(value, Expr::IntLit(v) if *v != 0)
                            || matches!(value, Expr::LongLit(v) if *v != 0)
                    }
                    _ => true,
                };
                lvalue_safe(target) && div_safe
            }
            Stmt::IncDec { target, .. } => lvalue_safe(target),
            Stmt::If { then_blk, else_blk, .. } => {
                then_blk.stmts.iter().all(scan)
                    && else_blk.as_ref().map(|b| b.stmts.iter().all(scan)).unwrap_or(true)
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                body.stmts.iter().all(scan)
            }
            Stmt::Switch { cases, .. } => cases.iter().all(|c| c.body.iter().all(scan)),
            Stmt::Block(b) => b.stmts.iter().all(scan),
            // A try with a catch-all swallows anything its body throws,
            // but the catch block itself must also be throw-free;
            // `finally`-only trys still propagate, so stay conservative.
            Stmt::Try { catch: Some(catch), finally: None, .. } => catch.stmts.iter().all(scan),
            Stmt::Try { .. } => false,
            _ => true,
        }
    }
    scan(stmt)
}

fn expr_cannot_throw(expr: &Expr) -> bool {
    match expr {
        // Division/remainder by a non-zero literal is safe.
        Expr::Binary { op: BinOp::Div | BinOp::Rem, rhs, .. } => {
            matches!(rhs.as_ref(), Expr::IntLit(v) if *v != 0)
                || matches!(rhs.as_ref(), Expr::LongLit(v) if *v != 0)
        }
        // Indexing, lengths, calls, allocation, and non-`this` field
        // access can all raise.
        Expr::Index { .. }
        | Expr::Length(_)
        | Expr::StaticCall { .. }
        | Expr::InstCall { .. }
        | Expr::FreeCall { .. }
        | Expr::NewObject(_)
        | Expr::NewArray { .. }
        | Expr::NewArrayInit { .. } => false,
        Expr::InstField { recv, .. } => matches!(recv.as_ref(), Expr::This),
        _ => true,
    }
}

/// Whether `stmt` contains a `break`/`continue`/`return` that would escape
/// it (and thus, after wrapping, target the synthesized loop instead).
fn has_escaping_jump(stmt: &Stmt, loop_depth: usize, switch_depth: usize) -> bool {
    match stmt {
        Stmt::Return(_) => true,
        Stmt::Break => loop_depth + switch_depth == 0,
        Stmt::Continue => loop_depth == 0,
        Stmt::If { then_blk, else_blk, .. } => {
            then_blk.stmts.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth))
                || else_blk
                    .as_ref()
                    .map(|b| b.stmts.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth)))
                    .unwrap_or(false)
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            body.stmts.iter().any(|s| has_escaping_jump(s, loop_depth + 1, switch_depth))
        }
        Stmt::Switch { cases, .. } => cases
            .iter()
            .any(|c| c.body.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth + 1))),
        Stmt::Block(b) => b.stmts.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth)),
        Stmt::Try { body, catch, finally } => {
            body.stmts.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth))
                || catch
                    .as_ref()
                    .map(|b| b.stmts.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth)))
                    .unwrap_or(false)
                || finally
                    .as_ref()
                    .map(|b| b.stmts.iter().any(|s| has_escaping_jump(s, loop_depth, switch_depth)))
                    .unwrap_or(false)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_vm::VmKind;

    /// The whole-program [`scope::call_sites`] that the direct statement
    /// walk replaced: every insertion point [`scope::collect_points`]
    /// enumerates whose statement calls the target. Kept as the walk's
    /// reference.
    fn call_sites_by_points(
        program: &Program,
        class_name: &str,
        method_name: &str,
    ) -> Vec<scope::ProgPoint> {
        let mut sites = Vec::new();
        for info in scope::collect_points(program) {
            let stmts = scope::stmts_at(program, &info.point);
            if info.point.index >= stmts.len() {
                continue;
            }
            let stmt = &stmts[info.point.index];
            let mut found = false;
            scope::for_each_expr_in_stmt(stmt, &mut |e| match e {
                Expr::StaticCall { class, method, .. }
                    if class == class_name && method == method_name =>
                {
                    found = true;
                }
                Expr::InstCall { method, .. } if method == method_name => found = true,
                _ => {}
            });
            if found {
                sites.push(info.point);
            }
        }
        sites
    }

    /// Asserts that the walk and the reference agree on every method of
    /// `program`; returns how many sites they found.
    fn assert_sites_match(program: &Program, what: &str) -> usize {
        let mut total = 0;
        for class in &program.classes {
            for method in &class.methods {
                let sites = scope::call_sites(program, &class.name, &method.name);
                let reference = call_sites_by_points(program, &class.name, &method.name);
                assert_eq!(
                    sites, reference,
                    "{what}: call sites of {}.{}",
                    class.name, method.name
                );
                total += sites.len();
            }
        }
        total
    }

    #[test]
    fn call_site_walk_matches_the_point_reference() {
        let fuzz = cse_fuzz::FuzzConfig::default();
        let (mut seed_sites, mut mutant_sites) = (0, 0);
        for seed in 0..100 {
            let program = cse_fuzz::generate(seed, &fuzz);
            seed_sites += assert_sites_match(&program, &format!("seed {seed}"));
            // JoNM mutates each method with probability 0.5: half-mutated
            // programs, carrying LI/SW loops and MI prologues and call
            // loops the fuzzer never writes.
            let mut artemis = Artemis::new(seed, SynthParams::for_kind(VmKind::HotSpotLike));
            for iteration in 0..2 {
                let (mutant, _) = artemis.jonm(&program);
                mutant_sites += assert_sites_match(&mutant, &format!("seed {seed} i{iteration}"));
            }
        }
        // Both corpora exercise the comparison.
        assert!(seed_sites > 0 && mutant_sites > seed_sites, "{seed_sites} / {mutant_sites}");
    }
}
