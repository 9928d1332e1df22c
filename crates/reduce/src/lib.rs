//! Syntax-guided test-case reduction — the Perses/C-Reduce role in the
//! paper's workflow (§2.2: "we reduced it automatically using Perses and
//! C-Reduce").
//!
//! Given a program and an interestingness predicate (e.g. "this mutant
//! still exposes the discrepancy"), the reducer repeatedly tries
//! syntactically valid shrinking transformations — dropping statements,
//! replacing blocks by their bodies, dropping unused methods and fields —
//! keeping each change only when the predicate still holds, until a fixed
//! point. All intermediate candidates re-run the type checker, so the
//! reducer never produces invalid programs (the Perses property).
//!
//! # Examples
//!
//! ```
//! use cse_reduce::reduce;
//!
//! let program = cse_lang::parse_and_check(
//!     r#"class T {
//!         static void main() {
//!             int a = 1;
//!             int b = 2;
//!             println(7);
//!             b += a;
//!         }
//!     }"#,
//! ).unwrap();
//! // Keep only programs that still print "7".
//! let reduced = reduce(&program, &mut |p| {
//!     let bc = cse_bytecode::compile(p).unwrap();
//!     let run = cse_vm::Vm::run_program(
//!         &bc,
//!         cse_vm::VmConfig::interpreter_only(cse_vm::VmKind::HotSpotLike),
//!     );
//!     run.output.contains('7')
//! });
//! let main = reduced.classes[0].method("main").unwrap();
//! assert_eq!(main.body.stmts.len(), 1, "only the println survives");
//! ```

#![forbid(unsafe_code)]

use cse_lang::ast::*;
use cse_lang::Program;

/// Reduction limits. The step budget bounds *candidate evaluations* (the
/// expensive unit: each one type-checks and usually executes a program),
/// making every reduction terminate in a machine-independent number of
/// steps — wall-clock never decides when reduction stops.
#[derive(Debug, Clone, Copy)]
pub struct ReduceConfig {
    /// Maximum candidate evaluations before the reducer returns the best
    /// program found so far.
    pub max_steps: usize,
}

impl Default for ReduceConfig {
    fn default() -> ReduceConfig {
        ReduceConfig { max_steps: 100_000 }
    }
}

/// What a budgeted reduction produced.
#[derive(Debug, Clone)]
pub struct ReduceOutcome {
    /// The smallest interesting program found.
    pub program: Program,
    /// Candidate evaluations spent.
    pub steps: usize,
    /// Whether the step budget ran out before reaching a fixed point (the
    /// result is still valid and interesting, just possibly not minimal).
    pub budget_exhausted: bool,
    /// Whether the *input* satisfied the predicate. When false, the input
    /// is returned unchanged and no reduction was attempted.
    pub input_interesting: bool,
}

/// Reduces `program` while `interesting` holds. The predicate receives
/// *checked* programs only, in their resolved form
/// ([`cse_lang::typeck::checked`]): it is never called on invalid
/// programs, and it may lower what it gets without checking it again.
/// The reduced program is returned as the reducer built it, unresolved.
///
/// Convenience wrapper over [`reduce_with`] using the default
/// [`ReduceConfig`]; panics in debug builds if the input itself is not
/// interesting.
pub fn reduce(program: &Program, interesting: &mut dyn FnMut(&Program) -> bool) -> Program {
    let outcome = reduce_with(program, ReduceConfig::default(), interesting);
    debug_assert!(outcome.input_interesting, "the input itself must be interesting");
    outcome.program
}

/// Budgeted reduction: like [`reduce`], but bounded by
/// `config.max_steps` candidate evaluations and reporting how the
/// reduction ended instead of asserting on uninteresting inputs (those,
/// and inputs the checker rejects, come back unchanged with
/// `input_interesting = false`).
pub fn reduce_with(
    program: &Program,
    config: ReduceConfig,
    interesting: &mut dyn FnMut(&Program) -> bool,
) -> ReduceOutcome {
    let mut ctx = Ctx { interesting, steps: 0, max_steps: config.max_steps };
    let mut current = program.clone();
    // The input costs one step and is checked like every candidate: an
    // input the checker rejects is not interesting.
    ctx.steps += 1;
    if !ctx.test(&current) {
        return ReduceOutcome {
            program: current,
            steps: ctx.steps,
            budget_exhausted: false,
            input_interesting: false,
        };
    }
    while !ctx.exhausted() {
        let mut changed = false;
        // Pass 1: drop entire methods (never `main`).
        changed |= try_drop_methods(&mut current, &mut ctx);
        // Pass 2: statement-level delta debugging in every block.
        changed |= try_drop_statements(&mut current, &mut ctx);
        // Pass 3: structural simplification (if -> branch body, loop ->
        // body, try -> body).
        changed |= try_flatten(&mut current, &mut ctx);
        // Pass 4: drop unused fields.
        changed |= try_drop_fields(&mut current, &mut ctx);
        if !changed {
            break;
        }
    }
    ReduceOutcome {
        program: current,
        steps: ctx.steps,
        budget_exhausted: ctx.exhausted(),
        input_interesting: true,
    }
}

/// Shared reduction state: the predicate plus the step budget.
struct Ctx<'a> {
    interesting: &'a mut dyn FnMut(&Program) -> bool,
    steps: usize,
    max_steps: usize,
}

impl Ctx<'_> {
    fn exhausted(&self) -> bool {
        self.steps >= self.max_steps
    }

    /// Charges one step and tests a candidate. Out of budget, every
    /// candidate is rejected, so all pass loops drain without further
    /// predicate runs.
    fn accept(&mut self, candidate: &Program) -> bool {
        if self.exhausted() {
            return false;
        }
        self.steps += 1;
        self.test(candidate)
    }

    /// Checks a program and applies the predicate to its resolved form;
    /// the check is the only one the program gets.
    fn test(&mut self, program: &Program) -> bool {
        match cse_lang::typeck::checked(program) {
            Ok(checked) => (self.interesting)(&checked),
            Err(_) => false,
        }
    }
}

fn try_drop_methods(current: &mut Program, ctx: &mut Ctx) -> bool {
    let mut changed = false;
    'retry: loop {
        for c in 0..current.classes.len() {
            for m in 0..current.classes[c].methods.len() {
                if current.classes[c].methods[m].name == "main" {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.classes[c].methods.remove(m);
                if ctx.accept(&candidate) {
                    *current = candidate;
                    changed = true;
                    continue 'retry;
                }
            }
        }
        return changed;
    }
}

fn try_drop_fields(current: &mut Program, ctx: &mut Ctx) -> bool {
    let mut changed = false;
    'retry: loop {
        for c in 0..current.classes.len() {
            for f in 0..current.classes[c].fields.len() {
                let mut candidate = current.clone();
                candidate.classes[c].fields.remove(f);
                if ctx.accept(&candidate) {
                    *current = candidate;
                    changed = true;
                    continue 'retry;
                }
            }
        }
        return changed;
    }
}

/// ddmin-style statement removal: tries chunks from large to small in
/// every block of every method.
fn try_drop_statements(current: &mut Program, ctx: &mut Ctx) -> bool {
    let mut changed = false;
    loop {
        let points = cse_lang::scope::collect_points(current);
        // Visit distinct blocks once (points enumerate indices within
        // blocks; index 0 identifies each block).
        let blocks: Vec<_> =
            points.into_iter().filter(|p| p.point.index == 0).map(|p| p.point).collect();
        let mut round_changed = false;
        for block_point in blocks {
            // Earlier removals may have invalidated this path; skip then.
            let Some(stmts) = cse_lang::scope::try_stmts_at_mut(current, &block_point) else {
                continue;
            };
            let len = stmts.len();
            if len == 0 {
                continue;
            }
            let mut chunk = len;
            while chunk >= 1 {
                let mut start = 0;
                while let Some(stmts) = cse_lang::scope::try_stmts_at_mut(current, &block_point) {
                    if start >= stmts.len() {
                        break;
                    }
                    let mut candidate = current.clone();
                    if let Some(stmts) =
                        cse_lang::scope::try_stmts_at_mut(&mut candidate, &block_point)
                    {
                        let end = (start + chunk).min(stmts.len());
                        stmts.drain(start..end);
                    }
                    if ctx.accept(&candidate) {
                        *current = candidate;
                        round_changed = true;
                    } else {
                        start += chunk;
                    }
                }
                chunk /= 2;
            }
        }
        changed |= round_changed;
        if !round_changed {
            return changed;
        }
    }
}

/// Replaces structured statements by (parts of) their bodies.
fn try_flatten(current: &mut Program, ctx: &mut Ctx) -> bool {
    let mut changed = false;
    'retry: loop {
        let points = cse_lang::scope::collect_points(current);
        for info in points {
            let stmts = cse_lang::scope::stmts_at(current, &info.point);
            if info.point.index >= stmts.len() {
                continue;
            }
            let replacements: Vec<Vec<Stmt>> = match &stmts[info.point.index] {
                Stmt::If { then_blk, else_blk, .. } => {
                    let mut options = vec![then_blk.stmts.clone()];
                    if let Some(e) = else_blk {
                        options.push(e.stmts.clone());
                    }
                    options
                }
                Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                    vec![body.stmts.clone()]
                }
                Stmt::For { body, .. } => vec![body.stmts.clone()],
                Stmt::Block(b) => vec![b.stmts.clone()],
                Stmt::Try { body, .. } => vec![body.stmts.clone()],
                _ => continue,
            };
            for replacement in replacements {
                // Declarations escaping their block would change scoping;
                // skip those hoists. Loop-control jumps would dangle.
                let hazardous = replacement
                    .iter()
                    .any(|s| matches!(s, Stmt::VarDecl { .. } | Stmt::Break | Stmt::Continue));
                if hazardous {
                    continue;
                }
                let mut candidate = current.clone();
                {
                    let stmts = cse_lang::scope::stmts_at_mut(&mut candidate, &info.point);
                    stmts.remove(info.point.index);
                    for (offset, stmt) in replacement.into_iter().enumerate() {
                        stmts.insert(info.point.index + offset, stmt);
                    }
                }
                if ctx.accept(&candidate) {
                    *current = candidate;
                    changed = true;
                    continue 'retry;
                }
            }
        }
        return changed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_output(p: &Program) -> String {
        let bc = cse_bytecode::compile(p).unwrap();
        cse_vm::Vm::run_program(
            &bc,
            cse_vm::VmConfig::interpreter_only(cse_vm::VmKind::HotSpotLike),
        )
        .output
    }

    #[test]
    fn removes_irrelevant_statements_and_methods() {
        let program = cse_lang::parse_and_check(
            r#"
            class T {
                static int unused() { return 3; }
                static int wanted() { return 42; }
                static void main() {
                    int x = 5;
                    x += 2;
                    for (int i = 0; i < 3; i++) { x *= 2; }
                    println(wanted());
                    int y = x;
                }
            }
            "#,
        )
        .unwrap();
        let reduced = reduce(&program, &mut |p| run_output(p).contains("42"));
        assert!(reduced.classes[0].method("unused").is_none(), "unused method dropped");
        let main = reduced.classes[0].method("main").unwrap();
        assert_eq!(main.body.stmts.len(), 1);
        assert!(run_output(&reduced).contains("42"));
    }

    #[test]
    fn flattens_wrappers_around_the_interesting_statement() {
        let program = cse_lang::parse_and_check(
            r#"
            class T {
                static void main() {
                    if (true) {
                        try { println(9); } catch { }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let reduced = reduce(&program, &mut |p| run_output(p).contains('9'));
        let main = reduced.classes[0].method("main").unwrap();
        assert_eq!(main.body.stmts, vec![Stmt::Println(Expr::IntLit(9))]);
    }

    #[test]
    fn keeps_load_bearing_code() {
        let program = cse_lang::parse_and_check(
            r#"
            class T {
                static void main() {
                    int x = 21;
                    x *= 2;
                    println(x);
                }
            }
            "#,
        )
        .unwrap();
        let reduced = reduce(&program, &mut |p| run_output(p).contains("42"));
        // All three statements are needed to print 42.
        assert_eq!(reduced.classes[0].method("main").unwrap().body.stmts.len(), 3);
    }

    /// The predicate gets programs in resolved form, so it can lower them
    /// without a check of its own, and never sees an input the checker
    /// rejects.
    #[test]
    fn predicate_sees_resolved_programs_and_no_ill_typed_input() {
        let bare = cse_lang::parse(
            "class T { static int f = 2; static void main() { int x = 1; println(f); } }",
        )
        .unwrap();
        assert!(cse_bytecode::compile(&bare).is_err(), "calibration: `f` is a bare name");
        let mut lowered = 0;
        let outcome = reduce_with(&bare, ReduceConfig::default(), &mut |p| {
            lowered += 1;
            run_output(p).contains('2')
        });
        assert!(outcome.input_interesting && lowered > 1);
        assert_eq!(outcome.program.classes[0].method("main").unwrap().body.stmts.len(), 1);
        assert!(cse_lang::pretty::print(&outcome.program).contains("println(f)"), "unresolved");

        let ill_typed =
            cse_lang::parse("class T { static void main() { int x = true; } }").unwrap();
        let outcome = reduce_with(&ill_typed, ReduceConfig::default(), &mut |_| {
            panic!("the predicate saw an ill-typed input")
        });
        assert!(!outcome.input_interesting);
        assert_eq!(outcome.steps, 1);
    }

    #[test]
    fn never_offers_invalid_candidates() {
        let program = cse_lang::parse_and_check(
            r#"
            class T {
                static void main() {
                    int x = 1;
                    x += 1;
                    println(x);
                }
            }
            "#,
        )
        .unwrap();
        // The predicate double-checks validity of everything it sees.
        let reduced = reduce(&program, &mut |p| {
            cse_lang::typeck::checked(p).expect("reducer offered an invalid candidate");
            run_output(p).contains('2')
        });
        assert!(run_output(&reduced).contains('2'));
    }
}
