//! Per-pass translation validation — a symbolic refinement checker.
//!
//! The static verifier ([`super::verify`]) proves the IR after a pass is
//! *well-formed*; this module proves the pass *refined the semantics* of
//! its input. For every `(before, after)` pair it
//!
//! 1. **symbolically evaluates** both functions per basic block into one
//!    shared hash-consed value graph of pure expressions (the same
//!    canonicalization GVN uses: commutative operands sorted, constants
//!    folded with exactly the semantics of `passes::constfold`'s correct
//!    path) plus an ordered observable-effect trace per block — calls,
//!    heap stores, allocations, prints, throws, potential `div 0` throw
//!    points, and writes to anchor registers (the deopt/handler-visible
//!    state);
//! 2. **checks a simulation relation** block-by-block: effect traces must
//!    match event-for-event with equal argument value nodes, terminators
//!    must transfer control to corresponding blocks with equal operand
//!    values, and guards may strengthen but never weaken;
//! 3. on mismatch emits a **pass-attributed counterexample**: the smallest
//!    diverging effect/value node per divergence, gathered into one
//!    [`TvReport`] per failing check that renders the full pre/post IR
//!    via [`IrFunc::pretty`] exactly once.
//!
//! # Bounded loop summarization
//!
//! Loops are never unrolled. Each block is summarized exactly once with
//! *opaque entry inputs*: a register read before any in-block definition
//! resolves to its unique whole-function pure definition when one exists
//! (what lets LICM hoists and GCM sinks validate — a single-definition
//! pure value denotes the same term wherever it is computed), and to an
//! opaque per-`(block, register)` symbol otherwise. This is a per-
//! iteration simulation argument: if every block pair agrees on effects
//! and successors given equal entry states, the traces agree for any
//! number of iterations.
//!
//! # Pass contracts
//!
//! Every registered pass declares a [`TvContract`]
//! (`passes::tv_contract`, completeness-checked by a unit test):
//!
//! * [`TvContract::EffectPreserving`] — may only remove, reorder, or
//!   rewrite provably pure computation; effects, anchor writes, and
//!   guards are untouchable (copyprop, gvn, licm, gcm, loopopt, dce, …).
//!   Folding control flow whose operand is a *proven constant* is still
//!   allowed — it is semantics-preserving for any pass.
//! * [`TvContract::GuardIntroducing`] — additionally may replace
//!   conditional control flow on proven constants and *strengthen*
//!   guards (introduce `Trap`s); weakening remains a defect (constfold,
//!   vp-global). The whole-pipeline boundary check also runs under this,
//!   the weakest, contract.
//! * [`TvContract::LayoutOnly`] — must be a location/name change only: a
//!   register-renaming bijection (anchors fixed) under which every
//!   instruction and terminator is identical (regalloc, codegen).
//!
//! # Soundness caveats (deliberate, documented in DESIGN.md)
//!
//! * Memory reads are value-graph nodes, not trace events: a read is
//!   assumed stable between invalidating writes (`PutField` of the same
//!   field, any `ArrStore` for array loads, any `Call`), mirroring the
//!   legality rules GVN's correct path uses. A pass that CSEs a load
//!   *across* an invalidation produces a diverging value node wherever
//!   the stale value is observed (the `HsGvnArrayAlias` shape), but a
//!   dropped *never-observed* read also drops its potential exception.
//! * Per-iteration block summaries cannot see cross-iteration facts; a
//!   pass exploiting (or violating) loop-carried reasoning beyond
//!   single-definition purity is outside the relation.
//! * Global value resolution is path-insensitive: a register with two
//!   definitions is opaque at block entry even when one definition
//!   dominates.
//!
//! Like the static verifier, validation is observation-only: defects are
//! reported through `ExecutionResult::tv`, never altering compilation.

use std::collections::HashMap;

use cse_bytecode::BProgram;

use super::ir::{BinKind, Block, BlockId, IrFunc, Op, Reg, Term};

pub use crate::config::TvMode;

/// Pass label for the [`TvMode::Boundary`] whole-pipeline check
/// (post-`build()` IR against the final pipeline output).
pub const PASS_PIPELINE: &str = "pipeline";

/// Cap on reported defects per validation point, so one catastrophically
/// miscompiled function cannot flood incident logs.
const MAX_ERRORS: usize = 8;

/// Rendering depth bound for counterexample value terms.
const MAX_RENDER_DEPTH: usize = 5;

/// The refinement obligation a pass declares (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvContract {
    /// Pure computation may change; effects, anchor writes, and guards
    /// must be preserved exactly.
    EffectPreserving,
    /// As above, plus constant control flow may collapse and guards may
    /// strengthen (never weaken).
    GuardIntroducing,
    /// Register renaming only: every instruction and terminator identical
    /// under a consistent bijection that fixes anchors.
    LayoutOnly,
}

impl std::fmt::Display for TvContract {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TvContract::EffectPreserving => write!(f, "effect-preserving"),
            TvContract::GuardIntroducing => write!(f, "guard-introducing"),
            TvContract::LayoutOnly => write!(f, "layout-only"),
        }
    }
}

/// One refinement violation, attributed to the pass whose output diverged
/// from its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TvError {
    /// `Class.method` of the compiled function.
    pub method: String,
    /// The pass whose (before, after) pair failed the simulation relation
    /// ([`PASS_PIPELINE`] for the boundary-mode whole-pipeline check).
    pub pass: &'static str,
    /// Block (in `before` coordinates) containing the divergence.
    pub block: BlockId,
    /// The smallest diverging effect or value node, rendered.
    pub detail: String,
}

impl std::fmt::Display for TvError {
    /// The header line `method: after pass: bN: detail` (the line triage
    /// signatures parse — same `": after "` convention as
    /// [`super::verify::IrVerifyError`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: after {}: b{}: {}", self.method, self.pass, self.block, self.detail)
    }
}

/// Every divergence of one failing `(before, after)` check, with both IR
/// dumps rendered once for the whole report rather than once per
/// divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TvReport {
    /// The divergences in discovery order (at most `MAX_ERRORS`, never
    /// empty); all share one method and pass.
    pub divergences: Vec<TvError>,
    /// Full pre-pass IR (`IrFunc::pretty`).
    pub before_ir: String,
    /// Full post-pass IR (`IrFunc::pretty`).
    pub after_ir: String,
}

impl std::fmt::Display for TvReport {
    /// One [`TvError`] header line per divergence — so the first line is
    /// the one triage signatures parse — followed by a single pre/post IR
    /// dump pair.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for divergence in &self.divergences {
            writeln!(f, "{divergence}")?;
        }
        let pass = self.divergences[0].pass;
        writeln!(f, "--- IR before {pass} ---")?;
        write!(f, "{}", self.before_ir)?;
        writeln!(f, "--- IR after {pass} ---")?;
        write!(f, "{}", self.after_ir)
    }
}

// ----- value graph ---------------------------------------------------------

type Vid = u32;

/// One hash-consed node of the shared (before + after) value graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    I(i32),
    L(i64),
    S(u32),
    Null,
    /// A register never assigned in the function (parameter/initial
    /// state): a whole-function symbolic input.
    Entry(Reg),
    /// The opaque value of a multi-definition register at one block's
    /// entry (the bounded loop summary's cut point).
    BlockIn(BlockId, Reg),
    /// A pure expression over other nodes. `aux` packs the operator's
    /// static payload (BinKind/CmpOp/ArrKind/field ids, …).
    Pure {
        tag: &'static str,
        aux: u64,
        args: Vec<Vid>,
    },
    /// An opaque position-keyed value: a fresh memory read (`occ` numbers
    /// cache misses of the same key within a block) or an effect result
    /// (`occ` is the producing event's index in the block trace).
    Opaque {
        tag: &'static str,
        aux: u64,
        args: Vec<Vid>,
        block: BlockId,
        occ: u32,
    },
}

/// The hash-consing interner. Both sides of a check intern into one
/// graph, so semantic equality is `Vid` equality.
#[derive(Default)]
struct Graph {
    nodes: Vec<Node>,
    index: HashMap<Node, Vid>,
}

impl Graph {
    fn intern(&mut self, node: Node) -> Vid {
        if let Some(&v) = self.index.get(&node) {
            return v;
        }
        let v = self.nodes.len() as Vid;
        self.nodes.push(node.clone());
        self.index.insert(node, v);
        v
    }

    fn as_i(&self, v: Vid) -> Option<i32> {
        match self.nodes[v as usize] {
            Node::I(x) => Some(x),
            _ => None,
        }
    }

    fn as_l(&self, v: Vid) -> Option<i64> {
        match self.nodes[v as usize] {
            Node::L(x) => Some(x),
            _ => None,
        }
    }

    /// Interns a pure operation over resolved operands, constant-folding
    /// with exactly the semantics `passes::constfold` uses on its correct
    /// path (so a legal fold on one side meets the unfolded expression on
    /// the other at the same node) and sorting commutative operands the
    /// way GVN's `key_of` does.
    fn pure_value(&mut self, op: &Op, args: &[Vid]) -> Vid {
        match op {
            Op::ConstI(v) => self.intern(Node::I(*v)),
            Op::ConstL(v) => self.intern(Node::L(*v)),
            Op::ConstS(s) => self.intern(Node::S(s.0)),
            Op::ConstNull => self.intern(Node::Null),
            Op::Copy(_) => args[0],
            Op::BinI(kind, ..) => {
                if let (Some(x), Some(y)) = (self.as_i(args[0]), self.as_i(args[1])) {
                    if let Some(v) = fold_bin_i(*kind, x, y) {
                        return self.intern(Node::I(v));
                    }
                }
                let (a, b) = if kind.commutative() && args[0] > args[1] {
                    (args[1], args[0])
                } else {
                    (args[0], args[1])
                };
                self.intern(Node::Pure { tag: "bin.i", aux: *kind as u64, args: vec![a, b] })
            }
            Op::BinL(kind, ..) => {
                let folded = match kind {
                    BinKind::Shl | BinKind::Shr | BinKind::Ushr => {
                        match (self.as_l(args[0]), self.as_i(args[1])) {
                            (Some(x), Some(y)) => fold_binl_shift(*kind, x, y),
                            _ => None,
                        }
                    }
                    _ => match (self.as_l(args[0]), self.as_l(args[1])) {
                        (Some(x), Some(y)) => fold_bin_l(*kind, x, y),
                        _ => None,
                    },
                };
                if let Some(v) = folded {
                    return self.intern(Node::L(v));
                }
                let (a, b) = if kind.commutative() && args[0] > args[1] {
                    (args[1], args[0])
                } else {
                    (args[0], args[1])
                };
                self.intern(Node::Pure { tag: "bin.l", aux: *kind as u64, args: vec![a, b] })
            }
            Op::NegI(_) => match self.as_i(args[0]) {
                Some(x) => self.intern(Node::I(x.wrapping_neg())),
                None => self.intern(Node::Pure { tag: "neg.i", aux: 0, args: args.to_vec() }),
            },
            Op::NegL(_) => match self.as_l(args[0]) {
                Some(x) => self.intern(Node::L(x.wrapping_neg())),
                None => self.intern(Node::Pure { tag: "neg.l", aux: 0, args: args.to_vec() }),
            },
            Op::I2L(_) => match self.as_i(args[0]) {
                Some(x) => self.intern(Node::L(i64::from(x))),
                None => self.intern(Node::Pure { tag: "i2l", aux: 0, args: args.to_vec() }),
            },
            Op::L2I(_) => match self.as_l(args[0]) {
                Some(x) => self.intern(Node::I(x as i32)),
                None => self.intern(Node::Pure { tag: "l2i", aux: 0, args: args.to_vec() }),
            },
            Op::I2B(_) => match self.as_i(args[0]) {
                Some(x) => self.intern(Node::I(i32::from(x as i8))),
                None => self.intern(Node::Pure { tag: "i2b", aux: 0, args: args.to_vec() }),
            },
            Op::I2S(_) => self.intern(Node::Pure { tag: "i2s", aux: 0, args: args.to_vec() }),
            Op::L2S(_) => self.intern(Node::Pure { tag: "l2s", aux: 0, args: args.to_vec() }),
            Op::Bool2S(_) => self.intern(Node::Pure { tag: "bool2s", aux: 0, args: args.to_vec() }),
            Op::Concat(..) => {
                self.intern(Node::Pure { tag: "concat", aux: 0, args: args.to_vec() })
            }
            Op::CmpI(c, ..) => match (self.as_i(args[0]), self.as_i(args[1])) {
                (Some(x), Some(y)) => self.intern(Node::I(i32::from(c.eval(x, y)))),
                _ => self.intern(Node::Pure { tag: "cmp.i", aux: *c as u64, args: args.to_vec() }),
            },
            Op::CmpL(c, ..) => match (self.as_l(args[0]), self.as_l(args[1])) {
                (Some(x), Some(y)) => self.intern(Node::I(i32::from(c.eval(x, y)))),
                _ => self.intern(Node::Pure { tag: "cmp.l", aux: *c as u64, args: args.to_vec() }),
            },
            Op::RefCmp { eq, .. } => {
                // GVN sorts RefCmp operands (the comparison is symmetric);
                // mirror it so its rewrites meet the original node.
                let (a, b) =
                    if args[0] > args[1] { (args[1], args[0]) } else { (args[0], args[1]) };
                self.intern(Node::Pure { tag: "refcmp", aux: u64::from(*eq), args: vec![a, b] })
            }
            _ => unreachable!("pure_value called on a non-pure op: {op}"),
        }
    }

    /// Renders a node for counterexamples, depth-bounded.
    fn render(&self, v: Vid, depth: usize) -> String {
        if depth >= MAX_RENDER_DEPTH {
            return "…".to_string();
        }
        match &self.nodes[v as usize] {
            Node::I(x) => format!("{x}"),
            Node::L(x) => format!("{x}L"),
            Node::S(s) => format!("str{s}"),
            Node::Null => "null".to_string(),
            Node::Entry(r) => format!("r{r}"),
            Node::BlockIn(b, r) => format!("in(b{b}, r{r})"),
            Node::Pure { tag, aux, args } => {
                let args: Vec<String> = args.iter().map(|&a| self.render(a, depth + 1)).collect();
                format!("{tag}#{aux}({})", args.join(", "))
            }
            Node::Opaque { tag, aux, args, block, occ } => {
                let args: Vec<String> = args.iter().map(|&a| self.render(a, depth + 1)).collect();
                format!("{tag}#{aux}@b{block}.{occ}({})", args.join(", "))
            }
        }
    }
}

/// `constfold`'s correct-path i32 fold (wrapping; `Div`/`Rem` only with a
/// non-zero divisor — the exception must still fire otherwise).
fn fold_bin_i(kind: BinKind, x: i32, y: i32) -> Option<i32> {
    Some(match kind {
        BinKind::Add => x.wrapping_add(y),
        BinKind::Sub => x.wrapping_sub(y),
        BinKind::Mul => x.wrapping_mul(y),
        BinKind::Div if y != 0 => x.wrapping_div(y),
        BinKind::Rem if y != 0 => x.wrapping_rem(y),
        BinKind::Div | BinKind::Rem => return None,
        BinKind::Shl => x.wrapping_shl(y as u32),
        BinKind::Shr => x.wrapping_shr(y as u32),
        BinKind::Ushr => ((x as u32).wrapping_shr(y as u32)) as i32,
        BinKind::And => x & y,
        BinKind::Or => x | y,
        BinKind::Xor => x ^ y,
    })
}

/// `constfold`'s correct-path i64 fold for non-shift operators.
fn fold_bin_l(kind: BinKind, x: i64, y: i64) -> Option<i64> {
    Some(match kind {
        BinKind::Add => x.wrapping_add(y),
        BinKind::Sub => x.wrapping_sub(y),
        BinKind::Mul => x.wrapping_mul(y),
        BinKind::Div if y != 0 => x.wrapping_div(y),
        BinKind::Rem if y != 0 => x.wrapping_rem(y),
        BinKind::And => x & y,
        BinKind::Or => x | y,
        BinKind::Xor => x ^ y,
        _ => return None,
    })
}

/// Long shifts take an i32 shift amount (matching `constfold`).
fn fold_binl_shift(kind: BinKind, x: i64, y: i32) -> Option<i64> {
    Some(match kind {
        BinKind::Shl => x.wrapping_shl(y as u32),
        BinKind::Shr => x.wrapping_shr(y as u32),
        BinKind::Ushr => ((x as u64).wrapping_shr(y as u32)) as i64,
        _ => return None,
    })
}

// ----- per-side evaluation -------------------------------------------------

/// Whole-function definition census of one side.
struct SideEval<'f> {
    func: &'f IrFunc,
    /// Definition count per register.
    defs: Vec<u32>,
    /// The unique definition site, valid when `defs[r] == 1`.
    def_site: Vec<(BlockId, usize)>,
}

impl<'f> SideEval<'f> {
    fn new(func: &'f IrFunc) -> SideEval<'f> {
        let n = func.num_regs as usize;
        let mut defs = vec![0u32; n];
        let mut def_site = vec![(0u32, 0usize); n];
        for (b, block) in func.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Some(dst) = inst.dst {
                    if let Some(slot) = defs.get_mut(dst as usize) {
                        *slot += 1;
                        def_site[dst as usize] = (b as BlockId, i);
                    }
                }
            }
        }
        SideEval { func, defs, def_site }
    }

    /// The whole-function value of `r` when it is globally determined: no
    /// definition (symbolic input) or a unique pure definition whose
    /// operands are themselves globally determined. `None` otherwise.
    fn global(&self, g: &mut Graph, r: Reg, visiting: &mut Vec<Reg>) -> Option<Vid> {
        if visiting.contains(&r) {
            return None;
        }
        match self.defs.get(r as usize) {
            Some(0) => Some(g.intern(Node::Entry(r))),
            Some(1) => {
                let (b, i) = self.def_site[r as usize];
                let op = &self.func.blocks[b as usize].insts[i].op;
                if !op.is_pure() {
                    return None;
                }
                visiting.push(r);
                let resolved: Option<Vec<Vid>> =
                    op.sources().iter().map(|&s| self.global(g, s, visiting)).collect();
                visiting.pop();
                resolved.map(|args| g.pure_value(op, &args))
            }
            _ => None,
        }
    }
}

/// One observable event of a block's effect trace.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EventRec {
    tag: &'static str,
    aux: u64,
    args: Vec<Vid>,
}

/// A block's symbolic summary: the effect trace plus the final register
/// state (for terminator operands).
struct BlockSummary {
    events: Vec<EventRec>,
    regs: HashMap<Reg, Vid>,
}

type ReadKey = (&'static str, u64, Vec<Vid>);

/// Symbolically evaluates one block of one side into the shared graph.
fn eval_block(g: &mut Graph, side: &SideEval<'_>, block_id: BlockId) -> BlockSummary {
    let func = side.func;
    let block = &func.blocks[block_id as usize];
    let mut regs: HashMap<Reg, Vid> = HashMap::new();
    let mut reads: HashMap<ReadKey, Vid> = HashMap::new();
    let mut occ: HashMap<ReadKey, u32> = HashMap::new();
    let mut events: Vec<EventRec> = Vec::new();

    macro_rules! lookup {
        ($r:expr) => {{
            let r: Reg = $r;
            match regs.get(&r) {
                Some(&v) => v,
                None => {
                    let v = side
                        .global(g, r, &mut Vec::new())
                        .unwrap_or_else(|| g.intern(Node::BlockIn(block_id, r)));
                    regs.insert(r, v);
                    v
                }
            }
        }};
    }

    for inst in &block.insts {
        let srcs: Vec<Vid> = inst.op.sources().iter().map(|&r| lookup!(r)).collect();
        // A fresh (cache-missing) read or an effect result is keyed by its
        // position so corresponding occurrences on both sides meet at the
        // same opaque node.
        let fresh_read = |g: &mut Graph,
                          reads: &mut HashMap<ReadKey, Vid>,
                          occ: &mut HashMap<ReadKey, u32>,
                          tag: &'static str,
                          aux: u64,
                          args: Vec<Vid>| {
            let key: ReadKey = (tag, aux, args.clone());
            if let Some(&v) = reads.get(&key) {
                return v;
            }
            let n = occ.entry(key.clone()).or_insert(0);
            let v = g.intern(Node::Opaque { tag, aux, args, block: block_id, occ: *n });
            *n += 1;
            reads.insert(key, v);
            v
        };
        let value: Option<Vid> = match &inst.op {
            // Pure computation: value-graph only.
            op if op.is_pure() => Some(g.pure_value(op, &srcs)),
            // Division/remainder: pure when the divisor is a proven
            // non-zero constant (constfold's legality rule); otherwise a
            // potential-throw point that must stay in the trace.
            Op::BinI(kind, ..) => {
                let nonzero = matches!(g.as_i(srcs[1]), Some(y) if y != 0);
                if !nonzero {
                    events.push(EventRec {
                        tag: "maybe-div0.i",
                        aux: *kind as u64,
                        args: srcs.clone(),
                    });
                }
                Some(g.pure_value(&Op::BinI(*kind, 0, 0), &srcs))
            }
            Op::BinL(kind, ..) => {
                let nonzero = matches!(g.as_l(srcs[1]), Some(y) if y != 0);
                if !nonzero {
                    events.push(EventRec {
                        tag: "maybe-div0.l",
                        aux: *kind as u64,
                        args: srcs.clone(),
                    });
                }
                Some(g.pure_value(&Op::BinL(*kind, 0, 0), &srcs))
            }
            // Memory reads: value nodes with GVN-legality invalidation.
            Op::GetField { field, .. } => Some(fresh_read(
                g,
                &mut reads,
                &mut occ,
                "getfield",
                u64::from(*field),
                srcs.clone(),
            )),
            Op::GetStatic { class, field } => {
                let aux = (u64::from(class.0) << 32) | u64::from(*field);
                Some(fresh_read(g, &mut reads, &mut occ, "getstatic", aux, vec![]))
            }
            Op::ArrLoad { kind, .. } => {
                Some(fresh_read(g, &mut reads, &mut occ, "arrload", *kind as u64, srcs.clone()))
            }
            // Array length is immutable once allocated: cacheable forever.
            Op::ArrLen(_) => Some(fresh_read(g, &mut reads, &mut occ, "arrlen", 0, srcs.clone())),
            // Effects: ordered trace events (results are position-keyed).
            Op::PutStatic { class, field, .. } => {
                let aux = (u64::from(class.0) << 32) | u64::from(*field);
                events.push(EventRec { tag: "putstatic", aux, args: srcs.clone() });
                reads.retain(|k, _| !(k.0 == "getstatic" && k.1 == aux));
                None
            }
            Op::PutField { field, .. } => {
                events.push(EventRec {
                    tag: "putfield",
                    aux: u64::from(*field),
                    args: srcs.clone(),
                });
                let f = u64::from(*field);
                reads.retain(|k, _| !(k.0 == "getfield" && k.1 == f));
                None
            }
            Op::ArrStore { kind, .. } => {
                events.push(EventRec { tag: "arrstore", aux: *kind as u64, args: srcs.clone() });
                reads.retain(|k, _| k.0 != "arrload");
                None
            }
            Op::Call { method, .. } => {
                events.push(EventRec { tag: "call", aux: u64::from(method.0), args: srcs.clone() });
                reads.retain(|k, _| !matches!(k.0, "getfield" | "getstatic" | "arrload"));
                let at = events.len() as u32 - 1;
                Some(g.intern(Node::Opaque {
                    tag: "call-result",
                    aux: u64::from(method.0),
                    args: vec![],
                    block: block_id,
                    occ: at,
                }))
            }
            Op::NewObject(class) => {
                events.push(EventRec { tag: "new", aux: u64::from(class.0), args: vec![] });
                let at = events.len() as u32 - 1;
                Some(g.intern(Node::Opaque {
                    tag: "new-result",
                    aux: u64::from(class.0),
                    args: vec![],
                    block: block_id,
                    occ: at,
                }))
            }
            Op::NewArray { kind, .. } | Op::NewMultiArray { kind, .. } => {
                events.push(EventRec { tag: "newarray", aux: *kind as u64, args: srcs.clone() });
                let at = events.len() as u32 - 1;
                Some(g.intern(Node::Opaque {
                    tag: "newarray-result",
                    aux: *kind as u64,
                    args: srcs.clone(),
                    block: block_id,
                    occ: at,
                }))
            }
            Op::Println { kind, .. } => {
                events.push(EventRec { tag: "println", aux: *kind as u64, args: srcs.clone() });
                None
            }
            Op::Mute => {
                events.push(EventRec { tag: "mute", aux: 0, args: vec![] });
                None
            }
            Op::Unmute => {
                events.push(EventRec { tag: "unmute", aux: 0, args: vec![] });
                None
            }
            Op::ThrowUser(_) => {
                events.push(EventRec { tag: "throw", aux: 0, args: srcs.clone() });
                None
            }
            Op::Rethrow(_) => {
                events.push(EventRec { tag: "rethrow", aux: 0, args: srcs.clone() });
                None
            }
            Op::CorruptHeap { bug } => {
                events.push(EventRec { tag: "corrupt-heap", aux: *bug as u64, args: vec![] });
                reads.clear();
                None
            }
            Op::CrashOnExec { bug } => {
                events.push(EventRec { tag: "crash-on-exec", aux: *bug as u64, args: vec![] });
                None
            }
            Op::BurnFuel { factor } => {
                events.push(EventRec { tag: "burn-fuel", aux: u64::from(*factor), args: vec![] });
                None
            }
            op => unreachable!("unclassified op in translation validator: {op}"),
        };
        if let Some(dst) = inst.dst {
            let v = value.unwrap_or_else(|| {
                let at = events.len() as u32;
                g.intern(Node::Opaque {
                    tag: "effect-result",
                    aux: 0,
                    args: vec![],
                    block: block_id,
                    occ: at,
                })
            });
            // Anchor registers are the deopt/handler-visible frame state:
            // a write to one is itself an ordered observable.
            if func.is_anchor(dst) {
                events.push(EventRec { tag: "anchor-write", aux: u64::from(dst), args: vec![v] });
            }
            regs.insert(dst, v);
        }
    }
    // Resolve terminator operands against the final block state.
    for r in block.term.sources() {
        lookup!(r);
    }
    BlockSummary { events, regs }
}

// ----- the simulation check ------------------------------------------------

/// Running context of one refinement check.
struct Checker<'a> {
    method: String,
    pass: &'static str,
    before: &'a IrFunc,
    after: &'a IrFunc,
    errors: Vec<TvError>,
}

impl Checker<'_> {
    fn error(&mut self, block: BlockId, detail: String) {
        if self.errors.len() >= MAX_ERRORS {
            return;
        }
        self.errors.push(TvError { method: self.method.clone(), pass: self.pass, block, detail });
    }

    /// The check's report: `None` when nothing diverged, otherwise every
    /// divergence with the two IR dumps rendered once.
    fn finish(self) -> Option<TvReport> {
        if self.errors.is_empty() {
            return None;
        }
        Some(TvReport {
            divergences: self.errors,
            before_ir: self.before.pretty(),
            after_ir: self.after.pretty(),
        })
    }
}

/// Validates that `after` refines `before` under `pass`'s `contract`.
/// Returns `None` when the pass's output simulates its input, otherwise
/// one [`TvReport`] holding every violation found (capped at
/// `MAX_ERRORS`).
pub fn check_refinement(
    before: &IrFunc,
    after: &IrFunc,
    pass: &'static str,
    contract: TvContract,
    program: &BProgram,
) -> Option<TvReport> {
    let mut ck = Checker {
        method: program.qualified_name(before.method),
        pass,
        before,
        after,
        errors: Vec::new(),
    };
    // Function metadata is untouchable by every contract: frames and
    // anchors define deopt state, handlers define dispatch, the OSR entry
    // defines where execution resumes.
    if after.frames != before.frames {
        ck.error(0, "inline-frame table changed".to_string());
    }
    if after.handlers != before.handlers {
        ck.error(0, "exception-handler table changed".to_string());
    }
    if after.osr_entry != before.osr_entry {
        ck.error(0, "OSR entry changed".to_string());
    }
    if after.anchor_limit_per_frame != before.anchor_limit_per_frame {
        ck.error(0, "anchor-register table changed".to_string());
    }
    if !ck.errors.is_empty() {
        return ck.finish();
    }
    if contract == TvContract::LayoutOnly {
        check_layout(&mut ck);
        return ck.finish();
    }

    let base_len = before.blocks.len();
    if after.blocks.len() < base_len {
        ck.error(0, format!("blocks removed: {} before, {} after", base_len, after.blocks.len()));
        return ck.finish();
    }
    // Appended blocks (LICM preheaders) must be pure forwarding blocks:
    // hoisted pure computation plus an unconditional jump. Any effect,
    // anchor write, or conditional control there is new behavior.
    for (nb, block) in after.blocks.iter().enumerate().skip(base_len) {
        for inst in &block.insts {
            if !inst.op.is_pure() {
                ck.error(
                    nb as BlockId,
                    format!("new block b{nb} contains an effect: `{}`", inst.op),
                );
            } else if inst.dst.is_some_and(|d| after.is_anchor(d)) {
                ck.error(nb as BlockId, format!("new block b{nb} writes an anchor: `{inst}`"));
            }
        }
        if !matches!(block.term, Term::Jump(_)) {
            ck.error(
                nb as BlockId,
                format!("new block b{nb} has a non-jump terminator: `{}`", block.term),
            );
        }
    }
    if !ck.errors.is_empty() {
        return ck.finish();
    }

    let mut g = Graph::default();
    let bside = SideEval::new(before);
    let aside = SideEval::new(after);
    for b in 0..base_len {
        if ck.errors.len() >= MAX_ERRORS {
            break;
        }
        let bs = eval_block(&mut g, &bside, b as BlockId);
        let as_ = eval_block(&mut g, &aside, b as BlockId);
        compare_traces(&mut ck, &g, b as BlockId, &bs.events, &as_.events);
        compare_terms(&mut ck, &mut g, contract, b as BlockId, &bs, &as_);
    }
    ck.finish()
}

fn render_event(g: &Graph, e: &EventRec) -> String {
    let args: Vec<String> = e.args.iter().map(|&a| g.render(a, 1)).collect();
    format!("{}#{}({})", e.tag, e.aux, args.join(", "))
}

/// Effect traces must match event-for-event with equal value arguments:
/// the after side may drop or reorder only pure (non-event) computation.
fn compare_traces(ck: &mut Checker<'_>, g: &Graph, b: BlockId, bs: &[EventRec], as_: &[EventRec]) {
    for (i, (eb, ea)) in bs.iter().zip(as_.iter()).enumerate() {
        if eb != ea {
            ck.error(
                b,
                format!(
                    "effect {i} diverges: before `{}`, after `{}`",
                    render_event(g, eb),
                    render_event(g, ea)
                ),
            );
            return;
        }
    }
    match bs.len().cmp(&as_.len()) {
        std::cmp::Ordering::Greater => {
            let e = &bs[as_.len()];
            ck.error(b, format!("effect {} dropped: `{}`", as_.len(), render_event(g, e)));
        }
        std::cmp::Ordering::Less => {
            let e = &as_[bs.len()];
            ck.error(b, format!("effect {} introduced: `{}`", bs.len(), render_event(g, e)));
        }
        std::cmp::Ordering::Equal => {}
    }
}

/// Follows unconditional jumps through appended (pure-forwarding) blocks
/// so a retargeted edge (e.g. through a LICM preheader) compares against
/// the block it ultimately reaches.
fn resolve_target(after: &IrFunc, base_len: usize, mut t: BlockId) -> Option<BlockId> {
    let mut steps = 0;
    while (t as usize) >= base_len {
        steps += 1;
        if steps > after.blocks.len() {
            return None; // forwarding cycle
        }
        match after.blocks.get(t as usize).map(|b| &b.term) {
            Some(Term::Jump(n)) => t = *n,
            _ => return None,
        }
    }
    Some(t)
}

fn compare_terms(
    ck: &mut Checker<'_>,
    g: &mut Graph,
    contract: TvContract,
    b: BlockId,
    bs: &BlockSummary,
    as_: &BlockSummary,
) {
    let base_len = ck.before.blocks.len();
    let bterm = &ck.before.blocks[b as usize].term;
    let aterm = &ck.after.blocks[b as usize].term;
    let bval = |r: &Reg| bs.regs[r];
    let aval = |r: &Reg| as_.regs[r];
    let resolve = |t: BlockId| resolve_target(ck.after, base_len, t);
    match (bterm, aterm) {
        (Term::Jump(x), Term::Jump(y)) => {
            if resolve(*y) != Some(*x) {
                ck.error(b, format!("jump retargeted: b{x} became b{y}"));
            }
        }
        (
            Term::Branch { cond: bc, if_true: bt, if_false: bf },
            Term::Branch { cond: ac, if_true: at, if_false: af },
        ) => {
            if bval(bc) != aval(ac) {
                ck.error(
                    b,
                    format!(
                        "branch condition diverges: before `{}`, after `{}`",
                        g.render(bval(bc), 0),
                        g.render(aval(ac), 0)
                    ),
                );
            } else if resolve(*at) != Some(*bt) || resolve(*af) != Some(*bf) {
                ck.error(b, format!("branch retargeted: b{bt}/b{bf} became b{at}/b{af}"));
            }
        }
        // Collapsing control flow on a proven constant is semantics-
        // preserving for any contract.
        (Term::Branch { cond, if_true, if_false }, Term::Jump(y)) => match g.as_i(bs.regs[cond]) {
            Some(k) => {
                let want = if k != 0 { *if_true } else { *if_false };
                if resolve(*y) != Some(want) {
                    ck.error(
                        b,
                        format!("folded branch took the wrong side: b{y} instead of b{want}"),
                    );
                }
            }
            None => ck.error(
                b,
                format!("branch on non-constant `{}` folded to a jump", g.render(bs.regs[cond], 0)),
            ),
        },
        (Term::Switch { scrut, cases, default }, Term::Jump(y)) => match g.as_i(bs.regs[scrut]) {
            Some(k) => {
                let want = cases
                    .iter()
                    .find(|(label, _)| *label == k)
                    .map(|(_, t)| *t)
                    .unwrap_or(*default);
                if resolve(*y) != Some(want) {
                    ck.error(
                        b,
                        format!("folded switch took the wrong case: b{y} instead of b{want}"),
                    );
                }
            }
            None => ck.error(
                b,
                format!(
                    "switch on non-constant `{}` folded to a jump",
                    g.render(bs.regs[scrut], 0)
                ),
            ),
        },
        (
            Term::Switch { scrut: bsc, cases: bcases, default: bd },
            Term::Switch { scrut: asc, cases: acases, default: ad },
        ) => {
            if bval(bsc) != aval(asc) {
                ck.error(
                    b,
                    format!(
                        "switch scrutinee diverges: before `{}`, after `{}`",
                        g.render(bval(bsc), 0),
                        g.render(aval(asc), 0)
                    ),
                );
                return;
            }
            let resolved: Option<Vec<(i32, BlockId)>> =
                acases.iter().map(|&(l, t)| resolve(t).map(|t| (l, t))).collect();
            if resolved.as_deref() != Some(bcases.as_slice()) || resolve(*ad) != Some(*bd) {
                ck.error(b, "switch cases retargeted".to_string());
            }
        }
        (Term::Return(x), Term::Return(y)) => match (x, y) {
            (Some(x), Some(y)) if bval(x) != aval(y) => ck.error(
                b,
                format!(
                    "return value diverges: before `{}`, after `{}`",
                    g.render(bval(x), 0),
                    g.render(aval(y), 0)
                ),
            ),
            (Some(_), Some(_)) | (None, None) => {}
            _ => ck.error(b, "return arity changed".to_string()),
        },
        (Term::Trap { bc_pc: bp, reason: br }, Term::Trap { bc_pc: ap, reason: ar }) => {
            if bp != ap || br != ar {
                ck.error(b, format!("deopt guard changed: pc{bp} {br:?} became pc{ap} {ar:?}"));
            }
        }
        (Term::Trap { bc_pc, .. }, _) => {
            ck.error(b, format!("deopt guard at pc{bc_pc} weakened to `{aterm}`"));
        }
        (_, Term::Trap { .. }) if contract == TvContract::GuardIntroducing => {}
        _ => {
            ck.error(b, format!("terminator shape changed: `{bterm}` became `{aterm}`"));
        }
    }
}

// ----- layout-only check ---------------------------------------------------

/// The weaker relation for regalloc/codegen: the after function must be
/// the before function under a consistent register-renaming bijection
/// that maps every anchor to itself.
fn check_layout(ck: &mut Checker<'_>) {
    if ck.after.blocks.len() != ck.before.blocks.len() {
        ck.error(
            0,
            format!(
                "layout pass changed block count: {} became {}",
                ck.before.blocks.len(),
                ck.after.blocks.len()
            ),
        );
        return;
    }
    let mut fwd: HashMap<Reg, Reg> = HashMap::new();
    let mut rev: HashMap<Reg, Reg> = HashMap::new();
    let before_blocks: &[Block] = &ck.before.blocks;
    for b in 0..before_blocks.len() {
        if ck.errors.len() >= MAX_ERRORS {
            return;
        }
        let (bb, ab) = (&ck.before.blocks[b], &ck.after.blocks[b]);
        if bb.insts.len() != ab.insts.len() {
            ck.error(
                b as BlockId,
                format!(
                    "layout pass changed instruction count: {} became {}",
                    bb.insts.len(),
                    ab.insts.len()
                ),
            );
            continue;
        }
        for (bi, ai) in bb.insts.iter().zip(&ab.insts) {
            let mut renamed = bi.clone();
            if let Some(detail) =
                bind_pair(ck.before, &mut fwd, &mut rev, bi.dst, ai.dst).err().or_else(|| {
                    let (bsrc, asrc) = (bi.op.sources(), ai.op.sources());
                    if bsrc.len() != asrc.len() {
                        return Some(format!("`{bi}` became `{ai}`"));
                    }
                    for (rb, ra) in bsrc.iter().zip(&asrc) {
                        if let Err(e) =
                            bind_pair(ck.before, &mut fwd, &mut rev, Some(*rb), Some(*ra))
                        {
                            return Some(e);
                        }
                    }
                    renamed.dst = ai.dst;
                    renamed.op.map_sources(|r| fwd.get(&r).copied().unwrap_or(r));
                    if renamed.op != ai.op || bi.frame != ai.frame || bi.bc_pc != ai.bc_pc {
                        return Some(format!("`{bi}` became `{ai}`"));
                    }
                    None
                })
            {
                ck.error(b as BlockId, format!("instruction changed under layout pass: {detail}"));
            }
        }
        let (bsrc, asrc) = (bb.term.sources(), ab.term.sources());
        let mut term_ok = bsrc.len() == asrc.len();
        if term_ok {
            for (rb, ra) in bsrc.iter().zip(&asrc) {
                if let Err(e) = bind_pair(ck.before, &mut fwd, &mut rev, Some(*rb), Some(*ra)) {
                    ck.error(b as BlockId, format!("terminator changed under layout pass: {e}"));
                    term_ok = false;
                    break;
                }
            }
        }
        if term_ok {
            let mut renamed = bb.term.clone();
            renamed.map_sources(|r| fwd.get(&r).copied().unwrap_or(r));
            if renamed != ab.term {
                ck.error(
                    b as BlockId,
                    format!(
                        "terminator changed under layout pass: `{}` became `{}`",
                        bb.term, ab.term
                    ),
                );
            }
        }
    }
}

/// Extends the renaming with one `(before, after)` register pair,
/// enforcing consistency, injectivity, and anchor fixity.
fn bind_pair(
    before: &IrFunc,
    fwd: &mut HashMap<Reg, Reg>,
    rev: &mut HashMap<Reg, Reg>,
    rb: Option<Reg>,
    ra: Option<Reg>,
) -> Result<(), String> {
    match (rb, ra) {
        (None, None) => Ok(()),
        (Some(rb), Some(ra)) => {
            if before.is_anchor(rb) && ra != rb {
                return Err(format!("anchor r{rb} renamed to r{ra}"));
            }
            if let Some(&prev) = fwd.get(&rb) {
                if prev != ra {
                    return Err(format!("r{rb} renamed inconsistently (r{prev} vs r{ra})"));
                }
            }
            if let Some(&src) = rev.get(&ra) {
                if src != rb {
                    return Err(format!("r{src} and r{rb} both renamed to r{ra}"));
                }
            }
            fwd.insert(rb, ra);
            rev.insert(ra, rb);
            Ok(())
        }
        _ => Err("destination added or removed".to_string()),
    }
}
