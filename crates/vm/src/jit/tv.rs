//! Per-pass translation validation — a symbolic refinement checker.
//!
//! The static verifier ([`super::verify`]) proves the IR after a pass is
//! *well-formed*; this module proves the pass *refined the semantics* of
//! its input. For every `(before, after)` pair it
//!
//! 1. **symbolically evaluates** both functions per basic block into one
//!    shared hash-consed value graph of pure expressions (the same
//!    canonicalization GVN uses: commutative operands sorted, constants
//!    folded by the workspace's one integer evaluator,
//!    [`cse_bytecode::arith`], which constfold's correct path also uses)
//!    plus an ordered observable-effect trace per block — calls,
//!    heap stores, allocations, prints, throws, potential `div 0` throw
//!    points, and writes to anchor registers (the deopt/handler-visible
//!    state);
//! 2. **checks a simulation relation** block-by-block: effect traces must
//!    match event-for-event with equal argument value nodes, terminators
//!    must transfer control to corresponding blocks with equal operand
//!    values, and guards may strengthen but never weaken;
//! 3. on mismatch emits a **pass-attributed counterexample**: the smallest
//!    diverging effect/value node per divergence, gathered into one
//!    [`TvReport`] per failing check. The report keeps the two functions
//!    it compared and renders their pre/post IR dumps (via
//!    [`IrFunc::pretty`]) only when it is formatted; campaigns keep just
//!    its divergence lines ([`TvReport::headers`]).
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

use cse_bytecode::BProgram;

use super::hash::FastMap;
use super::ir::{Block, BlockId, IrFunc, Op, Reg, Term};

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

/// Every divergence of one failing `(before, after)` check, with the two
/// functions it compared. Their IR dumps are rendered only by `Display`,
/// once for the whole report rather than once per divergence.
#[derive(Debug, Clone, PartialEq)]
pub struct TvReport {
    /// The divergences in discovery order (at most `MAX_ERRORS`, never
    /// empty); all share one method and pass.
    pub divergences: Vec<TvError>,
    /// The pre-pass function.
    pub before: IrFunc,
    /// The post-pass function.
    pub after: IrFunc,
}

impl TvReport {
    /// The divergence header lines alone, joined by `\n` with no trailing
    /// newline: what a VM run keeps of the report.
    pub fn headers(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, divergence) in self.divergences.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let _ = write!(out, "{divergence}");
        }
        out
    }
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
        f.write_str(&self.before.pretty())?;
        writeln!(f, "--- IR after {pass} ---")?;
        f.write_str(&self.after.pretty())
    }
}

// ----- value graph ---------------------------------------------------------

type Vid = u32;

/// The operator of a value-graph node. Each stands for one tag string
/// counterexamples render ([`Tag::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// An `int` constant (`aux` holds its bits).
    I,
    /// A `long` constant (`aux` holds its bits).
    L,
    /// A string constant (`aux` is its id).
    S,
    Null,
    /// A register never assigned in the function (parameter/initial
    /// state), `aux`: a whole-function symbolic input.
    Entry,
    /// The opaque value of multi-definition register `aux` at the entry
    /// of block `block` (the bounded loop summary's cut point).
    BlockIn,
    // Pure expressions over other nodes; `aux` packs the operator's static
    // payload (BinKind/CmpOp/…).
    BinI,
    BinL,
    NegI,
    NegL,
    I2L,
    L2I,
    I2B,
    I2S,
    L2S,
    Bool2S,
    Concat,
    CmpI,
    CmpL,
    RefCmp,
    // Opaque position-keyed values: a fresh memory read (`occ` numbers
    // cache misses of the same key within a block) or an effect result
    // (`occ` is the producing event's index in the block trace).
    GetField,
    GetStatic,
    ArrLoad,
    ArrLen,
    CallResult,
    NewResult,
    NewArrayResult,
    EffectResult,
}

impl Tag {
    fn name(self) -> &'static str {
        match self {
            Tag::I | Tag::L | Tag::S | Tag::Null | Tag::Entry | Tag::BlockIn => {
                unreachable!("leaf nodes render without a tag")
            }
            Tag::BinI => "bin.i",
            Tag::BinL => "bin.l",
            Tag::NegI => "neg.i",
            Tag::NegL => "neg.l",
            Tag::I2L => "i2l",
            Tag::L2I => "l2i",
            Tag::I2B => "i2b",
            Tag::I2S => "i2s",
            Tag::L2S => "l2s",
            Tag::Bool2S => "bool2s",
            Tag::Concat => "concat",
            Tag::CmpI => "cmp.i",
            Tag::CmpL => "cmp.l",
            Tag::RefCmp => "refcmp",
            Tag::GetField => "getfield",
            Tag::GetStatic => "getstatic",
            Tag::ArrLoad => "arrload",
            Tag::ArrLen => "arrlen",
            Tag::CallResult => "call-result",
            Tag::NewResult => "new-result",
            Tag::NewArrayResult => "newarray-result",
            Tag::EffectResult => "effect-result",
        }
    }

    /// Whether the node is position-keyed (rendered with `@bB.occ`).
    fn opaque(self) -> bool {
        matches!(
            self,
            Tag::GetField
                | Tag::GetStatic
                | Tag::ArrLoad
                | Tag::ArrLen
                | Tag::CallResult
                | Tag::NewResult
                | Tag::NewArrayResult
                | Tag::EffectResult
        )
    }
}

/// `Node::arity` of a node whose operand list lives in `Graph::lists`.
const SPILLED: u8 = u8::MAX;

/// One hash-consed node of the shared (before + after) value graph: a
/// fixed-size key with up to three operands inline. Longer operand lists
/// (a many-dimensional `newmultiarray`) are interned once in
/// `Graph::lists`, and `args[0]` holds the list's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    tag: Tag,
    /// Operand count, or [`SPILLED`].
    arity: u8,
    aux: u64,
    args: [Vid; 3],
    /// Opaque nodes and `BlockIn`: the block; zero otherwise.
    block: BlockId,
    /// Opaque nodes: the occurrence; zero otherwise.
    occ: u32,
}

impl std::hash::Hash for Node {
    /// Four words, so the word hasher does four multiplies per node.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.aux);
        state.write_u64(self.tag as u64 | u64::from(self.arity) << 8 | u64::from(self.occ) << 32);
        state.write_u64(u64::from(self.args[0]) | u64::from(self.args[1]) << 32);
        state.write_u64(u64::from(self.args[2]) | u64::from(self.block) << 32);
    }
}

impl Node {
    fn leaf(tag: Tag, aux: u64) -> Node {
        Node { tag, arity: 0, aux, args: [0; 3], block: 0, occ: 0 }
    }

    fn int(x: i32) -> Node {
        Node::leaf(Tag::I, u64::from(x as u32))
    }

    fn long(x: i64) -> Node {
        Node::leaf(Tag::L, x as u64)
    }

    /// A pure node; pure operators take at most two operands.
    fn pure(tag: Tag, aux: u64, args: &[Vid]) -> Node {
        let mut inline = [0; 3];
        inline[..args.len()].copy_from_slice(args);
        Node { tag, arity: args.len() as u8, aux, args: inline, block: 0, occ: 0 }
    }
}

/// The hash-consing interner. Both sides of a check intern into one
/// graph, so semantic equality is `Vid` equality. `Vid`s number nodes in
/// first-intern order, which the counterexample text never shows but
/// which decides commutative operand order.
#[derive(Default)]
struct Graph {
    nodes: Vec<Node>,
    index: FastMap<Node, Vid>,
    /// Operand lists too long to sit inline, each interned once.
    lists: Vec<Vec<Vid>>,
    list_index: FastMap<Vec<Vid>, u32>,
}

impl Graph {
    fn with_capacity(nodes: usize) -> Graph {
        Graph {
            nodes: Vec::with_capacity(nodes),
            index: FastMap::with_capacity_and_hasher(nodes, Default::default()),
            ..Graph::default()
        }
    }

    fn intern(&mut self, node: Node) -> Vid {
        let next = self.nodes.len() as Vid;
        let v = *self.index.entry(node).or_insert(next);
        if v == next {
            self.nodes.push(node);
        }
        v
    }

    /// Interns an opaque node at `(block, occ)`, spilling an operand list
    /// longer than three.
    fn opaque(&mut self, tag: Tag, aux: u64, args: &[Vid], block: BlockId, occ: u32) -> Vid {
        let mut node = Node { tag, arity: args.len() as u8, aux, args: [0; 3], block, occ };
        if args.len() <= 3 {
            node.args[..args.len()].copy_from_slice(args);
        } else {
            let next = self.lists.len() as u32;
            let id = *self.list_index.entry(args.to_vec()).or_insert(next);
            if id == next {
                self.lists.push(args.to_vec());
            }
            node.arity = SPILLED;
            node.args[0] = id;
        }
        self.intern(node)
    }

    fn args<'a>(&'a self, node: &'a Node) -> &'a [Vid] {
        if node.arity == SPILLED {
            &self.lists[node.args[0] as usize]
        } else {
            &node.args[..node.arity as usize]
        }
    }

    fn as_i(&self, v: Vid) -> Option<i32> {
        let node = &self.nodes[v as usize];
        (node.tag == Tag::I).then_some(node.aux as u32 as i32)
    }

    fn as_l(&self, v: Vid) -> Option<i64> {
        let node = &self.nodes[v as usize];
        (node.tag == Tag::L).then_some(node.aux as i64)
    }

    /// Interns a pure operation over resolved operands, constant-folding
    /// binops through [`cse_bytecode::BinKind::eval_i`] and `eval_l`, the
    /// evaluator `passes::constfold` folds with on its correct path (so a
    /// legal fold on one side meets the unfolded expression on the other
    /// at the same node), and sorting commutative operands the way GVN's
    /// `key_of` does.
    fn pure_value(&mut self, op: &Op, args: &[Vid]) -> Vid {
        let unary = |tag| Node::pure(tag, 0, args);
        match op {
            Op::ConstI(v) => self.intern(Node::int(*v)),
            Op::ConstL(v) => self.intern(Node::long(*v)),
            Op::ConstS(s) => self.intern(Node::leaf(Tag::S, u64::from(s.0))),
            Op::ConstNull => self.intern(Node::leaf(Tag::Null, 0)),
            Op::Copy(_) => args[0],
            Op::BinI(kind, ..) => {
                if let (Some(x), Some(y)) = (self.as_i(args[0]), self.as_i(args[1])) {
                    if let Some(v) = kind.eval_i(x, y) {
                        return self.intern(Node::int(v));
                    }
                }
                let (a, b) = if kind.commutative() && args[0] > args[1] {
                    (args[1], args[0])
                } else {
                    (args[0], args[1])
                };
                self.intern(Node::pure(Tag::BinI, *kind as u64, &[a, b]))
            }
            Op::BinL(kind, ..) => {
                let y = if kind.is_shift() {
                    self.as_i(args[1]).map(i64::from)
                } else {
                    self.as_l(args[1])
                };
                let folded = match (self.as_l(args[0]), y) {
                    (Some(x), Some(y)) => kind.eval_l(x, y),
                    _ => None,
                };
                if let Some(v) = folded {
                    return self.intern(Node::long(v));
                }
                let (a, b) = if kind.commutative() && args[0] > args[1] {
                    (args[1], args[0])
                } else {
                    (args[0], args[1])
                };
                self.intern(Node::pure(Tag::BinL, *kind as u64, &[a, b]))
            }
            Op::NegI(_) => match self.as_i(args[0]) {
                Some(x) => self.intern(Node::int(x.wrapping_neg())),
                None => self.intern(unary(Tag::NegI)),
            },
            Op::NegL(_) => match self.as_l(args[0]) {
                Some(x) => self.intern(Node::long(x.wrapping_neg())),
                None => self.intern(unary(Tag::NegL)),
            },
            Op::I2L(_) => match self.as_i(args[0]) {
                Some(x) => self.intern(Node::long(i64::from(x))),
                None => self.intern(unary(Tag::I2L)),
            },
            Op::L2I(_) => match self.as_l(args[0]) {
                Some(x) => self.intern(Node::int(x as i32)),
                None => self.intern(unary(Tag::L2I)),
            },
            Op::I2B(_) => match self.as_i(args[0]) {
                Some(x) => self.intern(Node::int(i32::from(x as i8))),
                None => self.intern(unary(Tag::I2B)),
            },
            Op::I2S(_) => self.intern(unary(Tag::I2S)),
            Op::L2S(_) => self.intern(unary(Tag::L2S)),
            Op::Bool2S(_) => self.intern(unary(Tag::Bool2S)),
            Op::Concat(..) => self.intern(unary(Tag::Concat)),
            Op::CmpI(c, ..) => match (self.as_i(args[0]), self.as_i(args[1])) {
                (Some(x), Some(y)) => self.intern(Node::int(i32::from(c.eval(x, y)))),
                _ => self.intern(Node::pure(Tag::CmpI, *c as u64, args)),
            },
            Op::CmpL(c, ..) => match (self.as_l(args[0]), self.as_l(args[1])) {
                (Some(x), Some(y)) => self.intern(Node::int(i32::from(c.eval(x, y)))),
                _ => self.intern(Node::pure(Tag::CmpL, *c as u64, args)),
            },
            Op::RefCmp { eq, .. } => {
                // GVN sorts RefCmp operands (the comparison is symmetric);
                // mirror it so its rewrites meet the original node.
                let (a, b) =
                    if args[0] > args[1] { (args[1], args[0]) } else { (args[0], args[1]) };
                self.intern(Node::pure(Tag::RefCmp, u64::from(*eq), &[a, b]))
            }
            _ => unreachable!("pure_value called on a non-pure op: {op}"),
        }
    }

    /// Renders a node for counterexamples, depth-bounded.
    fn render(&self, v: Vid, depth: usize) -> String {
        let mut out = String::new();
        self.render_into(&mut out, v, depth);
        out
    }

    fn render_into(&self, out: &mut String, v: Vid, depth: usize) {
        use std::fmt::Write as _;
        if depth >= MAX_RENDER_DEPTH {
            out.push('…');
            return;
        }
        let node = &self.nodes[v as usize];
        let _ = match node.tag {
            Tag::I => write!(out, "{}", node.aux as u32 as i32),
            Tag::L => write!(out, "{}L", node.aux as i64),
            Tag::S => write!(out, "str{}", node.aux),
            Tag::Null => write!(out, "null"),
            Tag::Entry => write!(out, "r{}", node.aux),
            Tag::BlockIn => write!(out, "in(b{}, r{})", node.block, node.aux),
            tag => {
                let _ = write!(out, "{}#{}", tag.name(), node.aux);
                if tag.opaque() {
                    let _ = write!(out, "@b{}.{}", node.block, node.occ);
                }
                self.render_args(out, self.args(node), depth + 1);
                Ok(())
            }
        };
    }

    /// `(a, b, …)`, each operand rendered at `depth`.
    fn render_args(&self, out: &mut String, args: &[Vid], depth: usize) {
        out.push('(');
        for (i, &a) in args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            self.render_into(out, a, depth);
        }
        out.push(')');
    }
}

// ----- per-side evaluation -------------------------------------------------

/// `SideEval::memo` before a register's global value is known.
const UNRESOLVED: Vid = Vid::MAX;
/// `SideEval::memo` for a register that is not globally determined.
const NO_VALUE: Vid = Vid::MAX - 1;

/// One observable event of a block's effect trace; its operands are
/// `SideEval::event_args[args.0..args.0 + args.1]`.
#[derive(Debug, Clone, Copy)]
struct Event {
    tag: &'static str,
    aux: u64,
    args: (u32, u32),
}

/// One side of a check: its whole-function definition census, and the
/// dense tables its blocks are evaluated in, reused from block to block.
struct SideEval<'f> {
    func: &'f IrFunc,
    /// Definition count per register below `num_regs`.
    defs: Vec<u32>,
    /// The unique definition site, valid when `defs[r] == 1`.
    def_site: Vec<(BlockId, u32)>,
    /// [`SideEval::global`] per register below `num_regs`: a `Vid`,
    /// [`NO_VALUE`] or [`UNRESOLVED`].
    memo: Vec<Vid>,
    /// The register path `global` is resolving (cycle guard).
    visiting: Vec<Reg>,
    /// Whether each register is an anchor (none past the table's end).
    anchor: Vec<bool>,
    /// The current block's register state: `vals[r]` holds when
    /// `stamp[r] == epoch`, so moving to the next block clears nothing.
    vals: Vec<Vid>,
    stamp: Vec<u32>,
    epoch: u32,
    /// The current block's effect trace.
    events: Vec<Event>,
    event_args: Vec<Vid>,
    /// The operand values of the instruction being evaluated.
    srcs: Vec<Vid>,
}

impl<'f> SideEval<'f> {
    fn new(func: &'f IrFunc) -> SideEval<'f> {
        let n = func.num_regs as usize;
        let mut defs = vec![0u32; n];
        let mut def_site = vec![(0, 0); n];
        for (b, block) in func.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                if let Some(dst) = inst.dst.filter(|&dst| (dst as usize) < n) {
                    defs[dst as usize] += 1;
                    def_site[dst as usize] = (b as BlockId, i as u32);
                }
            }
        }
        let anchors = &func.anchor_limit_per_frame;
        let mut anchor = vec![false; anchors.iter().map(|&(_, hi)| hi as usize).max().unwrap_or(0)];
        for &(lo, hi) in anchors {
            anchor[(lo.min(hi) as usize)..hi as usize].fill(true);
        }
        SideEval {
            func,
            defs,
            def_site,
            memo: vec![UNRESOLVED; n],
            visiting: Vec::new(),
            anchor,
            vals: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            events: Vec::new(),
            event_args: Vec::new(),
            srcs: Vec::new(),
        }
    }

    /// The whole-function value of `r` when it is globally determined: no
    /// definition (symbolic input) or a unique pure definition whose
    /// operands are themselves globally determined. `None` otherwise.
    ///
    /// Memoized without moving any `Vid`: a resolved value is final (its
    /// operand graph is acyclic, so no later resolution path can cut it
    /// short, and re-resolving it would intern nothing new), and "not
    /// determined" is final when found from the top, where the cycle guard
    /// holds nothing; a failure found deeper may be the guard's doing, so
    /// it is recomputed.
    fn global(&mut self, g: &mut Graph, r: Reg) -> Option<Vid> {
        if self.visiting.contains(&r) {
            return None;
        }
        let ri = r as usize;
        let memo = *self.memo.get(ri)?;
        if memo != UNRESOLVED {
            return (memo != NO_VALUE).then_some(memo);
        }
        let top = self.visiting.is_empty();
        let value = match self.defs[ri] {
            0 => Some(g.intern(Node::leaf(Tag::Entry, u64::from(r)))),
            1 => {
                let (b, i) = self.def_site[ri];
                let op = &self.func.blocks[b as usize].insts[i as usize].op;
                if op.is_pure() {
                    self.visiting.push(r);
                    // Pure operators read at most two registers.
                    let mut args = [0; 2];
                    let mut resolved = true;
                    for (k, s) in op.sources().enumerate() {
                        match self.global(g, s) {
                            Some(v) => args[k] = v,
                            None => {
                                resolved = false;
                                break;
                            }
                        }
                    }
                    self.visiting.pop();
                    resolved.then(|| g.pure_value(op, &args[..op.sources().len()]))
                } else {
                    None
                }
            }
            _ => None,
        };
        match value {
            Some(v) => self.memo[ri] = v,
            None if top => self.memo[ri] = NO_VALUE,
            None => {}
        }
        value
    }

    /// The value `r` holds at this point of block `block`: its in-block
    /// definition, else its global value, else `in(block, r)`.
    fn read(&mut self, g: &mut Graph, block: BlockId, r: Reg) -> Vid {
        let ri = r as usize;
        self.cover(ri);
        if self.stamp[ri] == self.epoch {
            return self.vals[ri];
        }
        let v = self
            .global(g, r)
            .unwrap_or_else(|| g.intern(Node { block, ..Node::leaf(Tag::BlockIn, u64::from(r)) }));
        self.write(r, v);
        v
    }

    /// Widens the register state to cover `r` (only a malformed function
    /// mentions registers past `num_regs`).
    fn cover(&mut self, r: usize) {
        if r >= self.stamp.len() {
            self.vals.resize(r + 1, 0);
            self.stamp.resize(r + 1, 0);
        }
    }

    fn is_anchor(&self, r: Reg) -> bool {
        self.anchor.get(r as usize).copied().unwrap_or(false)
    }

    fn write(&mut self, r: Reg, v: Vid) {
        self.cover(r as usize);
        self.stamp[r as usize] = self.epoch;
        self.vals[r as usize] = v;
    }

    /// The value the current block's final state gives `r` (every
    /// terminator operand was read, so it is set).
    fn value(&self, r: Reg) -> Vid {
        self.vals[r as usize]
    }

    /// Appends an event to the current block's trace.
    fn event(&mut self, tag: &'static str, aux: u64, args: &[Vid]) {
        let start = self.event_args.len() as u32;
        self.event_args.extend_from_slice(args);
        self.events.push(Event { tag, aux, args: (start, args.len() as u32) });
    }

    fn event_args(&self, e: &Event) -> &[Vid] {
        &self.event_args[e.args.0 as usize..(e.args.0 + e.args.1) as usize]
    }

    /// Starts evaluating a new block: no register is set, no event seen.
    fn begin_block(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.events.clear();
        self.event_args.clear();
    }
}

/// The key of a cached memory read: the read's tag, payload and (at most
/// two) operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadKey {
    tag: Tag,
    aux: u64,
    args: [Vid; 2],
}

/// Per-block memory-read caches, cleared (not reallocated) per block. A
/// block holds a handful of reads, so each cache is a short list searched
/// in place.
#[derive(Default)]
struct ReadCaches {
    /// The value each still-valid read produced.
    reads: Vec<(ReadKey, Vid)>,
    /// Cache misses per key so far in the block.
    occ: Vec<(ReadKey, u32)>,
}

impl ReadCaches {
    fn clear(&mut self) {
        self.reads.clear();
        self.occ.clear();
    }

    /// Forgets the reads a write may have changed.
    fn invalidate(&mut self, stale: impl Fn(&ReadKey) -> bool) {
        self.reads.retain(|(k, _)| !stale(k));
    }

    /// A memory read keyed by its position: a repeat of a still-valid
    /// read meets the earlier value, a fresh one numbers its occurrence
    /// so corresponding reads on both sides meet at the same opaque node.
    fn read(&mut self, g: &mut Graph, block: BlockId, tag: Tag, aux: u64, args: &[Vid]) -> Vid {
        let mut key = ReadKey { tag, aux, args: [0; 2] };
        key.args[..args.len()].copy_from_slice(args);
        if let Some(&(_, v)) = self.reads.iter().find(|(k, _)| *k == key) {
            return v;
        }
        let n = match self.occ.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => n,
            None => {
                self.occ.push((key, 0));
                &mut self.occ.last_mut().expect("just pushed").1
            }
        };
        let v = g.opaque(tag, aux, args, block, *n);
        *n += 1;
        self.reads.push((key, v));
        v
    }
}

/// Symbolically evaluates one block of one side into the shared graph,
/// leaving its effect trace and final register state in `side`.
fn eval_block(g: &mut Graph, caches: &mut ReadCaches, side: &mut SideEval<'_>, block_id: BlockId) {
    let func = side.func;
    let block = &func.blocks[block_id as usize];
    side.begin_block();
    caches.clear();
    let mut srcs = std::mem::take(&mut side.srcs);

    for inst in &block.insts {
        srcs.clear();
        for r in inst.op.sources() {
            let v = side.read(g, block_id, r);
            srcs.push(v);
        }
        let value: Option<Vid> = match &inst.op {
            // Pure computation: value-graph only.
            op if op.is_pure() => Some(g.pure_value(op, &srcs)),
            // Division/remainder: pure when the divisor is a proven
            // non-zero constant (constfold's legality rule); otherwise a
            // potential-throw point that must stay in the trace.
            Op::BinI(kind, ..) => {
                let nonzero = matches!(g.as_i(srcs[1]), Some(y) if y != 0);
                if !nonzero {
                    side.event("maybe-div0.i", *kind as u64, &srcs);
                }
                Some(g.pure_value(&Op::BinI(*kind, 0, 0), &srcs))
            }
            Op::BinL(kind, ..) => {
                let nonzero = matches!(g.as_l(srcs[1]), Some(y) if y != 0);
                if !nonzero {
                    side.event("maybe-div0.l", *kind as u64, &srcs);
                }
                Some(g.pure_value(&Op::BinL(*kind, 0, 0), &srcs))
            }
            // Memory reads: value nodes with GVN-legality invalidation.
            Op::GetField { field, .. } => {
                Some(caches.read(g, block_id, Tag::GetField, u64::from(*field), &srcs))
            }
            Op::GetStatic { class, field } => {
                let aux = (u64::from(class.0) << 32) | u64::from(*field);
                Some(caches.read(g, block_id, Tag::GetStatic, aux, &[]))
            }
            Op::ArrLoad { kind, .. } => {
                Some(caches.read(g, block_id, Tag::ArrLoad, *kind as u64, &srcs))
            }
            // Array length is immutable once allocated: cacheable forever.
            Op::ArrLen(_) => Some(caches.read(g, block_id, Tag::ArrLen, 0, &srcs)),
            // Effects: ordered trace events (results are position-keyed).
            Op::PutStatic { class, field, .. } => {
                let aux = (u64::from(class.0) << 32) | u64::from(*field);
                side.event("putstatic", aux, &srcs);
                caches.invalidate(|k| k.tag == Tag::GetStatic && k.aux == aux);
                None
            }
            Op::PutField { field, .. } => {
                let f = u64::from(*field);
                side.event("putfield", f, &srcs);
                caches.invalidate(|k| k.tag == Tag::GetField && k.aux == f);
                None
            }
            Op::ArrStore { kind, .. } => {
                side.event("arrstore", *kind as u64, &srcs);
                caches.invalidate(|k| k.tag == Tag::ArrLoad);
                None
            }
            Op::Call { method, .. } => {
                side.event("call", u64::from(method.0), &srcs);
                caches
                    .invalidate(|k| matches!(k.tag, Tag::GetField | Tag::GetStatic | Tag::ArrLoad));
                let at = side.events.len() as u32 - 1;
                Some(g.opaque(Tag::CallResult, u64::from(method.0), &[], block_id, at))
            }
            Op::NewObject(class) => {
                side.event("new", u64::from(class.0), &[]);
                let at = side.events.len() as u32 - 1;
                Some(g.opaque(Tag::NewResult, u64::from(class.0), &[], block_id, at))
            }
            Op::NewArray { kind, .. } | Op::NewMultiArray { kind, .. } => {
                side.event("newarray", *kind as u64, &srcs);
                let at = side.events.len() as u32 - 1;
                Some(g.opaque(Tag::NewArrayResult, *kind as u64, &srcs, block_id, at))
            }
            Op::Println { kind, .. } => {
                side.event("println", *kind as u64, &srcs);
                None
            }
            Op::Mute => {
                side.event("mute", 0, &[]);
                None
            }
            Op::Unmute => {
                side.event("unmute", 0, &[]);
                None
            }
            Op::ThrowUser(_) => {
                side.event("throw", 0, &srcs);
                None
            }
            Op::Rethrow(_) => {
                side.event("rethrow", 0, &srcs);
                None
            }
            Op::CorruptHeap { bug } => {
                side.event("corrupt-heap", *bug as u64, &[]);
                caches.invalidate(|_| true);
                None
            }
            Op::CrashOnExec { bug } => {
                side.event("crash-on-exec", *bug as u64, &[]);
                None
            }
            Op::BurnFuel { factor } => {
                side.event("burn-fuel", u64::from(*factor), &[]);
                None
            }
            op => unreachable!("unclassified op in translation validator: {op}"),
        };
        if let Some(dst) = inst.dst {
            let v = value.unwrap_or_else(|| {
                let at = side.events.len() as u32;
                g.opaque(Tag::EffectResult, 0, &[], block_id, at)
            });
            // Anchor registers are the deopt/handler-visible frame state:
            // a write to one is itself an ordered observable.
            if side.is_anchor(dst) {
                side.event("anchor-write", u64::from(dst), &[v]);
            }
            side.write(dst, v);
        }
    }
    // Resolve terminator operands against the final block state.
    for r in block.term.sources() {
        side.read(g, block_id, r);
    }
    side.srcs = srcs;
}

// ----- the simulation check ------------------------------------------------

/// Running context of one refinement check.
struct Checker<'a> {
    program: &'a BProgram,
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
        let method = self.program.qualified_name(self.before.method);
        self.errors.push(TvError { method, pass: self.pass, block, detail });
    }
}

/// Validates that `after` refines `before` under `pass`'s `contract`.
/// Returns `None` when the pass's output simulates its input, otherwise
/// one [`TvReport`] holding every violation found (capped at
/// `MAX_ERRORS`) and copies of both functions.
pub fn check_refinement(
    before: &IrFunc,
    after: &IrFunc,
    pass: &'static str,
    contract: TvContract,
    program: &BProgram,
) -> Option<TvReport> {
    let divergences = divergences(before, after, pass, contract, program);
    (!divergences.is_empty()).then(|| TvReport {
        divergences,
        before: before.clone(),
        after: after.clone(),
    })
}

/// [`check_refinement`] against a snapshot the caller owns: a failing
/// check's report takes `before` as it is and copies only `after`.
pub(crate) fn check_snapshot(
    before: IrFunc,
    after: &IrFunc,
    pass: &'static str,
    contract: TvContract,
    program: &BProgram,
) -> Option<TvReport> {
    let divergences = divergences(&before, after, pass, contract, program);
    (!divergences.is_empty()).then(|| TvReport { divergences, before, after: after.clone() })
}

/// Every violation of the refinement relation found, in discovery order.
fn divergences(
    before: &IrFunc,
    after: &IrFunc,
    pass: &'static str,
    contract: TvContract,
    program: &BProgram,
) -> Vec<TvError> {
    let mut ck = Checker { program, pass, before, after, errors: Vec::new() };
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
        return ck.errors;
    }
    if contract == TvContract::LayoutOnly {
        check_layout(&mut ck);
        return ck.errors;
    }

    let base_len = before.blocks.len();
    if after.blocks.len() < base_len {
        ck.error(0, format!("blocks removed: {} before, {} after", base_len, after.blocks.len()));
        return ck.errors;
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
        return ck.errors;
    }

    let insts: usize = before.blocks.iter().map(|b| b.insts.len()).sum();
    let mut g = Graph::with_capacity(insts);
    let mut caches = ReadCaches::default();
    let mut bside = SideEval::new(before);
    let mut aside = SideEval::new(after);
    for b in 0..base_len {
        if ck.errors.len() >= MAX_ERRORS {
            break;
        }
        let b = b as BlockId;
        eval_block(&mut g, &mut caches, &mut bside, b);
        eval_block(&mut g, &mut caches, &mut aside, b);
        compare_traces(&mut ck, &g, b, &bside, &aside);
        compare_terms(&mut ck, &g, contract, b, &bside, &aside);
    }
    ck.errors
}

fn render_event(g: &Graph, side: &SideEval<'_>, e: &Event) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{}#{}", e.tag, e.aux);
    g.render_args(&mut out, side.event_args(e), 1);
    out
}

/// Effect traces must match event-for-event with equal value arguments:
/// the after side may drop or reorder only pure (non-event) computation.
fn compare_traces(
    ck: &mut Checker<'_>,
    g: &Graph,
    b: BlockId,
    bside: &SideEval<'_>,
    aside: &SideEval<'_>,
) {
    let (bs, as_) = (&bside.events, &aside.events);
    for (i, (eb, ea)) in bs.iter().zip(as_.iter()).enumerate() {
        let same =
            eb.tag == ea.tag && eb.aux == ea.aux && bside.event_args(eb) == aside.event_args(ea);
        if !same {
            ck.error(
                b,
                format!(
                    "effect {i} diverges: before `{}`, after `{}`",
                    render_event(g, bside, eb),
                    render_event(g, aside, ea)
                ),
            );
            return;
        }
    }
    match bs.len().cmp(&as_.len()) {
        std::cmp::Ordering::Greater => {
            let e = &bs[as_.len()];
            ck.error(b, format!("effect {} dropped: `{}`", as_.len(), render_event(g, bside, e)));
        }
        std::cmp::Ordering::Less => {
            let e = &as_[bs.len()];
            ck.error(b, format!("effect {} introduced: `{}`", bs.len(), render_event(g, aside, e)));
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
    g: &Graph,
    contract: TvContract,
    b: BlockId,
    bs: &SideEval<'_>,
    as_: &SideEval<'_>,
) {
    let base_len = ck.before.blocks.len();
    let bterm = &ck.before.blocks[b as usize].term;
    let aterm = &ck.after.blocks[b as usize].term;
    let bval = |r: &Reg| bs.value(*r);
    let aval = |r: &Reg| as_.value(*r);
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
        (Term::Branch { cond, if_true, if_false }, Term::Jump(y)) => match g.as_i(bval(cond)) {
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
                format!("branch on non-constant `{}` folded to a jump", g.render(bval(cond), 0)),
            ),
        },
        (Term::Switch { scrut, cases, default }, Term::Jump(y)) => match g.as_i(bval(scrut)) {
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
                format!("switch on non-constant `{}` folded to a jump", g.render(bval(scrut), 0)),
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
            let retargeted = acases.len() != bcases.len()
                || acases
                    .iter()
                    .zip(bcases)
                    .any(|(&(al, at), &(bl, bt))| al != bl || resolve(at) != Some(bt));
            if retargeted || resolve(*ad) != Some(*bd) {
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
    let mut fwd: FastMap<Reg, Reg> = FastMap::default();
    let mut rev: FastMap<Reg, Reg> = FastMap::default();
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
                    for (rb, ra) in bsrc.zip(asrc) {
                        if let Err(e) = bind_pair(ck.before, &mut fwd, &mut rev, Some(rb), Some(ra))
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
            for (rb, ra) in bsrc.zip(asrc) {
                if let Err(e) = bind_pair(ck.before, &mut fwd, &mut rev, Some(rb), Some(ra)) {
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
    fwd: &mut FastMap<Reg, Reg>,
    rev: &mut FastMap<Reg, Reg>,
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
