//! The JIT compiler: bytecode → IR → optimization pipeline → evaluation.
//!
//! Tier pipelines follow the VM profiles:
//!
//! * **HotSpot-like t1 ("C1")**: copy propagation, constant folding, local
//!   value numbering, DCE. No inlining, no speculation.
//! * **HotSpot-like t2 ("C2")**: inlining and profile speculation at build
//!   time, then constant folding, local + dominator-scoped value
//!   numbering, LICM, global code motion, loop analysis, register
//!   allocation, code generation checks, DCE.
//! * **OpenJ9-like** mirrors the HotSpot tiers but runs value-propagation
//!   passes instead of HotSpot's constant propagation and skips GCM.
//! * **ART-like** has a single "OptimizingCompiler" tier with inlining.
//!
//! Each pass hosts the trigger logic of its injected bugs (see
//! [`crate::faults`]); a triggered compile-time bug aborts compilation
//! with a [`CrashInfo`] that the VM surfaces as a crash outcome, exactly
//! like a `guarantee()` failure inside a production JIT.

pub mod build;
pub mod cache;
pub mod cfg;
pub mod exec;
pub(crate) mod hash;
pub mod ir;
pub mod passes;
pub mod tv;
pub mod verify;

use cse_bytecode::{BProgram, MethodId};

use crate::config::{Tier, TvMode, VerifyMode, VmKind};
use crate::exec::{CrashInfo, CrashKind, CrashPhase};
use crate::faults::{BugId, FaultInjector};
use crate::profile::MethodProfile;

pub(crate) use build::can_osr;
pub use cache::{ProgramArtifacts, SharedArtifactCache};
pub(crate) use exec::run_ir;
pub use exec::IrOutcome;

/// Everything a compilation needs to see.
pub struct CompileCtx<'a> {
    pub program: &'a BProgram,
    pub profiles: &'a [MethodProfile],
    pub faults: &'a FaultInjector,
    pub kind: VmKind,
    pub tier: Tier,
    /// Whether to speculate from profiles (off for plan-forced compiles,
    /// mirroring `count=0` compilation without profile data).
    pub speculate: bool,
    pub inline_limit: usize,
    /// Whether an OSR body for this method is already installed
    /// (recompilation-interaction bug trigger).
    pub has_osr_code: bool,
    /// Static IR verification mode (see [`verify`]).
    pub verify: VerifyMode,
    /// Translation-validation mode (see [`tv`]).
    pub tv: TvMode,
    /// Bitmask (by `BugId` discriminant) of injected bugs whose trigger
    /// was *queried and found active* during this compilation. A bug
    /// absent from the mask provably cannot have influenced the compile,
    /// which lets attribution skip its ablation rerun. Stored with cached
    /// artifacts and replayed on hits.
    pub fired: std::cell::Cell<u64>,
}

impl CompileCtx<'_> {
    /// Whether this compilation runs the "optimizing" pipeline (HotSpot /
    /// OpenJ9 tier 2, or ART's single tier).
    pub fn optimizing(&self) -> bool {
        self.tier.0 >= 2 || self.kind == VmKind::ArtLike
    }

    /// Queries the fault injector, recording a firing in
    /// [`CompileCtx::fired`]. Every compile-time trigger site must go
    /// through this (not `faults.active` directly) so the fired mask
    /// stays complete.
    pub(crate) fn active(&self, bug: BugId) -> bool {
        let hit = self.faults.active(bug);
        if hit {
            self.fired.set(self.fired.get() | (1u64 << (bug as u64)));
        }
        hit
    }

    /// Raises an injected compile-time crash.
    pub(crate) fn crash(&self, bug: BugId, detail: impl Into<String>) -> CrashInfo {
        CrashInfo {
            bug,
            component: bug.component(),
            kind: CrashKind::AssertionFailure,
            phase: CrashPhase::Compiling,
            detail: detail.into(),
        }
    }
}

/// Compilation failure modes.
#[derive(Debug)]
pub enum CompileFail {
    /// An injected bug fired during compilation.
    Crash(CrashInfo),
    /// The requested OSR header cannot host an OSR entry (non-empty
    /// abstract stack); callers gate on the crate-internal `can_osr`.
    OsrUnsupported,
}

/// Compiles `method` at `ctx.tier`, optionally as an OSR variant entering
/// at loop header `osr`.
///
/// In [`VerifyMode::Boundary`] the IR is statically verified after
/// `build()` and after the last pass; when `ctx.tv` is not
/// [`TvMode::Off`], each pass (or the whole pipeline, in boundary mode) is
/// additionally checked as a semantic refinement of its input. Defects
/// accumulate in `defects` / `tv_reports` (one report per failing check)
/// and never change the compilation result.
///
/// Builds with debug assertions also check the IR after `build()` and
/// after every pass, whatever `ctx.verify` says, and panic on a defect
/// (`verify::assert_well_formed`).
pub fn compile(
    ctx: &CompileCtx<'_>,
    method: MethodId,
    osr: Option<u32>,
    defects: &mut Vec<verify::IrVerifyError>,
    tv_reports: &mut Vec<tv::TvReport>,
) -> Result<ir::IrFunc, CompileFail> {
    let mut func = build::build(ctx, method, osr)?;
    if cfg!(debug_assertions) {
        verify::assert_well_formed(&func, ctx.program, verify::PASS_BUILD, None);
    }
    if ctx.verify == VerifyMode::Boundary {
        defects.extend(verify::check_func(&func, ctx.program, verify::PASS_BUILD));
    }
    // Boundary mode validates the whole pipeline as one refinement step:
    // snapshot the freshly built IR as the "before" side.
    let built = if ctx.tv == TvMode::Boundary { Some(func.clone()) } else { None };
    let has_long_ops =
        func.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i.op, ir::Op::BinL(..)));
    let profile = &ctx.profiles[method.0 as usize];
    let warm = profile.invocations >= 200 || profile.backedges.iter().any(|&c| c >= 200);
    // Recompilation-interaction bug: re-promoting a previously
    // de-optimized method that still has a live OSR body while lowering
    // long arithmetic (OpenJ9-like).
    if ctx.active(BugId::J9RecompOsrPromote)
        && ctx.tier.0 >= 2
        && osr.is_none()
        && ctx.has_osr_code
        && has_long_ops
        && profile.deopts >= 1
    {
        return Err(CompileFail::Crash(ctx.crash(
            BugId::J9RecompOsrPromote,
            format!(
                "promoting {} to {} over a live OSR body",
                ctx.program.qualified_name(method),
                ctx.tier
            ),
        )));
    }
    // Structural "ideal graph" assertions (HotSpot-like).
    if ctx.optimizing() {
        // The loop forest is only read by this trigger; the `active` query
        // comes first so the fired mask records it either way.
        if ctx.active(BugId::HsGraphDeepLoops) {
            let loops = cfg::LoopForest::compute(&func);
            let has_switch_in_loop = || {
                func.blocks.iter().enumerate().any(|(b, block)| {
                    matches!(block.term, ir::Term::Switch { .. }) && loops.depth(b as u32) >= 2
                })
            };
            if loops.max_depth() >= 4 && has_switch_in_loop() {
                return Err(CompileFail::Crash(ctx.crash(
                    BugId::HsGraphDeepLoops,
                    "ideal graph: loop tree too deep with switch",
                )));
            }
        }
        // The block budget only overflows once inlining has spliced callees
        // in (plain methods stay far below it).
        if ctx.active(BugId::HsGraphBlockBudget) && func.blocks.len() > 260 && func.frames.len() > 1
        {
            return Err(CompileFail::Crash(ctx.crash(
                BugId::HsGraphBlockBudget,
                format!("ideal graph: {} blocks", func.blocks.len()),
            )));
        }
        if ctx.active(BugId::J9OtherNestedTry) && nested_handler_depth(&func) >= 3 {
            return Err(CompileFail::Crash(ctx.crash(
                BugId::J9OtherNestedTry,
                "synchronization stub: deeply nested try regions",
            )));
        }
        // The ART asserts only reproduce on warm methods: the compiler
        // consults profile tables that cold (`count=0`) compilations leave
        // empty.
        if ctx.active(BugId::ArtOptCompHandlerAssert) && func.handlers.len() >= 6 && warm {
            return Err(CompileFail::Crash(
                ctx.crash(BugId::ArtOptCompHandlerAssert, "OptimizingCompiler: multiple handlers"),
            ));
        }
    }
    passes::run_pipeline(ctx, passes::pipeline(ctx.kind, ctx.optimizing()), &mut func, tv_reports)
        .map_err(CompileFail::Crash)?;
    if ctx.verify == VerifyMode::Boundary {
        defects.extend(verify::check_func(&func, ctx.program, verify::PASS_PIPELINE_EXIT));
    }
    if let Some(built) = built {
        // The end-to-end pipeline must satisfy the weakest contract: any
        // pass may have folded control flow or strengthened guards.
        tv_reports.extend(tv::check_snapshot(
            built,
            &func,
            tv::PASS_PIPELINE,
            tv::TvContract::GuardIntroducing,
            ctx.program,
        ));
    }
    Ok(func)
}

/// Maximum nesting depth of frame-0 handler bc ranges (by containment).
fn nested_handler_depth(func: &ir::IrFunc) -> usize {
    let ranges: Vec<(u32, u32)> =
        func.handlers.iter().filter(|h| h.frame == 0).map(|h| (h.start_bc, h.end_bc)).collect();
    let mut max_depth = 0;
    for &(s, e) in &ranges {
        let depth = ranges.iter().filter(|&&(s2, e2)| s2 <= s && e <= e2).count();
        max_depth = max_depth.max(depth);
    }
    max_depth
}
