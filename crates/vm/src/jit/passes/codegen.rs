//! Code-generation lowering checks.
//!
//! The evaluator runs IR directly, so "code generation" is the final
//! lowering validation a backend would perform. It hosts the
//! backend-flavored injected bugs: multi-array lowering in loops, long
//! multiplication fed by OSR state, string concatenation in nested loops,
//! switch-arm budgets, JIT↔interpreter call budgets, and the
//! wild-pointer narrowing that crashes *at execution time*
//! ([`BugId::HsCodeExecNarrowSegv`]).

use crate::exec::CrashInfo;
use crate::faults::BugId;
use crate::jit::cfg::LoopForest;
use crate::jit::hash::FastMap;
use crate::jit::ir::*;
use crate::jit::tv::TvContract;
use crate::jit::CompileCtx;

/// Final lowering validation: the IR may only be renamed, never
/// restructured (the narrowing rewrite under
/// [`BugId::HsCodeExecNarrowSegv`] is exactly what this catches).
pub const TV_CONTRACT: TvContract = TvContract::LayoutOnly;

/// Runs the lowering checks and (for the code-execution bug) rewrites.
pub fn run(ctx: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    let forest = LoopForest::compute(func);
    let in_loop = |b: BlockId| forest.depth(b) >= 1;

    let mut call_count = 0usize;
    for (b, block) in func.blocks.iter().enumerate() {
        let b = b as BlockId;
        for inst in &block.insts {
            match &inst.op {
                Op::NewMultiArray { .. }
                    if in_loop(b) && ctx.active(BugId::HsCodegenMultiArray) =>
                {
                    return Err(ctx.crash(
                        BugId::HsCodegenMultiArray,
                        "codegen: multianewarray lowering inside a loop",
                    ));
                }
                Op::BinL(BinKind::Mul, ..)
                    if forest.depth(b) >= 2
                        && func.osr_entry.is_some()
                        && ctx.active(BugId::J9CodegenLongMul) =>
                {
                    return Err(ctx.crash(
                        BugId::J9CodegenLongMul,
                        "codegen: long multiply fed by OSR entry state",
                    ));
                }
                Op::Concat(..)
                    if forest.depth(b) >= 2 && ctx.active(BugId::J9CodegenConcatLoop) =>
                {
                    return Err(ctx.crash(
                        BugId::J9CodegenConcatLoop,
                        "codegen: string concatenation in a nested loop",
                    ));
                }
                Op::Call { .. } => call_count += 1,
                _ => {}
            }
        }
        if let Term::Switch { cases, .. } = &block.term {
            let profile = &ctx.profiles[func.method.0 as usize];
            let warm = profile.invocations >= 200 || profile.backedges.iter().any(|&c| c >= 200);
            if cases.len() >= 5 && warm && ctx.active(BugId::ArtOptCompSwitchAssert) {
                return Err(ctx.crash(
                    BugId::ArtOptCompSwitchAssert,
                    format!("OptimizingCompiler: hot switch with {} arms", cases.len()),
                ));
            }
        }
    }
    if call_count > 24 && ctx.speculate && ctx.active(BugId::J9JitIntCallAssert) {
        return Err(ctx.crash(
            BugId::J9JitIntCallAssert,
            format!("JIT-INT interaction: {call_count} residual call sites"),
        ));
    }

    // Code-execution bug: a byte narrowing fed directly by a field load
    // lowers to a wild memory access — the crash happens when the compiled
    // code runs, not at compile time.
    if ctx.active(BugId::HsCodeExecNarrowSegv) && ctx.optimizing() {
        // Single-def map to identify the feeding instruction.
        let mut defs: FastMap<Reg, Op> = FastMap::default();
        let mut multi: FastMap<Reg, bool> = FastMap::default();
        for block in &func.blocks {
            for inst in &block.insts {
                if let Some(dst) = inst.dst {
                    let seen = defs.insert(dst, inst.op.clone()).is_some();
                    if seen {
                        multi.insert(dst, true);
                    }
                }
            }
        }
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                if let Op::I2B(src) = inst.op {
                    let fed_by_field_load = !multi.get(&src).copied().unwrap_or(false)
                        && matches!(defs.get(&src), Some(Op::GetField { .. }));
                    if fed_by_field_load {
                        inst.op = Op::CrashOnExec { bug: BugId::HsCodeExecNarrowSegv };
                    }
                }
            }
        }
    }
    Ok(())
}
