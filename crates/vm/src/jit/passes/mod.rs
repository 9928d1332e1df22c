//! The optimization pass pipelines.
//!
//! Pass order follows the profile descriptions in [`super`]: cheap
//! cleanups first (the IR builder emits copy-heavy code by design), then
//! value numbering, code motion, loop analyses, register allocation, and
//! code-generation lowering checks, with dead-code elimination last.
//! Passes host the trigger logic of the injected bugs whose component
//! they implement.
//!
//! Each pipeline is a *named pass table* rather than a call sequence, so
//! the debug-build IR check (`verify::assert_well_formed`) and
//! translation validation ([`super::tv`]) can name the pass that broke
//! the IR, and tools can enumerate the pipeline a configuration will run.

pub mod codegen;
pub mod constfold;
pub mod copyprop;
pub mod dce;
pub mod gcm;
pub mod gvn;
pub mod licm;
pub mod loopopt;
pub mod regalloc;
pub mod vp;

use super::ir::IrFunc;
use super::tv::{self, TvContract};
use super::{verify, CompileCtx};
use crate::config::{TvMode, VmKind};
use crate::exec::CrashInfo;

/// One pipeline stage: fallible in-place IR transform.
pub type PassFn = fn(&CompileCtx<'_>, &mut IrFunc) -> Result<(), CrashInfo>;

/// A named pipeline stage.
pub type Pass = (&'static str, PassFn);

fn run_copyprop(_: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    copyprop::run(func);
    Ok(())
}

fn run_dce(_: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
    dce::run(func);
    Ok(())
}

/// HotSpot C1: quick tier.
const HOTSPOT_QUICK: &[Pass] = &[
    ("copyprop", run_copyprop),
    ("constfold", constfold::run),
    ("gvn-local", gvn::run_local),
    ("dce", run_dce),
];

/// HotSpot C2: optimizing tier. Cleanup passes run twice: value numbering
/// introduces copies that expose further local CSE (classic
/// iterate-to-fixpoint, bounded to two rounds).
const HOTSPOT_OPT: &[Pass] = &[
    ("copyprop", run_copyprop),
    ("constfold", constfold::run),
    ("gvn-local", gvn::run_local),
    ("copyprop", run_copyprop),
    ("gvn-local", gvn::run_local),
    ("gvn", gvn::run),
    ("licm", licm::run),
    ("gcm", gcm::run),
    ("loopopt", loopopt::run),
    ("regalloc", regalloc::run),
    ("codegen", codegen::run),
    ("dce", run_dce),
];

const OPENJ9_QUICK: &[Pass] = &[
    ("copyprop", run_copyprop),
    ("vp-local", vp::run_local),
    ("gvn-local", gvn::run_local),
    ("dce", run_dce),
];

const OPENJ9_OPT: &[Pass] = &[
    ("copyprop", run_copyprop),
    ("vp-local", vp::run_local),
    ("vp-global", vp::run_global),
    ("constfold", constfold::run),
    ("gvn-local", gvn::run_local),
    ("copyprop", run_copyprop),
    ("gvn-local", gvn::run_local),
    ("gvn", gvn::run),
    ("licm", licm::run),
    ("loopopt", loopopt::run),
    ("regalloc", regalloc::run),
    ("codegen", codegen::run),
    ("dce", run_dce),
];

/// ART's single "OptimizingCompiler" tier.
const ART_OPT: &[Pass] = &[
    ("copyprop", run_copyprop),
    ("constfold", constfold::run),
    ("gvn-local", gvn::run_local),
    ("licm", licm::run),
    ("codegen", codegen::run),
    ("dce", run_dce),
];

/// The pass table a VM kind runs at the given optimization level.
pub fn pipeline(kind: VmKind, optimizing: bool) -> &'static [Pass] {
    match (kind, optimizing) {
        (VmKind::HotSpotLike, false) => HOTSPOT_QUICK,
        (VmKind::HotSpotLike, true) => HOTSPOT_OPT,
        (VmKind::OpenJ9Like, false) => OPENJ9_QUICK,
        (VmKind::OpenJ9Like, true) => OPENJ9_OPT,
        (VmKind::ArtLike, _) => ART_OPT,
    }
}

/// The refinement contract a registered pass declared (see
/// [`TvContract`]). Every pass in every pipeline table must resolve here
/// — a completeness unit test enforces it, so new passes can't silently
/// opt out of translation validation.
pub fn tv_contract(pass: &'static str) -> Option<TvContract> {
    Some(match pass {
        "copyprop" => copyprop::TV_CONTRACT,
        "constfold" => constfold::TV_CONTRACT,
        "gvn-local" | "gvn" => gvn::TV_CONTRACT,
        "licm" => licm::TV_CONTRACT,
        "gcm" => gcm::TV_CONTRACT,
        "loopopt" => loopopt::TV_CONTRACT,
        "regalloc" => regalloc::TV_CONTRACT,
        "codegen" => codegen::TV_CONTRACT,
        "dce" => dce::TV_CONTRACT,
        "vp-local" => vp::TV_CONTRACT_LOCAL,
        "vp-global" => vp::TV_CONTRACT_GLOBAL,
        _ => return None,
    })
}

/// Runs `passes` (a table from [`pipeline`]) over `func` in place.
///
/// In builds with debug assertions the IR is checked after every pass,
/// and a defect panics naming that pass (`verify::assert_well_formed`).
/// In [`TvMode::Each`] every (before, after) pair is also checked against
/// the pass's declared refinement contract; divergences (attributed to
/// the pass's table name) accumulate in `tv_reports` without altering
/// compilation — translation validation is an oracle, not a gate.
pub fn run_pipeline(
    ctx: &CompileCtx<'_>,
    passes: &[Pass],
    func: &mut IrFunc,
    tv_reports: &mut Vec<tv::TvReport>,
) -> Result<(), CrashInfo> {
    for &(name, pass) in passes {
        let before = (cfg!(debug_assertions) || ctx.tv == TvMode::Each).then(|| func.clone());
        pass(ctx, func)?;
        if cfg!(debug_assertions) {
            verify::assert_well_formed(func, ctx.program, name, before.as_ref());
        }
        if ctx.tv == TvMode::Each {
            let contract = tv_contract(name)
                .unwrap_or_else(|| panic!("pass `{name}` has no TV refinement annotation"));
            let before = before.expect("snapshot taken when tv == Each");
            tv_reports.extend(tv::check_snapshot(before, func, name, contract, ctx.program));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The debug-build check is live: with every oracle off, a pass that
    /// leaves malformed IR panics, naming that pass.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`dangle` left malformed IR")]
    fn a_pass_that_breaks_the_ir_panics_naming_it() {
        use crate::config::{Tier, VerifyMode};
        use crate::faults::FaultInjector;
        use crate::jit::ir::Term;
        use crate::profile::MethodProfile;

        /// Breaks the IR: the last block jumps to a missing one.
        fn dangle(_: &CompileCtx<'_>, func: &mut IrFunc) -> Result<(), CrashInfo> {
            func.blocks.last_mut().expect("built IR has blocks").term = Term::Jump(999);
            Ok(())
        }

        let source = cse_lang::parse_and_check("class T { static void main() { println(1); } }");
        let program = cse_bytecode::compile(&source.unwrap()).unwrap();
        let profiles = vec![MethodProfile::default(); program.methods.len()];
        let faults = FaultInjector::none();
        let ctx = CompileCtx {
            program: &program,
            profiles: &profiles,
            faults: &faults,
            kind: VmKind::HotSpotLike,
            tier: Tier::T2,
            speculate: false,
            inline_limit: 48,
            has_osr_code: false,
            verify: VerifyMode::Off,
            tv: TvMode::Off,
            fired: std::cell::Cell::new(0),
        };
        let mut func = super::super::build::build(&ctx, cse_bytecode::MethodId(0), None).unwrap();
        let passes: &[Pass] = &[("copyprop", run_copyprop), ("dangle", dangle), ("dce", run_dce)];
        let _ = run_pipeline(&ctx, passes, &mut func, &mut Vec::new());
    }

    /// Every pass registered in any pipeline table must carry a TV
    /// refinement annotation (tentpole completeness gate: new passes
    /// can't silently opt out of translation validation).
    #[test]
    fn every_registered_pass_has_a_tv_contract() {
        for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
            for optimizing in [false, true] {
                for (name, _) in pipeline(kind, optimizing) {
                    assert!(
                        tv_contract(name).is_some(),
                        "pass `{name}` ({kind:?}, optimizing={optimizing}) lacks a TV contract"
                    );
                }
            }
        }
    }

    /// The layout-only (weaker, renaming-based) check is reserved for the
    /// two location-assignment stages; every semantic optimization gets
    /// the full simulation relation.
    #[test]
    fn layout_only_is_limited_to_location_passes() {
        for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
            for optimizing in [false, true] {
                for (name, _) in pipeline(kind, optimizing) {
                    let layout = tv_contract(name) == Some(TvContract::LayoutOnly);
                    assert_eq!(layout, matches!(*name, "regalloc" | "codegen"), "pass `{name}`");
                }
            }
        }
    }
}
