//! Execution results and outcomes.

use crate::events::TraceEvent;
use crate::faults::{BugId, Component};

/// How a crash manifests (the observable symptom a bug report would carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Segmentation fault in generated code.
    Sigsegv,
    /// Emergency abort.
    Sigabrt,
    /// Fatal arithmetic error in generated code.
    Sigfpe,
    /// Internal assertion failure (`guarantee()` / `TR_ASSERT` analog).
    AssertionFailure,
    /// The collector found a corrupted heap.
    GcCorruption,
}

/// When the crash happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPhase {
    /// While the JIT compiler was compiling.
    Compiling,
    /// While executing compiled code.
    Executing,
    /// Inside the garbage collector.
    Gc,
}

/// A VM crash report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashInfo {
    /// The injected bug that fired (ground truth for deduplication).
    pub bug: BugId,
    /// Affected JIT component (Table 2 classification).
    pub component: Component,
    pub kind: CrashKind,
    pub phase: CrashPhase,
    /// Free-form context (method name, pass detail) — the "stack trace".
    pub detail: String,
}

/// A deterministic resource budget tracked by the VM. Exceeding one ends
/// the run gracefully with [`Outcome::BudgetExceeded`] instead of a
/// panic, a host stack overflow, or a wall-clock hang — which keeps
/// triage verdicts and campaign digests machine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Logical heap bytes (`VmConfig::max_heap_bytes` / `CSE_HEAP_LIMIT`).
    HeapBytes,
    /// Hard harness call-depth cap (`VmConfig::stack_limit` /
    /// `CSE_STACK_LIMIT`) — distinct from `max_call_depth`, which models
    /// the *guest* `StackOverflowError` and stays catchable.
    StackDepth,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::HeapBytes => write!(f, "heap-bytes"),
            Resource::StackDepth => write!(f, "stack-depth"),
        }
    }
}

/// Terminal states of a VM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The program ran to completion (possibly by an uncaught exception,
    /// which is part of the printed output and thus of the oracle).
    Completed { uncaught_exception: bool },
    /// The VM crashed.
    Crash(CrashInfo),
    /// The step budget was exhausted (wall-clock timeout analog).
    Timeout,
    /// The heap budget was exhausted.
    OutOfMemory,
    /// A deterministic resource budget was exhausted (heap bytes, stack
    /// depth). First-class and graceful: validation discards these runs
    /// exactly like timeouts instead of raising an oracle verdict.
    BudgetExceeded(Resource),
}

impl Outcome {
    /// Whether this is a normal completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// Whether the run ended because a harness resource budget ran out
    /// (fuel, heap bytes, stack depth). Such runs carry no oracle
    /// verdict: the differential harness discards them, because a
    /// temperature change can legitimately move a program across a
    /// budget boundary. `OutOfMemory` (the object-count cap) is *not*
    /// included — it models the guest heap size and has always been part
    /// of the comparable observable.
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(self, Outcome::Timeout | Outcome::BudgetExceeded(_))
    }
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Bytecode instructions interpreted.
    pub interp_ops: u64,
    /// IR instructions executed in compiled code.
    pub jit_ops: u64,
    /// Method compilations performed.
    pub compilations: u32,
    /// OSR compilations performed.
    pub osr_compilations: u32,
    /// Compilations served from the cross-run artifact cache
    /// (`crate::jit::SharedArtifactCache`); always a subset of `compilations +
    /// osr_compilations` — a hit still counts as a compilation, it only
    /// skips the work.
    pub code_cache_hits: u32,
    /// De-optimizations taken.
    pub deopts: u32,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Method invocations (all engines).
    pub calls: u64,
    /// Mute-nesting depth when the program ended (a nonzero value means an
    /// exception skipped an `__unmute()`; engines must agree on it).
    pub mute_depth_end: u32,
    /// Whether the wall-clock watchdog (not the fuel budget) ended the
    /// run. Lets supervisors distinguish "program too expensive" from
    /// "VM wedged in real time".
    pub watchdog_fired: bool,
    /// Defects the static IR verifier found across this run's
    /// compilations (0 unless `VmConfig::verify_ir` enables it). The
    /// verifier is an oracle: defects are counted and reported, never
    /// acted on.
    pub ir_verify_defects: u32,
    /// Refinement violations the translation validator found across this
    /// run's compilations (0 unless `VmConfig::tv` enables it). Like the
    /// static verifier, an observation-only oracle.
    pub tv_defects: u32,
    /// Bitmask (by `BugId` discriminant) of injected bugs whose trigger
    /// was queried and found active at least once during the run —
    /// compile-time sites included (replayed from the artifact cache on
    /// hits). A bug absent from this mask provably could not have
    /// influenced the run, so ablating it cannot change the observable;
    /// attribution uses that to skip reruns.
    pub fired_bugs: u64,
}

impl ExecStats {
    /// Total executed operations across engines.
    pub fn total_ops(&self) -> u64 {
        self.interp_ops + self.jit_ops
    }
}

/// The result of running a program on the VM.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Everything the program printed (including the uncaught-exception
    /// banner, when applicable).
    pub output: String,
    pub outcome: Outcome,
    /// Compilation-state transition log.
    pub events: Vec<TraceEvent>,
    pub stats: ExecStats,
    /// IR-verifier defects, one line each, in compilation order (empty
    /// unless `VmConfig::verify_ir` enables verification and a pass
    /// produced malformed IR). The pre-pass IR dump that `each` mode
    /// attaches to a [`crate::jit::verify::IrVerifyError`] is left out.
    /// Deliberately *not* part of
    /// [`ExecutionResult::observable`]: the verifier is a third oracle
    /// and must never perturb the differential one.
    pub ir_verify: Vec<String>,
    /// Translation-validation findings, in compilation order: one entry
    /// per failing check, holding one header line per divergence and no
    /// IR dumps ([`crate::jit::tv::TvReport::headers`]). Empty unless
    /// `VmConfig::tv` enables validation and a pass failed its refinement
    /// contract; [`ExecStats::tv_defects`] counts the lines. Shared text,
    /// so artifact-cache replays copy a pointer. Excluded from
    /// [`ExecutionResult::observable`] for the same reason as
    /// [`ExecutionResult::ir_verify`].
    pub tv: Vec<std::rc::Rc<str>>,
    /// JIT-behavior coverage observed during this run (all-zero unless
    /// `VmConfig::coverage` enables collection). Like the two oracles'
    /// reports, a side channel outside [`ExecutionResult::observable`].
    pub coverage: crate::coverage::CoverageMap,
}

impl ExecutionResult {
    /// The observable behavior used by the cross-validation oracle:
    /// printed output plus the outcome class. Two runs of the same
    /// program's compilation space must agree on this string (§3.2).
    pub fn observable(&self) -> String {
        match &self.outcome {
            Outcome::Completed { .. } => format!("completed\n{}", self.output),
            Outcome::Crash(info) => format!(
                "crash kind={:?} component={} bug={:?} phase={:?}",
                info.kind, info.component, info.bug, info.phase
            ),
            Outcome::Timeout => "timeout".to_string(),
            Outcome::OutOfMemory => "out-of-memory".to_string(),
            Outcome::BudgetExceeded(resource) => format!("budget-exceeded {resource}"),
        }
    }

    /// Whether the run crashed.
    pub fn crashed(&self) -> bool {
        matches!(self.outcome, Outcome::Crash(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoverageMap;

    #[test]
    fn observable_distinguishes_outcomes() {
        let ok = ExecutionResult {
            output: "3\n".into(),
            outcome: Outcome::Completed { uncaught_exception: false },
            events: vec![],
            stats: ExecStats::default(),
            ir_verify: vec![],
            tv: vec![],
            coverage: CoverageMap::default(),
        };
        let timeout = ExecutionResult {
            output: "3\n".into(),
            outcome: Outcome::Timeout,
            events: vec![],
            stats: ExecStats::default(),
            ir_verify: vec![],
            tv: vec![],
            coverage: CoverageMap::default(),
        };
        assert_ne!(ok.observable(), timeout.observable());
        assert!(ok.outcome.is_completed());
        assert!(!ok.crashed());
    }

    #[test]
    fn stats_totals() {
        let stats = ExecStats { interp_ops: 10, jit_ops: 32, ..Default::default() };
        assert_eq!(stats.total_ops(), 42);
    }
}
