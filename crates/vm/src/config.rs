//! VM configuration and the three production-VM profiles.

use crate::faults::{BugId, FaultInjector};
use crate::plan::ForcedPlan;
use crate::settings::Settings;

/// Which production JVM a VM instance emulates. The profiles differ in
/// tier structure, compilation thresholds, and (by default) which seeded
/// bugs are active — mirroring how the paper validates HotSpot, OpenJ9,
/// and ART as distinct targets (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmKind {
    /// Two JIT tiers (C1-like quick, C2-like optimizing) + speculation.
    HotSpotLike,
    /// Two JIT tiers with a different pass mix and GC interplay.
    OpenJ9Like,
    /// One optimizing method-JIT tier with higher thresholds.
    ArtLike,
}

impl std::fmt::Display for VmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmKind::HotSpotLike => write!(f, "HotSpot"),
            VmKind::OpenJ9Like => write!(f, "OpenJ9"),
            VmKind::ArtLike => write!(f, "ART"),
        }
    }
}

/// When the static IR verifier ([`crate::jit::verify`]) runs during a
/// compilation as an oracle. Selected per [`VmConfig`]; the default comes
/// from `CSE_VERIFY_IR` (see [`crate::settings`]). Builds with debug
/// assertions also check the IR after every pass, in either mode, as an
/// invariant of the JIT that panics on a defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// No IR verification (zero overhead).
    #[default]
    Off,
    /// Verify at the pipeline boundaries only: once after `build()` and
    /// once after the last pass. Cheap enough for long campaigns.
    Boundary,
}

impl std::fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyMode::Off => write!(f, "off"),
            VerifyMode::Boundary => write!(f, "boundary"),
        }
    }
}

/// When the translation validator ([`crate::jit::tv`]) runs during a
/// compilation. Selected per [`VmConfig`]; the default comes from
/// `CSE_TV` (see [`crate::settings`]). Orthogonal to
/// [`VerifyMode`]: the static verifier proves the IR is *well-formed*,
/// the translation validator proves each pass *refined the semantics*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TvMode {
    /// No translation validation (zero overhead).
    #[default]
    Off,
    /// Validate once per compilation: the post-`build()` IR against the
    /// final pipeline output, under the weakest (guard-introducing)
    /// contract. Cheap enough for long campaigns.
    Boundary,
    /// Validate every pass against its own input, under that pass's
    /// declared refinement contract, attributing any divergence to the
    /// pass that introduced it. Used in CI and triage.
    Each,
}

impl std::fmt::Display for TvMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TvMode::Off => write!(f, "off"),
            TvMode::Boundary => write!(f, "boundary"),
            TvMode::Each => write!(f, "each"),
        }
    }
}

/// A compilation tier (0 = interpreter). Tier numbers are the paper's
/// temperature levels `t_0 .. t_N` (Definition 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tier(pub u8);

impl Tier {
    pub const INTERP: Tier = Tier(0);
    pub const T1: Tier = Tier(1);
    pub const T2: Tier = Tier(2);
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Thresholds for one JIT tier (the paper's `Z_i` from Definition 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierThresholds {
    /// Method-counter threshold (`c_0` crossing `Z_i` triggers JIT).
    pub invocations: u64,
    /// Back-edge-counter threshold (crossing triggers OSR compilation).
    pub backedge: u64,
}

/// Full VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    pub kind: VmKind,
    /// Per-tier thresholds; `tiers[i]` guards `Tier(i + 1)`.
    pub tiers: Vec<TierThresholds>,
    /// Disables JIT/OSR entirely (`-Xint` analog).
    pub jit_enabled: bool,
    /// Step budget; exceeding it yields `Outcome::Timeout` (the paper's
    /// two-minute wall-clock cutoff, §4.3).
    pub fuel: u64,
    /// Run a GC after this many allocations (0 = only on demand).
    pub gc_interval: usize,
    /// Max simultaneously-live heap objects (1 GiB heap analog).
    pub max_objects: usize,
    /// Max simultaneously-live *logical heap bytes* (estimated per
    /// object). Exceeding it — after a last-chance collection — yields a
    /// graceful `Outcome::BudgetExceeded(Resource::HeapBytes)`, so a
    /// pathological mutant can bloat the guest heap without taking the
    /// host down. Default comes from `CSE_HEAP_LIMIT` (256 MiB unset).
    pub max_heap_bytes: usize,
    /// Max logical call depth before `StackOverflowError`.
    pub max_call_depth: usize,
    /// Hard harness cap on call depth, above `max_call_depth`. The
    /// interpreter recurses on the host stack, so a deep-recursion fuzz
    /// program with a raised `max_call_depth` could overflow the *host*
    /// stack; this budget ends the run first with a graceful
    /// `Outcome::BudgetExceeded(Resource::StackDepth)` (not a catchable
    /// guest exception). Default comes from `CSE_STACK_LIMIT` (512 unset).
    pub stack_limit: usize,
    /// Record a `MethodEntry` trace event per call (verbose; only for
    /// small programs / compilation-space enumeration).
    pub record_method_entries: bool,
    /// Maximum trace events retained (guards memory in fuzz campaigns).
    pub max_events: usize,
    /// Seeded bugs.
    pub faults: FaultInjector,
    /// Forced compilation plan (`LVM(P, φ)` from Definition 3.3); `None`
    /// means profile-driven tiering (the default JIT-trace).
    pub plan: Option<ForcedPlan>,
    /// Inline budget: callee bytecode length limit for tier-2 inlining.
    pub inline_limit: usize,
    /// Maximum deopts before a method is permanently interpreted.
    pub max_deopts_per_method: u32,
    /// Wall-clock watchdog: the second line of defense behind the fuel
    /// budget. A run exceeding this limit is forcibly ended with
    /// `Outcome::Timeout` and `stats.watchdog_fired` set, even if an
    /// execution-engine bug burns fuel more slowly than real time (or not
    /// at all). Checked cooperatively inside `burn`, so granularity is
    /// ~256k operations. `None` disables the watchdog.
    pub wall_clock_limit: Option<std::time::Duration>,
    /// Deterministic harness-fault injection: panic once total burned
    /// operations reach this threshold. Exists solely so supervision
    /// tests can exercise panic containment reproducibly; `None` (the
    /// default everywhere) never panics.
    pub chaos_panic_at_ops: Option<u64>,
    /// Static IR verification mode (see [`crate::jit::verify`]). Defaults
    /// to `CSE_VERIFY_IR` (off when unset). Verification never changes
    /// observable behavior; defects are reported out-of-band through
    /// `ExecutionResult::ir_verify` / `ExecStats::ir_verify_defects`.
    pub verify_ir: VerifyMode,
    /// Translation-validation mode (see [`crate::jit::tv`]). Defaults to
    /// `CSE_TV` (off when unset). Validation never changes observable
    /// behavior; defects are reported out-of-band through
    /// `ExecutionResult::tv` / `ExecStats::tv_defects`.
    pub tv: TvMode,
    /// Whether to record JIT-behavior coverage into
    /// `ExecutionResult::coverage` (see [`crate::coverage`]). Off by default
    /// and zero-cost when off: no feature is computed, no digest work
    /// is added. Collection never changes observable behavior.
    pub coverage: bool,
}

impl VmConfig {
    /// Baseline configuration for a VM kind with that kind's *default bug
    /// set seeded* (a realistic buggy production VM).
    pub fn for_kind(kind: VmKind) -> VmConfig {
        let mut config = VmConfig::correct(kind);
        config.faults = FaultInjector::with(BugId::default_set(kind));
        config
    }

    /// Same profile but with *no* seeded bugs (used for substrate
    /// soundness tests and as the differential reference).
    pub fn correct(kind: VmKind) -> VmConfig {
        let tiers = match kind {
            VmKind::HotSpotLike => vec![
                TierThresholds { invocations: 150, backedge: 600 },
                TierThresholds { invocations: 1200, backedge: 3500 },
            ],
            VmKind::OpenJ9Like => vec![
                TierThresholds { invocations: 120, backedge: 550 },
                TierThresholds { invocations: 1000, backedge: 3200 },
            ],
            VmKind::ArtLike => vec![TierThresholds { invocations: 2500, backedge: 2600 }],
        };
        let env = Settings::get();
        VmConfig {
            kind,
            tiers,
            jit_enabled: true,
            fuel: env.fuel,
            gc_interval: 4096,
            max_objects: 1_000_000,
            max_heap_bytes: env.heap_limit,
            max_call_depth: 128,
            stack_limit: env.stack_limit,
            record_method_entries: false,
            max_events: 100_000,
            faults: FaultInjector::none(),
            plan: None,
            inline_limit: 48,
            max_deopts_per_method: 3,
            wall_clock_limit: None,
            chaos_panic_at_ops: None,
            verify_ir: env.verify_ir,
            tv: env.tv,
            coverage: false,
        }
    }

    /// Interpreter-only configuration (`-Xint`): the semantic reference.
    pub fn interpreter_only(kind: VmKind) -> VmConfig {
        let mut config = VmConfig::correct(kind);
        config.jit_enabled = false;
        config
    }

    /// The semantic reference for runs under this configuration: the same
    /// VM with the JIT off and no forced plan, seeded faults, chaos panic
    /// or coverage. Fuel, heap, stack and every other setting are kept,
    /// so a reference run spends the budgets of the VM under test.
    pub fn reference(&self) -> VmConfig {
        VmConfig {
            jit_enabled: false,
            plan: None,
            faults: FaultInjector::none(),
            chaos_panic_at_ops: None,
            coverage: false,
            ..self.clone()
        }
    }

    /// The paper's "traditional approach" baseline: force every method to
    /// be JIT-compiled at the top tier before its first call
    /// (`-Xjit:count=0`, §4.3).
    pub fn force_compile_all(kind: VmKind) -> VmConfig {
        let mut config = VmConfig::for_kind(kind);
        let top = Tier(config.tiers.len() as u8);
        config.plan = Some(ForcedPlan::all(top));
        config
    }

    /// The top JIT tier of this configuration.
    pub fn top_tier(&self) -> Tier {
        Tier(self.tiers.len() as u8)
    }

    /// Replaces the fault set.
    pub fn with_faults(mut self, faults: FaultInjector) -> VmConfig {
        self.faults = faults;
        self
    }

    /// Replaces the forced plan.
    pub fn with_plan(mut self, plan: ForcedPlan) -> VmConfig {
        self.plan = Some(plan);
        self
    }

    /// Replaces the IR verification mode.
    pub fn with_verify_ir(mut self, mode: VerifyMode) -> VmConfig {
        self.verify_ir = mode;
        self
    }

    /// Replaces the translation-validation mode.
    pub fn with_tv(mut self, mode: TvMode) -> VmConfig {
        self.tv = mode;
        self
    }

    /// Enables or disables JIT-behavior coverage collection.
    pub fn with_coverage(mut self, on: bool) -> VmConfig {
        self.coverage = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_tiers() {
        assert_eq!(VmConfig::correct(VmKind::HotSpotLike).tiers.len(), 2);
        assert_eq!(VmConfig::correct(VmKind::OpenJ9Like).tiers.len(), 2);
        assert_eq!(VmConfig::correct(VmKind::ArtLike).tiers.len(), 1);
        assert_eq!(VmConfig::correct(VmKind::HotSpotLike).top_tier(), Tier::T2);
        assert_eq!(VmConfig::correct(VmKind::ArtLike).top_tier(), Tier::T1);
    }

    #[test]
    fn thresholds_increase_with_tier() {
        for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like] {
            let config = VmConfig::correct(kind);
            assert!(config.tiers[0].invocations < config.tiers[1].invocations);
            assert!(config.tiers[0].backedge < config.tiers[1].backedge);
        }
    }

    #[test]
    fn default_config_is_buggy_correct_is_not() {
        assert!(!VmConfig::for_kind(VmKind::OpenJ9Like).faults.is_empty());
        assert!(VmConfig::correct(VmKind::OpenJ9Like).faults.is_empty());
        assert!(!VmConfig::interpreter_only(VmKind::HotSpotLike).jit_enabled);
    }

    #[test]
    fn reference_keeps_budgets_and_drops_the_jit() {
        let mut vm = VmConfig::force_compile_all(VmKind::OpenJ9Like).with_coverage(true);
        vm.fuel = 1234;
        vm.max_heap_bytes = 4096;
        vm.stack_limit = 77;
        vm.chaos_panic_at_ops = Some(9);
        let reference = vm.reference();
        assert_eq!(reference.kind, VmKind::OpenJ9Like);
        assert_eq!(reference.tiers, vm.tiers);
        assert_eq!(
            (reference.fuel, reference.max_heap_bytes, reference.stack_limit),
            (1234, 4096, 77)
        );
        assert!(!reference.jit_enabled);
        assert!(reference.plan.is_none());
        assert!(reference.faults.is_empty());
        assert_eq!(reference.chaos_panic_at_ops, None);
        assert!(!reference.coverage);
    }

    #[test]
    fn force_compile_all_sets_plan() {
        let config = VmConfig::force_compile_all(VmKind::OpenJ9Like);
        assert!(config.plan.is_some());
    }
}
