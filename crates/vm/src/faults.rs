//! The injected-bug catalog.
//!
//! The paper evaluates Artemis against production JVMs whose JIT compilers
//! contain real bugs. An offline reproduction needs JIT compilers with
//! *known* bugs, so each VM profile ships a catalog of seeded defects
//! modeled on the bug classes the paper reports (Table 2): ideal-loop
//! optimization, global value numbering, global code motion (the Figure 2
//! `JDK-8288975` store-sinking bug), escape analysis, register allocation,
//! code generation, GC crashes caused by JIT heap corruption, and so on.
//!
//! Every bug has a *component* (Table 2 row), a *symptom* (Table 1 row:
//! mis-compilation / crash / performance), and a structural *trigger*
//! implemented inside the corresponding optimization pass. Campaign
//! statistics can therefore be deduplicated against ground truth, exactly
//! like the paper's "Duplicate" accounting.

use std::collections::BTreeSet;

/// JIT compiler components, following Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    // HotSpot-like components.
    InliningC1,
    IdealGraphBuilding,
    IdealLoopOptimization,
    GlobalConstantPropagation,
    GlobalValueNumbering,
    EscapeAnalysis,
    GlobalCodeMotion,
    RegisterAllocation,
    CodeGeneration,
    CodeExecution,
    // OpenJ9-like components.
    LocalValuePropagation,
    GlobalValuePropagation,
    LoopVectorization,
    Deoptimization,
    Recompilation,
    OtherJitComponents,
    GarbageCollection,
    // ART-like component.
    OptimizingCompiler,
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Component::InliningC1 => "Inlining, C1",
            Component::IdealGraphBuilding => "Ideal Graph Building, C2",
            Component::IdealLoopOptimization => "Ideal Loop Optimizat., C2",
            Component::GlobalConstantPropagation => "Global Constant Prop., C2",
            Component::GlobalValueNumbering => "Global Value Number., C2",
            Component::EscapeAnalysis => "Escape Analysis, C2",
            Component::GlobalCodeMotion => "Global Code Motion, C2",
            Component::RegisterAllocation => "Register Allocation",
            Component::CodeGeneration => "Code Generation",
            Component::CodeExecution => "Code Execution",
            Component::LocalValuePropagation => "Local Value Propa.",
            Component::GlobalValuePropagation => "Global Value Propa.",
            Component::LoopVectorization => "Loop Vectorization",
            Component::Deoptimization => "De-optimization",
            Component::Recompilation => "Recompilation",
            Component::OtherJitComponents => "Other JIT Compone.",
            Component::GarbageCollection => "Garbage Collection",
            Component::OptimizingCompiler => "OptimizingCompiler",
        };
        f.write_str(name)
    }
}

/// Bug symptom classes (the paper's Table 1 "Types of reported bugs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Symptom {
    MisCompilation,
    Crash,
    Performance,
}

/// Every injected bug, named after its rough real-world inspiration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BugId {
    // ---- HotSpot-like tier-2 ("C2") bugs --------------------------------
    /// Inlining (C1): asserts when inlining a callee that declares its own
    /// exception handler.
    HsInlineHandlerAssert,
    /// Ideal graph building: asserts on methods whose loop nesting is ≥ 3
    /// with a switch inside the innermost loop.
    HsGraphDeepLoops,
    /// Ideal graph building: asserts when a method grows beyond a block
    /// budget after inlining.
    HsGraphBlockBudget,
    /// Ideal loop optimization: asserts when unrolling a countable loop
    /// with step > 1 and a negative initial bound.
    HsLoopUnrollStep,
    /// Ideal loop optimization: LICM hoists a field load out of a loop that
    /// stores to the same field inside a `try` handler (alias check ignores
    /// exceptional edges) — mis-compilation.
    HsLicmAliasedLoad,
    /// Global code motion sinks a field read-modify-write into a deeper
    /// loop whose estimated frequency ties with its home block — the
    /// JDK-8288975 analog from the paper's Figure 2. Mis-compilation.
    HsGcmStoreSink,
    /// GVN: array loads separated by a store to the same array are
    /// value-numbered as equal when the store's index "cannot alias" by a
    /// mod-256 comparison — mis-compilation.
    HsGvnArrayAlias,
    /// GVN: asserts when the value table grows past a budget while
    /// numbering long-typed expressions.
    HsGvnTableAssert,
    /// Escape analysis: asserts when a fresh allocation is stored to a
    /// field inside a loop.
    HsEscapeLoopStore,
    /// Register allocation: asserts when live values exceed the allocator's
    /// register budget.
    HsRegAllocPressure,
    /// Code generation: asserts lowering a multi-dimensional allocation
    /// inside a loop.
    HsCodegenMultiArray,
    /// Compiled code crashes (SIGSEGV) executing a narrowing conversion
    /// fed by a field load in tier-2 code.
    HsCodeExecNarrowSegv,
    /// Global constant propagation folds `x % c` with the sign convention
    /// of Euclidean remainder — mis-compilation.
    HsConstPropRemSign,
    /// Tier-2 code of a loop containing a switch re-executes loop bodies
    /// quadratically — performance bug.
    HsPerfQuadraticLoop,

    // ---- OpenJ9-like bugs ------------------------------------------------
    /// Local value propagation asserts on blocks with many constants.
    J9LocalVpConstAssert,
    /// Global value propagation: `(x >>> 0)` range-analyzed as `< 2^31`,
    /// folding a comparison — mis-compilation.
    J9GlobalVpShiftRange,
    /// Global value propagation asserts when propagating through a loop
    /// `phi` of a byte-typed value.
    J9GlobalVpByteAssert,
    /// Loop vectorizer asserts on stride-1 array loops with mixed widths.
    J9LoopVecMixedWidth,
    /// De-optimization restores the highest-numbered local from a stale
    /// value — mis-compilation visible only after a deopt.
    J9DeoptStaleLocal,
    /// Register allocation asserts under long-pressure.
    J9RegAllocLongPressure,
    /// Code generation asserts lowering `long` multiplication fed by OSR
    /// entry state.
    J9CodegenLongMul,
    /// Code generation asserts lowering string concatenation in a loop.
    J9CodegenConcatLoop,
    /// Recompilation asserts when a tier-1 method with a live OSR body is
    /// promoted to tier 2.
    J9RecompOsrPromote,
    /// JIT/interpreter interaction ("other"): asserts when compiled code
    /// calls back into an interpreted callee more than a budget.
    J9JitIntCallAssert,
    /// Synchronization stub ("other"): asserts on deeply nested try
    /// regions in tier-2 code.
    J9OtherNestedTry,
    /// Tier-2 allocation sinking writes past the end of an object; the
    /// *garbage collector* crashes at the next collection (the paper's
    /// dominant OpenJ9 crash class).
    J9GcCorruptAllocSink,
    /// Unrolled allocation corrupts a reference array — GC crash.
    J9GcCorruptUnrollAlloc,
    /// Scalarized object re-materialization writes a wild reference — GC
    /// crash.
    J9GcCorruptRematerialize,

    // ---- ART-like bugs -----------------------------------------------------
    /// OptimizingCompiler asserts building methods with ≥ 2 handlers.
    ArtOptCompHandlerAssert,
    /// Method-JIT folds `(x ^ -1)` to `-x` for byte-typed field loads —
    /// mis-compilation.
    ArtOptCompXorFold,
    /// OSR entry transfers locals with an off-by-one when the frame holds
    /// two or more `long` locals — mis-compilation.
    ArtOsrLongTransfer,
    /// OptimizingCompiler asserts on switches with > 8 arms.
    ArtOptCompSwitchAssert,
}

impl BugId {
    /// The affected JIT component (Table 2 classification).
    pub fn component(self) -> Component {
        use BugId::*;
        match self {
            HsInlineHandlerAssert => Component::InliningC1,
            HsGraphDeepLoops | HsGraphBlockBudget => Component::IdealGraphBuilding,
            HsLoopUnrollStep | HsLicmAliasedLoad | HsPerfQuadraticLoop => {
                Component::IdealLoopOptimization
            }
            HsGcmStoreSink => Component::GlobalCodeMotion,
            HsGvnArrayAlias | HsGvnTableAssert => Component::GlobalValueNumbering,
            HsEscapeLoopStore => Component::EscapeAnalysis,
            HsRegAllocPressure => Component::RegisterAllocation,
            HsCodegenMultiArray => Component::CodeGeneration,
            HsCodeExecNarrowSegv => Component::CodeExecution,
            HsConstPropRemSign => Component::GlobalConstantPropagation,
            J9LocalVpConstAssert => Component::LocalValuePropagation,
            J9GlobalVpShiftRange | J9GlobalVpByteAssert => Component::GlobalValuePropagation,
            J9LoopVecMixedWidth => Component::LoopVectorization,
            J9DeoptStaleLocal => Component::Deoptimization,
            J9RegAllocLongPressure => Component::RegisterAllocation,
            J9CodegenLongMul | J9CodegenConcatLoop => Component::CodeGeneration,
            J9RecompOsrPromote => Component::Recompilation,
            J9JitIntCallAssert | J9OtherNestedTry => Component::OtherJitComponents,
            J9GcCorruptAllocSink | J9GcCorruptUnrollAlloc | J9GcCorruptRematerialize => {
                Component::GarbageCollection
            }
            ArtOptCompHandlerAssert
            | ArtOptCompXorFold
            | ArtOsrLongTransfer
            | ArtOptCompSwitchAssert => Component::OptimizingCompiler,
        }
    }

    /// The symptom class (Table 1 classification).
    pub fn symptom(self) -> Symptom {
        use BugId::*;
        match self {
            HsLicmAliasedLoad | HsGcmStoreSink | HsGvnArrayAlias | HsConstPropRemSign
            | J9GlobalVpShiftRange | J9DeoptStaleLocal | ArtOptCompXorFold | ArtOsrLongTransfer => {
                Symptom::MisCompilation
            }
            HsPerfQuadraticLoop => Symptom::Performance,
            _ => Symptom::Crash,
        }
    }

    /// All catalogued bugs.
    pub fn all() -> &'static [BugId] {
        use BugId::*;
        &[
            HsInlineHandlerAssert,
            HsGraphDeepLoops,
            HsGraphBlockBudget,
            HsLoopUnrollStep,
            HsLicmAliasedLoad,
            HsGcmStoreSink,
            HsGvnArrayAlias,
            HsGvnTableAssert,
            HsEscapeLoopStore,
            HsRegAllocPressure,
            HsCodegenMultiArray,
            HsCodeExecNarrowSegv,
            HsConstPropRemSign,
            HsPerfQuadraticLoop,
            J9LocalVpConstAssert,
            J9GlobalVpShiftRange,
            J9GlobalVpByteAssert,
            J9LoopVecMixedWidth,
            J9DeoptStaleLocal,
            J9RegAllocLongPressure,
            J9CodegenLongMul,
            J9CodegenConcatLoop,
            J9RecompOsrPromote,
            J9JitIntCallAssert,
            J9OtherNestedTry,
            J9GcCorruptAllocSink,
            J9GcCorruptUnrollAlloc,
            J9GcCorruptRematerialize,
            ArtOptCompHandlerAssert,
            ArtOptCompXorFold,
            ArtOsrLongTransfer,
            ArtOptCompSwitchAssert,
        ]
    }

    /// The default seeded-bug set of each VM profile.
    pub fn default_set(kind: crate::config::VmKind) -> BTreeSet<BugId> {
        use BugId::*;
        let bugs: &[BugId] = match kind {
            crate::config::VmKind::HotSpotLike => &[
                HsInlineHandlerAssert,
                HsGraphDeepLoops,
                HsGraphBlockBudget,
                HsLoopUnrollStep,
                HsLicmAliasedLoad,
                HsGcmStoreSink,
                HsGvnArrayAlias,
                HsGvnTableAssert,
                HsEscapeLoopStore,
                HsRegAllocPressure,
                HsCodegenMultiArray,
                HsCodeExecNarrowSegv,
                HsConstPropRemSign,
                HsPerfQuadraticLoop,
            ],
            crate::config::VmKind::OpenJ9Like => &[
                J9LocalVpConstAssert,
                J9GlobalVpShiftRange,
                J9GlobalVpByteAssert,
                J9LoopVecMixedWidth,
                J9DeoptStaleLocal,
                J9RegAllocLongPressure,
                J9CodegenLongMul,
                J9CodegenConcatLoop,
                J9RecompOsrPromote,
                J9JitIntCallAssert,
                J9OtherNestedTry,
                J9GcCorruptAllocSink,
                J9GcCorruptUnrollAlloc,
                J9GcCorruptRematerialize,
            ],
            crate::config::VmKind::ArtLike => &[
                ArtOptCompHandlerAssert,
                ArtOptCompXorFold,
                ArtOsrLongTransfer,
                ArtOptCompSwitchAssert,
            ],
        };
        bugs.iter().copied().collect()
    }
}

/// The set of bugs active in a VM instance.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    active: BTreeSet<BugId>,
}

impl FaultInjector {
    /// No injected bugs (a "correct" VM — the substrate-soundness baseline).
    pub fn none() -> FaultInjector {
        FaultInjector::default()
    }

    /// Injector with exactly the given bugs.
    pub fn with(bugs: impl IntoIterator<Item = BugId>) -> FaultInjector {
        FaultInjector { active: bugs.into_iter().collect() }
    }

    /// Whether a bug is active.
    pub fn active(&self, bug: BugId) -> bool {
        self.active.contains(&bug)
    }

    /// Active bug set.
    pub fn bugs(&self) -> impl Iterator<Item = BugId> + '_ {
        self.active.iter().copied()
    }

    /// Whether no bugs are seeded.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Order-stable fingerprint of the active bug set (the `BTreeSet`
    /// iterates in `BugId` order). Part of the JIT code-cache key: buggy
    /// passes compile differently depending on which bugs are seeded, so
    /// code compiled under one fault set must never be reused under
    /// another.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = cse_bytecode::Fnv::new();
        fp.u64(self.active.len() as u64);
        for &bug in &self.active {
            fp.u64(bug as u64);
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VmKind;

    #[test]
    fn every_bug_has_component_and_symptom() {
        for &bug in BugId::all() {
            let _ = bug.component();
            let _ = bug.symptom();
        }
        assert!(BugId::all().len() >= 30);
    }

    #[test]
    fn default_sets_are_disjoint_and_nonempty() {
        let hs = BugId::default_set(VmKind::HotSpotLike);
        let j9 = BugId::default_set(VmKind::OpenJ9Like);
        let art = BugId::default_set(VmKind::ArtLike);
        assert!(!hs.is_empty() && !j9.is_empty() && !art.is_empty());
        assert!(hs.intersection(&j9).count() == 0);
        assert!(hs.intersection(&art).count() == 0);
        assert!(j9.intersection(&art).count() == 0);
        assert_eq!(hs.len() + j9.len() + art.len(), BugId::all().len());
    }

    #[test]
    fn symptom_mix_matches_paper_shape() {
        // The paper's Table 1: crashes dominate, >20% mis-compilations,
        // exactly one performance bug (HotSpot).
        let all = BugId::all();
        let miscomp = all.iter().filter(|b| b.symptom() == Symptom::MisCompilation).count();
        let crash = all.iter().filter(|b| b.symptom() == Symptom::Crash).count();
        let perf = all.iter().filter(|b| b.symptom() == Symptom::Performance).count();
        assert!(crash > miscomp);
        assert!(miscomp * 5 >= all.len(), "at least ~20% mis-compilations");
        assert_eq!(perf, 1);
    }

    #[test]
    fn gc_bugs_are_openj9_flavored() {
        for &bug in BugId::all() {
            if bug.component() == Component::GarbageCollection {
                assert!(BugId::default_set(VmKind::OpenJ9Like).contains(&bug));
            }
        }
    }

    #[test]
    fn injector_activation() {
        let inj = FaultInjector::with([BugId::HsGcmStoreSink]);
        assert!(inj.active(BugId::HsGcmStoreSink));
        assert!(!inj.active(BugId::HsGvnArrayAlias));
        assert!(FaultInjector::none().is_empty());
    }
}
