//! The compilation space modulo LVM — Definitions 3.1–3.3 of the paper.
//!
//! * **Thresholds** (Def 3.1): an LVM's `Z_1 ≤ … ≤ Z_N` split counter
//!   values into `N + 1` temperature bands.
//! * **Temperature** (Def 3.2): a counter `c` has temperature `t_i` iff
//!   `c ∈ [Z_i, Z_{i+1})`; a method's temperature is the max over its
//!   counter set `C_m` (method counter `c_0` + back-edge counters).
//! * **JIT-trace / compilation space** (Def 3.3): the set of
//!   interpreter/JIT interleavings an LVM can produce for a program;
//!   `LVM(P, φ)` — running `P` along a chosen trace — maps onto the VM's
//!   forced plans, and this module enumerates small spaces exhaustively
//!   (the paper's Figure 1).

use cse_bytecode::{BProgram, MethodId};
use cse_vm::{
    ExecMode, ExecutionResult, ForcedPlan, ProgramArtifacts, Tier, TraceEvent, Vm, VmConfig,
};

/// Definition 3.2: the temperature band of a single counter value given
/// the thresholds `Z_1 ≤ … ≤ Z_N`.
///
/// # Examples
///
/// ```
/// use cse_core::space::counter_temperature;
/// use cse_vm::Tier;
///
/// let thresholds = [100, 1000];
/// assert_eq!(counter_temperature(0, &thresholds), Tier(0));
/// assert_eq!(counter_temperature(99, &thresholds), Tier(0));
/// assert_eq!(counter_temperature(100, &thresholds), Tier(1));
/// assert_eq!(counter_temperature(5000, &thresholds), Tier(2));
/// ```
pub fn counter_temperature(counter: u64, thresholds: &[u64]) -> Tier {
    // The thresholds are sorted (Def 3.1: `Z_1 ≤ … ≤ Z_N`), so the band
    // is the partition point — the count of thresholds at or below the
    // counter — rather than a linear scan.
    Tier(thresholds.partition_point(|&z| z <= counter) as u8)
}

/// Definition 3.2: a method's temperature is the maximum over its counter
/// set `C_m = {c_0, c_1, …, c_M}`.
pub fn method_temperature(
    method_counter: u64,
    backedge_counters: &[u64],
    thresholds: &[u64],
) -> Tier {
    let mut temp = counter_temperature(method_counter, thresholds);
    for &c in backedge_counters {
        temp = temp.max(counter_temperature(c, thresholds));
    }
    temp
}

/// The temperature vector `u_m^i` of one method call: how the method's
/// temperature evolved while the call was on stack (e.g. `⟨t0, t1, t0⟩` =
/// entered interpreted, was compiled at level 1, then de-optimized).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemperatureVector {
    pub method: MethodId,
    /// 0-based invocation index of this call.
    pub invocation: u64,
    pub temps: Vec<Tier>,
}

impl std::fmt::Display for TemperatureVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let temps: Vec<String> = self.temps.iter().map(|t| t.to_string()).collect();
        write!(f, "⟨{}⟩^{}_m{}", temps.join(","), self.invocation + 1, self.method.0)
    }
}

/// A JIT-trace: the sequence of temperature vectors of a run
/// (Definition 3.2's "JIT compilation trace").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JitTrace {
    pub vectors: Vec<TemperatureVector>,
}

impl JitTrace {
    /// Reconstructs the JIT-trace from a run's event log. Requires the run
    /// to have been executed with `record_method_entries` enabled;
    /// otherwise only compile/deopt transitions appear (as length-2
    /// vectors at their triggering invocation).
    pub fn from_events(events: &[TraceEvent]) -> JitTrace {
        let mut vectors: Vec<TemperatureVector> = Vec::new();
        for event in events {
            match event {
                TraceEvent::MethodEntry { method, tier, invocation } => {
                    vectors.push(TemperatureVector {
                        method: *method,
                        invocation: *invocation,
                        temps: vec![*tier],
                    });
                }
                TraceEvent::Compiled { method, tier, invocation, .. } => {
                    // Extend the live vector of this method if the entry was
                    // recorded; otherwise synthesize a transition vector.
                    match vectors.iter_mut().rev().find(|v| v.method == *method) {
                        Some(v) if v.invocation + 1 >= *invocation => v.temps.push(*tier),
                        _ => vectors.push(TemperatureVector {
                            method: *method,
                            invocation: invocation.saturating_sub(1),
                            temps: vec![Tier::INTERP, *tier],
                        }),
                    }
                }
                TraceEvent::Deopt { method, invocation, .. } => {
                    match vectors.iter_mut().rev().find(|v| v.method == *method) {
                        Some(v) if v.invocation + 1 >= *invocation => v.temps.push(Tier::INTERP),
                        _ => vectors.push(TemperatureVector {
                            method: *method,
                            invocation: invocation.saturating_sub(1),
                            temps: vec![Tier::INTERP],
                        }),
                    }
                }
                TraceEvent::GcRun { .. } => {}
            }
        }
        JitTrace { vectors }
    }

    /// A compact single-line rendering (`⟨t1⟩^1_m0 → ⟨t0,t1⟩^10_m2 → …`).
    pub fn render(&self) -> String {
        let parts: Vec<String> = self.vectors.iter().map(|v| v.to_string()).collect();
        parts.join(" → ")
    }

    /// Whether two traces describe the same interleaving.
    pub fn same_as(&self, other: &JitTrace) -> bool {
        self.vectors == other.vectors
    }
}

/// One point of an exhaustively enumerated compilation space: the plan's
/// per-call choices plus the run it produced.
#[derive(Debug)]
pub struct SpacePoint {
    /// For each enumerated call: `true` = compiled, `false` = interpreted.
    pub choices: Vec<bool>,
    pub result: ExecutionResult,
}

/// Warmth-aware plan-space pruning policy for [`enumerate_space_with`].
/// [`enumerate_space`] always prunes; `Off` is the exhaustive reference
/// the pruning tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrunePlans {
    On,
    Off,
}

/// Exhaustively explores the compilation space of `program` over the given
/// (method, invocation-index) call sites — the paper's Figure 1, where a
/// 4-call program yields a 16-choice space.
///
/// Each subset of `calls` is forced to compiled execution at the top tier
/// of `base_config` while the rest interpret; calls outside the list run
/// interpreted. Returns all `2^n` points in subset-bitmask order.
///
/// Warmth-aware pruning may serve some points from a proven-identical
/// representative run instead of executing them; see
/// [`enumerate_space_with`].
///
/// # Panics
///
/// Panics when more than 20 call sites are requested (the space would
/// exceed a million runs).
pub fn enumerate_space(
    program: &BProgram,
    calls: &[(MethodId, u64)],
    base_config: &VmConfig,
) -> Vec<SpacePoint> {
    enumerate_space_with(program, calls, base_config, PrunePlans::On)
}

/// [`enumerate_space`] with an explicit pruning policy.
///
/// # How pruning works
///
/// A single profiling pre-run executes the program with every coordinate
/// forced to interpretation (this is exactly point 0's plan, so the run is
/// reused) and records the exact per-method invocation counts
/// ([`cse_vm::Vm::run_with_warmth`]). A coordinate `(m, i)` is *dead* when
/// the reference run invokes `m` fewer than `i + 1` times: no execution of the
/// space ever consults the plan at that coordinate, so the two plans that
/// differ only there are observably identical and share one run.
///
/// # Proof obligation
///
/// Deadness is measured on the all-interpreted run; it transfers to every
/// other plan by *inlining monotonicity*: forcing a method to compiled
/// execution can only remove `call_method` entries (inlined callees are
/// never counted; de-optimization re-enters the frame without re-counting),
/// never add them — so the interpreted run's invocation counts are
/// point-wise maximal over the space, **as long as compiled execution is
/// semantically faithful**. An injected compile-time bug can break
/// faithfulness (a miscompiled branch may steer execution into calls the
/// reference run never made), which is why the pruning property tests
/// check pruned and exhaustive enumerations for bit-identity.
/// Pruned points clone their representative's [`ExecutionResult`], so
/// pruned and exhaustive output are bit-identical whenever the obligation
/// holds.
pub fn enumerate_space_with(
    program: &BProgram,
    calls: &[(MethodId, u64)],
    base_config: &VmConfig,
    prune: PrunePlans,
) -> Vec<SpacePoint> {
    assert!(calls.len() <= 20, "space of 2^{} is too large to enumerate", calls.len());
    let top = base_config.top_tier();
    // The `2^n` points all execute the same program and differ only in
    // their forced plan — which is not a compilation input — so one set
    // of shared artifacts serves the whole space: a method force-compiled
    // by many plans is compiled once.
    let cache = ProgramArtifacts::for_program(program);
    let total: u32 = 1 << calls.len();
    let run_mask = |mask: u32| {
        let mut plan = ForcedPlan::all_interpreted();
        for (bit, &(method, invocation)) in calls.iter().enumerate() {
            let compiled = mask & (1 << bit) != 0;
            let mode = if compiled { ExecMode::Compiled(top) } else { ExecMode::Interpret };
            plan.set(method, invocation, mode);
        }
        let mut config = base_config.clone();
        config.plan = Some(plan);
        config.record_method_entries = true;
        (program, config)
    };
    let choices_of =
        |mask: u32| (0..calls.len()).map(|bit| mask & (1 << bit) != 0).collect::<Vec<bool>>();

    if prune == PrunePlans::Off {
        return (0..total)
            .map(|mask| {
                let (program, config) = run_mask(mask);
                let result = Vm::new(program, config).with_artifacts(&cache).run();
                SpacePoint { choices: choices_of(mask), result }
            })
            .collect();
    }

    // Profiling pre-run = point 0 (every coordinate interpreted).
    let (zero_result, invocations) = {
        let (program, config) = run_mask(0);
        Vm::new(program, config).with_artifacts(&cache).run_with_warmth()
    };
    // Bits whose coordinate the reference run never reaches; plans
    // differing only on these bits are observably identical.
    let mut dead_mask: u32 = 0;
    for (bit, &(method, invocation)) in calls.iter().enumerate() {
        if invocation >= invocations[method.0 as usize] {
            dead_mask |= 1 << bit;
        }
    }
    let mut canonical: std::collections::HashMap<u32, ExecutionResult> =
        std::collections::HashMap::new();
    canonical.insert(0, zero_result);
    (0..total)
        .map(|mask| {
            let canon = mask & !dead_mask;
            // Canonical masks are visited before any mask they represent
            // (clearing bits never increases the value), so the entry
            // below is vacant only when `mask` is itself canonical.
            let result = canonical.entry(canon).or_insert_with(|| {
                let (program, config) = run_mask(canon);
                Vm::new(program, config).with_artifacts(&cache).run()
            });
            SpacePoint { choices: choices_of(mask), result: result.clone() }
        })
        .collect()
}

/// One space point rendered for bit-exact comparison between pruned and
/// exhaustive enumerations.
///
/// `code_cache_hits` is masked out: it measures shared-cache
/// *temperature*, which depends on which earlier points of the sweep
/// already compiled a method — pruning legitimately changes that (a hit
/// is observably identical to a compile by the cache's soundness
/// contract). Everything else — choices, observable, trace events, the
/// remaining stats — must match exactly.
fn render_point(p: &SpacePoint) -> String {
    let mut stats = p.result.stats;
    stats.code_cache_hits = 0;
    format!("{:?} {} {:?} {stats:?}", p.choices, p.result.observable(), p.result.events)
}

/// A stable FNV-1a digest of an enumerated space, for cross-checking
/// that pruned and exhaustive enumerations are bit-identical (see
/// [`enumerate_space_with`]'s proof obligation). Rendering masks
/// `code_cache_hits`; see `render_point`.
pub fn space_digest(points: &[SpacePoint]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for point in points {
        for byte in render_point(point).bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Cross-validates an enumerated space: `Some((i, j))` returns the first
/// pair of points whose observable behavior differs (a JIT-compiler bug by
/// §3.2's oracle), `None` when the space is consistent.
pub fn find_space_discrepancy(points: &[SpacePoint]) -> Option<(usize, usize)> {
    let first = points.first()?;
    for (j, point) in points.iter().enumerate().skip(1) {
        if point.result.observable() != first.result.observable() {
            return Some((0, j));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cse_vm::VmKind;

    #[test]
    fn temperature_bands_follow_definition() {
        let z = [10, 100, 1000];
        assert_eq!(counter_temperature(0, &z), Tier(0));
        assert_eq!(counter_temperature(9, &z), Tier(0));
        assert_eq!(counter_temperature(10, &z), Tier(1));
        assert_eq!(counter_temperature(999, &z), Tier(2));
        assert_eq!(counter_temperature(1000, &z), Tier(3));
        assert_eq!(counter_temperature(u64::MAX, &z), Tier(3));
    }

    #[test]
    fn temperature_boundaries() {
        // No thresholds: one band, everything is t0.
        assert_eq!(counter_temperature(0, &[]), Tier(0));
        assert_eq!(counter_temperature(u64::MAX, &[]), Tier(0));
        // Duplicate thresholds collapse bands: Z = [10, 10] jumps t0 → t2.
        assert_eq!(counter_temperature(9, &[10, 10]), Tier(0));
        assert_eq!(counter_temperature(10, &[10, 10]), Tier(2));
        // A zero threshold makes t0 unreachable.
        assert_eq!(counter_temperature(0, &[0, 100]), Tier(1));
        // Extreme thresholds and counters.
        assert_eq!(counter_temperature(u64::MAX - 1, &[u64::MAX]), Tier(0));
        assert_eq!(counter_temperature(u64::MAX, &[u64::MAX]), Tier(1));
    }

    #[test]
    fn partition_point_matches_linear_scan() {
        // The reference implementation of Definition 3.2, kept as an
        // executable spec for the partition-point version.
        fn linear(counter: u64, thresholds: &[u64]) -> Tier {
            let mut temp = 0u8;
            for (i, &z) in thresholds.iter().enumerate() {
                if counter >= z {
                    temp = i as u8 + 1;
                }
            }
            Tier(temp)
        }
        let threshold_sets: [&[u64]; 5] =
            [&[], &[10], &[10, 100, 1000], &[5, 5, 5], &[0, 1, 2, 3, u64::MAX]];
        for thresholds in threshold_sets {
            for c in (0..12).chain([99, 100, 101, 999, 1000, 1001, u64::MAX - 1, u64::MAX]) {
                assert_eq!(
                    counter_temperature(c, thresholds),
                    linear(c, thresholds),
                    "c={c}, Z={thresholds:?}"
                );
            }
        }
    }

    #[test]
    fn temperature_is_total_order() {
        let z = [10, 100];
        for c in 0..200u64 {
            assert!(counter_temperature(c, &z) <= counter_temperature(c + 1, &z));
        }
    }

    #[test]
    fn method_temperature_is_max_of_counters() {
        let z = [10, 100];
        assert_eq!(method_temperature(5, &[3, 7], &z), Tier(0));
        assert_eq!(method_temperature(5, &[50, 7], &z), Tier(1));
        assert_eq!(method_temperature(500, &[3], &z), Tier(2));
    }

    fn figure1_program() -> BProgram {
        // The paper's Figure 1 program: main calls foo, foo calls bar and
        // baz, and the answer is always 3.
        let src = r#"
            class T {
                static int baz() { return 1; }
                static int bar() { return 2; }
                static int foo() { return bar() + baz(); }
                static void main() { println(foo()); }
            }
        "#;
        let program = cse_lang::parse_and_check(src).unwrap();
        cse_bytecode::compile(&program).unwrap()
    }

    #[test]
    fn figure1_space_has_sixteen_consistent_points() {
        let program = figure1_program();
        let calls = vec![
            (program.find_method("T", "main").unwrap(), 0),
            (program.find_method("T", "foo").unwrap(), 0),
            (program.find_method("T", "bar").unwrap(), 0),
            (program.find_method("T", "baz").unwrap(), 0),
        ];
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let points = enumerate_space(&program, &calls, &config);
        assert_eq!(points.len(), 16);
        for point in &points {
            assert_eq!(point.result.output, "3\n", "choice {:?}", point.choices);
        }
        assert_eq!(find_space_discrepancy(&points), None);
    }

    #[test]
    fn space_points_produce_distinct_traces() {
        let program = figure1_program();
        let calls = vec![
            (program.find_method("T", "foo").unwrap(), 0),
            (program.find_method("T", "bar").unwrap(), 0),
        ];
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let points = enumerate_space(&program, &calls, &config);
        let traces: Vec<JitTrace> =
            points.iter().map(|p| JitTrace::from_events(&p.result.events)).collect();
        // All four interleavings must be pairwise distinct JIT-traces.
        for i in 0..traces.len() {
            for j in (i + 1)..traces.len() {
                assert!(!traces[i].same_as(&traces[j]), "points {i} and {j} collide");
            }
        }
    }

    /// Per-point [`render_point`] lines (better assertion diffs than the
    /// [`space_digest`] scalar).
    fn render_points(points: &[SpacePoint]) -> Vec<String> {
        points.iter().map(render_point).collect()
    }

    #[test]
    fn pruned_space_is_bit_identical_to_exhaustive() {
        let program = figure1_program();
        let bar = program.find_method("T", "bar").unwrap();
        let foo = program.find_method("T", "foo").unwrap();
        // (bar, 7) and (foo, 3) are dead: each method is called once.
        let calls = vec![
            (foo, 0),
            (bar, 0),
            (bar, 7),
            (foo, 3),
            (program.find_method("T", "baz").unwrap(), 0),
        ];
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let pruned = enumerate_space_with(&program, &calls, &config, PrunePlans::On);
        let exhaustive = enumerate_space_with(&program, &calls, &config, PrunePlans::Off);
        assert_eq!(pruned.len(), 32);
        assert_eq!(render_points(&pruned), render_points(&exhaustive));
    }

    #[test]
    fn pruning_with_all_live_coordinates_is_identity() {
        let program = figure1_program();
        let calls = vec![
            (program.find_method("T", "foo").unwrap(), 0),
            (program.find_method("T", "bar").unwrap(), 0),
        ];
        let config = VmConfig::correct(VmKind::HotSpotLike);
        let pruned = enumerate_space_with(&program, &calls, &config, PrunePlans::On);
        let exhaustive = enumerate_space_with(&program, &calls, &config, PrunePlans::Off);
        assert_eq!(render_points(&pruned), render_points(&exhaustive));
    }

    #[test]
    fn trace_rendering_is_compact() {
        let trace = JitTrace {
            vectors: vec![TemperatureVector {
                method: MethodId(3),
                invocation: 9,
                temps: vec![Tier(0), Tier(1), Tier(0)],
            }],
        };
        assert_eq!(trace.render(), "⟨t0,t1,t0⟩^10_m3");
    }
}
