//! Benchmark harnesses reproducing every table and figure of the paper's
//! evaluation (§4), plus the ablations called out in `DESIGN.md`.
//!
//! Each `src/bin/` binary regenerates one table or figure and prints rows
//! in the paper's layout; `EXPERIMENTS.md` records paper-vs-measured for
//! each. Campaign sizes default to laptop-friendly values and scale with
//! the `CSE_SEEDS` environment variable.

#![forbid(unsafe_code)]

use cse_vm::{Settings, VmKind};

/// Supervision settings from the environment, shared by the table
/// binaries: `CSE_CHECKPOINT_DIR` (checkpoint per profile, resume on
/// restart), `CSE_QUARANTINE_DIR` (crash/panic repro files), and
/// `CSE_DEADLINE_SECS` (global wall-clock budget; expired campaigns
/// print partial totals and resume from their checkpoint next run).
pub fn supervisor_from_env(profile: &str) -> cse_core::SupervisorConfig {
    let env = Settings::get();
    let mut sup = cse_core::SupervisorConfig::default();
    if let Some(dir) = &env.checkpoint_dir {
        sup.checkpoint_path = Some(dir.join(format!("{profile}.checkpoint")));
        sup.checkpoint_every = 16;
    }
    if let Some(dir) = &env.quarantine_dir {
        sup.quarantine_dir = Some(dir.join(profile));
    }
    sup.deadline = env.deadline_secs.map(std::time::Duration::from_secs);
    sup
}

/// Seeds per campaign: `CSE_SEEDS`, or `default` when it is unset.
pub fn campaign_seeds(default: u64) -> u64 {
    Settings::get().seeds.unwrap_or(default)
}

/// All VM profiles in paper order.
pub const ALL_KINDS: [VmKind; 3] = [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike];

/// Prints a fixed-width table row.
pub fn row(cells: &[&str], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:>width$}  "));
    }
    out.trim_end().to_string()
}

/// The paper's Figure 2 seed: cold nested-loop/switch byte accumulation.
/// (An extra outer repetition loop inside `g()` stands in for the paper's
/// larger surrounding program; see `EXPERIMENTS.md`.)
pub const FIG2_SEED: &str = r#"
class T {
    byte l = 0;
    int[] k = new int[] { 80, 41, 60, 81 };
    void g() {
        for (int r = 0; r < 2; r++) {
            for (int zz = 0; zz < this.k.length; zz++) {
                int m = this.k[zz];
                switch ((m >>> 1) % 10 + 36) {
                    case 36:
                        l += 2;
                    case 40: break;
                    case 41: k[1] = 9;
                }
            }
        }
    }
    void o() { g(); }
    void p() {
        for (int q = 2; q < 5; q++) {
            o();
        }
        println(l);
    }
    static void main() {
        T t = new T();
        t.p();
        t.p();
    }
}
"#;

/// The paper's Figure 2 mutant: Artemis-style insertions highlighted in
/// the paper — the control flag `z` with an early-return prologue in
/// `o()`, the 9,676-iteration pre-invocation loop, and the hot strided
/// loop inside the `case 36:` arm.
pub const FIG2_MUTANT: &str = r#"
class T {
    static boolean z = false;
    byte l = 0;
    int[] k = new int[] { 80, 41, 60, 81 };
    void g() {
        for (int r = 0; r < 2; r++) {
            for (int zz = 0; zz < this.k.length; zz++) {
                int m = this.k[zz];
                switch ((m >>> 1) % 10 + 36) {
                    case 36:
                        for (int w = -2967; w < 4342; w += 4) { }
                        l += 2;
                    case 40: break;
                    case 41: k[1] = 9;
                }
            }
        }
    }
    void o() {
        if (T.z) { return; }
        g();
    }
    void p() {
        for (int q = 2; q < 5; q++) {
            T.z = true;
            for (int u = 0; u < 9676; u++) {
                o();
            }
            T.z = false;
            o();
        }
        println(l);
    }
    static void main() {
        T t = new T();
        t.p();
        t.p();
    }
}
"#;

/// A deterministic exhibit for the performance-bug class
/// ([`cse_vm::BugId::HsPerfQuadraticLoop`]): a nested loop with a switch,
/// hot enough for tier 2. On the buggy VM the "optimized" code re-does
/// quadratic work; the paper's single performance bug ("the process is
/// killed on Ubuntu / noticeably slow") maps onto a Timeout outcome or an
/// operation-count blowup.
pub const PERF_EXHIBIT: &str = r#"
class T {
    static long sink = 0L;
    static void churn(int x) {
        for (int i = 0; i < 12; i++) {
            for (int j = 0; j < 10; j++) {
                switch ((i + j + x) % 5) {
                    case 0: T.sink += 1; break;
                    case 1: T.sink ^= 3; break;
                    default: T.sink -= 1;
                }
            }
        }
    }
    static void main() {
        for (int r = 0; r < 12000; r++) {
            churn(r);
        }
        println(T.sink);
    }
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_sources_are_valid() {
        cse_lang::parse_and_check(FIG2_SEED).unwrap();
        cse_lang::parse_and_check(FIG2_MUTANT).unwrap();
    }

    #[test]
    fn fig2_mutant_is_neutral_under_the_interpreter() {
        use cse_core::validate::compile_checked;
        use cse_vm::{Vm, VmConfig, VmKind};
        let seed = cse_lang::parse_and_check(FIG2_SEED).unwrap();
        let mutant = cse_lang::parse_and_check(FIG2_MUTANT).unwrap();
        let seed_run = Vm::run_program(
            &compile_checked(&seed),
            VmConfig::interpreter_only(VmKind::HotSpotLike),
        );
        let mutant_run = Vm::run_program(
            &compile_checked(&mutant),
            VmConfig::interpreter_only(VmKind::HotSpotLike),
        );
        assert_eq!(seed_run.output, mutant_run.output);
    }

    #[test]
    fn performance_bug_class_manifests() {
        use cse_core::validate::compile_checked;
        use cse_vm::{BugId, FaultInjector, Outcome, Vm, VmConfig, VmKind};
        let program = cse_lang::parse_and_check(PERF_EXHIBIT).unwrap();
        let bc = compile_checked(&program);
        let clean = Vm::run_program(&bc, VmConfig::correct(VmKind::HotSpotLike));
        assert!(clean.outcome.is_completed());
        let buggy_vm = VmConfig::correct(VmKind::HotSpotLike)
            .with_faults(FaultInjector::with([BugId::HsPerfQuadraticLoop]));
        let buggy = Vm::run_program(&bc, buggy_vm);
        let blown_up = matches!(buggy.outcome, Outcome::Timeout)
            || buggy.stats.total_ops() > clean.stats.total_ops() * 10;
        assert!(
            blown_up,
            "the perf bug must slow compiled code dramatically: {} vs {} ops",
            buggy.stats.total_ops(),
            clean.stats.total_ops()
        );
    }

    #[test]
    fn fig2_bug_reproduces_on_the_buggy_vm() {
        use cse_core::validate::compile_checked;
        use cse_vm::{BugId, FaultInjector, Vm, VmConfig, VmKind};
        let seed = cse_lang::parse_and_check(FIG2_SEED).unwrap();
        let mutant = cse_lang::parse_and_check(FIG2_MUTANT).unwrap();
        let vm = VmConfig::correct(VmKind::HotSpotLike)
            .with_faults(FaultInjector::with([BugId::HsGcmStoreSink]));
        let seed_run = Vm::run_program(&compile_checked(&seed), vm.clone());
        let mutant_run = Vm::run_program(&compile_checked(&mutant), vm.clone());
        assert_ne!(
            seed_run.output, mutant_run.output,
            "the GCM store sink must corrupt the mutant's byte accumulator"
        );
        // With the bug disabled, seed and mutant agree again.
        let correct = VmConfig::correct(VmKind::HotSpotLike);
        let fixed_run = Vm::run_program(&compile_checked(&mutant), correct);
        assert_eq!(seed_run.output, fixed_run.output);
    }
}
