//! Panic-contained VM entry point.
//!
//! The VM substrate deliberately hosts seeded bugs, and harness bugs (in
//! the mutators, the fuzzer, or the VM itself) are a fact of life in
//! long campaigns. `supervised_run` is the crash barrier: it converts a
//! panic anywhere inside `Vm::run_program` into a structured [`VmPanic`]
//! value instead of tearing down the whole campaign, and suppresses the
//! default stderr backtrace spew for panics it contains (panics on other
//! threads, or outside the supervisor, still report normally).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use cse_bytecode::BProgram;

use crate::exec::ExecutionResult;
use crate::{Vm, VmConfig};

/// A contained VM panic: the payload of a `panic!` that unwound out of
/// `Vm::run_program`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmPanic {
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub payload: String,
}

impl std::fmt::Display for VmPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VM panicked: {}", self.payload)
    }
}

thread_local! {
    /// True while this thread is inside a supervised run; makes the
    /// process-wide panic hook stay quiet for panics we are about to
    /// catch.
    static CONTAINING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CONTAINING.with(|c| c.get()) {
                previous(info);
            }
        }));
    });
}

fn payload_to_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f` with panics contained: `Err(VmPanic)` instead of an unwind,
/// and no default panic-hook output for the contained panic.
///
/// This is the generic barrier; [`supervised_run`] is the VM-specific
/// entry point. Exposed so harness layers (mutation, compilation) can
/// reuse the same containment.
pub fn contain_panics<T>(f: impl FnOnce() -> T) -> Result<T, VmPanic> {
    install_quiet_hook();
    let was = CONTAINING.with(|c| c.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CONTAINING.with(|c| c.set(was));
    result.map_err(|payload| VmPanic { payload: payload_to_string(payload.as_ref()) })
}

/// [`Vm::run_program`] behind the crash barrier.
pub fn supervised_run(program: &BProgram, config: VmConfig) -> Result<ExecutionResult, VmPanic> {
    contain_panics(|| Vm::run_program(program, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmKind;

    const LOOPY: &str = r#"
    class T {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 100000; i++) { acc = acc + i; }
            println(acc);
        }
    }
    "#;

    fn compile(source: &str) -> BProgram {
        let mut program = cse_lang::parse(source).unwrap();
        cse_lang::typeck::check(&mut program).unwrap();
        cse_bytecode::compile(&program).unwrap()
    }

    #[test]
    fn normal_runs_pass_through() {
        let bc = compile(LOOPY);
        let supervised =
            supervised_run(&bc, VmConfig::correct(VmKind::HotSpotLike)).expect("no panic");
        let direct = Vm::run_program(&bc, VmConfig::correct(VmKind::HotSpotLike));
        assert_eq!(supervised.observable(), direct.observable());
        assert_eq!(supervised.output, direct.output);
    }

    #[test]
    fn chaos_panic_is_contained_and_reported() {
        let bc = compile(LOOPY);
        let mut config = VmConfig::correct(VmKind::HotSpotLike);
        config.chaos_panic_at_ops = Some(1_000);
        let err = supervised_run(&bc, config).expect_err("chaos knob must panic");
        assert!(err.payload.contains("chaos"), "payload: {}", err.payload);
    }

    #[test]
    fn chaos_panic_is_deterministic() {
        let bc = compile(LOOPY);
        let mut config = VmConfig::correct(VmKind::HotSpotLike);
        config.chaos_panic_at_ops = Some(5_000);
        let a = supervised_run(&bc, config.clone()).expect_err("panic");
        let b = supervised_run(&bc, config).expect_err("panic");
        assert_eq!(a, b);
    }

    #[test]
    fn runs_after_a_contained_panic_are_unaffected() {
        let bc = compile(LOOPY);
        let mut chaotic = VmConfig::correct(VmKind::HotSpotLike);
        chaotic.chaos_panic_at_ops = Some(1_000);
        supervised_run(&bc, chaotic).expect_err("panic");
        let clean = supervised_run(&bc, VmConfig::correct(VmKind::HotSpotLike)).expect("clean");
        assert!(clean.outcome.is_completed());
    }

    #[test]
    fn wall_clock_watchdog_ends_wedged_runs() {
        // Fuel high enough that the fuel budget never triggers; the
        // watchdog (zero wall-clock budget) must end the run instead.
        let source = r#"
        class T {
            static void main() {
                long acc = 0L;
                for (int i = 0; i < 1000000; i++) {
                    for (int j = 0; j < 1000000; j++) { acc = acc + 1L; }
                }
                println(acc);
            }
        }
        "#;
        let bc = compile(source);
        let mut config = VmConfig::correct(VmKind::HotSpotLike);
        config.fuel = u64::MAX / 2;
        config.wall_clock_limit = Some(std::time::Duration::ZERO);
        let result = Vm::run_program(&bc, config);
        assert!(matches!(result.outcome, crate::Outcome::Timeout));
        assert!(result.stats.watchdog_fired);
    }

    #[test]
    fn watchdog_does_not_fire_within_budget() {
        let bc = compile(LOOPY);
        let mut config = VmConfig::correct(VmKind::HotSpotLike);
        config.wall_clock_limit = Some(std::time::Duration::from_secs(3600));
        let result = Vm::run_program(&bc, config);
        assert!(result.outcome.is_completed());
        assert!(!result.stats.watchdog_fired);
    }
}
