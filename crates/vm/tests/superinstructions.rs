//! Superinstructions are invisible: a fused shape runs all of its ops in
//! one dispatch only when they all fit in the fuel and before the next
//! side check, so cutting a run at *any* op — by fuel or by the chaos
//! panic — ends it exactly where unfused execution would.

use cse_bytecode::{DInsn, DecodedProgram};
use cse_vm::{supervised_run, ExecutionResult, Outcome, Vm, VmConfig, VmKind};

/// One loop that runs every fused shape (see `cse_bytecode::decoded`)
/// plus a call, printing as it goes so a cut run has a partial output.
const EVERY_SHAPE: &str = r#"
class T {
    static int twice(int x) { return x + x; }
    static void main() {
        int s = 0;
        int n = 32;
        for (int i = 0; i < n; i = i + 1) {
            s = s + i;
            int t = (s ^ 3) * 2;
            if (t < 40) { s = s + 1; }
            s = T.twice(s) & 1023;
            println(s);
        }
        println(s);
    }
}
"#;

fn compile(source: &str) -> cse_bytecode::BProgram {
    let program = cse_lang::parse_and_check(source).expect("test program compiles");
    cse_bytecode::compile(&program).expect("test program lowers")
}

fn config(fuel: u64) -> VmConfig {
    let mut config = VmConfig::interpreter_only(VmKind::HotSpotLike);
    config.fuel = fuel;
    config
}

fn run(program: &cse_bytecode::BProgram, fuel: u64) -> ExecutionResult {
    Vm::run_program(program, config(fuel))
}

/// Enough fuel for the whole run.
const FUEL: u64 = 1_000_000;

#[test]
fn the_program_exercises_every_superinstruction() {
    let decoded = DecodedProgram::decode(&compile(EVERY_SHAPE));
    let code: Vec<DInsn> = decoded.methods.iter().flat_map(|m| m.code.iter().copied()).collect();
    let shapes: [fn(&DInsn) -> bool; 7] = [
        |i| matches!(i, DInsn::CmpBr { .. }),
        |i| matches!(i, DInsn::LoadConstOpStore { .. }),
        |i| matches!(i, DInsn::LoadConstOp { .. }),
        |i| matches!(i, DInsn::LoadConstCmpBr { .. }),
        |i| matches!(i, DInsn::OpStore { .. }),
        |i| matches!(i, DInsn::ConstStore { .. }),
        |i| matches!(i, DInsn::LoadLoad { .. }),
    ];
    for (n, shape) in shapes.iter().enumerate() {
        assert!(code.iter().any(shape), "shape {n} never fused: {code:?}");
    }
}

#[test]
fn every_fuel_cut_stops_at_the_same_op_as_unfused_code() {
    let program = compile(EVERY_SHAPE);
    let full = run(&program, FUEL);
    assert_eq!(full.outcome, Outcome::Completed { uncaught_exception: false });
    // Interpreter-only, every burned op is an interpreted instruction or
    // a call.
    let burn = full.stats.interp_ops + full.stats.calls;
    assert!(burn > 500, "the loop is too short to cut everywhere: {burn} ops");
    assert_eq!(run(&program, burn).outcome, full.outcome);
    for fuel in 0..burn {
        let cut = run(&program, fuel);
        assert_eq!(cut.outcome, Outcome::Timeout, "fuel {fuel}");
        assert_eq!(cut.stats.interp_ops + cut.stats.calls, fuel, "fuel {fuel}: ops burned");
        assert!(full.output.starts_with(&cut.output), "fuel {fuel}: output {:?}", cut.output);
    }
}

#[test]
fn every_chaos_threshold_panics_at_its_exact_op() {
    let program = compile(EVERY_SHAPE);
    let full = run(&program, FUEL);
    let burn = full.stats.interp_ops + full.stats.calls;
    for k in 1..=burn {
        let mut config = config(FUEL);
        config.chaos_panic_at_ops = Some(k);
        let panic = supervised_run(&program, config).expect_err("the threshold is within the run");
        assert_eq!(panic.payload, format!("chaos: injected VM panic after {k} burned ops"));
    }
}
