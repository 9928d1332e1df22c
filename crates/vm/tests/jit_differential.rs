//! Substrate-soundness tests: with NO injected bugs, every execution mode
//! (interpreter, tiered JIT with speculation/OSR/deopt, force-compile-all)
//! of every VM profile must produce identical observable behavior.
//!
//! This is the load-bearing guarantee behind the whole reproduction: the
//! cross-validation oracle of CSE (§3.2) is only sound if JIT-compilation
//! choices never change program semantics on a correct VM.

use cse_vm::{ExecutionResult, Outcome, Vm, VmConfig, VmKind};

fn run(src: &str, config: VmConfig) -> ExecutionResult {
    let program = cse_lang::parse_and_check(src).unwrap();
    let compiled = cse_bytecode::compile(&program).unwrap();
    cse_bytecode::verify::verify_program(&compiled).unwrap();
    Vm::run_program(&compiled, config)
}

/// Runs `src` under every engine/profile combination and asserts that the
/// observable behavior matches the interpreter's.
fn assert_all_modes_agree(src: &str) -> ExecutionResult {
    let reference = run(src, VmConfig::interpreter_only(VmKind::HotSpotLike));
    assert!(
        matches!(reference.outcome, Outcome::Completed { .. }),
        "reference run must complete: {:?}",
        reference.outcome
    );
    for kind in [VmKind::HotSpotLike, VmKind::OpenJ9Like, VmKind::ArtLike] {
        let tiered = run(src, VmConfig::correct(kind));
        assert_eq!(
            tiered.observable(),
            reference.observable(),
            "tiered {kind} diverged from the interpreter"
        );
        let forced = run(src, VmConfig::force_compile_all(kind).with_faults(Default::default()));
        assert_eq!(
            forced.observable(),
            reference.observable(),
            "force-compile-all {kind} diverged from the interpreter"
        );
    }
    reference
}

#[test]
fn hot_arithmetic_loop_compiles_and_agrees() {
    let result = assert_all_modes_agree(
        r#"
        class T {
            static int mix(int x) {
                return (x * 31 + 17) ^ (x >>> 3);
            }
            static void main() {
                int acc = 0;
                for (int i = 0; i < 5000; i++) {
                    acc = acc + mix(i) % 1000;
                }
                println(acc);
            }
        }
        "#,
    );
    assert!(matches!(result.outcome, Outcome::Completed { uncaught_exception: false }));
    // Sanity: the tiered HotSpot run really compiled something.
    let tiered = run(
        r#"
        class T {
            static int mix(int x) {
                return (x * 31 + 17) ^ (x >>> 3);
            }
            static void main() {
                int acc = 0;
                for (int i = 0; i < 5000; i++) {
                    acc = acc + mix(i) % 1000;
                }
                println(acc);
            }
        }
        "#,
        VmConfig::correct(VmKind::HotSpotLike),
    );
    assert!(tiered.stats.compilations + tiered.stats.osr_compilations > 0);
    assert!(tiered.stats.jit_ops > 0, "compiled code must actually run");
}

#[test]
fn osr_compiles_long_running_loop() {
    let src = r#"
        class T {
            static void main() {
                long acc = 0L;
                int i = 0;
                while (i < 20000) {
                    acc += i % 7;
                    i++;
                }
                println(acc);
            }
        }
    "#;
    assert_all_modes_agree(src);
    let tiered = run(src, VmConfig::correct(VmKind::HotSpotLike));
    assert!(tiered.stats.osr_compilations > 0, "main's loop must OSR-compile");
}

#[test]
fn speculation_and_deopt_agree() {
    // The flag flips exactly once after the loop is hot: tier-2 code
    // speculates on the never-taken branch and must deopt correctly.
    let src = r#"
        class T {
            static boolean flag = false;
            static int work(int i) {
                if (flag) {
                    return i * 100;
                }
                return i + 1;
            }
            static void main() {
                int acc = 0;
                for (int i = 0; i < 6000; i++) {
                    acc += work(i) & 1023;
                }
                flag = true;
                acc += work(7);
                println(acc);
            }
        }
    "#;
    assert_all_modes_agree(src);
    let tiered = run(src, VmConfig::correct(VmKind::HotSpotLike));
    assert!(tiered.stats.deopts > 0, "the flipped flag must hit an uncommon trap");
}

#[test]
fn switch_speculation_and_deopt_agree() {
    let src = r#"
        class T {
            static int pick(int x) {
                switch (x % 8) {
                    case 0: return 1;
                    case 1: return 2;
                    case 2: return 3;
                    case 7: return 99;
                    default: return 0;
                }
            }
            static void main() {
                int acc = 0;
                // x % 8 stays in 0..=2 while warm (x = i * 8 + i % 3).
                for (int i = 0; i < 6000; i++) {
                    acc += pick(i * 8 + i % 3);
                }
                // Now hit the cold arm.
                acc += pick(7);
                println(acc);
            }
        }
    "#;
    assert_all_modes_agree(src);
}

#[test]
fn exceptions_inside_compiled_code_agree() {
    assert_all_modes_agree(
        r#"
        class T {
            static int risky(int i) {
                try {
                    return 1000 / (i % 100);
                } catch {
                    return -1;
                }
            }
            static void main() {
                int acc = 0;
                for (int i = 0; i < 8000; i++) {
                    acc += risky(i);
                }
                println(acc);
            }
        }
        "#,
    );
}

#[test]
fn finally_inside_compiled_code_agrees() {
    assert_all_modes_agree(
        r#"
        class T {
            static int acc;
            static int step(int i) {
                int r = 0;
                try {
                    r = 100 / (i % 50);
                } catch {
                    r = 7;
                } finally {
                    T.acc += 1;
                }
                return r;
            }
            static void main() {
                int total = 0;
                for (int i = 0; i < 6000; i++) {
                    total += step(i);
                }
                println(total);
                println(T.acc);
            }
        }
        "#,
    );
}

#[test]
fn inlined_calls_agree() {
    assert_all_modes_agree(
        r#"
        class T {
            static int tiny(int x) { return x * 3 + 1; }
            static int wrap(int x) { return tiny(x) - tiny(x - 1); }
            static void main() {
                int acc = 0;
                for (int i = 0; i < 7000; i++) {
                    acc += wrap(i);
                }
                println(acc);
            }
        }
        "#,
    );
}

#[test]
fn instance_state_and_gc_under_jit_agree() {
    assert_all_modes_agree(
        r#"
        class Node { int v; Node next; }
        class T {
            static void main() {
                Node head = null;
                int sum = 0;
                for (int i = 0; i < 4000; i++) {
                    Node n = new Node();
                    n.v = i % 97;
                    n.next = head;
                    if (i % 3 == 0) {
                        head = n;
                    }
                    sum += n.v;
                }
                int count = 0;
                while (head != null) {
                    count++;
                    head = head.next;
                }
                println(sum);
                println(count);
            }
        }
        "#,
    );
}

#[test]
fn arrays_and_strings_under_jit_agree() {
    assert_all_modes_agree(
        r#"
        class T {
            static void main() {
                int[] data = new int[64];
                long checksum = 0L;
                for (int i = 0; i < 9000; i++) {
                    data[i % 64] = data[(i + 7) % 64] * 3 + i;
                    checksum += data[i % 64];
                }
                byte b = 0;
                for (int i = 0; i < 3000; i++) {
                    b += 7;
                }
                println("sum=" + checksum + " b=" + b);
            }
        }
        "#,
    );
}

#[test]
fn byte_wrapping_under_jit_agrees() {
    assert_all_modes_agree(
        r#"
        class T {
            static byte acc;
            static void main() {
                for (int i = 0; i < 10000; i++) {
                    T.acc += 3;
                }
                println(T.acc);
            }
        }
        "#,
    );
}

#[test]
fn nested_loops_with_switches_agree() {
    // The Figure-2-like shape: nested loops, a switch, byte accumulation.
    assert_all_modes_agree(
        r#"
        class T {
            byte l = 0;
            void g(int[] k) {
                for (int z = 0; z < k.length; z++) {
                    int m = k[z];
                    switch ((m >>> 1) % 10 + 36) {
                        case 36:
                            for (int w = -2967; w < 4342; w += 4) { }
                            l += 2;
                        case 40: break;
                        case 41: k[1] = 9;
                    }
                }
            }
            static void main() {
                T t = new T();
                int[] k = new int[] { 72, 81, 72, 83 };
                for (int i = 0; i < 4; i++) {
                    t.g(k);
                }
                println(t.l);
            }
        }
        "#,
    );
}

#[test]
fn recursion_under_jit_agrees() {
    assert_all_modes_agree(
        r#"
        class T {
            static int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            static void main() {
                println(fib(22));
            }
        }
        "#,
    );
}

#[test]
fn uncaught_exception_in_hot_code_agrees() {
    let src = r#"
        class T {
            static int poke(int i) {
                int[] a = new int[4];
                return a[i % 5];
            }
            static void main() {
                int acc = 0;
                for (int i = 0; i < 9000; i++) {
                    acc += poke(i % 4);
                }
                println(acc);
                println(poke(4));
            }
        }
    "#;
    let reference = run(src, VmConfig::interpreter_only(VmKind::HotSpotLike));
    assert_eq!(reference.outcome, Outcome::Completed { uncaught_exception: true });
    assert_all_modes_agree(src);
}

#[test]
fn mute_regions_in_hot_code_agree() {
    assert_all_modes_agree(
        r#"
        class T {
            static void noisy(int i) {
                println(i);
            }
            static void main() {
                for (int i = 0; i < 5000; i++) {
                    __mute();
                    noisy(i);
                    __unmute();
                }
                println("done");
            }
        }
        "#,
    );
}

/// Java's integer edge cases agree across every engine, each written out
/// as its Java value. `runtime` reaches them with operands offset by `d`,
/// a loop-varying parameter that is 0 on the last iteration, so compiled
/// code computes them at run time; `folded` spells them as constants that
/// constant folding evaluates at compile time. Divisors stay non-zero on
/// every earlier iteration; the zero divisors are caught.
#[test]
fn java_integer_edge_cases_agree() {
    let result = assert_all_modes_agree(
        r#"
        class T {
            static int idiv(int a, int b) {
                try { return a / b; } catch { return -99; }
            }
            static long lrem(long a, long b) {
                try { return a % b; } catch { return -98L; }
            }
            static String runtime(int d) {
                long ld = d;
                int min = -2147483648 + d;
                long lmin = -9223372036854775808L + ld;
                return "" + (min / (-1 + d)) + " " + (min % (-1 + d))
                    + " " + ((-7 + d) >>> (33 + d)) + " " + ((1 + d) << (32 + d))
                    + " " + ((1 + d) << (-1 + d)) + " " + ((-8 + d) >> (-30 + d))
                    + " " + ((-1 + d) >>> (-28 + d)) + " " + ((-7 + d) / (2 - d))
                    + " " + ((-7 + d) % (2 - d)) + " " + ((7 + d) % (-2 + d))
                    + " " + ((-1L + ld) >>> (65 + d)) + " " + ((1L + ld) << (-1 + d))
                    + " " + ((-1L + ld) >>> (-60 + d)) + " " + (lmin / (-1L + ld))
                    + " " + (lmin % (-1L + ld)) + " " + ((7L + ld) / (-1L + ld))
                    + " " + ((7L + ld) % (-2L + ld))
                    + " " + idiv(5 + d, d) + " " + lrem(5L + ld, ld);
            }
            static String folded() {
                return "" + (-2147483648 / -1) + " " + (-2147483648 % -1)
                    + " " + (-7 >>> 33) + " " + (1 << 32)
                    + " " + (1 << -1) + " " + (-8 >> -30)
                    + " " + (-1 >>> -28) + " " + (-7 / 2)
                    + " " + (-7 % 2) + " " + (7 % -2)
                    + " " + (-1L >>> 65) + " " + (1L << -1)
                    + " " + (-1L >>> -60) + " " + (-9223372036854775808L / -1L)
                    + " " + (-9223372036854775808L % -1L) + " " + (7L / -1L)
                    + " " + (7L % -2L)
                    + " " + idiv(5, 0) + " " + lrem(5L, 0L);
            }
            static void main() {
                String r = "";
                String f = "";
                for (int i = 0; i < 2000; i++) {
                    r = runtime(i - 1999);
                    f = folded();
                }
                println(r);
                println(f);
            }
        }
        "#,
    );
    let java = "-2147483648 0 2147483644 1 -2147483648 -2 268435455 -3 -1 1 \
                9223372036854775807 -9223372036854775808 1152921504606846975 \
                -9223372036854775808 0 -7 1 -99 -98\n";
    assert_eq!(result.output, format!("{java}{java}"));
}
