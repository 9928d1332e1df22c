//! Campaign-engine throughput and hot-path benchmarks, with a
//! machine-readable `BENCH_campaign.json` report.
//!
//! Six sections:
//!
//! 1. **Campaign throughput** — serial (`jobs = 1`) vs parallel
//!    (`jobs = N`) execution of the same campaign, digest-checked. Runs
//!    at the historical default workload shape (24 seeds) so
//!    `serial.seeds_per_sec` is comparable across report generations.
//! 2. **Sustained campaign** — the same campaign over a doubled seed
//!    range (serial only). Later seeds are substantially heavier than
//!    the first 24, so this is the endurance number, not a comparable
//!    throughput number.
//! 3. **Per-stage breakdown** — wall time each pipeline stage (parse,
//!    typecheck, compile, execute, validate) spends across the sustained
//!    workload, run serially so the split is attributable.
//! 4. **Interpreter microbench** — a hot integer loop executed with the
//!    JIT disabled, reported as interpreted Mops/s. This is the number
//!    the zero-clone dispatch and compact-value work moves.
//! 5. **Coverage payoff** — uniform (`collect`) vs feedback-scheduled
//!    (`guide`) campaigns at an equal seed budget, compared on merged
//!    JIT-behavior coverage cells (`coverage_cells`,
//!    `new_cells_per_1k_execs`).
//! 6. **Plan-space pruning cross-check** — warmth-aware pruned vs
//!    exhaustive [`cse_core::space`] enumeration over a small corpus;
//!    the process exits nonzero on any digest divergence, so CI can
//!    gate on pruning soundness.
//!
//! Knobs:
//!
//! * `CSE_SEEDS` — seeds for the throughput campaign (default 24; the
//!   sustained section runs `2×` this).
//! * `CSE_JOBS` — parallel worker count (default `min(cores, 4)`, so a
//!   single-core runner benchmarks `jobs = 1` instead of pretending two
//!   workers help).
//! * `CSE_BENCH_OUT` — output path for the JSON report (default
//!   `results/BENCH_campaign.json`).
//! * `CSE_BENCH_TRAJECTORY` — perf-trajectory JSONL path (default
//!   `results/BENCH_trajectory.jsonl`); every run appends a dated,
//!   schema-versioned entry. `CSE_BENCH_GATE=off` disables the
//!   trajectory regression gate and the speedup gate.
//!
//! Gates (process exits non-zero):
//!
//! * plan-space pruning digests must match exhaustive enumeration;
//! * the parallel row must reach a ≥ 2× speedup — enforced only when
//!   `cores ≥ 2` *and* the workload is the primary 24-seed shape
//!   (single-core speedups are meaningless, and tiny smoke workloads
//!   are all scheduling overhead);
//! * serial `seeds_per_sec` must stay within 20% of the last committed
//!   trajectory entry for the same workload shape.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use cse_bench::campaign_seeds;
use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::space::{enumerate_space_with, space_digest, PrunePlans};
use cse_core::validate::{self, ValidateConfig};
use cse_core::CoveragePolicy;
use cse_vm::{Vm, VmConfig, VmKind};

struct Measurement {
    jobs: usize,
    wall: Duration,
    seeds_per_sec: f64,
    mutants_per_sec: f64,
    digest: u64,
}

/// Repetitions per throughput measurement (`CSE_BENCH_REPS`, default 3).
/// The reported wall is the *minimum* across repetitions: campaigns are
/// deterministic (equal digests are asserted), so the fastest run is the
/// least scheduler-disturbed one.
fn bench_reps() -> u32 {
    std::env::var("CSE_BENCH_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(3).max(1)
}

fn measure(config: &CampaignConfig) -> (CampaignResult, Measurement) {
    measure_with_reps(config, bench_reps())
}

fn measure_with_reps(config: &CampaignConfig, reps: u32) -> (CampaignResult, Measurement) {
    let mut best: Option<(CampaignResult, Duration)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let result = run_campaign(config);
        let wall = start.elapsed();
        if let Some((prev, best_wall)) = &best {
            assert_eq!(
                result.digest(config),
                prev.digest(config),
                "campaign must be deterministic across repetitions"
            );
            if wall >= *best_wall {
                continue;
            }
        }
        best = Some((result, wall));
    }
    let (result, wall) = best.expect("at least one repetition");
    let secs = wall.as_secs_f64().max(1e-9);
    let measurement = Measurement {
        jobs: config.jobs,
        wall,
        seeds_per_sec: result.totals.seeds as f64 / secs,
        mutants_per_sec: result.totals.mutants as f64 / secs,
        digest: result.digest(config),
    };
    (result, measurement)
}

// ----- per-stage breakdown ------------------------------------------------

#[derive(Default)]
struct StageBreakdown {
    parse: Duration,
    typecheck: Duration,
    compile: Duration,
    execute: Duration,
    validate: Duration,
    /// Seeds whose round-tripped source failed a stage (skipped, counted).
    skipped: u64,
}

/// Runs the campaign pipeline stage by stage over the same seed workload,
/// timing each stage separately. The campaign proper fuses these stages
/// per seed; here they run back-to-back so the wall-time split is
/// attributable. `execute` uses the bug-free profile (stage timing should
/// not depend on which injected fault fires); `validate` uses the same
/// buggy profile and `MAX_ITER` as the campaign.
///
/// Like the throughput section, the breakdown runs `CSE_BENCH_REPS`
/// times and keeps the elementwise minimum per stage: the pipeline is
/// deterministic, so the fastest observation of each stage is the least
/// scheduler-disturbed one.
fn measure_stages(config: &CampaignConfig) -> StageBreakdown {
    let mut best: Option<StageBreakdown> = None;
    for _ in 0..bench_reps() {
        let b = measure_stages_once(config);
        best = Some(match best {
            None => b,
            Some(prev) => StageBreakdown {
                parse: prev.parse.min(b.parse),
                typecheck: prev.typecheck.min(b.typecheck),
                compile: prev.compile.min(b.compile),
                execute: prev.execute.min(b.execute),
                validate: prev.validate.min(b.validate),
                skipped: b.skipped,
            },
        });
    }
    best.expect("at least one repetition")
}

/// `cold` + `never`: the auxiliary sections add extra call sites into
/// `validate`/`Vm::run_program`, and letting them participate in the
/// LTO'd hot path's inlining measurably slows the *throughput* section
/// (~15% on the reference runner). Keeping them out-of-line pins the
/// measured campaign to the same code shape the production driver gets.
#[cold]
#[inline(never)]
fn measure_stages_once(config: &CampaignConfig) -> StageBreakdown {
    let mut b = StageBreakdown::default();
    let execute_vm = VmConfig::correct(config.vm.kind);
    let validate_config = ValidateConfig {
        max_iter: config.max_iter,
        vm: config.vm.clone(),
        params: cse_core::SynthParams::for_kind(config.vm.kind),
        verify_neutrality: true,
        exec_cache: cse_core::ExecCachePolicy::Auto,
    };
    // Mirror the campaign driver: a fresh artifact cache per seed, and
    // the already-compiled bytecode handed to validation instead of a
    // per-seed front-end rerun. The `validate` row thus times the
    // production path.
    for seed in config.first_seed..config.first_seed + config.seeds {
        let generated = cse_fuzz::generate(seed, &config.fuzz);
        let source = cse_lang::pretty::print(&generated);

        let t = Instant::now();
        let parsed = cse_lang::parse(&source);
        b.parse += t.elapsed();
        let Ok(mut program) = parsed else {
            b.skipped += 1;
            continue;
        };

        let t = Instant::now();
        let checked = cse_lang::typeck::check(&mut program);
        b.typecheck += t.elapsed();
        if checked.is_err() {
            b.skipped += 1;
            continue;
        }

        let t = Instant::now();
        let compiled = cse_bytecode::compile(&program);
        b.compile += t.elapsed();
        let Ok(bytecode) = compiled else {
            b.skipped += 1;
            continue;
        };
        let bytecode = std::sync::Arc::new(bytecode);

        let t = Instant::now();
        let _ = Vm::run_program(&bytecode, execute_vm.clone());
        b.execute += t.elapsed();

        let t = Instant::now();
        let _ = validate::validate_compiled_with(
            &program,
            Ok(bytecode.clone()),
            &validate_config,
            seed,
            |_| {},
        );
        b.validate += t.elapsed();
    }
    b
}

// ----- interpreter microbench ---------------------------------------------

struct InterpBench {
    interp_ops: u64,
    wall: Duration,
    mops_per_sec: f64,
}

/// A hot integer loop, JIT disabled: every dispatched instruction goes
/// through the interpreter's decoded fetch path. (Out-of-line for the
/// same reason as [`measure_stages`].)
#[cold]
#[inline(never)]
fn interp_microbench() -> InterpBench {
    let src = r#"
        class B {
            static void main() {
                int acc = 0;
                for (int i = 0; i < 400000; i++) {
                    acc = acc + (i ^ (i >> 3)) % 7 - (i & 15);
                }
                println(acc);
            }
        }
    "#;
    let program = cse_lang::parse_and_check(src).expect("microbench source is valid");
    let bytecode = cse_bytecode::compile(&program).expect("microbench compiles");
    let mut config = VmConfig::correct(VmKind::HotSpotLike);
    config.jit_enabled = false;
    let start = Instant::now();
    let result = Vm::run_program(&bytecode, config);
    let wall = start.elapsed();
    assert!(result.outcome.is_completed(), "microbench must finish: {:?}", result.outcome);
    InterpBench {
        interp_ops: result.stats.interp_ops,
        wall,
        mops_per_sec: result.stats.interp_ops as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
    }
}

// ----- plan-space pruning cross-check -------------------------------------

struct PruneCheck {
    name: &'static str,
    points: usize,
    pruned_wall: Duration,
    exhaustive_wall: Duration,
    pruned_digest: u64,
    exhaustive_digest: u64,
}

/// Enumerates each corpus program's space twice — pruned and exhaustive —
/// and digests both. The call lists mix live coordinates with dead ones
/// (invocation indices the program never reaches), so pruning has real
/// work to do; the digests must still match bit for bit. (Out-of-line
/// for the same reason as [`measure_stages`].)
/// A corpus entry: name, source, and forced-plan coordinates as
/// `(method, invocation)` pairs.
type PruneCase = (&'static str, &'static str, &'static [(&'static str, u64)]);

#[cold]
#[inline(never)]
fn prune_cross_check() -> Vec<PruneCheck> {
    let corpus: [PruneCase; 3] = [
        (
            "figure1",
            r#"class T {
                static int baz() { return 1; }
                static int bar() { return 2; }
                static int foo() { return bar() + baz(); }
                static void main() { println(foo()); }
            }"#,
            // (bar, 7) and (foo, 3) are dead: each is called once.
            &[("foo", 0), ("bar", 0), ("bar", 7), ("foo", 3), ("baz", 0)],
        ),
        (
            "loop_calls",
            r#"class T {
                static int step(int x) { return x * 3 + 1; }
                static void main() {
                    int acc = 0;
                    for (int i = 0; i < 6; i++) { acc = acc + step(i); }
                    println(acc);
                }
            }"#,
            // step runs 6 times: invocations 0, 2, 5 are live, 9 is dead.
            &[("step", 0), ("step", 2), ("step", 5), ("step", 9), ("main", 0)],
        ),
        (
            "strings_switch",
            r#"class T {
                static String label(int x) {
                    switch (x) {
                        case 0: return "zero";
                        case 1: return "one";
                        default: return "many:" + x;
                    }
                }
                static void main() {
                    for (int i = 0; i < 4; i++) { println(label(i)); }
                }
            }"#,
            &[("label", 0), ("label", 3), ("label", 8), ("main", 0)],
        ),
    ];
    let config = VmConfig::correct(VmKind::HotSpotLike);
    corpus
        .iter()
        .map(|&(name, src, calls)| {
            let program = cse_lang::parse_and_check(src).expect("corpus source is valid");
            let bytecode = cse_bytecode::compile(&program).expect("corpus compiles");
            let calls: Vec<_> = calls
                .iter()
                .map(|&(method, invocation)| {
                    (bytecode.find_method("T", method).expect("corpus method"), invocation)
                })
                .collect();
            let t = Instant::now();
            let pruned = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::On);
            let pruned_wall = t.elapsed();
            let t = Instant::now();
            let exhaustive = enumerate_space_with(&bytecode, &calls, &config, PrunePlans::Off);
            let exhaustive_wall = t.elapsed();
            PruneCheck {
                name,
                points: pruned.len(),
                pruned_wall,
                exhaustive_wall,
                pruned_digest: space_digest(&pruned),
                exhaustive_digest: space_digest(&exhaustive),
            }
        })
        .collect()
}

// ----- coverage payoff ----------------------------------------------------

struct CoverageBench {
    seeds: u64,
    uniform_cells: u32,
    guided_cells: u32,
    corpus: usize,
    execs: u64,
    new_cells_per_1k_execs: f64,
}

/// Runs the same seed budget twice — uniform sampling under `collect`
/// and feedback scheduling under `guide` — and compares merged
/// coverage-cell counts. Equal budget, so the delta is the payoff of
/// guidance, not of extra work. (Out-of-line for the same reason as
/// [`measure_stages`].)
#[cold]
#[inline(never)]
fn coverage_bench(seeds: u64) -> CoverageBench {
    let uniform = run_campaign(
        &CampaignConfig::for_kind(VmKind::HotSpotLike, seeds)
            .with_coverage(CoveragePolicy::Collect),
    );
    let guided = run_campaign(
        &CampaignConfig::for_kind(VmKind::HotSpotLike, seeds).with_coverage(CoveragePolicy::Guide),
    );
    let uniform_state = uniform.coverage.as_ref().expect("collect carries coverage state");
    let guided_state = guided.coverage.as_ref().expect("guide carries coverage state");
    let cells = guided_state.cells();
    let execs = guided_state.execs;
    CoverageBench {
        seeds,
        uniform_cells: uniform_state.cells(),
        guided_cells: cells,
        corpus: guided_state.corpus.len(),
        execs,
        new_cells_per_1k_execs: if execs == 0 {
            0.0
        } else {
            f64::from(cells) * 1000.0 / execs as f64
        },
    }
}

// ----- perf trajectory ----------------------------------------------------

/// `YYYY-MM-DD` (UTC) from the system clock; civil-from-days, so no
/// date dependency is needed.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Pulls `"key": <number>` out of one trajectory JSONL line. The
/// workspace is dependency-free, so this only ever parses the format
/// the emitter below writes.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = line[at..].trim_start();
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

// ----- main ---------------------------------------------------------------

fn main() {
    let seeds = campaign_seeds(24);
    let sustained_seeds = seeds * 2;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // `min(cores, 4)`: a single-core runner gets an honest `jobs = 1`
    // parallel row (the engine still routes through the work-stealing
    // path) instead of a meaningless 2-worker thrash number.
    let jobs: usize = std::env::var("CSE_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| cores.min(4))
        .max(1);
    let out_path = std::env::var("CSE_BENCH_OUT")
        .unwrap_or_else(|_| "results/BENCH_campaign.json".to_string());
    let gate_on = std::env::var("CSE_BENCH_GATE").map(|v| v != "off" && v != "0").unwrap_or(true);

    println!("Campaign engine throughput: jobs=1 vs jobs={jobs} ({cores} cores, {seeds} seeds)");

    let base = CampaignConfig::for_kind(VmKind::HotSpotLike, seeds);
    let (serial_result, serial) = measure(&base);
    let (_, parallel) = measure(&base.clone().with_jobs(jobs));

    assert_eq!(
        serial.digest, parallel.digest,
        "parallel campaign diverged from the serial reference"
    );
    let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);

    for m in [&serial, &parallel] {
        println!(
            "  jobs={:<2}  {:>10.2?}  {:>8.2} seeds/s  {:>9.2} mutants/s",
            m.jobs, m.wall, m.seeds_per_sec, m.mutants_per_sec
        );
    }
    println!("  speedup: {speedup:.2}x  (digest {:#018x} identical)", serial.digest);
    println!(
        "  caches: exec memo {} hits / {} misses, artifacts {} hits / {} misses",
        serial_result.totals.exec_cache_hits,
        serial_result.totals.exec_cache_misses,
        serial_result.totals.artifact_cache_hits,
        serial_result.totals.artifact_cache_misses,
    );
    if cores == 1 {
        println!("  note: single-core runner; the >=2x target applies to multi-core hosts");
    }

    // Sustained campaign: a doubled seed range, serial. Seeds beyond the
    // first 24 are substantially heavier (larger generated programs), so
    // its seeds/s is an endurance figure and deliberately *not*
    // comparable with the throughput section above.
    let sustained_base = CampaignConfig::for_kind(VmKind::HotSpotLike, sustained_seeds);
    let (_, sustained) = measure_with_reps(&sustained_base, 1);
    println!(
        "Sustained campaign: {sustained_seeds} seeds serial  {:>10.2?}  {:>8.2} seeds/s  {:>9.2} mutants/s",
        sustained.wall, sustained.seeds_per_sec, sustained.mutants_per_sec
    );

    println!("Per-stage breakdown ({sustained_seeds} seeds, serial):");
    let stages = measure_stages(&sustained_base);
    for (name, wall) in [
        ("parse", stages.parse),
        ("typecheck", stages.typecheck),
        ("compile", stages.compile),
        ("execute", stages.execute),
        ("validate", stages.validate),
    ] {
        println!("  {name:<10} {wall:>10.2?}");
    }
    if stages.skipped > 0 {
        println!("  ({} seeds skipped a stage)", stages.skipped);
    }

    let interp = interp_microbench();
    println!(
        "Interpreter microbench: {} ops in {:.2?} = {:.2} Mops/s (JIT off)",
        interp.interp_ops, interp.wall, interp.mops_per_sec
    );

    // Coverage payoff: capped at 12 seeds — the comparison needs an
    // equal budget on both sides, not the full throughput workload.
    let coverage = coverage_bench(seeds.min(12));
    println!(
        "Coverage payoff ({} seeds, equal budget): uniform {} cells, guided {} cells (+{})",
        coverage.seeds,
        coverage.uniform_cells,
        coverage.guided_cells,
        coverage.guided_cells.saturating_sub(coverage.uniform_cells),
    );
    println!(
        "  guided corpus {} entries over {} execs = {:.2} new cells / 1k execs",
        coverage.corpus, coverage.execs, coverage.new_cells_per_1k_execs
    );

    println!("Plan-space pruning cross-check:");
    let prune_checks = prune_cross_check();
    let mut prune_ok = true;
    for c in &prune_checks {
        let verdict = if c.pruned_digest == c.exhaustive_digest { "identical" } else { "DIVERGED" };
        prune_ok &= c.pruned_digest == c.exhaustive_digest;
        println!(
            "  {:<16} {:>3} points  pruned {:>9.2?}  exhaustive {:>9.2?}  {verdict}",
            c.name, c.points, c.pruned_wall, c.exhaustive_wall
        );
    }

    // Hand-rolled JSON (the workspace is dependency-free).
    let emit = |m: &Measurement| {
        format!(
            "{{\"jobs\": {}, \"wall_secs\": {:.6}, \"seeds_per_sec\": {:.4}, \
             \"mutants_per_sec\": {:.4}, \"digest\": \"{:#018x}\"}}",
            m.jobs,
            m.wall.as_secs_f64(),
            m.seeds_per_sec,
            m.mutants_per_sec,
            m.digest
        )
    };
    // The cache counters ride in the `stages` block: they explain where
    // the `validate_secs` cut comes from (runs served from the execution
    // memo, compiles/decodes served from the artifact cache).
    let totals = &serial_result.totals;
    let stages_json = format!(
        "{{\"parse_secs\": {:.6}, \"typecheck_secs\": {:.6}, \"compile_secs\": {:.6}, \
         \"execute_secs\": {:.6}, \"validate_secs\": {:.6}, \"skipped_seeds\": {}, \
         \"exec_cache_hits\": {}, \"exec_cache_misses\": {}, \
         \"artifact_cache_hits\": {}, \"artifact_cache_misses\": {}}}",
        stages.parse.as_secs_f64(),
        stages.typecheck.as_secs_f64(),
        stages.compile.as_secs_f64(),
        stages.execute.as_secs_f64(),
        stages.validate.as_secs_f64(),
        stages.skipped,
        totals.exec_cache_hits,
        totals.exec_cache_misses,
        totals.artifact_cache_hits,
        totals.artifact_cache_misses,
    );
    let interp_json = format!(
        "{{\"interp_ops\": {}, \"wall_secs\": {:.6}, \"mops_per_sec\": {:.4}}}",
        interp.interp_ops,
        interp.wall.as_secs_f64(),
        interp.mops_per_sec,
    );
    let coverage_json = format!(
        "{{\"seeds\": {}, \"uniform_cells\": {}, \"guided_cells\": {}, \
         \"coverage_cells\": {}, \"corpus\": {}, \"execs\": {}, \
         \"new_cells_per_1k_execs\": {:.4}}}",
        coverage.seeds,
        coverage.uniform_cells,
        coverage.guided_cells,
        coverage.guided_cells,
        coverage.corpus,
        coverage.execs,
        coverage.new_cells_per_1k_execs,
    );
    let prune_json = prune_checks
        .iter()
        .map(|c| {
            format!(
                "{{\"program\": \"{}\", \"points\": {}, \"pruned_wall_secs\": {:.6}, \
                 \"exhaustive_wall_secs\": {:.6}, \"pruned_digest\": \"{:#018x}\", \
                 \"exhaustive_digest\": \"{:#018x}\", \"identical\": {}}}",
                c.name,
                c.points,
                c.pruned_wall.as_secs_f64(),
                c.exhaustive_wall.as_secs_f64(),
                c.pruned_digest,
                c.exhaustive_digest,
                c.pruned_digest == c.exhaustive_digest,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"campaign_engine\",\n  \"cores\": {cores},\n  \"seeds\": {seeds},\n  \
         \"mutants\": {},\n  \"serial\": {},\n  \"parallel\": {},\n  \"speedup\": {speedup:.4},\n  \
         \"sustained_seeds\": {sustained_seeds},\n  \"sustained\": {},\n  \
         \"stages\": {stages_json},\n  \"interp_microbench\": {interp_json},\n  \
         \"coverage\": {coverage_json},\n  \
         \"prune_check\": [\n    {prune_json}\n  ]\n}}\n",
        serial_result.totals.mutants,
        emit(&serial),
        emit(&parallel),
        emit(&sustained),
    );
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("warning: could not write {out_path}: {e}"),
    }

    // Perf trajectory: find the last committed entry for this workload
    // shape (same seeds + cores — smoke and full-size runs are not
    // comparable), then append today's entry.
    let trajectory_path = std::env::var("CSE_BENCH_TRAJECTORY")
        .unwrap_or_else(|_| "results/BENCH_trajectory.jsonl".to_string());
    let committed = std::fs::read_to_string(&trajectory_path).unwrap_or_default();
    let baseline = committed
        .lines()
        .rev()
        .find(|line| {
            json_number(line, "seeds") == Some(seeds as f64)
                && json_number(line, "cores") == Some(cores as f64)
        })
        .and_then(|line| json_number(line, "seeds_per_sec"));
    let entry = format!(
        "{{\"schema\": 1, \"date\": \"{}\", \"cores\": {cores}, \"seeds\": {seeds}, \
         \"jobs\": {jobs}, \"seeds_per_sec\": {:.4}, \"mutants_per_sec\": {:.4}, \
         \"speedup\": {speedup:.4}, \"validate_secs\": {:.6}, \"exec_cache_hits\": {}, \
         \"exec_cache_misses\": {}, \"artifact_cache_hits\": {}, \
         \"artifact_cache_misses\": {}, \"coverage_cells\": {}, \
         \"new_cells_per_1k_execs\": {:.4}, \"digest\": \"{:#018x}\"}}\n",
        today_utc(),
        serial.seeds_per_sec,
        serial.mutants_per_sec,
        stages.validate.as_secs_f64(),
        totals.exec_cache_hits,
        totals.exec_cache_misses,
        totals.artifact_cache_hits,
        totals.artifact_cache_misses,
        coverage.guided_cells,
        coverage.new_cells_per_1k_execs,
        serial.digest,
    );
    let append = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&trajectory_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, entry.as_bytes()));
    match append {
        Ok(()) => println!("  appended {trajectory_path}"),
        Err(e) => eprintln!("warning: could not append {trajectory_path}: {e}"),
    }

    let mut failed = false;
    if !prune_ok {
        eprintln!("error: warmth-aware plan pruning diverged from exhaustive enumeration");
        eprintln!("       (re-run with CSE_PRUNE_PLANS=off to bypass; this is a soundness bug)");
        failed = true;
    }
    // The ≥ 2× speedup gate: only meaningful with real parallelism
    // (cores ≥ 2) on the primary workload shape (tiny smoke runs are
    // dominated by thread start-up, not seed work).
    if gate_on && cores >= 2 && seeds >= 24 && speedup < 2.0 {
        eprintln!(
            "error: parallel speedup {speedup:.2}x < 2x on a {cores}-core host \
             (CSE_BENCH_GATE=off to bypass)"
        );
        failed = true;
    }
    if gate_on {
        if let Some(prev) = baseline {
            if serial.seeds_per_sec < prev * 0.8 {
                eprintln!(
                    "error: serial throughput regressed >20%: {:.2} seeds/s vs committed {:.2} \
                     (CSE_BENCH_GATE=off to bypass)",
                    serial.seeds_per_sec, prev
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
