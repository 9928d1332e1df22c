//! The traced run: per-layer metrics from spans recorded around public
//! calls into each layer.
//!
//! On a campaign workload every seed of the window gets a span. Inside
//! it the run times `cse_fuzz::generate`, the seed's front end
//! (`try_compile_checked`) and the production `validate_with` call, then
//! replays Algorithm 1's inner steps with public calls: `Artemis::jonm`,
//! the mutant's front end, the mutant run on the VM under test, and the
//! interpreter-only reference runs validation's reference-demand rule
//! would take. On `space_hotspot` every program gets a span around its
//! generation, front end and `enumerate_space` call.
//!
//! Spans stay in memory and are written to `out/spans-<workload>-<seed>.jsonl`
//! beside this crate when the run ends; self times are computed from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use cse_core::campaign::{run_campaign, CampaignConfig};
use cse_core::space::find_space_discrepancy;
use cse_core::validate::{try_compile_checked, validate_with, ValidateConfig};
use cse_core::{Artemis, CoveragePolicy, IncidentPhase};
use cse_vm::{
    contain_panics, supervised_run, ExecutionResult, Outcome, TvMode, VerifyMode, VmConfig,
};

use crate::workload::{self, Workload};
use crate::{metric, Metric, Report};

/// Mirror of validation's `PERF_ANOMALY_SLACK`: a mutant that completed
/// within this many operations with the seed's observable needs no
/// reference run (`cse_core::validate`, lazy-reference pruning).
const PERF_ANOMALY_SLACK: u64 = 1_000_000;

struct Span {
    name: &'static str,
    seed: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Count and self time of every span with one name.
#[derive(Default, Clone, Copy)]
struct Layer {
    count: u64,
    self_ms: f64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn open(&mut self, name: &'static str, seed: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span { name, seed, parent, start: now, end: now });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a child span of `parent`.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, self.spans[parent].seed, Some(parent));
        let value = f();
        self.close(id);
        value
    }

    fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::ms)
    }

    /// Per span name: count and self time (the span's duration minus the
    /// part its children cover).
    fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            let layer = layers.entry(span.name).or_default();
            layer.count += 1;
            layer.self_ms += span.ms() - children;
        }
        layers
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"seed\": {}, \"parent\": {parent}, \
                 \"start_us\": {}, \"end_us\": {}}}",
                span.name,
                span.seed,
                span.start.as_micros(),
                span.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// VM statistics summed over the runs a traced run observed.
#[derive(Default)]
struct VmTally {
    compilations: u64,
    osr_compilations: u64,
    code_cache_hits: u64,
    deopts: u64,
    gc_runs: u64,
    timeouts: u64,
}

impl VmTally {
    fn add(&mut self, result: &ExecutionResult) {
        let stats = &result.stats;
        self.compilations += u64::from(stats.compilations);
        self.osr_compilations += u64::from(stats.osr_compilations);
        self.code_cache_hits += u64::from(stats.code_cache_hits);
        self.deopts += u64::from(stats.deopts);
        self.gc_runs += stats.gc_runs;
        self.timeouts += u64::from(matches!(result.outcome, Outcome::Timeout));
    }

    fn hit_ratio(&self) -> f64 {
        let compiled = self.compilations + self.osr_compilations;
        if compiled == 0 {
            0.0
        } else {
            self.code_cache_hits as f64 / compiled as f64
        }
    }
}

/// A run that never touched the JIT and did not crash is its own
/// interpreter reference (validation's cold-run reuse).
fn is_own_reference(result: &ExecutionResult) -> bool {
    let stats = &result.stats;
    stats.compilations == 0
        && stats.osr_compilations == 0
        && stats.jit_ops == 0
        && !matches!(result.outcome, Outcome::Crash(_))
}

/// Counters of the campaign replay, next to the totals validation itself
/// reported for the same seeds.
#[derive(Default)]
struct Replay {
    vm: VmTally,
    seed_runs: u64,
    mutant_runs: u64,
    reference_runs: u64,
    reference_interp_ops: u64,
    jonm_calls: u64,
    jonm_applied: u64,
    mutant_failures: u64,
    validate_seed_ms: Vec<f64>,
    /// Totals of the per-seed `validate_with` outcomes.
    validated_seeds: u64,
    validated_seed_runs: u64,
    validated_mutants: u64,
    validated_invocations: u64,
}

impl Replay {
    fn reference_run(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        bytecode: &cse_bytecode::BProgram,
        reference_vm: &VmConfig,
    ) {
        self.reference_runs += 1;
        if let Ok(result) =
            tracer.time("vm.reference_run", root, || supervised_run(bytecode, reference_vm.clone()))
        {
            self.reference_interp_ops += result.stats.interp_ops;
        }
    }

    /// One seed: the production validation call, then the replay of its
    /// inner steps.
    fn seed(
        &mut self,
        tracer: &mut Tracer,
        seed_value: u64,
        config: &CampaignConfig,
        vconfig: &ValidateConfig,
        oracles_off: Option<&VmConfig>,
    ) {
        let root = tracer.open("seed", seed_value, None);
        let program =
            tracer.time("fuzz.generate", root, || cse_fuzz::generate(seed_value, &config.fuzz));
        let bytecode = tracer.time("front.seed", root, || try_compile_checked(&program));
        let outcome =
            tracer.time("validate", root, || validate_with(&program, vconfig, seed_value, |_| {}));
        self.validate_seed_ms.push(tracer.last_ms());
        self.validated_seeds += 1;
        self.validated_seed_runs +=
            u64::from(!outcome.incidents.iter().any(|i| i.phase == IncidentPhase::SeedCompile));
        self.validated_mutants += outcome.mutants_run as u64;
        self.validated_invocations += outcome.vm_invocations as u64;
        if let Ok(bytecode) = bytecode {
            self.replay_seed(tracer, root, seed_value, &program, &bytecode, vconfig, oracles_off);
        }
        tracer.close(root);
    }

    /// Algorithm 1's inner steps, as `validate_with` takes them.
    #[allow(clippy::too_many_arguments)]
    fn replay_seed(
        &mut self,
        tracer: &mut Tracer,
        root: usize,
        seed_value: u64,
        program: &cse_lang::Program,
        bytecode: &cse_bytecode::BProgram,
        vconfig: &ValidateConfig,
        oracles_off: Option<&VmConfig>,
    ) {
        let vm = &vconfig.vm;
        let reference_vm = VmConfig::interpreter_only(vm.kind);
        self.seed_runs += 1;
        let Ok(seed_result) =
            tracer.time("vm.seed_run", root, || supervised_run(bytecode, vm.clone()))
        else {
            return;
        };
        self.vm.add(&seed_result);
        if seed_result.outcome.is_resource_exhausted() {
            return;
        }
        let seed_observable = seed_result.observable();
        let mut seed_reference_taken = false;
        let mut artemis = Artemis::new(seed_value, vconfig.params.clone());
        for _ in 0..vconfig.max_iter {
            self.jonm_calls += 1;
            let mutated =
                tracer.time("mutate.jonm", root, || contain_panics(|| artemis.jonm(program)));
            let Ok((mutant, mutations)) = mutated else { continue };
            if mutations.is_empty() {
                continue;
            }
            self.jonm_applied += 1;
            let Ok(mutant_bytecode) =
                tracer.time("front.mutant", root, || try_compile_checked(&mutant))
            else {
                self.mutant_failures += 1;
                continue;
            };
            self.mutant_runs += 1;
            let run =
                tracer.time("vm.mutant_run", root, || supervised_run(&mutant_bytecode, vm.clone()));
            if let Some(off) = oracles_off {
                let _ = tracer.time("jit.mutant_run_oracles_off", root, || {
                    supervised_run(&mutant_bytecode, off.clone())
                });
            }
            let Ok(mutant_result) = run else { continue };
            self.vm.add(&mutant_result);
            // Validation's reference-demand rule: only a mutant that timed
            // out, ran past the anomaly slack or disagreed with the seed
            // needs the interpreter's verdict.
            let needs_reference = vconfig.verify_neutrality
                && (mutant_result.outcome.is_resource_exhausted()
                    || mutant_result.stats.total_ops() > PERF_ANOMALY_SLACK
                    || mutant_result.observable() != seed_observable);
            if !needs_reference {
                continue;
            }
            if !is_own_reference(&mutant_result) {
                self.reference_run(tracer, root, &mutant_bytecode, &reference_vm);
            }
            if !seed_reference_taken {
                seed_reference_taken = true;
                if !is_own_reference(&seed_result) {
                    self.reference_run(tracer, root, bytecode, &reference_vm);
                }
            }
        }
    }
}

/// `(value, percentile)` of the highest percentile with at least ten
/// samples beyond it; the maximum when there are ten samples or fewer.
fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (0.0, 0.0),
        n @ 1..=10 => (sorted[n - 1], 100.0),
        n => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Every per-layer metric, in a fixed order. A layer a workload does not
/// exercise reports 0.
#[derive(Default)]
struct LayerMetrics {
    replay: Replay,
    vm: VmTally,
    layers: BTreeMap<&'static str, Layer>,
    oracle_ms: f64,
    coverage_cells: f64,
    corpus_entries: f64,
    speedup: f64,
    efficiency: f64,
    space_points: u64,
    overhead_ratio: f64,
    failure_ratio: f64,
}

impl LayerMetrics {
    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    fn into_metrics(self) -> Vec<Metric> {
        let r = &self.replay;
        let (tail_ms, tail_pct) = tail(&r.validate_seed_ms);
        let seed_ms_p50 =
            if r.validate_seed_ms.is_empty() { 0.0 } else { workload::median(&r.validate_seed_ms) };
        let replayed = r.seed_runs + r.mutant_runs + r.reference_runs;
        let attribution_runs = r.validated_invocations as f64 - replayed as f64;
        let reference = self.layer("vm.reference_run");
        vec![
            metric("fuzz.calls", self.layer("fuzz.generate").count as f64, "count"),
            metric("fuzz.busy_ms", self.layer("fuzz.generate").self_ms, "ms"),
            metric("front.seed_busy_ms", self.layer("front.seed").self_ms, "ms"),
            metric("front.mutant_busy_ms", self.layer("front.mutant").self_ms, "ms"),
            metric("front.mutant_failures", r.mutant_failures as f64, "count"),
            metric("mutate.calls", r.jonm_calls as f64, "count"),
            metric("mutate.busy_ms", self.layer("mutate.jonm").self_ms, "ms"),
            metric(
                "mutate.applied_ratio",
                ratio(r.jonm_applied as f64, r.jonm_calls as f64),
                "ratio",
            ),
            metric("vm.seed_runs", r.seed_runs as f64, "count"),
            metric("vm.seed_ms", self.layer("vm.seed_run").self_ms, "ms"),
            metric("vm.mutant_runs", r.mutant_runs as f64, "count"),
            metric("vm.mutant_ms", self.layer("vm.mutant_run").self_ms, "ms"),
            metric("vm.reference_runs", r.reference_runs as f64, "count"),
            metric("vm.reference_ms", reference.self_ms, "ms"),
            metric("vm.attribution_runs", attribution_runs, "count"),
            metric(
                "vm.interp_mops_per_s",
                ratio(r.reference_interp_ops as f64 / 1e6, reference.self_ms / 1e3),
                "Mops/s",
            ),
            metric("vm.compilations", self.vm.compilations as f64, "count"),
            metric("vm.osr_compilations", self.vm.osr_compilations as f64, "count"),
            metric("vm.code_cache_hit_ratio", self.vm.hit_ratio(), "ratio"),
            metric("vm.deopts", self.vm.deopts as f64, "count"),
            metric("vm.gc_runs", self.vm.gc_runs as f64, "count"),
            metric("vm.timeouts", self.vm.timeouts as f64, "count"),
            metric("jit.oracle_ms", self.oracle_ms, "ms"),
            metric("validate.busy_ms", self.layer("validate").self_ms, "ms"),
            metric("validate.seed_ms_p50", seed_ms_p50, "ms"),
            metric("validate.seed_ms_tail", tail_ms, "ms"),
            metric("validate.seed_ms_tail_pct", tail_pct, "%"),
            metric("validate.seed_samples", r.validate_seed_ms.len() as f64, "count"),
            metric("coverage.cells", self.coverage_cells, "count"),
            metric("coverage.corpus_entries", self.corpus_entries, "count"),
            metric("executor.speedup", self.speedup, "ratio"),
            metric("executor.efficiency", self.efficiency, "ratio"),
            metric("space.calls", self.layer("space.enumerate").count as f64, "count"),
            metric("space.busy_ms", self.layer("space.enumerate").self_ms, "ms"),
            metric("space.points", self.space_points as f64, "count"),
            metric("trace.overhead_ratio", self.overhead_ratio, "ratio"),
            metric("failure_ratio", self.failure_ratio, "ratio"),
        ]
    }
}

fn write_spans(tracer: &Tracer, workload: Workload, seed: u64) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Runs the workload once untraced and once traced, and reports the
/// per-layer metrics.
pub fn run(workload: Workload, seed: u64) -> Report {
    match workload {
        Workload::SpaceHotspot => run_space(seed),
        _ => run_campaign_traced(workload, seed),
    }
}

fn run_campaign_traced(workload: Workload, seed: u64) -> Report {
    let mut report = Report::default();
    let config = workload::campaign_config(workload, seed);
    let start = Instant::now();
    let result = run_campaign(&config);
    let untraced = start.elapsed().as_secs_f64();
    workload::check_campaign(&config, &result, &mut report);
    (report.attempted, report.failed) = workload::campaign_failures(&result);

    // The replay validates each slot's natural seed under the campaign's
    // VM; on a guided campaign the scheduler's re-expansions and forced
    // plans show only in the coverage and executor metrics.
    let mut vm = config.vm.clone();
    vm.coverage = config.coverage != CoveragePolicy::Off;
    let mut vconfig = ValidateConfig::paper_defaults(vm);
    vconfig.max_iter = config.max_iter;
    let oracles_on = vconfig.vm.tv != TvMode::Off || vconfig.vm.verify_ir != VerifyMode::Off;
    let oracles_off = oracles_on.then(|| {
        let mut off = vconfig.vm.clone();
        off.tv = TvMode::Off;
        off.verify_ir = VerifyMode::Off;
        off
    });
    let mut tracer = Tracer::new();
    let mut replay = Replay::default();
    let start = Instant::now();
    for seed_value in config.first_seed..config.first_seed + config.seeds {
        replay.seed(&mut tracer, seed_value, &config, &vconfig, oracles_off.as_ref());
    }
    let traced = start.elapsed().as_secs_f64();
    write_spans(&tracer, workload, seed);

    report.check(replay.seed_runs == replay.validated_seed_runs, || {
        format!("replay ran {} seeds, validation {}", replay.seed_runs, replay.validated_seed_runs)
    });
    report.check(replay.mutant_runs == replay.validated_mutants, || {
        format!(
            "replay ran {} mutants, validation {}",
            replay.mutant_runs, replay.validated_mutants
        )
    });
    if workload == Workload::CampaignHotspot {
        let totals = &result.totals;
        let replayed =
            (replay.validated_seeds, replay.validated_mutants, replay.validated_invocations);
        let campaign = (totals.seeds, totals.mutants, totals.vm_invocations);
        report.check(replayed == campaign, || {
            format!(
                "per-seed validation totals (seeds, mutants, vm invocations) {replayed:?} \
                 differ from the campaign's {campaign:?}"
            )
        });
    }

    let mut metrics = LayerMetrics {
        vm: std::mem::take(&mut replay.vm),
        replay,
        layers: tracer.layers(),
        overhead_ratio: traced / untraced,
        failure_ratio: ratio(report.failed as f64, report.attempted as f64),
        ..LayerMetrics::default()
    };
    if oracles_on {
        metrics.oracle_ms = metrics.layer("vm.mutant_run").self_ms
            - metrics.layer("jit.mutant_run_oracles_off").self_ms;
    }
    if let Some(state) = &result.coverage {
        metrics.coverage_cells = f64::from(state.cells());
        metrics.corpus_entries = state.corpus.len() as f64;
    }
    if config.jobs > 1 {
        // The same campaign on one worker: the executor's speedup, and the
        // check that the digest does not depend on `jobs`.
        let serial = config.clone().with_jobs(1);
        let start = Instant::now();
        let serial_result = run_campaign(&serial);
        let serial_wall = start.elapsed().as_secs_f64();
        let (parallel_digest, serial_digest) =
            (result.digest(&config), serial_result.digest(&serial));
        report.check(parallel_digest == serial_digest, || {
            format!(
                "digest at jobs={} {parallel_digest:#x} differs from jobs=1 {serial_digest:#x}",
                config.jobs
            )
        });
        metrics.speedup = serial_wall / untraced;
        metrics.efficiency = metrics.speedup / config.jobs as f64;
    }
    report.metrics = metrics.into_metrics();
    report
}

fn run_space(seed: u64) -> Report {
    let mut report = Report::default();
    let vm = workload::space_vm();
    let start = Instant::now();
    let inputs = workload::space_inputs(seed);
    let untraced_pass = workload::space_pass(&inputs, &vm);
    let untraced = start.elapsed().as_secs_f64();
    drop(inputs);

    let mut tracer = Tracer::new();
    let mut metrics = LayerMetrics::default();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut discrepant = 0;
    let start = Instant::now();
    for gen_seed in workload::space_window(seed) {
        let root = tracer.open("program", gen_seed, None);
        let program = tracer
            .time("fuzz.generate", root, || cse_fuzz::generate(gen_seed, &Default::default()));
        let compiled = tracer.time("front.seed", root, || try_compile_checked(&program));
        if let Ok(program) = compiled {
            let calls = workload::space_coordinates(gen_seed, &program);
            let input = workload::SpaceInput { program, calls };
            if let Some(points) =
                tracer.time("space.enumerate", root, || workload::enumerate(&input, &vm))
            {
                metrics.space_points += points.len() as u64;
                discrepant += u64::from(find_space_discrepancy(&points).is_some());
                for point in &points {
                    metrics.vm.add(&point.result);
                }
                digest = workload::fold_digest(digest, &points);
            }
        }
        tracer.close(root);
    }
    let traced = start.elapsed().as_secs_f64();
    write_spans(&tracer, Workload::SpaceHotspot, seed);

    report.attempted = workload::SPACE_PROGRAMS;
    report.failed = untraced_pass.panics;
    report.check(digest == untraced_pass.digest, || {
        format!("traced space digest {digest:#x} differs from untraced {:#x}", untraced_pass.digest)
    });
    report.check(discrepant == untraced_pass.discrepant.len() as u64, || {
        format!(
            "traced run saw {discrepant} discrepant spaces, untraced {}",
            untraced_pass.discrepant.len()
        )
    });
    metrics.layers = tracer.layers();
    metrics.overhead_ratio = traced / untraced;
    metrics.failure_ratio = ratio(report.failed as f64, report.attempted as f64);
    report.metrics = metrics.into_metrics();
    report
}
