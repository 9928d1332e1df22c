//! The three workloads, their inputs, and the untraced end-to-end run.
//!
//! Every input is a pure function of the workload seed: the seed picks a
//! window of fuzzer seeds (and, for `space_hotspot`, the compilation-space
//! coordinates), so the same seed always yields the same programs.

use std::time::Instant;

use cse_bytecode::{BProgram, MethodId};
use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::space::{enumerate_space, find_space_discrepancy, SpacePoint};
use cse_core::validate::try_compile_checked;
use cse_core::{CoveragePolicy, IncidentPhase};
use cse_vm::{contain_panics, BugId, ExecMode, ForcedPlan, TvMode, VerifyMode, VmConfig, VmKind};

use crate::{metric, Report};

/// Seeds per campaign run. Per-seed cost is heavy-tailed, so a window
/// this size keeps one run's composition, and with it seeds/s and the
/// bug count, close across workload seeds.
pub const CAMPAIGN_SEEDS: u64 = 32;
/// Programs whose compilation space one `space_hotspot` pass enumerates.
pub const SPACE_PROGRAMS: u64 = 240;
/// The workload seed selects one of `WINDOWS` windows of consecutive
/// fuzzer seeds, starting at `WINDOW_BASE + seed % WINDOWS`. Neighbouring
/// windows differ only in a few seeds at either end, which keeps the
/// spread across workload seeds small while still varying the input. The
/// base and the window sizes were chosen by measurement so that all
/// windows of a workload agree on `unique_bugs` and `discrepant_spaces`:
/// those counts then guard yield, not input drift.
///
/// `campaign_openj9_guided` always runs the window at `WINDOW_BASE`: the
/// coverage scheduler turns a change of a few seeds into a different
/// schedule (four neighbouring windows measured 7 to 9 bugs, 15 to 18
/// discrepant seeds and 6.1 to 7.5 seeds/s), so a moving window would
/// measure the schedule rather than the code.
const WINDOWS: u64 = 4;
const WINDOW_BASE: u64 = 2;
/// Set-up repeats until this many seconds have passed; `setup_s` is the
/// median repetition.
const SETUP_SECONDS: f64 = 2.0;
/// Minimum set-up and timed repetitions, so every median has three
/// samples.
const MIN_REPS: usize = 3;
/// Compilation-space coordinates per program (the paper's Figure 1 has
/// four), and the invocation indices they are drawn from.
const SPACE_COORDS: usize = 6;
const SPACE_INVOCATIONS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignHotspot,
    CampaignOpenj9Guided,
    SpaceHotspot,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::CampaignHotspot, Workload::CampaignOpenj9Guided, Workload::SpaceHotspot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignHotspot => "campaign_hotspot",
            Workload::CampaignOpenj9Guided => "campaign_openj9_guided",
            Workload::SpaceHotspot => "space_hotspot",
        }
    }

    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?}; expected one of {}", names.join(", "))
        })
    }
}

/// First fuzzer seed of the window the workload seed selects.
pub fn first_seed(seed: u64) -> u64 {
    WINDOW_BASE + seed % WINDOWS
}

/// The campaign a campaign workload runs.
pub fn campaign_config(workload: Workload, seed: u64) -> CampaignConfig {
    match workload {
        Workload::CampaignHotspot => {
            let mut config = CampaignConfig::for_kind(VmKind::HotSpotLike, CAMPAIGN_SEEDS)
                .with_coverage(CoveragePolicy::Off);
            config.first_seed = first_seed(seed);
            config
        }
        Workload::CampaignOpenj9Guided => {
            let mut config = CampaignConfig::for_kind(VmKind::OpenJ9Like, CAMPAIGN_SEEDS)
                .with_coverage(CoveragePolicy::Guide)
                .with_jobs(2);
            config.first_seed = WINDOW_BASE;
            config.vm.tv = TvMode::Boundary;
            config.vm.verify_ir = VerifyMode::Boundary;
            config
        }
        Workload::SpaceHotspot => unreachable!("space_hotspot runs no campaign"),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Repeats `f` for `SETUP_SECONDS`, at least `MIN_REPS` times, and
/// returns the median time in seconds with the last repetition's value.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            return (median(&times), value);
        }
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload untraced for `seconds` and reports the end-to-end
/// metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Report {
    match workload {
        Workload::SpaceHotspot => run_space(seed, seconds),
        _ => run_campaigns(workload, seed, seconds),
    }
}

// ----- campaigns ----------------------------------------------------------

/// Generates and front-end-checks every seed of the campaign's window:
/// the inputs the campaign will process, made before the first timed
/// call. Returns how many seeds compiled.
pub fn campaign_setup(config: &CampaignConfig) -> usize {
    (config.first_seed..config.first_seed + config.seeds)
        .filter(|&s| try_compile_checked(&cse_fuzz::generate(s, &config.fuzz)).is_ok())
        .count()
}

/// Harness failures of a campaign: incidents from seed compilation through
/// the baseline, plus neutrality violations, over seeds and mutants
/// attempted. Static-oracle findings (`IrVerifyDefect`, `TvDefect`) are
/// what the oracles exist to report, not failures.
pub fn campaign_failures(result: &CampaignResult) -> (u64, u64) {
    let totals = &result.totals;
    let incidents = result
        .incidents
        .iter()
        .filter(|i| !matches!(i.phase, IncidentPhase::IrVerifyDefect | IncidentPhase::TvDefect))
        .count() as u64;
    let attempted = totals.seeds + totals.mutants + totals.mutant_compile_failures;
    (attempted, incidents + totals.neutrality_violations)
}

/// The output checks every campaign result must pass.
pub fn check_campaign(config: &CampaignConfig, result: &CampaignResult, report: &mut Report) {
    let allowed = BugId::default_set(config.vm.kind);
    for bug in result.bugs.keys() {
        report.check(allowed.contains(bug), || format!("found {bug:?}, not in the default set"));
    }
    let totals = &result.totals;
    report.check(totals.neutrality_violations == 0, || {
        format!("{} neutrality violations", totals.neutrality_violations)
    });
    report.check(totals.mutants == totals.completed + totals.discarded, || {
        format!(
            "mutants {} != completed {} + discarded {}",
            totals.mutants, totals.completed, totals.discarded
        )
    });
    report.check(!totals.partial && totals.seeds == config.seeds, || {
        format!("campaign stopped after {} of {} seeds", totals.seeds, config.seeds)
    });
}

fn run_campaigns(workload: Workload, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let config = campaign_config(workload, seed);
    let (setup_s, compiled) = timed_setup(|| campaign_setup(&config));
    report.check(compiled as u64 == config.seeds, || {
        format!("{} of {} seeds failed the front end", config.seeds - compiled as u64, config.seeds)
    });
    let mut first: Option<(u64, CampaignResult)> = None;
    let (walls, rss) = timed_reps(
        seconds,
        || run_campaign(&config),
        |result| {
            check_campaign(&config, &result, &mut report);
            let (attempted, failed) = campaign_failures(&result);
            report.attempted += attempted;
            report.failed += failed;
            let digest = result.digest(&config);
            match &first {
                None => first = Some((digest, result)),
                Some((first_digest, _)) => report.check(digest == *first_digest, || {
                    format!("digest {digest:#x} differs from the first run's {first_digest:#x}")
                }),
            }
        },
    );
    let (_, result) = first.expect("at least one campaign ran");
    report.metrics = end_to_end(
        &walls,
        config.seeds as f64,
        result.bugs.len(),
        config.jobs,
        result.cse_seeds.len(),
        setup_s,
        rss,
    );
    report
}

/// Repeats `rep` until `seconds` have passed and at least `MIN_REPS`
/// ran, handing each result to `inspect` outside the timed part. Returns
/// each repetition's wall time and the peak RSS after the first one:
/// later repetitions run on allocator arenas the earlier ones grew, so
/// only the first is a process that ran the workload once.
fn timed_reps<T>(
    seconds: u64,
    mut rep: impl FnMut() -> T,
    mut inspect: impl FnMut(T),
) -> (Vec<f64>, f64) {
    let mut walls = Vec::new();
    let mut rss = 0.0;
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs() < seconds {
        let t = Instant::now();
        let value = rep();
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() == 1 {
            rss = peak_rss_mb();
        }
        inspect(value);
    }
    (walls, rss)
}

/// The end-to-end metrics, from the wall time of each repetition of
/// `seeds` seeds on `jobs` cores.
fn end_to_end(
    walls: &[f64],
    seeds: f64,
    bugs: usize,
    jobs: usize,
    discrepant: usize,
    setup_s: f64,
    rss: f64,
) -> Vec<crate::Metric> {
    let seeds_per_s: Vec<f64> = walls.iter().map(|w| seeds / w).collect();
    let bugs_per_core_s: Vec<f64> = walls.iter().map(|w| bugs as f64 / (w * jobs as f64)).collect();
    vec![
        metric("seeds_per_s", median(&seeds_per_s), "1/s"),
        metric("bugs_per_core_s", median(&bugs_per_core_s), "1/s"),
        metric("unique_bugs", bugs as f64, "count"),
        metric("discrepant_spaces", discrepant as f64, "count"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss, "MB"),
    ]
}

// ----- compilation spaces -------------------------------------------------

/// One `space_hotspot` program and the coordinates its space spans.
pub struct SpaceInput {
    pub program: BProgram,
    pub calls: Vec<(MethodId, u64)>,
}

/// The VM every space is enumerated under.
pub fn space_vm() -> VmConfig {
    VmConfig::for_kind(VmKind::HotSpotLike)
}

/// Draws `min(methods, 6)` distinct coordinates `(method, invocation)`
/// with `invocation < 4`; a coordinate past a method's last call is dead,
/// as it would be for a user who cannot see the program's profile.
pub fn space_coordinates(gen_seed: u64, program: &BProgram) -> Vec<(MethodId, u64)> {
    let mut rng = cse_rng::Rng64::seed_from_u64(gen_seed ^ 0x5eed_c0de_0f5a_ce00);
    let methods = program.methods.len();
    let mut calls: Vec<(MethodId, u64)> = Vec::new();
    while calls.len() < methods.min(SPACE_COORDS) {
        let method = MethodId(rng.gen_range(0..methods) as u32);
        let call = (method, rng.gen_range(0..SPACE_INVOCATIONS));
        if !calls.contains(&call) {
            calls.push(call);
        }
    }
    calls
}

/// The fuzzer seeds of the programs `space_hotspot` enumerates.
pub fn space_window(seed: u64) -> std::ops::Range<u64> {
    first_seed(seed)..first_seed(seed) + SPACE_PROGRAMS
}

/// Generates and compiles the window's programs and draws their
/// coordinates. Programs that fail the front end are left out (and
/// counted by the caller as failures).
pub fn space_inputs(seed: u64) -> Vec<SpaceInput> {
    space_window(seed)
        .filter_map(|gen_seed| {
            let program =
                try_compile_checked(&cse_fuzz::generate(gen_seed, &Default::default())).ok()?;
            let calls = space_coordinates(gen_seed, &program);
            Some(SpaceInput { program, calls })
        })
        .collect()
}

/// FNV-1a over the observable behaviour of every point, in order.
pub fn fold_digest(mut hash: u64, points: &[SpacePoint]) -> u64 {
    for point in points {
        for byte in point.result.observable().bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One pass over every program's space.
pub struct SpacePass {
    pub points: u64,
    /// For each discrepant program: its index and the choices of the
    /// first point that disagrees with the all-interpreted point.
    pub discrepant: Vec<(usize, Vec<bool>)>,
    /// Programs whose enumeration panicked (contained).
    pub panics: u64,
    pub digest: u64,
}

/// Enumerates one program's space behind the crash barrier.
pub fn enumerate(input: &SpaceInput, vm: &VmConfig) -> Option<Vec<SpacePoint>> {
    contain_panics(|| enumerate_space(&input.program, &input.calls, vm)).ok()
}

pub fn space_pass(inputs: &[SpaceInput], vm: &VmConfig) -> SpacePass {
    let mut pass =
        SpacePass { points: 0, discrepant: Vec::new(), panics: 0, digest: 0xcbf2_9ce4_8422_2325 };
    for (index, input) in inputs.iter().enumerate() {
        let Some(points) = enumerate(input, vm) else {
            pass.panics += 1;
            continue;
        };
        pass.points += points.len() as u64;
        if let Some((_, j)) = find_space_discrepancy(&points) {
            pass.discrepant.push((index, points[j].choices.clone()));
        }
        pass.digest = fold_digest(pass.digest, &points);
    }
    pass
}

/// The VM configuration of one space point: the chosen coordinates run
/// compiled at the top tier, everything else interpreted (the plan
/// `enumerate_space` builds).
fn point_config(input: &SpaceInput, choices: &[bool], vm: &VmConfig) -> VmConfig {
    let mut plan = ForcedPlan::all_interpreted();
    for (&(method, invocation), &compiled) in input.calls.iter().zip(choices) {
        let mode = if compiled { ExecMode::Compiled(vm.top_tier()) } else { ExecMode::Interpret };
        plan.set(method, invocation, mode);
    }
    let mut config = vm.clone();
    config.plan = Some(plan);
    config.record_method_entries = true;
    config
}

/// Ground-truth attribution of a discrepant point, the way validation
/// attributes a mutant: rerun it with each bug that fired removed; the
/// first whose removal changes the observable is the culprit.
pub fn attribute_point(input: &SpaceInput, choices: &[bool], vm: &VmConfig) -> Option<BugId> {
    let config = point_config(input, choices, vm);
    let buggy = cse_vm::supervised_run(&input.program, config.clone()).ok()?;
    let active: Vec<BugId> = config.faults.bugs().collect();
    active.iter().copied().find(|&bug| {
        if buggy.stats.fired_bugs & (1u64 << (bug as u64)) == 0 {
            return false;
        }
        let mut ablated = config.clone();
        ablated.faults = cse_vm::FaultInjector::with(active.iter().copied().filter(|&b| b != bug));
        cse_vm::supervised_run(&input.program, ablated)
            .is_ok_and(|r| r.observable() != buggy.observable())
    })
}

fn run_space(seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    let vm = space_vm();
    let (setup_s, inputs) = timed_setup(|| space_inputs(seed));
    report.check(inputs.len() as u64 == SPACE_PROGRAMS, || {
        format!(
            "{} of {SPACE_PROGRAMS} programs failed the front end",
            SPACE_PROGRAMS - inputs.len() as u64
        )
    });
    let mut first: Option<SpacePass> = None;
    let (walls, rss) = timed_reps(
        seconds,
        || space_pass(&inputs, &vm),
        |pass| {
            report.attempted += inputs.len() as u64;
            report.failed += pass.panics;
            match &first {
                None => first = Some(pass),
                Some(f) => report.check(pass.digest == f.digest, || {
                    format!(
                        "space digest {:#x} differs from the first pass's {:#x}",
                        pass.digest, f.digest
                    )
                }),
            }
        },
    );
    let pass = first.expect("at least one pass ran");
    let mut bugs: Vec<BugId> = pass
        .discrepant
        .iter()
        .filter_map(|(index, choices)| attribute_point(&inputs[*index], choices, &vm))
        .collect();
    bugs.sort();
    bugs.dedup();
    let allowed = BugId::default_set(vm.kind);
    for bug in &bugs {
        report
            .check(allowed.contains(bug), || format!("attributed {bug:?}, not in the default set"));
    }
    report.metrics =
        end_to_end(&walls, inputs.len() as f64, bugs.len(), 1, pass.discrepant.len(), setup_s, rss);
    report
}
