//! Automated incident triage: reduction, dedup, and flakiness
//! classification for quarantined harness incidents.
//!
//! The paper's workflow does not stop at detection — every
//! bug-triggering program is reduced (Perses/C-Reduce, §2.2),
//! deduplicated by component, and re-executed to separate real
//! miscompilations from environmental noise before a report is filed
//! (§4). This module is that pipeline for [`HarnessIncident`]s:
//!
//! 1. **Signature-based dedup** — every incident gets a stable
//!    [`BugSignature`] (oracle kind, attributed pass/component, defect
//!    shape). Incidents sharing a signature collapse into one report
//!    with an occurrence count; only the first becomes the
//!    representative that is reduced and classified.
//! 2. **Automated reduction** — the representative's source is
//!    delta-debugged through [`cse_reduce::reduce_with`], keeping only
//!    candidates that still replay to the *same signature* under the
//!    panic barrier ([`supervised_run`]). When the replay VM carries a
//!    forced plan, the compilation-space coordinate is shrunk too
//!    ([`shrink_plan`]). Every candidate evaluation is wrapped in a
//!    bounded retry (attempt-based, never wall-clock-based) so a
//!    transient harness hiccup cannot abort a reduction.
//! 3. **Flakiness classification** — the reduced repro is re-executed
//!    `reruns` times serially and `reruns` times sharded across 4
//!    threads; a repro that always matches its signature is
//!    `deterministic`, sometimes is `flaky`, never is `unreproducible`.
//!    Unreproducible incidents are **never promoted to reports** — they
//!    are kept in a suppressed list for visibility.
//!
//! Everything here is bounded by deterministic budgets — the reducer's
//! step budget and the VM's fuel/heap/stack budgets (`CSE_FUEL`,
//! `CSE_HEAP_LIMIT`, `CSE_STACK_LIMIT`); the replay VM runs with the
//! wall-clock watchdog *disabled* — so triage verdicts, report
//! renderings, and campaign digests are bit-identical across machines
//! and worker counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use cse_bytecode::MethodId;
use cse_lang::Program;
use cse_reduce::{reduce_with, ReduceConfig};
use cse_vm::supervise::supervised_run;
use cse_vm::{ForcedPlan, VmConfig};

use crate::campaign::CampaignConfig;
use crate::supervisor::{ChaosConfig, HarnessIncident, IncidentPhase};
use crate::validate::try_compile_checked;

// ----- signatures ---------------------------------------------------------

/// Which oracle flagged the incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OracleKind {
    /// A contained panic somewhere in the harness or VM substrate.
    HarnessPanic,
    /// JoNM produced a program that fails compilation (a mutator bug).
    MutatorBug,
    /// The static IR verifier flagged malformed IR.
    IrDefect,
    /// The translation validator flagged a pass that broke its refinement
    /// contract.
    TvDefect,
    /// A crash discrepancy (used for quarantine file naming).
    Crash,
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleKind::HarnessPanic => write!(f, "harness-panic"),
            OracleKind::MutatorBug => write!(f, "mutator-bug"),
            OracleKind::IrDefect => write!(f, "ir-defect"),
            OracleKind::TvDefect => write!(f, "tv-defect"),
            OracleKind::Crash => write!(f, "crash"),
        }
    }
}

/// A stable bug signature: two incidents with the same signature are
/// one bug for reporting purposes. The shape is the payload's first
/// line with digit runs collapsed to `#`, so counters (burned ops,
/// block numbers, seed values) never split one bug into many reports.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BugSignature {
    pub oracle: OracleKind,
    /// Attributed component: the harness phase, or (for IR defects) the
    /// compiler pass the verifier blamed.
    pub component: String,
    /// Normalized defect shape.
    pub shape: String,
}

impl BugSignature {
    /// FNV-1a content hash — stable across processes and machines,
    /// suitable for file names and dedup keys.
    pub fn stable_hash(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [self.oracle.to_string().as_str(), &self.component, &self.shape] {
            for byte in part.bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= 0x1f;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

impl std::fmt::Display for BugSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x} oracle={} component={}", self.stable_hash(), self.oracle, self.component)
    }
}

/// Collapses digit runs to `#` and truncates: the canonical "shape" of
/// a payload line.
fn normalize_shape(text: &str) -> String {
    let first = text.lines().next().unwrap_or("");
    let mut out = String::new();
    for c in first.chars() {
        if c.is_ascii_digit() {
            if !out.ends_with('#') {
                out.push('#');
            }
        } else {
            out.push(c);
        }
    }
    // Truncate on a char boundary: payload lines can carry multi-byte
    // glyphs (e.g. the `…` in depth-bounded TV value terms).
    if out.len() > 160 {
        let mut cut = 160;
        while !out.is_char_boundary(cut) {
            cut -= 1;
        }
        out.truncate(cut);
    }
    out
}

/// The shape of one IR-verifier defect line, with the (program-specific)
/// method name stripped: `m3: after gvn: b2: ...` → `after gvn: b#: ...`.
fn ir_shape(line: &str) -> String {
    let tail = match line.find(": after ") {
        Some(idx) => &line[idx + 2..],
        None => line,
    };
    normalize_shape(tail)
}

/// The shape of one translation-validation defect line. TV
/// counterexamples embed symbolic terms full of program-specific temp
/// names (`r12`, `b3`, `in(b2, r7)`, `call#4@b1.0`) whose identity is
/// entirely numeric, so the digit normalization that `ir_shape` applies
/// after stripping the method name also collapses every temp name —
/// repeated hits of one pass defect on different programs dedup into one
/// report.
fn tv_shape(line: &str) -> String {
    ir_shape(line)
}

/// The pass an IR-verifier defect line attributes itself to.
fn ir_pass(payload: &str) -> Option<&str> {
    let line = payload.lines().next()?;
    let tail = &line[line.find(": after ")? + ": after ".len()..];
    Some(tail.split(':').next().unwrap_or(tail))
}

/// Computes the stable signature of an incident.
pub fn signature_of(incident: &HarnessIncident) -> BugSignature {
    match incident.phase {
        IncidentPhase::SeedCompile | IncidentPhase::MutantCompile => BugSignature {
            oracle: OracleKind::MutatorBug,
            component: incident.phase.name().to_string(),
            shape: normalize_shape(&incident.payload),
        },
        IncidentPhase::IrVerifyDefect => BugSignature {
            oracle: OracleKind::IrDefect,
            component: ir_pass(&incident.payload).unwrap_or("ir").to_string(),
            shape: ir_shape(incident.payload.lines().next().unwrap_or("")),
        },
        IncidentPhase::TvDefect => BugSignature {
            oracle: OracleKind::TvDefect,
            component: ir_pass(&incident.payload).unwrap_or("tv").to_string(),
            shape: tv_shape(incident.payload.lines().next().unwrap_or("")),
        },
        _ => BugSignature {
            oracle: OracleKind::HarnessPanic,
            component: incident.phase.name().to_string(),
            shape: normalize_shape(&incident.payload),
        },
    }
}

/// Signature for a crash-discrepancy quarantine file (kept alongside
/// incident signatures so both file families are hash-suffixed).
pub fn crash_signature(label: &str, crash: &cse_vm::CrashInfo) -> BugSignature {
    BugSignature {
        oracle: OracleKind::Crash,
        component: format!("{:?}", crash.component),
        shape: normalize_shape(&format!("{label} {:?} {}", crash.kind, crash.detail)),
    }
}

// ----- configuration ------------------------------------------------------

/// Triage settings.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Replay VM configuration. Triage forces `wall_clock_limit = None`
    /// on every replay: the fuel/heap/stack budgets bound execution, so
    /// verdicts cannot depend on machine speed.
    pub vm: VmConfig,
    /// Step budget for each representative's reduction
    /// (`CSE_TRIAGE_STEPS` overrides the default of 1000).
    pub max_reduce_steps: usize,
    /// Re-executions per parallelism level during flakiness
    /// classification (`CSE_TRIAGE_RERUNS` overrides the default of 3);
    /// each repro runs `reruns` times serially plus `reruns` times
    /// across 4 threads.
    pub reruns: usize,
    /// Extra replay attempts per candidate evaluation before it counts
    /// as a mismatch. Retries are attempt-based, never wall-clock-based.
    pub retries: usize,
    /// Threads triaging signature groups: the calling thread plus
    /// `jobs - 1` helpers. Output is bit-identical for every value.
    pub jobs: usize,
}

impl TriageConfig {
    /// Triage settings derived from a campaign: same VM profile and
    /// fault set, wall-clock watchdog off, chaos knob cleared (it is
    /// re-applied per incident from the campaign's `ChaosConfig`).
    pub fn for_campaign(config: &CampaignConfig) -> TriageConfig {
        let mut vm = config.vm.clone();
        vm.wall_clock_limit = None;
        vm.chaos_panic_at_ops = None;
        TriageConfig {
            vm,
            max_reduce_steps: env_usize("CSE_TRIAGE_STEPS").unwrap_or(1000),
            reruns: env_usize("CSE_TRIAGE_RERUNS").unwrap_or(3),
            retries: 1,
            jobs: config.jobs,
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

// ----- replay -------------------------------------------------------------

/// What a replay of the incident must exhibit to count as "the same
/// bug". Derived from the incident *record*, not from a replay, so an
/// incident whose original run cannot be reproduced is detected as
/// such instead of silently re-targeting whatever the replay does.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    Panic(String),
    CompileFail(String),
    IrDefect(String),
    TvDefect(String),
}

fn expected_of(incident: &HarnessIncident) -> Expected {
    match incident.phase {
        IncidentPhase::SeedCompile | IncidentPhase::MutantCompile => {
            Expected::CompileFail(normalize_shape(&incident.payload))
        }
        IncidentPhase::IrVerifyDefect => {
            Expected::IrDefect(ir_shape(incident.payload.lines().next().unwrap_or("")))
        }
        IncidentPhase::TvDefect => {
            Expected::TvDefect(tv_shape(incident.payload.lines().next().unwrap_or("")))
        }
        _ => Expected::Panic(normalize_shape(&incident.payload)),
    }
}

/// The VM configuration a specific incident replays under: the triage
/// VM, except that reference-interpreter phases replay on the reference
/// interpreter and the campaign's chaos knob is re-applied when it
/// targeted this incident's seed.
fn replay_vm(
    tcfg: &TriageConfig,
    incident: &HarnessIncident,
    chaos: Option<ChaosConfig>,
) -> VmConfig {
    let reference_phase =
        matches!(incident.phase, IncidentPhase::ReferenceRun | IncidentPhase::NeutralityRun);
    let mut vm =
        if reference_phase { VmConfig::interpreter_only(tcfg.vm.kind) } else { tcfg.vm.clone() };
    vm.wall_clock_limit = None;
    if !reference_phase {
        if let Some(chaos) = chaos {
            if chaos.panic_on_seed == incident.seed {
                vm.chaos_panic_at_ops = Some(chaos.after_ops);
            }
        }
    }
    vm
}

/// One replay: does `program` under `vm` exhibit `expected`?
fn replay_once(expected: &Expected, vm: &VmConfig, program: &Program) -> bool {
    let bytecode = match try_compile_checked(program) {
        Ok(bytecode) => bytecode,
        Err(message) => {
            return matches!(expected, Expected::CompileFail(shape)
                if *shape == normalize_shape(&message));
        }
    };
    if matches!(expected, Expected::CompileFail(_)) {
        return false;
    }
    match supervised_run(&bytecode, vm.clone()) {
        Err(panic) => {
            matches!(expected, Expected::Panic(shape) if *shape == normalize_shape(&panic.payload))
        }
        Ok(result) => match expected {
            Expected::IrDefect(shape) => {
                result.ir_verify.iter().any(|line| ir_shape(line) == *shape)
            }
            // A report opens with one header line per divergence.
            Expected::TvDefect(shape) => result.tv.iter().any(|report| {
                report
                    .lines()
                    .take_while(|line| !line.starts_with("--- IR before "))
                    .any(|line| tv_shape(line) == *shape)
            }),
            _ => false,
        },
    }
}

/// Replay with bounded retry: a candidate counts as matching if any of
/// `1 + retries` attempts matches (short-circuiting, so deterministic
/// repros cost one run). On the deterministic substrate the retries are
/// a no-op safety net; they mirror the paper's re-execution before
/// filing and keep a transient reducer step from killing a reduction.
fn replay(expected: &Expected, vm: &VmConfig, program: &Program, retries: usize) -> bool {
    (0..=retries).any(|_| replay_once(expected, vm, program))
}

// ----- reports ------------------------------------------------------------

/// Flakiness verdict for a reduced repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every re-execution reproduced the signature.
    Deterministic,
    /// Some, but not all, re-executions reproduced it.
    Flaky,
    /// No re-execution reproduced it; never promoted to a report.
    Unreproducible,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Deterministic => write!(f, "deterministic"),
            Verdict::Flaky => write!(f, "flaky"),
            Verdict::Unreproducible => write!(f, "unreproducible"),
        }
    }
}

/// One triaged signature group.
#[derive(Debug, Clone)]
pub struct TriagedReport {
    pub signature: BugSignature,
    /// How many incidents collapsed into this report.
    pub occurrences: usize,
    /// Campaign seeds of every member incident, in incident order.
    pub seeds: Vec<u64>,
    /// Phase of the representative (first) incident.
    pub phase: IncidentPhase,
    pub verdict: Verdict,
    /// Re-executions that reproduced the signature, out of the total.
    pub reruns_matched: usize,
    pub reruns_total: usize,
    /// Source bytes before and after reduction (0 when no source was
    /// captured).
    pub original_bytes: usize,
    pub reduced_bytes: usize,
    /// Reducer candidate evaluations spent.
    pub reduce_steps: usize,
    /// Whether the reduction stopped on its step budget rather than at
    /// a fixed point.
    pub reduce_budget_exhausted: bool,
    /// Forced-plan pins before and after coordinate shrinking, when the
    /// replay VM carried a forced plan.
    pub plan_pins: Option<(usize, usize)>,
    /// The reduced repro source (absent when the incident carried no
    /// source).
    pub reduced_source: Option<String>,
}

impl TriagedReport {
    fn render(&self, out: &mut String) {
        let _ = writeln!(out, "report {}", self.signature);
        let _ = writeln!(out, "  shape: {}", self.signature.shape);
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(out, "  occurrences: {} (seeds {})", self.occurrences, seeds.join(","));
        let _ = writeln!(
            out,
            "  verdict: {} ({}/{} reruns reproduce)",
            self.verdict, self.reruns_matched, self.reruns_total
        );
        let budget = if self.reduce_budget_exhausted { ", budget exhausted" } else { "" };
        let _ = writeln!(
            out,
            "  reduction: {} -> {} bytes in {} steps{budget}",
            self.original_bytes, self.reduced_bytes, self.reduce_steps
        );
        if let Some((before, after)) = self.plan_pins {
            let _ = writeln!(out, "  plan: {before} -> {after} pins");
        }
        match &self.reduced_source {
            Some(source) => {
                let _ = writeln!(out, "  repro:");
                for line in source.lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
            None => {
                let _ = writeln!(out, "  repro: (no source captured)");
            }
        }
    }
}

/// The result of triaging a batch of incidents.
#[derive(Debug, Clone, Default)]
pub struct TriageReport {
    /// Incidents triaged.
    pub incidents: usize,
    /// Promoted reports (deterministic or flaky), in first-occurrence
    /// order.
    pub reports: Vec<TriagedReport>,
    /// Unreproducible groups — kept for visibility, never promoted.
    pub suppressed: Vec<TriagedReport>,
}

impl TriageReport {
    /// Duplicate incidents absorbed across all signature groups.
    pub fn duplicates(&self) -> usize {
        self.reports.iter().chain(&self.suppressed).map(|r| r.occurrences.saturating_sub(1)).sum()
    }

    /// Promoted reports classified flaky.
    pub fn flaky(&self) -> usize {
        self.reports.iter().filter(|r| r.verdict == Verdict::Flaky).count()
    }

    /// Canonical rendering: deterministic, wall-clock free, identical
    /// for every worker count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "triage: {} incident(s), {} report(s), {} duplicate(s), {} suppressed",
            self.incidents,
            self.reports.len(),
            self.duplicates(),
            self.suppressed.len()
        );
        for report in self.reports.iter().chain(&self.suppressed) {
            report.render(&mut out);
        }
        out
    }

    /// FNV-1a digest of the canonical rendering.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

// ----- plan shrinking -----------------------------------------------------

/// Shrinks a forced compilation plan (the compilation-space coordinate,
/// Definition 3.3) while `interesting` holds: drops per-call pins one at
/// a time (in sorted order, so the walk is deterministic), then the
/// default mode, to a fixed point or `max_steps` evaluations.
pub fn shrink_plan(
    plan: &ForcedPlan,
    max_steps: usize,
    interesting: &mut dyn FnMut(&ForcedPlan) -> bool,
) -> ForcedPlan {
    let mut current = plan.clone();
    let mut steps = 0;
    loop {
        let mut changed = false;
        let mut keys: Vec<(MethodId, u64)> = current.per_call.keys().copied().collect();
        keys.sort_by_key(|&(m, i)| (m.0, i));
        for key in keys {
            if steps >= max_steps {
                return current;
            }
            let mut candidate = current.clone();
            candidate.per_call.remove(&key);
            steps += 1;
            if interesting(&candidate) {
                current = candidate;
                changed = true;
            }
        }
        if current.default.is_some() {
            if steps >= max_steps {
                return current;
            }
            let mut candidate = current.clone();
            candidate.default = None;
            steps += 1;
            if interesting(&candidate) {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            return current;
        }
    }
}

// ----- the pipeline -------------------------------------------------------

struct Group<'a> {
    signature: BugSignature,
    representative: &'a HarnessIncident,
    seeds: Vec<u64>,
}

/// Triages a batch of incidents: dedup by signature, reduce each
/// representative, classify flakiness. Group order (and therefore the
/// report, its rendering, and its digest) follows first occurrence in
/// `incidents`; worker count never changes the output.
pub fn triage_incidents(
    incidents: &[HarnessIncident],
    tcfg: &TriageConfig,
    chaos: Option<ChaosConfig>,
    quarantine_dir: Option<&Path>,
) -> TriageReport {
    // Dedup: same signature → same group; first member is the
    // representative whose source gets reduced and classified.
    let mut groups: Vec<Group> = Vec::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for incident in incidents {
        let signature = signature_of(incident);
        match index.get(&signature.stable_hash()) {
            Some(&at) => groups[at].seeds.push(incident.seed),
            None => {
                index.insert(signature.stable_hash(), groups.len());
                groups.push(Group {
                    signature,
                    representative: incident,
                    seeds: vec![incident.seed],
                });
            }
        }
    }
    let triaged = run_groups(&groups, tcfg, chaos);
    let mut report =
        TriageReport { incidents: incidents.len(), reports: Vec::new(), suppressed: Vec::new() };
    for item in triaged {
        if let (Some(dir), Verdict::Deterministic | Verdict::Flaky, Some(source)) =
            (quarantine_dir, item.verdict, &item.reduced_source)
        {
            if let Err(e) = write_reduced_repro(dir, &item, source) {
                eprintln!("warning: reduced-repro write failed: {e}");
            }
        }
        if item.verdict == Verdict::Unreproducible {
            report.suppressed.push(item);
        } else {
            report.reports.push(item);
        }
    }
    report
}

/// Campaign entry point: triages a finished campaign's incidents with
/// its supervisor's chaos knob and quarantine directory.
pub fn triage_campaign(
    config: &CampaignConfig,
    tcfg: &TriageConfig,
    incidents: &[HarnessIncident],
) -> TriageReport {
    triage_incidents(
        incidents,
        tcfg,
        config.supervisor.chaos,
        config.supervisor.quarantine_dir.as_deref(),
    )
}

/// Processes the signature groups on the campaign engine's in-order
/// pool ([`crate::executor::in_order`]); results come back in group
/// order regardless of scheduling.
fn run_groups(
    groups: &[Group<'_>],
    tcfg: &TriageConfig,
    chaos: Option<ChaosConfig>,
) -> Vec<TriagedReport> {
    let mut triaged = Vec::with_capacity(groups.len());
    crate::executor::in_order(
        tcfg.jobs.min(groups.len()),
        0..groups.len() as u64,
        || true,
        |at| triage_group(&groups[at as usize], tcfg, chaos),
        |item| triaged.push(item),
    );
    triaged
}

/// Reduces and classifies one signature group's representative.
fn triage_group(
    group: &Group<'_>,
    tcfg: &TriageConfig,
    chaos: Option<ChaosConfig>,
) -> TriagedReport {
    let incident = group.representative;
    let expected = expected_of(incident);
    let mut vm = replay_vm(tcfg, incident, chaos);
    let mut report = TriagedReport {
        signature: group.signature.clone(),
        occurrences: group.seeds.len(),
        seeds: group.seeds.clone(),
        phase: incident.phase,
        verdict: Verdict::Unreproducible,
        reruns_matched: 0,
        reruns_total: 0,
        original_bytes: incident.source.as_ref().map(String::len).unwrap_or(0),
        reduced_bytes: 0,
        reduce_steps: 0,
        reduce_budget_exhausted: false,
        plan_pins: None,
        reduced_source: None,
    };
    // No source, no replay: the incident stays unreproducible by
    // definition (and is suppressed, never reported).
    let Some(source) = incident.source.as_deref() else { return report };
    let Ok(program) = cse_lang::parse(source) else { return report };

    // Reduction: delta-debug the AST while the candidate still replays
    // to the incident's signature.
    let outcome = reduce_with(
        &program,
        ReduceConfig { max_steps: tcfg.max_reduce_steps },
        &mut |candidate| replay(&expected, &vm, candidate, tcfg.retries),
    );
    report.reduce_steps = outcome.steps;
    report.reduce_budget_exhausted = outcome.budget_exhausted;
    let reduced = if outcome.input_interesting { outcome.program } else { program };

    // Compilation-space coordinate: shrink the forced plan while the
    // reduced program still replays.
    if let Some(plan) = vm.plan.clone() {
        let before = plan.per_call.len() + plan.default.is_some() as usize;
        let budget = tcfg.max_reduce_steps.saturating_sub(report.reduce_steps).max(1);
        let shrunk = shrink_plan(&plan, budget, &mut |candidate| {
            let mut candidate_vm = vm.clone();
            candidate_vm.plan = Some(candidate.clone());
            replay(&expected, &candidate_vm, &reduced, tcfg.retries)
        });
        let after = shrunk.per_call.len() + shrunk.default.is_some() as usize;
        report.plan_pins = Some((before, after));
        vm.plan = Some(shrunk);
    }

    let reduced_source = cse_lang::pretty::print(&reduced);
    report.reduced_bytes = reduced_source.len();

    // Flakiness: re-execute the reduced repro `reruns` times serially
    // and `reruns` times across 4 worker threads. The counts (not the
    // order) decide the verdict, so scheduling cannot change it.
    let reruns = tcfg.reruns.max(1);
    let mut matched = (0..reruns).filter(|_| replay_once(&expected, &vm, &reduced)).count();
    let shards = 4usize;
    let counter = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for shard in 0..shards {
            let (counter, vm, expected, source) = (&counter, &vm, &expected, &reduced_source);
            scope.spawn(move || {
                let Ok(local) = cse_lang::parse(source) else { return };
                for _ in (shard..reruns).step_by(shards) {
                    if replay_once(expected, vm, &local) {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    matched += counter.load(Ordering::SeqCst);
    report.reruns_total = 2 * reruns;
    report.reruns_matched = matched;
    report.verdict = if matched == report.reruns_total {
        Verdict::Deterministic
    } else if matched > 0 {
        Verdict::Flaky
    } else {
        Verdict::Unreproducible
    };
    if report.verdict != Verdict::Unreproducible {
        report.reduced_source = Some(reduced_source);
    }
    report
}

fn write_reduced_repro(dir: &Path, report: &TriagedReport, source: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("triage_{:016x}.mj", report.signature.stable_hash()));
    let mut body = String::new();
    let _ = writeln!(body, "// triaged repro (reduced)");
    let _ = writeln!(body, "// signature: {}", report.signature);
    let _ = writeln!(body, "// shape: {}", report.signature.shape);
    let _ = writeln!(body, "// verdict: {}", report.verdict);
    let _ = writeln!(body, "// occurrences: {}", report.occurrences);
    body.push_str(source);
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_incident(seed: u64, payload: &str, source: Option<&str>) -> HarnessIncident {
        HarnessIncident {
            phase: IncidentPhase::SeedRun,
            seed,
            rng_seed: seed,
            iteration: None,
            payload: payload.to_string(),
            source: source.map(str::to_string),
        }
    }

    #[test]
    fn signatures_collapse_counter_noise() {
        let a = signature_of(&chaos_incident(
            1,
            "chaos: injected VM panic after 1000 burned ops",
            None,
        ));
        let b = signature_of(&chaos_incident(
            9,
            "chaos: injected VM panic after 52341 burned ops",
            None,
        ));
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn signatures_separate_distinct_defects() {
        let a = signature_of(&chaos_incident(1, "index out of bounds: 4", None));
        let b = signature_of(&chaos_incident(1, "attempt to divide by zero", None));
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn ir_shapes_drop_method_names_but_keep_passes() {
        let a = ir_shape("m3: after gvn: b2[4]: use before def in `add`");
        let b = ir_shape("helper: after gvn: b7[1]: use before def in `add`");
        assert_eq!(a, b);
        let c = ir_shape("m3: after licm: b2[4]: use before def in `add`");
        assert_ne!(a, c);
        assert_eq!(ir_pass("m3: after gvn: b2[4]: use before def"), Some("gvn"));
    }

    /// Shape truncation must respect char boundaries: TV value terms are
    /// depth-bounded with a multi-byte `…`, and a payload whose 160-byte
    /// cut lands inside it must not panic.
    #[test]
    fn shape_truncation_is_char_boundary_safe() {
        for pad in 150..170 {
            let line = format!("{}…tail", "x".repeat(pad));
            let shape = normalize_shape(&line);
            assert!(shape.len() <= 160, "shape must stay bounded");
        }
    }

    /// TV counterexamples embed symbolic temp names (`r12`, `b3`,
    /// `in(b2, r7)`) whose identity is numeric: two hits of the same pass
    /// defect on different programs must share one signature, while a
    /// different pass or a different defect shape must not.
    #[test]
    fn tv_shapes_dedup_across_temp_names_and_programs() {
        let a = tv_shape("T.hot: after gvn: b2: effect 1 diverges: before `putfield#3(r12, in(b2, r7))`, after `putfield#3(r12, r9)`");
        let b = tv_shape("Other.main: after gvn: b5: effect 3 diverges: before `putfield#8(r4, in(b5, r31))`, after `putfield#8(r4, r2)`");
        assert_eq!(a, b, "temp names and counters must normalize away");
        let c = tv_shape("T.hot: after licm: b2: effect 1 diverges: before `putfield#3(r12, in(b2, r7))`, after `putfield#3(r12, r9)`");
        assert_ne!(a, c, "the attributed pass stays significant");
        let d = tv_shape("T.hot: after gvn: b2: effect 1 dropped: `putfield#3(r12, in(b2, r7))`");
        assert_ne!(a, d, "the defect shape stays significant");

        // End-to-end: two TvDefect incidents from different programs and
        // methods collapse into one signature group.
        let incident = |seed: u64, payload: &str| HarnessIncident {
            phase: IncidentPhase::TvDefect,
            seed,
            rng_seed: seed,
            iteration: None,
            payload: payload.to_string(),
            source: None,
        };
        let x = signature_of(&incident(
            1,
            "T.hot: after gvn: b2: effect 1 diverges: before `putfield#3(r12, r7)`, after `putfield#3(r12, r9)`",
        ));
        let y = signature_of(&incident(
            2,
            "U.cold: after gvn: b9: effect 4 diverges: before `putfield#1(r2, r88)`, after `putfield#1(r2, r3)`",
        ));
        assert_eq!(x, y, "repeated TV hits must dedup into one report");
        assert_eq!(x.oracle, OracleKind::TvDefect);
        assert_eq!(x.component, "gvn", "signature component is the blamed pass");
    }

    #[test]
    fn unreproducible_incidents_are_suppressed() {
        // A panic payload that the (panic-free) replay can never match.
        let incident = chaos_incident(
            3,
            "phantom failure that will not reproduce",
            Some("class T { static void main() { println(1); } }"),
        );
        let tcfg = TriageConfig {
            vm: VmConfig::correct(cse_vm::VmKind::HotSpotLike),
            max_reduce_steps: 50,
            reruns: 2,
            retries: 0,
            jobs: 1,
        };
        let report = triage_incidents(std::slice::from_ref(&incident), &tcfg, None, None);
        assert!(report.reports.is_empty(), "unreproducible must never be promoted");
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].verdict, Verdict::Unreproducible);
    }

    #[test]
    fn duplicate_incidents_collapse_with_counts() {
        let incidents = vec![
            chaos_incident(2, "chaos: injected VM panic after 100 burned ops", None),
            chaos_incident(5, "chaos: injected VM panic after 999 burned ops", None),
            chaos_incident(9, "chaos: injected VM panic after 31337 burned ops", None),
        ];
        let tcfg = TriageConfig {
            vm: VmConfig::correct(cse_vm::VmKind::HotSpotLike),
            max_reduce_steps: 10,
            reruns: 1,
            retries: 0,
            jobs: 1,
        };
        let report = triage_incidents(&incidents, &tcfg, None, None);
        assert_eq!(report.reports.len() + report.suppressed.len(), 1, "one signature group");
        let group = report.suppressed.first().or(report.reports.first()).unwrap();
        assert_eq!(group.occurrences, 3);
        assert_eq!(group.seeds, vec![2, 5, 9]);
        assert_eq!(report.duplicates(), 2);
    }
}
