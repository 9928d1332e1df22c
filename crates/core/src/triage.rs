//! Automated incident triage: dedup, reduction, and a replay verdict
//! for quarantined harness incidents.
//!
//! The paper's workflow does not stop at detection — every
//! bug-triggering program is reduced (Perses/C-Reduce, §2.2),
//! deduplicated by component, and re-executed before a report is filed
//! (§4). This module is that pipeline for [`HarnessIncident`]s, each
//! replayed under the VM that raised it:
//!
//! 1. **Signature-based dedup** — every incident gets a stable
//!    [`BugSignature`] (oracle kind, attributed pass/component, defect
//!    shape). Incidents sharing a signature collapse into one report
//!    with an occurrence count; only the first becomes the
//!    representative that is reduced and replayed.
//! 2. **Automated reduction** — the representative's source is
//!    delta-debugged through [`cse_reduce::reduce_with`], keeping only
//!    candidates whose replay under the panic barrier
//!    ([`supervised_run`]) raises an incident with the *same signature*.
//!    When the replay VM carries a forced plan, the compilation-space
//!    coordinate is shrunk too ([`shrink_plan`]).
//! 3. **Verdict** — the reduced repro is printed, parsed back and
//!    replayed once: `deterministic` when it raises the signature,
//!    `unreproducible` when it does not or the input never replayed.
//!    Unreproducible groups are **never promoted to reports** — they are
//!    kept in a suppressed list for visibility. The paper reruns repros
//!    because production JVMs are nondeterministic; this substrate is
//!    deterministic by contract (below), so one replay decides.
//!
//! Everything here is bounded by deterministic budgets — the reducer's
//! step budget and the VM's fuel/heap/stack budgets (`CSE_FUEL`,
//! `CSE_HEAP_LIMIT`, `CSE_STACK_LIMIT`); the replay VM runs with the
//! wall-clock watchdog *disabled* — so triage verdicts, report
//! renderings, and campaign digests are bit-identical across machines
//! and worker counts.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use cse_bytecode::{BProgram, Fnv, MethodId};
use cse_reduce::{reduce_with, ReduceConfig};
use cse_vm::supervise::supervised_run;
use cse_vm::{ForcedPlan, Settings, VmConfig};

use crate::campaign::CampaignConfig;
use crate::supervisor::{HarnessIncident, IncidentPhase};
use crate::validate::{try_compile_checked, try_compile_resolved};

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
        let mut hash = Fnv::new();
        for part in [self.oracle.to_string().as_str(), &self.component, &self.shape] {
            hash.raw(part.as_bytes());
            hash.raw(&[0x1f]);
        }
        hash.finish()
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

/// The shape of one IR-verifier or translation-validation defect line,
/// with the (program-specific) method name stripped:
/// `m3: after gvn: b2: ...` → `after gvn: b#: ...`. TV counterexamples
/// embed temp names (`r12`, `b3`, `in(b2, r7)`, `call#4@b1.0`) whose
/// identity is entirely numeric, so the digit normalization collapses
/// them too: repeated hits of one pass defect on different programs
/// dedup into one report.
fn ir_shape(line: &str) -> String {
    let tail = match line.find(": after ") {
        Some(idx) => &line[idx + 2..],
        None => line,
    };
    normalize_shape(tail)
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
            shape: ir_shape(incident.payload.lines().next().unwrap_or("")),
        },
        _ => BugSignature {
            oracle: OracleKind::HarnessPanic,
            component: incident.phase.name().to_string(),
            shape: normalize_shape(&incident.payload),
        },
    }
}

/// The static-oracle signatures already reported with a source, kept as
/// [`BugSignature::stable_hash`]es (the key triage groups by), each with
/// the position of its first incident in the holder's incident list. A
/// campaign keeps one source per signature: validation holds one set per
/// seed and the seed-ordered merge one for the whole campaign, whose
/// positions index `CampaignResult::incidents`.
#[derive(Debug, Default)]
pub(crate) struct SeenSignatures(HashMap<u64, usize>);

impl SeenSignatures {
    /// The set of the static-oracle incidents in `incidents` (a resumed
    /// campaign's).
    pub(crate) fn of(incidents: &[HarnessIncident]) -> SeenSignatures {
        let mut seen = SeenSignatures::default();
        for (at, incident) in incidents.iter().enumerate() {
            if incident.phase.is_static_oracle() {
                seen.first_of(incident, at);
            }
        }
        seen
    }

    /// Records `incident`, found at position `at`: `None` when its
    /// signature was not yet seen, otherwise the position of the
    /// signature's first incident.
    pub(crate) fn first_of(&mut self, incident: &HarnessIncident, at: usize) -> Option<usize> {
        match self.0.entry(signature_of(incident).stable_hash()) {
            Entry::Occupied(first) => Some(*first.get()),
            Entry::Vacant(slot) => {
                slot.insert(at);
                None
            }
        }
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
    /// Step budget for each representative's reduction (default from
    /// `CSE_TRIAGE_STEPS`).
    pub max_reduce_steps: usize,
    /// Threads triaging signature groups: the calling thread plus
    /// `jobs - 1` helpers. Output is bit-identical for every value.
    pub jobs: usize,
}

impl TriageConfig {
    /// Triage settings for a campaign: `CSE_TRIAGE_STEPS` and the
    /// campaign's worker count.
    pub fn for_campaign(config: &CampaignConfig) -> TriageConfig {
        TriageConfig { max_reduce_steps: Settings::get().triage_steps, jobs: config.jobs }
    }
}

// ----- replay -------------------------------------------------------------

/// The VM an incident replays under: the VM that raised it, with the two
/// replay rules applied. The wall-clock watchdog is off, so only the
/// deterministic fuel/heap/stack budgets bound a replay, and
/// reference-interpreter phases replay on that VM's reference
/// ([`VmConfig::reference`]), as validation ran them.
fn replay_vm(incident: &HarnessIncident, raised_under: &VmConfig) -> VmConfig {
    let mut vm = match incident.phase {
        IncidentPhase::ReferenceRun | IncidentPhase::NeutralityRun => raised_under.reference(),
        _ => raised_under.clone(),
    };
    vm.wall_clock_limit = None;
    vm
}

/// One replay: does a program whose front-end result is `front` raise,
/// under `vm`, an incident with the group's signature? The replay builds
/// the incidents its run would raise, as validation records them: a
/// compile failure as a compile-phase incident, a contained panic under
/// the representative's phase, one incident per IR-verifier line and one
/// per TV report header line. [`signature_of`] alone decides "same bug".
/// Callers compile once per program ([`try_compile_resolved`] for reducer
/// candidates, which come checked), so plan shrinking reruns one
/// program's bytecode under each candidate plan.
fn replays(group: &Group<'_>, vm: &VmConfig, front: &Result<BProgram, String>) -> bool {
    let phase = group.representative.phase;
    let raised: Vec<(IncidentPhase, String)> = match front {
        Err(message) => {
            let compile_phase = match phase {
                IncidentPhase::MutantCompile => IncidentPhase::MutantCompile,
                _ => IncidentPhase::SeedCompile,
            };
            vec![(compile_phase, message.clone())]
        }
        Ok(bytecode) => match supervised_run(bytecode, vm.clone()) {
            Err(panic) => vec![(phase, panic.payload)],
            Ok(result) => {
                let ir =
                    result.ir_verify.into_iter().map(|line| (IncidentPhase::IrVerifyDefect, line));
                // Each TV entry holds one header line per divergence.
                let tv = result.tv.iter().flat_map(|report| {
                    report.lines().map(|line| (IncidentPhase::TvDefect, line.to_string()))
                });
                ir.chain(tv).collect()
            }
        },
    };
    raised.into_iter().any(|(phase, payload)| {
        let incident = HarnessIncident {
            phase,
            seed: group.representative.seed,
            rng_seed: group.representative.rng_seed,
            iteration: group.representative.iteration,
            payload,
            source: None,
        };
        signature_of(&incident) == group.signature
    })
}

// ----- reports ------------------------------------------------------------

/// Replay verdict for a signature group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The written repro, parsed back, replays to the signature.
    Deterministic,
    /// The incident (or its written repro) does not replay; never
    /// promoted to a report.
    Unreproducible,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Deterministic => write!(f, "deterministic"),
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
    /// Source bytes before and after reduction (0 when no source was
    /// captured or the incident did not replay).
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
        let _ = writeln!(out, "  verdict: {}", self.verdict);
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
    /// Promoted (deterministic) reports, in first-occurrence order.
    pub reports: Vec<TriagedReport>,
    /// Unreproducible groups — kept for visibility, never promoted.
    pub suppressed: Vec<TriagedReport>,
}

impl TriageReport {
    /// Duplicate incidents absorbed across all signature groups.
    pub fn duplicates(&self) -> usize {
        self.reports.iter().chain(&self.suppressed).map(|r| r.occurrences.saturating_sub(1)).sum()
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
        let mut hash = Fnv::new();
        hash.raw(self.render().as_bytes());
        hash.finish()
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
    /// The representative's replay VM (see [`replay_vm`]).
    vm: VmConfig,
    seeds: Vec<u64>,
}

/// Triages a batch of incidents, each paired with the VM that raised
/// it: dedup by signature, then reduce and replay each representative
/// under its own VM. Group order (and therefore the report, its
/// rendering, and its digest) follows first occurrence in `incidents`;
/// worker count never changes the output.
pub fn triage_incidents(
    incidents: &[(HarnessIncident, VmConfig)],
    tcfg: &TriageConfig,
    quarantine_dir: Option<&Path>,
) -> TriageReport {
    // Dedup: same signature → same group; first member is the
    // representative whose source gets reduced and replayed.
    let mut groups: Vec<Group> = Vec::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for (incident, raised_under) in incidents {
        let signature = signature_of(incident);
        match index.get(&signature.stable_hash()) {
            Some(&at) => groups[at].seeds.push(incident.seed),
            None => {
                index.insert(signature.stable_hash(), groups.len());
                groups.push(Group {
                    signature,
                    representative: incident,
                    vm: replay_vm(incident, raised_under),
                    seeds: vec![incident.seed],
                });
            }
        }
    }
    let triaged = run_groups(&groups, tcfg);
    let mut report =
        TriageReport { incidents: incidents.len(), reports: Vec::new(), suppressed: Vec::new() };
    for item in triaged {
        match (&item.reduced_source, item.verdict) {
            (Some(source), Verdict::Deterministic) => {
                if let Some(dir) = quarantine_dir {
                    if let Err(e) = write_reduced_repro(dir, &item, source) {
                        eprintln!("warning: reduced-repro write failed: {e}");
                    }
                }
                report.reports.push(item);
            }
            _ => report.suppressed.push(item),
        }
    }
    report
}

/// Campaign entry point: triages a finished campaign's incidents into
/// its quarantine directory. Each incident replays under `config.vm`,
/// with the supervisor's chaos knob armed when it targeted the
/// incident's seed — the VM the campaign ran that seed under.
pub fn triage_campaign(
    config: &CampaignConfig,
    tcfg: &TriageConfig,
    incidents: &[HarnessIncident],
) -> TriageReport {
    let raised: Vec<(HarnessIncident, VmConfig)> = incidents
        .iter()
        .map(|incident| {
            let mut vm = config.vm.clone();
            if let Some(chaos) = config.supervisor.chaos {
                if chaos.panic_on_seed == incident.seed {
                    vm.chaos_panic_at_ops = Some(chaos.after_ops);
                }
            }
            (incident.clone(), vm)
        })
        .collect();
    triage_incidents(&raised, tcfg, config.supervisor.quarantine_dir.as_deref())
}

/// Processes the signature groups on the campaign engine's in-order
/// pool ([`crate::executor::in_order`]); results come back in group
/// order regardless of scheduling.
fn run_groups(groups: &[Group<'_>], tcfg: &TriageConfig) -> Vec<TriagedReport> {
    let mut triaged = Vec::with_capacity(groups.len());
    crate::executor::in_order(
        tcfg.jobs.min(groups.len()),
        0..groups.len() as u64,
        || true,
        |at| triage_group(&groups[at as usize], tcfg),
        |item| triaged.push(item),
    );
    triaged
}

/// Reduces one signature group's representative and replays the written
/// repro once for the verdict.
fn triage_group(group: &Group<'_>, tcfg: &TriageConfig) -> TriagedReport {
    let incident = group.representative;
    let mut vm = group.vm.clone();
    let mut report = TriagedReport {
        signature: group.signature.clone(),
        occurrences: group.seeds.len(),
        seeds: group.seeds.clone(),
        phase: incident.phase,
        verdict: Verdict::Unreproducible,
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
    // to the incident's signature. The reducer tries the input first and
    // hands the predicate checked programs only, so each is lowered
    // without a second check.
    let outcome = reduce_with(
        &program,
        ReduceConfig { max_steps: tcfg.max_reduce_steps },
        &mut |candidate| replays(group, &vm, &try_compile_resolved(candidate)),
    );
    report.reduce_steps = outcome.steps;
    report.reduce_budget_exhausted = outcome.budget_exhausted;
    let reduced = outcome.program;
    // An input the checker rejects never reaches the predicate. It cannot
    // be reduced either (a candidate that passes the checker does not
    // replay a checker failure), but a compile-phase group's type error
    // still replays, unreduced.
    if !outcome.input_interesting {
        let front = try_compile_checked(&reduced);
        if front.is_ok() || !replays(group, &vm, &front) {
            return report;
        }
    }

    // Compilation-space coordinate: shrink the forced plan while the
    // reduced program still replays.
    if let Some(plan) = vm.plan.clone() {
        let before = plan.per_call.len() + plan.default.is_some() as usize;
        let budget = tcfg.max_reduce_steps.saturating_sub(report.reduce_steps).max(1);
        let front = try_compile_checked(&reduced);
        let shrunk = shrink_plan(&plan, budget, &mut |candidate| {
            let mut candidate_vm = vm.clone();
            candidate_vm.plan = Some(candidate.clone());
            replays(group, &candidate_vm, &front)
        });
        let after = shrunk.per_call.len() + shrunk.default.is_some() as usize;
        report.plan_pins = Some((before, after));
        vm.plan = Some(shrunk);
    }

    // The verdict: one replay of the repro as written, which also checks
    // that the printed source round-trips. The substrate is deterministic
    // (no watchdog, only step/heap/stack budgets), so a second replay
    // could not disagree with the first.
    let reduced_source = cse_lang::pretty::print(&reduced);
    report.reduced_bytes = reduced_source.len();
    let repro = cse_lang::parse(&reduced_source);
    if repro.is_ok_and(|repro| replays(group, &vm, &try_compile_checked(&repro))) {
        report.verdict = Verdict::Deterministic;
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
        let a = ir_shape("T.hot: after gvn: b2: effect 1 diverges: before `putfield#3(r12, in(b2, r7))`, after `putfield#3(r12, r9)`");
        let b = ir_shape("Other.main: after gvn: b5: effect 3 diverges: before `putfield#8(r4, in(b5, r31))`, after `putfield#8(r4, r2)`");
        assert_eq!(a, b, "temp names and counters must normalize away");
        let c = ir_shape("T.hot: after licm: b2: effect 1 diverges: before `putfield#3(r12, in(b2, r7))`, after `putfield#3(r12, r9)`");
        assert_ne!(a, c, "the attributed pass stays significant");
        let d = ir_shape("T.hot: after gvn: b2: effect 1 dropped: `putfield#3(r12, in(b2, r7))`");
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
    fn reference_phases_replay_under_the_raising_vms_budgets() {
        let mut raised_under = VmConfig::force_compile_all(cse_vm::VmKind::OpenJ9Like);
        raised_under.fuel = 1234;
        raised_under.max_heap_bytes = 4096;
        raised_under.stack_limit = 77;
        raised_under.wall_clock_limit = Some(std::time::Duration::from_secs(5));
        let incident = HarnessIncident {
            phase: IncidentPhase::NeutralityRun,
            iteration: Some(0),
            ..chaos_incident(4, "index out of bounds: 4", None)
        };
        let vm = replay_vm(&incident, &raised_under);
        assert_eq!((vm.fuel, vm.max_heap_bytes, vm.stack_limit), (1234, 4096, 77));
        assert!(!vm.jit_enabled);
        assert!(vm.plan.is_none());
        assert_eq!(vm.wall_clock_limit, None, "replays run without the watchdog");
    }

    #[test]
    fn unreproducible_incidents_are_suppressed() {
        // A panic payload that the (panic-free) replay can never match.
        let incident = chaos_incident(
            3,
            "phantom failure that will not reproduce",
            Some("class T { static void main() { println(1); } }"),
        );
        let tcfg = TriageConfig { max_reduce_steps: 50, jobs: 1 };
        let vm = VmConfig::correct(cse_vm::VmKind::HotSpotLike);
        let report = triage_incidents(&[(incident, vm)], &tcfg, None);
        assert!(report.reports.is_empty(), "unreproducible must never be promoted");
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].verdict, Verdict::Unreproducible);
    }

    #[test]
    fn duplicate_incidents_collapse_with_counts() {
        let vm = VmConfig::correct(cse_vm::VmKind::HotSpotLike);
        let incidents = [
            (chaos_incident(2, "chaos: injected VM panic after 100 burned ops", None), vm.clone()),
            (chaos_incident(5, "chaos: injected VM panic after 999 burned ops", None), vm.clone()),
            (chaos_incident(9, "chaos: injected VM panic after 31337 burned ops", None), vm),
        ];
        let tcfg = TriageConfig { max_reduce_steps: 10, jobs: 1 };
        let report = triage_incidents(&incidents, &tcfg, None);
        assert_eq!(report.reports.len() + report.suppressed.len(), 1, "one signature group");
        let group = report.suppressed.first().or(report.reports.first()).unwrap();
        assert_eq!(group.occurrences, 3);
        assert_eq!(group.seeds, vec![2, 5, 9]);
        assert_eq!(report.duplicates(), 2);
    }
}
