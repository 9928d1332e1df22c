//! Campaign supervision: incidents, checkpoints, and quarantine.
//!
//! Long campaigns must survive harness bugs, wedged runs, and process
//! kills without losing work. This module holds the pieces the
//! supervised campaign driver ([`crate::campaign::run_campaign`]) builds
//! on:
//!
//! - [`HarnessIncident`]: a structured record of a contained panic or
//!   harness failure (which phase, which seed, which mutation iteration,
//!   what payload), aggregated on [`CampaignResult`] instead of tearing
//!   the campaign down.
//! - Checkpoints: the full campaign state (seed cursor, bug map, totals,
//!   incidents) serialized to a versioned, dependency-free text format
//!   and written atomically, so a killed campaign resumes exactly where
//!   it stopped and produces a bit-identical [`CampaignResult`].
//! - Quarantine: crashing and panicking inputs persisted as
//!   self-contained repro files (source + rng seed + VM profile).
//!
//! The checkpoint format is line-oriented with length-prefixed blocks
//! for multi-line strings:
//!
//! ```text
//! cse-checkpoint v7
//! config HotSpot 100 0 8
//! next_seed 42
//! partial 1
//! unattributed 0
//! totals <seeds> <mutants> <completed> <vm_invocations> <discarded>
//!        <seeds_discarded> <mutant_compile_failures>
//!        <neutrality_violations> <ir_verify_defects> <tv_defects>
//!        <triage_reports> <triage_duplicates> <triage_flaky>
//!        <triage_unreproducible> <artifact_cache_hits>
//!        <artifact_cache_misses> <wall_nanos>       (one line)
//! cse_seeds <n>        (then n lines, one seed each)
//! traditional_seeds <n>
//! bugs <n>
//!   bug <BugId> <occurrences> <first_seed> <Symptom> <Component>
//!   text <byte-len>      (then that many bytes of reproducer + newline)
//! incidents <n>
//!   incident <phase> <seed> <rng_seed> <iteration|->
//!   text <byte-len>      (payload)
//!   source <0|1>  [+ text block when 1]
//! ```
//!
//! The `coverage` section follows exactly when the result carries
//! coverage state (`CSE_COVERAGE=collect|guide`): the merged map, the
//! minimized corpus and the active round's schedule (see
//! [`crate::coverage`]). Without it the file ends after the incidents.
//!
//! ```text
//! coverage <round> <execs> <runs0> <runs1> <runs2> <new0> <new1> <new2>
//! map <64 lowercase-hex u64 words>
//! corpus <n>
//!   entry <gen_seed> <new_cells> <n-locations>  (then one location/line)
//!   map <64 hex words>
//! schedule <n>
//!   task <gen_seed> <plan-name> <n-focus>       (then one location/line)
//! ```

use std::fmt::Write as _;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cse_vm::{BugId, Component, Symptom, VmConfig};

use crate::campaign::{BugEvidence, CampaignConfig, CampaignResult};
use crate::coverage::{CorpusEntry, CoverageState, PlanVariant, TaskSpec};

/// Where in Algorithm 1 a harness incident happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentPhase {
    /// Compiling or type-checking the fuzzer seed.
    SeedCompile,
    /// Running the seed on the VM under test.
    SeedRun,
    /// Running the seed on the reference interpreter.
    ReferenceRun,
    /// Deriving a mutant (the mutation engine itself).
    Mutation,
    /// Compiling a mutant — a quarantined mutator bug: JoNM produced a
    /// program that fails the type checker or bytecode compiler.
    MutantCompile,
    /// Running a mutant on the VM under test.
    MutantRun,
    /// Running a mutant on the reference interpreter.
    NeutralityRun,
    /// Ground-truth attribution reruns.
    Attribution,
    /// The traditional-fuzzing baseline (§4.3 comparative study).
    Baseline,
    /// The static IR verifier flagged malformed IR at a pass boundary —
    /// the third oracle (alongside output differencing and crash
    /// detection); see `cse_vm::jit::verify`.
    IrVerifyDefect,
    /// The translation validator flagged a pass whose output is not a
    /// semantic refinement of its input — the per-pass semantic oracle;
    /// see `cse_vm::jit::tv`.
    TvDefect,
}

impl IncidentPhase {
    pub const ALL: [IncidentPhase; 11] = [
        IncidentPhase::SeedCompile,
        IncidentPhase::SeedRun,
        IncidentPhase::ReferenceRun,
        IncidentPhase::Mutation,
        IncidentPhase::MutantCompile,
        IncidentPhase::MutantRun,
        IncidentPhase::NeutralityRun,
        IncidentPhase::Attribution,
        IncidentPhase::Baseline,
        IncidentPhase::IrVerifyDefect,
        IncidentPhase::TvDefect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IncidentPhase::SeedCompile => "SeedCompile",
            IncidentPhase::SeedRun => "SeedRun",
            IncidentPhase::ReferenceRun => "ReferenceRun",
            IncidentPhase::Mutation => "Mutation",
            IncidentPhase::MutantCompile => "MutantCompile",
            IncidentPhase::MutantRun => "MutantRun",
            IncidentPhase::NeutralityRun => "NeutralityRun",
            IncidentPhase::Attribution => "Attribution",
            IncidentPhase::Baseline => "Baseline",
            IncidentPhase::IrVerifyDefect => "IrVerifyDefect",
            IncidentPhase::TvDefect => "TvDefect",
        }
    }

    /// Inverse of [`name`](Self::name) — used by checkpoint decoding and
    /// the `triage` binary's repro-file parser.
    pub fn from_name(name: &str) -> Option<IncidentPhase> {
        IncidentPhase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for IncidentPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One contained harness failure. Incidents are facts about the
/// *harness* (or the VM substrate misbehaving in ways the fuel budget
/// cannot express), never about the program under test — they are
/// reported alongside bugs, not as bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessIncident {
    pub phase: IncidentPhase,
    /// Campaign seed value being validated when the incident happened.
    pub seed: u64,
    /// Mutation-rng seed (reproduces the exact mutant sequence).
    pub rng_seed: u64,
    /// Mutation iteration (`None` for seed-level phases).
    pub iteration: Option<usize>,
    /// Panic payload or error description.
    pub payload: String,
    /// Source of the program being processed, when known — enough to
    /// replay the incident in isolation.
    pub source: Option<String>,
}

/// Deterministic harness-fault injection for supervision tests: panic
/// inside the VM once `after_ops` operations have burned, but only while
/// validating `panic_on_seed`.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    pub panic_on_seed: u64,
    pub after_ops: u64,
}

/// Supervision settings for a campaign.
#[derive(Debug, Clone, Default)]
pub struct SupervisorConfig {
    /// Checkpoint file; when set, campaign state is persisted every
    /// [`checkpoint_every`](Self::checkpoint_every) seeds and the
    /// campaign resumes from this file if it already exists.
    pub checkpoint_path: Option<PathBuf>,
    /// Seeds between checkpoints (0 is treated as 1).
    pub checkpoint_every: u64,
    /// Directory receiving self-contained repro files for crashing and
    /// panicking inputs (created on demand).
    pub quarantine_dir: Option<PathBuf>,
    /// Global wall-clock budget; on expiry the campaign checkpoints and
    /// returns cleanly with `totals.partial = true`.
    pub deadline: Option<Duration>,
    /// Test hook simulating a kill: stop (with a checkpoint) after this
    /// many seeds *processed in this invocation*.
    pub stop_after_seeds: Option<u64>,
    /// Test hook injecting a deterministic VM panic on one seed.
    pub chaos: Option<ChaosConfig>,
}

impl SupervisorConfig {
    /// Checkpoint cadence with the zero-guard applied.
    pub fn cadence(&self) -> u64 {
        self.checkpoint_every.max(1)
    }
}

/// A loaded checkpoint: the next seed index to process plus the
/// accumulated result.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Seed *offset* (0-based index into the campaign's seed range).
    pub next_seed: u64,
    pub result: CampaignResult,
}

// Bumped whenever the layout changes. Any other header is rejected, so
// an interrupted campaign from an older build restarts from scratch
// rather than resuming with misread counters.
const MAGIC: &str = "cse-checkpoint v7";

// ----- encoding -----------------------------------------------------------

fn push_text(out: &mut String, s: &str) {
    let _ = writeln!(out, "text {}", s.len());
    out.push_str(s);
    out.push('\n');
}

/// Canonical serialization of a campaign's state. Also the basis of
/// [`CampaignResult::digest`], so it must cover every observable field —
/// except `totals.wall`, which legitimately differs between an
/// uninterrupted run and a kill-and-resume run (pass `wall_nanos = 0`
/// for digests).
pub(crate) fn encode(
    config: &CampaignConfig,
    next_seed: u64,
    result: &CampaignResult,
    wall_nanos: u128,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(
        out,
        "config {:?} {} {} {}",
        config.vm.kind, config.seeds, config.first_seed, config.max_iter
    );
    let _ = writeln!(out, "next_seed {next_seed}");
    let _ = writeln!(out, "partial {}", result.totals.partial as u8);
    let _ = writeln!(out, "unattributed {}", result.unattributed);
    let t = &result.totals;
    let _ = writeln!(
        out,
        "totals {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        t.seeds,
        t.mutants,
        t.completed,
        t.vm_invocations,
        t.discarded,
        t.seeds_discarded,
        t.mutant_compile_failures,
        t.neutrality_violations,
        t.ir_verify_defects,
        t.tv_defects,
        t.triage_reports,
        t.triage_duplicates,
        t.triage_flaky,
        t.triage_unreproducible,
        t.artifact_cache_hits,
        t.artifact_cache_misses,
        wall_nanos
    );
    let _ = writeln!(out, "cse_seeds {}", result.cse_seeds.len());
    for s in &result.cse_seeds {
        let _ = writeln!(out, "{s}");
    }
    let _ = writeln!(out, "traditional_seeds {}", result.traditional_seeds.len());
    for s in &result.traditional_seeds {
        let _ = writeln!(out, "{s}");
    }
    let _ = writeln!(out, "bugs {}", result.bugs.len());
    for e in result.bugs.values() {
        let _ = writeln!(
            out,
            "bug {:?} {} {} {:?} {:?}",
            e.bug, e.occurrences, e.first_seed, e.symptom, e.component
        );
        push_text(&mut out, &e.reproducer);
    }
    let _ = writeln!(out, "incidents {}", result.incidents.len());
    for i in &result.incidents {
        let iteration = i.iteration.map(|n| n.to_string()).unwrap_or_else(|| "-".to_string());
        let _ = writeln!(out, "incident {} {} {} {}", i.phase, i.seed, i.rng_seed, iteration);
        push_text(&mut out, &i.payload);
        match &i.source {
            Some(source) => {
                let _ = writeln!(out, "source 1");
                push_text(&mut out, source);
            }
            None => {
                let _ = writeln!(out, "source 0");
            }
        }
    }
    if let Some(state) = &result.coverage {
        let _ = writeln!(
            out,
            "coverage {} {} {} {} {} {} {} {}",
            state.round,
            state.execs,
            state.variant_runs[0],
            state.variant_runs[1],
            state.variant_runs[2],
            state.variant_new[0],
            state.variant_new[1],
            state.variant_new[2],
        );
        push_map(&mut out, &state.global);
        let _ = writeln!(out, "corpus {}", state.corpus.len());
        for entry in &state.corpus {
            let _ = writeln!(
                out,
                "entry {} {} {}",
                entry.gen_seed,
                entry.new_cells,
                entry.locations.len()
            );
            for location in &entry.locations {
                let _ = writeln!(out, "{location}");
            }
            push_map(&mut out, &entry.map);
        }
        let _ = writeln!(out, "schedule {}", state.schedule.len());
        for task in &state.schedule {
            let _ =
                writeln!(out, "task {} {} {}", task.gen_seed, task.plan.name(), task.focus.len());
            for focus in &task.focus {
                let _ = writeln!(out, "{focus}");
            }
        }
    }
    out
}

/// One `map` line: the bitmap's words in lowercase hex (fixed width so
/// the encoding is canonical).
fn push_map(out: &mut String, map: &cse_vm::CoverageMap) {
    out.push_str("map");
    for word in map.words() {
        let _ = write!(out, " {word:016x}");
    }
    out.push('\n');
}

// ----- decoding -----------------------------------------------------------

struct Reader<'a> {
    data: &'a str,
    pos: usize,
}

type ParseResult<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(data: &'a str) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    fn line(&mut self) -> ParseResult<&'a str> {
        if self.pos >= self.data.len() {
            return Err("unexpected end of checkpoint".to_string());
        }
        let rest = &self.data[self.pos..];
        let end = rest.find('\n').ok_or("unterminated line")?;
        self.pos += end + 1;
        Ok(&rest[..end])
    }

    /// A line of the form `<tag> <fields...>` with exactly `count`
    /// fields; returns the fields.
    fn tagged(&mut self, tag: &str, count: usize) -> ParseResult<Vec<&'a str>> {
        let line = self.line()?;
        let mut parts = line.split(' ');
        let got = parts.next().unwrap_or("");
        if got != tag {
            return Err(format!("expected `{tag}`, found `{line}`"));
        }
        let fields: Vec<&'a str> = parts.collect();
        if fields.len() != count {
            return Err(format!("{tag}: expected {count} fields, got {}", fields.len()));
        }
        Ok(fields)
    }

    fn tagged_num<T: std::str::FromStr>(&mut self, tag: &str) -> ParseResult<T> {
        let fields = self.tagged(tag, 1)?;
        parse_field(&fields, 0, tag)
    }

    /// A `text <len>` block: `len` raw bytes plus a trailing newline.
    fn text(&mut self) -> ParseResult<String> {
        let len: usize = self.tagged_num("text")?;
        let rest = self.data.as_bytes();
        // `len` comes from the file: a corrupt one may claim any size.
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end < rest.len())
            .ok_or("text block runs past end of checkpoint")?;
        let body =
            self.data.get(self.pos..end).ok_or("text block length splits a UTF-8 boundary")?;
        if rest[end] != b'\n' {
            return Err("text block missing trailing newline".to_string());
        }
        self.pos = end + 1;
        Ok(body.to_string())
    }

    fn at_end(&self) -> bool {
        self.data[self.pos..].trim().is_empty()
    }
}

fn parse_field<T: std::str::FromStr>(fields: &[&str], index: usize, what: &str) -> ParseResult<T> {
    fields
        .get(index)
        .ok_or_else(|| format!("{what}: missing field {index}"))?
        .parse()
        .map_err(|_| format!("{what}: malformed field {index}"))
}

fn bug_from_name(name: &str) -> ParseResult<BugId> {
    BugId::all()
        .iter()
        .copied()
        .find(|b| format!("{b:?}") == name)
        .ok_or_else(|| format!("unknown bug id `{name}`"))
}

fn symptom_from_name(name: &str) -> ParseResult<Symptom> {
    match name {
        "MisCompilation" => Ok(Symptom::MisCompilation),
        "Crash" => Ok(Symptom::Crash),
        "Performance" => Ok(Symptom::Performance),
        _ => Err(format!("unknown symptom `{name}`")),
    }
}

fn component_from_name(name: &str) -> ParseResult<Component> {
    const ALL: [Component; 18] = [
        Component::InliningC1,
        Component::IdealGraphBuilding,
        Component::IdealLoopOptimization,
        Component::GlobalConstantPropagation,
        Component::GlobalValueNumbering,
        Component::EscapeAnalysis,
        Component::GlobalCodeMotion,
        Component::RegisterAllocation,
        Component::CodeGeneration,
        Component::CodeExecution,
        Component::LocalValuePropagation,
        Component::GlobalValuePropagation,
        Component::LoopVectorization,
        Component::Deoptimization,
        Component::Recompilation,
        Component::OtherJitComponents,
        Component::GarbageCollection,
        Component::OptimizingCompiler,
    ];
    ALL.into_iter()
        .find(|c| format!("{c:?}") == name)
        .ok_or_else(|| format!("unknown component `{name}`"))
}

/// Parses a checkpoint, verifying it belongs to `config` (kind, seed
/// range, and `MAX_ITER` must all match — resuming a checkpoint into a
/// different campaign would silently corrupt results).
pub(crate) fn decode(data: &str, config: &CampaignConfig) -> ParseResult<Checkpoint> {
    let mut r = Reader::new(data);
    let magic = r.line()?;
    if magic != MAGIC {
        return Err(format!("bad checkpoint header `{magic}` (want `{MAGIC}`)"));
    }
    let fields = r.tagged("config", 4)?;
    let kind = format!("{:?}", config.vm.kind);
    let (got_kind, got_seeds, got_first, got_iter) = (
        fields[0],
        parse_field::<u64>(&fields, 1, "config")?,
        parse_field::<u64>(&fields, 2, "config")?,
        parse_field::<usize>(&fields, 3, "config")?,
    );
    if got_kind != kind
        || got_seeds != config.seeds
        || got_first != config.first_seed
        || got_iter != config.max_iter
    {
        return Err(format!(
            "checkpoint is for a different campaign \
             (checkpoint: {got_kind}/{got_seeds} seeds from {got_first}, max_iter {got_iter}; \
             campaign: {kind}/{} seeds from {}, max_iter {})",
            config.seeds, config.first_seed, config.max_iter
        ));
    }
    let next_seed: u64 = r.tagged_num("next_seed")?;
    let mut result = CampaignResult::default();
    result.totals.partial = r.tagged_num::<u8>("partial")? != 0;
    result.unattributed = r.tagged_num("unattributed")?;
    let t = r.tagged("totals", 17)?;
    result.totals.seeds = parse_field(&t, 0, "totals")?;
    result.totals.mutants = parse_field(&t, 1, "totals")?;
    result.totals.completed = parse_field(&t, 2, "totals")?;
    result.totals.vm_invocations = parse_field(&t, 3, "totals")?;
    result.totals.discarded = parse_field(&t, 4, "totals")?;
    result.totals.seeds_discarded = parse_field(&t, 5, "totals")?;
    result.totals.mutant_compile_failures = parse_field(&t, 6, "totals")?;
    result.totals.neutrality_violations = parse_field(&t, 7, "totals")?;
    result.totals.ir_verify_defects = parse_field(&t, 8, "totals")?;
    result.totals.tv_defects = parse_field(&t, 9, "totals")?;
    result.totals.triage_reports = parse_field(&t, 10, "totals")?;
    result.totals.triage_duplicates = parse_field(&t, 11, "totals")?;
    result.totals.triage_flaky = parse_field(&t, 12, "totals")?;
    result.totals.triage_unreproducible = parse_field(&t, 13, "totals")?;
    result.totals.artifact_cache_hits = parse_field(&t, 14, "totals")?;
    result.totals.artifact_cache_misses = parse_field(&t, 15, "totals")?;
    let wall_nanos: u128 = parse_field(&t, 16, "totals")?;
    result.totals.wall = Duration::from_nanos(wall_nanos.min(u64::MAX as u128) as u64);
    let n: usize = r.tagged_num("cse_seeds")?;
    for _ in 0..n {
        result.cse_seeds.push(r.line()?.parse().map_err(|_| "bad cse seed")?);
    }
    let n: usize = r.tagged_num("traditional_seeds")?;
    for _ in 0..n {
        result.traditional_seeds.push(r.line()?.parse().map_err(|_| "bad traditional seed")?);
    }
    let n: usize = r.tagged_num("bugs")?;
    for _ in 0..n {
        let fields = r.tagged("bug", 5)?;
        let bug = bug_from_name(fields[0])?;
        let occurrences: usize = parse_field(&fields, 1, "bug")?;
        let first_seed: u64 = parse_field(&fields, 2, "bug")?;
        let symptom = symptom_from_name(fields[3])?;
        let component = component_from_name(fields[4])?;
        let reproducer = r.text()?;
        result.bugs.insert(
            bug,
            BugEvidence { bug, component, symptom, occurrences, first_seed, reproducer },
        );
    }
    let n: usize = r.tagged_num("incidents")?;
    for _ in 0..n {
        let fields = r.tagged("incident", 4)?;
        let phase = IncidentPhase::from_name(fields[0])
            .ok_or_else(|| format!("unknown incident phase in {fields:?}"))?;
        let seed: u64 = parse_field(&fields, 1, "incident")?;
        let rng_seed: u64 = parse_field(&fields, 2, "incident")?;
        let iteration = match fields[3] {
            "-" => None,
            s => Some(s.parse().map_err(|_| "bad incident iteration")?),
        };
        let payload = r.text()?;
        let source = match r.tagged_num::<u8>("source")? {
            0 => None,
            _ => Some(r.text()?),
        };
        result.incidents.push(HarnessIncident {
            phase,
            seed,
            rng_seed,
            iteration,
            payload,
            source,
        });
    }
    if !r.at_end() {
        let fields = r.tagged("coverage", 8)?;
        let mut state = CoverageState {
            round: parse_field(&fields, 0, "coverage")?,
            execs: parse_field(&fields, 1, "coverage")?,
            ..CoverageState::default()
        };
        for i in 0..3 {
            state.variant_runs[i] = parse_field(&fields, 2 + i, "coverage")?;
            state.variant_new[i] = parse_field(&fields, 5 + i, "coverage")?;
        }
        state.global = parse_map(&mut r)?;
        let n: usize = r.tagged_num("corpus")?;
        for _ in 0..n {
            let fields = r.tagged("entry", 3)?;
            let gen_seed: u64 = parse_field(&fields, 0, "entry")?;
            let new_cells: u32 = parse_field(&fields, 1, "entry")?;
            let locations = (0..parse_field::<usize>(&fields, 2, "entry")?)
                .map(|_| r.line().map(str::to_string))
                .collect::<ParseResult<Vec<String>>>()?;
            let map = parse_map(&mut r)?;
            state.corpus.push(CorpusEntry { gen_seed, locations, map, new_cells });
        }
        let n: usize = r.tagged_num("schedule")?;
        for _ in 0..n {
            let fields = r.tagged("task", 3)?;
            let gen_seed: u64 = parse_field(&fields, 0, "task")?;
            let plan = PlanVariant::from_name(fields[1])
                .ok_or_else(|| format!("unknown plan variant in {fields:?}"))?;
            let focus = (0..parse_field::<usize>(&fields, 2, "task")?)
                .map(|_| r.line().map(str::to_string))
                .collect::<ParseResult<Vec<String>>>()?;
            state.schedule.push(TaskSpec { gen_seed, focus, plan });
        }
        result.coverage = Some(state);
    }
    if !r.at_end() {
        return Err("trailing data after checkpoint".to_string());
    }
    Ok(Checkpoint { next_seed, result })
}

/// Parses one `map` line back into a bitmap.
fn parse_map(r: &mut Reader<'_>) -> ParseResult<cse_vm::CoverageMap> {
    let fields = r.tagged("map", cse_vm::coverage::MAP_WORDS)?;
    let mut words = [0u64; cse_vm::coverage::MAP_WORDS];
    for (word, field) in words.iter_mut().zip(&fields) {
        *word = u64::from_str_radix(field, 16).map_err(|_| "map: malformed hex word")?;
    }
    Ok(cse_vm::CoverageMap::from_words(words))
}

// ----- checkpoint I/O -----------------------------------------------------

/// Atomically writes a checkpoint (tmp file + rename, so a kill during
/// the write never leaves a torn checkpoint behind).
pub fn save_checkpoint(
    path: &Path,
    config: &CampaignConfig,
    next_seed: u64,
    result: &CampaignResult,
) -> io::Result<()> {
    let body = encode(config, next_seed, result, result.totals.wall.as_nanos());
    let tmp = path.with_extension("tmp");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // Buffered so a large campaign (thousands of bug reproducers and
    // incident payloads) goes out in a few syscalls instead of relying
    // on the kernel to coalesce; flush before the rename publishes it.
    let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
    w.write_all(body.as_bytes())?;
    w.flush()?;
    std::fs::rename(&tmp, path)
}

/// Loads a checkpoint if `path` exists. `Ok(None)` when there is no
/// checkpoint yet; `Err` on a torn/foreign/corrupt file (the caller
/// decides whether to start fresh).
pub fn load_checkpoint(path: &Path, config: &CampaignConfig) -> io::Result<Option<Checkpoint>> {
    let data = match std::fs::read_to_string(path) {
        Ok(data) => data,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    decode(&data, config).map(Some).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
}

// ----- quarantine ---------------------------------------------------------

/// Filename-safe form of a label. Lowercased: quarantine file names must
/// not rely on case to stay distinct, or entries collide on
/// case-insensitive filesystems (macOS, Windows).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect()
}

fn vm_profile_header(vm: &VmConfig) -> String {
    let bugs: Vec<String> = vm.faults.bugs().map(|b| format!("{b:?}")).collect();
    format!(
        "// vm profile: {:?} (jit: {}, fuel: {})\n// active bugs: {}\n",
        vm.kind,
        vm.jit_enabled,
        vm.fuel,
        if bugs.is_empty() { "none".to_string() } else { bugs.join(",") }
    )
}

/// Persists a contained harness incident as a self-contained repro file
/// and returns its path.
pub fn quarantine_incident(
    dir: &Path,
    incident: &HarnessIncident,
    vm: &VmConfig,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let iteration = incident.iteration.map(|n| format!("_iter{n}")).unwrap_or_default();
    // The signature hash keeps distinct incidents sharing a seed, phase,
    // and iteration from ever overwriting each other's repro file.
    let signature = crate::triage::signature_of(incident);
    let path = dir.join(format!(
        "incident_seed{}_{}{}_{:016x}.mj",
        incident.seed,
        sanitize(incident.phase.name()),
        iteration,
        signature.stable_hash()
    ));
    // Streamed through a buffered writer: repro files are written on the
    // campaign hot path (every contained incident), and line-at-a-time
    // writeln!s straight to a File would be a syscall per line.
    let mut w = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "// quarantined harness incident")?;
    writeln!(w, "// phase: {}", incident.phase)?;
    writeln!(w, "// campaign seed: {}", incident.seed)?;
    writeln!(w, "// rng seed: {}", incident.rng_seed)?;
    if let Some(iteration) = incident.iteration {
        writeln!(w, "// mutation iteration: {iteration}")?;
    }
    w.write_all(vm_profile_header(vm).as_bytes())?;
    for line in incident.payload.lines() {
        writeln!(w, "// panic: {line}")?;
    }
    writeln!(w, "// signature: {signature}")?;
    match &incident.source {
        Some(source) => w.write_all(source.as_bytes())?,
        None => w.write_all(b"// (no source captured)\n")?,
    }
    w.flush()?;
    Ok(path)
}

/// Persists a crash-discrepancy reproducer (mutant source + rng seed +
/// VM profile) and returns its path.
pub fn quarantine_crash(
    dir: &Path,
    seed: u64,
    rng_seed: u64,
    bug: Option<BugId>,
    crash: &cse_vm::CrashInfo,
    mutant_source: &str,
    vm: &VmConfig,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let label = bug.map(|b| format!("{b:?}")).unwrap_or_else(|| "unattributed".to_string());
    // Hash-suffixed like incident files: two different crashes on the
    // same seed with the same attribution never overwrite each other.
    let signature = crate::triage::crash_signature(&label, crash);
    let path = dir.join(format!(
        "crash_seed{}_{}_{:016x}.mj",
        seed,
        sanitize(&label),
        signature.stable_hash()
    ));
    // Buffered for the same reason as `quarantine_incident`.
    let mut w = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "// quarantined crashing input")?;
    writeln!(w, "// campaign seed: {seed}")?;
    writeln!(w, "// rng seed: {rng_seed}")?;
    writeln!(w, "// crash: {:?} in {:?} during {:?}", crash.kind, crash.component, crash.phase)?;
    writeln!(w, "// attributed bug: {label}")?;
    w.write_all(vm_profile_header(vm).as_bytes())?;
    w.write_all(mutant_source.as_bytes())?;
    w.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use cse_vm::VmKind;

    fn sample_result() -> CampaignResult {
        let mut result = CampaignResult::default();
        result.totals.seeds = 7;
        result.totals.mutants = 40;
        result.totals.completed = 35;
        result.totals.vm_invocations = 300;
        result.totals.discarded = 5;
        result.totals.seeds_discarded = 1;
        result.totals.mutant_compile_failures = 2;
        result.totals.neutrality_violations = 0;
        result.totals.ir_verify_defects = 3;
        result.totals.tv_defects = 2;
        result.totals.triage_reports = 2;
        result.totals.triage_duplicates = 1;
        result.totals.triage_flaky = 1;
        result.totals.triage_unreproducible = 1;
        result.totals.artifact_cache_hits = 17;
        result.totals.artifact_cache_misses = 13;
        result.totals.partial = true;
        result.totals.wall = Duration::from_millis(1234);
        result.unattributed = 3;
        result.cse_seeds = vec![1, 4, 6];
        result.traditional_seeds = vec![4];
        let bug = BugId::all()[0];
        result.bugs.insert(
            bug,
            BugEvidence {
                bug,
                component: bug.component(),
                symptom: bug.symptom(),
                occurrences: 2,
                first_seed: 4,
                reproducer: "class T {\n  static void main() { println(1); }\n}\n".to_string(),
            },
        );
        result.incidents.push(HarnessIncident {
            phase: IncidentPhase::MutantRun,
            seed: 6,
            rng_seed: 6,
            iteration: Some(3),
            payload: "chaos: injected VM panic after 4096 burned ops".to_string(),
            source: Some("class T { static void main() {} }\n".to_string()),
        });
        result.incidents.push(HarnessIncident {
            phase: IncidentPhase::SeedRun,
            seed: 2,
            rng_seed: 2,
            iteration: None,
            payload: "multi\nline\npayload".to_string(),
            source: None,
        });
        result
    }

    #[test]
    fn checkpoint_round_trips() {
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let result = sample_result();
        let encoded = encode(&config, 7, &result, result.totals.wall.as_nanos());
        let checkpoint = decode(&encoded, &config).expect("decode");
        assert_eq!(checkpoint.next_seed, 7);
        let re_encoded =
            encode(&config, 7, &checkpoint.result, checkpoint.result.totals.wall.as_nanos());
        assert_eq!(encoded, re_encoded);
    }

    /// A result carrying coverage state round-trips the full state (map,
    /// corpus, schedule, counters) exactly; a result without it writes
    /// no coverage section and restores none.
    #[test]
    fn coverage_checkpoint_round_trips() {
        use crate::coverage::{CorpusEntry, CoverageState, PlanVariant, TaskSpec};
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let mut result = sample_result();
        let mut map = cse_vm::CoverageMap::new();
        map.insert(cse_vm::coverage::feat_compile(42, 2, false));
        map.insert(cse_vm::coverage::feat_pass(42, 2, "gvn"));
        let mut state = CoverageState {
            global: map,
            round: 3,
            execs: 1234,
            variant_runs: [9, 2, 1],
            variant_new: [40, 30, 5],
            ..CoverageState::default()
        };
        state.corpus.push(CorpusEntry {
            gen_seed: 11,
            locations: vec!["Cls0.m1".to_string(), "Cls2.m0".to_string()],
            map,
            new_cells: 2,
        });
        state.schedule.push(TaskSpec {
            gen_seed: 12,
            focus: vec!["Cls0.m1".to_string()],
            plan: PlanVariant::ForceTop,
        });
        state.schedule.push(TaskSpec { gen_seed: 13, focus: vec![], plan: PlanVariant::Baseline });
        let fingerprint = state.fingerprint();
        result.coverage = Some(state);

        let encoded = encode(&config, 7, &result, 0);
        let decoded = decode(&encoded, &config).expect("decode");
        let restored = decoded.result.coverage.expect("coverage state restored");
        assert_eq!(restored.fingerprint(), fingerprint, "state must round-trip exactly");
        let plain = encode(&config, 7, &sample_result(), 0);
        assert!(!plain.contains("\ncoverage "));
        assert!(decode(&plain, &config).expect("decode").result.coverage.is_none());
    }

    #[test]
    fn checkpoint_save_load_round_trips_via_disk() {
        let config = CampaignConfig::for_kind(VmKind::OpenJ9Like, 7);
        let result = sample_result();
        let dir = std::env::temp_dir().join(format!("cse-supervisor-test-{}", std::process::id()));
        let path = dir.join("roundtrip.checkpoint");
        save_checkpoint(&path, &config, 3, &result).expect("save");
        let loaded = load_checkpoint(&path, &config).expect("load").expect("present");
        assert_eq!(loaded.next_seed, 3);
        assert_eq!(loaded.result.digest(&config), result.digest(&config));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let path = std::env::temp_dir().join("cse-supervisor-test-definitely-missing");
        assert!(load_checkpoint(&path, &config).expect("ok").is_none());
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let other = CampaignConfig::for_kind(VmKind::ArtLike, 7);
        let encoded = encode(&config, 2, &sample_result(), 0);
        assert!(decode(&encoded, &other).is_err());
        let mut fewer_seeds = config.clone();
        fewer_seeds.seeds = 6;
        assert!(decode(&encoded, &fewer_seeds).is_err());
    }

    #[test]
    fn torn_checkpoint_is_rejected() {
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let encoded = encode(&config, 2, &sample_result(), 0);
        let torn = &encoded[..encoded.len() / 2];
        assert!(decode(torn, &config).is_err());
        assert!(decode("", &config).is_err());
        assert!(decode("garbage\n", &config).is_err());
    }

    /// A block length near `usize::MAX` read from a corrupt file is an
    /// error, not an arithmetic overflow.
    #[test]
    fn oversized_text_block_is_rejected() {
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let encoded = encode(&config, 2, &sample_result(), 0);
        let first_block = encoded.find("\ntext ").expect("sample has a text block") + 1;
        let line_end = first_block + encoded[first_block..].find('\n').unwrap();
        let corrupt =
            format!("{}text {}{}", &encoded[..first_block], usize::MAX, &encoded[line_end..]);
        assert!(decode(&corrupt, &config).is_err());
    }

    /// Every fixed-arity line has an exact field count: a field appended
    /// to a `totals` or `bug` line makes the checkpoint unusable.
    #[test]
    fn extra_field_is_rejected() {
        let config = CampaignConfig::for_kind(VmKind::HotSpotLike, 7);
        let encoded = encode(&config, 2, &sample_result(), 0);
        assert!(decode(&encoded, &config).is_ok());
        for tag in ["totals", "bug"] {
            let line = encoded.find(&format!("\n{tag} ")).expect("sample has the line") + 1;
            let line_end = line + encoded[line..].find('\n').unwrap();
            let corrupt = format!("{} 0{}", &encoded[..line_end], &encoded[line_end..]);
            assert!(decode(&corrupt, &config).is_err(), "extra field on `{tag}` accepted");
        }
    }

    #[test]
    fn quarantine_files_are_self_contained() {
        let dir = std::env::temp_dir().join(format!("cse-quarantine-test-{}", std::process::id()));
        let vm = crate::campaign::CampaignConfig::for_kind(VmKind::HotSpotLike, 1).vm;
        let incident = &sample_result().incidents[0];
        let path = quarantine_incident(&dir, incident, &vm).expect("write");
        let body = std::fs::read_to_string(&path).expect("read");
        assert!(body.contains("rng seed: 6"));
        assert!(body.contains("HotSpotLike"));
        assert!(body.contains("chaos: injected VM panic"));
        assert!(body.contains("class T"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
