//! On-demand incident triage over a quarantine directory.
//!
//! Reads the self-contained `incident_*.mj` repro files a supervised
//! campaign quarantined, reconstructs the incidents (phase, seeds, VM
//! profile, panic payload, program source), and runs the same triage
//! pipeline a campaign runs at completion: signature-based dedup,
//! budget-bounded reduction, and flakiness re-execution. Reduced repros
//! are written back into the quarantine directory as
//! `triage_<signature>.mj` and the canonical report goes to stdout.
//!
//! ```text
//! triage [quarantine-dir]            # default: results/quarantine
//! ```
//!
//! Environment:
//! * `CSE_TRIAGE_STEPS`  — reduction step budget per report (default 1000)
//! * `CSE_TRIAGE_RERUNS` — re-executions per parallelism level (default 3)
//! * `CSE_JOBS`          — triage threads (default 1; anything but a
//!   positive integer is an error)
//! * `CSE_TRIAGE_CHAOS`  — `seed,after_ops`: re-arm the campaign's chaos
//!   fault injection so chaos incidents reproduce under replay
//!
//! The VM profile (kind, JIT flag, fuel, active bug set) is recovered
//! from the repro file headers, so triage replays incidents under the
//! same substrate that produced them.

use std::path::PathBuf;
use std::process::ExitCode;

use artemis_cse::core::campaign::env_count;
use artemis_cse::core::{
    triage_incidents, ChaosConfig, HarnessIncident, IncidentPhase, TriageConfig,
};
use artemis_cse::vm::{BugId, FaultInjector, VmConfig, VmKind};

fn main() -> ExitCode {
    let jobs = match env_count("CSE_JOBS", 1) {
        Ok(jobs) => jobs as usize,
        Err(e) => {
            eprintln!("triage: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results/quarantine".to_string());
    let dir = PathBuf::from(dir);
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("incident_") && n.ends_with(".mj"))
            })
            .collect(),
        Err(e) => {
            eprintln!("triage: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    // Lexicographic order keeps the batch (and the report digest)
    // independent of directory enumeration order.
    paths.sort();
    if paths.is_empty() {
        println!("triage: no quarantined incidents in {}", dir.display());
        return ExitCode::SUCCESS;
    }

    let mut incidents = Vec::new();
    let mut vm: Option<VmConfig> = None;
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => match parse_repro(&text) {
                Some((incident, file_vm)) => {
                    incidents.push(incident);
                    vm.get_or_insert(file_vm);
                }
                None => eprintln!("triage: skipping unparsable {}", path.display()),
            },
            Err(e) => eprintln!("triage: skipping {}: {e}", path.display()),
        }
    }
    if incidents.is_empty() {
        eprintln!("triage: no parsable incidents in {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut tcfg = TriageConfig {
        vm: vm.expect("vm recovered alongside first incident"),
        max_reduce_steps: env_usize("CSE_TRIAGE_STEPS").unwrap_or(1000),
        reruns: env_usize("CSE_TRIAGE_RERUNS").unwrap_or(3),
        retries: 1,
        jobs,
    };
    tcfg.vm.wall_clock_limit = None;
    let chaos = std::env::var("CSE_TRIAGE_CHAOS").ok().and_then(|v| {
        let (seed, ops) = v.split_once(',')?;
        Some(ChaosConfig { panic_on_seed: seed.parse().ok()?, after_ops: ops.parse().ok()? })
    });

    let report = triage_incidents(&incidents, &tcfg, chaos, Some(&dir));
    print!("{}", report.render());
    println!("digest {:016x}", report.digest());
    ExitCode::SUCCESS
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Reconstructs an incident (and the VM profile that produced it) from a
/// quarantine repro file's comment headers.
fn parse_repro(text: &str) -> Option<(HarnessIncident, VmConfig)> {
    let mut phase = None;
    let mut seed = None;
    let mut rng_seed = None;
    let mut iteration = None;
    let mut payload = Vec::new();
    let mut kind = None;
    let mut jit_enabled = true;
    let mut fuel = None;
    let mut bugs: Option<Vec<BugId>> = None;
    let mut no_source = false;
    let mut source_at = None;
    for (offset, line) in line_offsets(text) {
        let Some(rest) = line.strip_prefix("// ") else {
            // First non-header line: the program source starts here.
            source_at = Some(offset);
            break;
        };
        if let Some(v) = rest.strip_prefix("phase: ") {
            phase = IncidentPhase::from_name(v.trim());
        } else if let Some(v) = rest.strip_prefix("campaign seed: ") {
            seed = v.trim().parse::<u64>().ok();
        } else if let Some(v) = rest.strip_prefix("rng seed: ") {
            rng_seed = v.trim().parse::<u64>().ok();
        } else if let Some(v) = rest.strip_prefix("mutation iteration: ") {
            iteration = v.trim().parse::<usize>().ok();
        } else if let Some(v) = rest.strip_prefix("panic: ") {
            payload.push(v.to_string());
        } else if let Some(v) = rest.strip_prefix("vm profile: ") {
            let head = v.split_whitespace().next().unwrap_or("");
            kind = match head {
                "HotSpotLike" => Some(VmKind::HotSpotLike),
                "OpenJ9Like" => Some(VmKind::OpenJ9Like),
                "ArtLike" => Some(VmKind::ArtLike),
                _ => None,
            };
            jit_enabled = v.contains("jit: true");
            fuel =
                v.split("fuel: ").nth(1).and_then(|t| t.trim_end_matches(')').parse::<u64>().ok());
        } else if let Some(v) = rest.strip_prefix("active bugs: ") {
            let v = v.trim();
            bugs = Some(if v == "none" {
                Vec::new()
            } else {
                v.split(',')
                    .filter_map(|name| {
                        BugId::all().iter().copied().find(|b| format!("{b:?}") == name.trim())
                    })
                    .collect()
            });
        } else if rest.trim() == "(no source captured)" {
            no_source = true;
        }
    }
    let incident = HarnessIncident {
        phase: phase?,
        seed: seed?,
        rng_seed: rng_seed?,
        iteration,
        payload: payload.join("\n"),
        source: if no_source { None } else { source_at.map(|at| text[at..].to_string()) },
    };
    let mut vm = VmConfig::correct(kind?);
    vm.jit_enabled = jit_enabled;
    if let Some(fuel) = fuel {
        vm.fuel = fuel;
    }
    if let Some(bugs) = bugs {
        vm.faults = FaultInjector::with(bugs);
    }
    Some((incident, vm))
}

/// `(byte offset, line)` pairs — lets the parser hand back the raw
/// source tail without re-joining lines.
fn line_offsets(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut pos = 0;
    text.lines().map(move |line| {
        let at = pos;
        pos = at + line.len() + 1;
        (at, line)
    })
}
