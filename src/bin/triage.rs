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
//! * `CSE_JOBS`          — triage threads (default 1)
//! * `CSE_TRIAGE_CHAOS`  — `seed,after_ops`: re-arm the campaign's chaos
//!   fault injection so chaos incidents reproduce under replay
//!
//! A malformed value or an unknown `CSE_*` name is an error (see
//! `cse_vm::settings`).
//!
//! The VM profile (kind, JIT flag, fuel, IR-verifier and TV modes,
//! active bug set) is recovered from the repro file headers
//! (`cse_core::supervisor::parse_quarantined_incident`), so triage
//! replays incidents under the same substrate and oracles that produced
//! them, whatever `CSE_VERIFY_IR`/`CSE_TV` say.

use std::path::PathBuf;
use std::process::ExitCode;

use artemis_cse::core::supervisor::parse_quarantined_incident;
use artemis_cse::core::{triage_incidents, ChaosConfig, TriageConfig};
use artemis_cse::vm::{Settings, VmConfig};

fn main() -> ExitCode {
    let env = Settings::get();
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
            Ok(text) => match parse_quarantined_incident(&text) {
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
        max_reduce_steps: env.triage_steps,
        reruns: env.triage_reruns,
        retries: 1,
        jobs: env.jobs,
    };
    tcfg.vm.wall_clock_limit = None;
    let chaos =
        env.triage_chaos.map(|(panic_on_seed, after_ops)| ChaosConfig { panic_on_seed, after_ops });

    let report = triage_incidents(&incidents, &tcfg, chaos, Some(&dir));
    print!("{}", report.render());
    println!("digest {:016x}", report.digest());
    ExitCode::SUCCESS
}
