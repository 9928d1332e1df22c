//! On-demand incident triage over a quarantine directory.
//!
//! Reads the self-contained `incident_*.mj` repro files a supervised
//! campaign quarantined, reconstructs the incidents (phase, seeds, VM
//! profile, panic payload, program source; a static-oracle file also
//! stands for every later incident of its signature, one occurrence line
//! each), and runs the same triage
//! pipeline a campaign runs at completion: signature-based dedup,
//! budget-bounded reduction, and one replay of the written repro for the
//! verdict. Reduced repros
//! are written back into the quarantine directory as
//! `triage_<signature>.mj` and the canonical report goes to stdout.
//!
//! ```text
//! triage [quarantine-dir]            # default: results/quarantine
//! ```
//!
//! Environment:
//! * `CSE_TRIAGE_STEPS` — reduction step budget per report (default 1000)
//! * `CSE_JOBS`         — triage threads (default 1)
//!
//! A malformed value or an unknown `CSE_*` name is an error (see
//! `cse_vm::settings`).
//!
//! Every file replays under its own header's VM profile (kind, JIT flag,
//! fuel, IR-verifier and TV modes, chaos threshold, active bug set; see
//! `cse_core::supervisor::parse_quarantined_incident`), so triage replays
//! each incident under the substrate and oracles that produced it,
//! whatever `CSE_VERIFY_IR`/`CSE_TV` say.

use std::path::PathBuf;
use std::process::ExitCode;

use artemis_cse::core::supervisor::parse_quarantined_incident;
use artemis_cse::core::{triage_incidents, TriageConfig};
use artemis_cse::vm::Settings;

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
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => match parse_quarantined_incident(&text) {
                Some(raised) => incidents.extend(raised),
                None => eprintln!("triage: skipping unparsable {}", path.display()),
            },
            Err(e) => eprintln!("triage: skipping {}: {e}", path.display()),
        }
    }
    if incidents.is_empty() {
        eprintln!("triage: no parsable incidents in {}", dir.display());
        return ExitCode::FAILURE;
    }

    let tcfg = TriageConfig { max_reduce_steps: env.triage_steps, jobs: env.jobs };
    let report = triage_incidents(&incidents, &tcfg, Some(&dir));
    print!("{}", report.render());
    println!("digest {:016x}", report.digest());
    ExitCode::SUCCESS
}
