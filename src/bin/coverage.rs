//! Coverage smoke driver: runs one campaign under the active
//! `CSE_COVERAGE` policy and reports the merged JIT-behavior coverage.
//!
//! ```text
//! coverage [kind]                    # default: hotspot
//! ```
//!
//! Environment:
//! * `CSE_COVERAGE` — `off|collect|guide` (the knob under test)
//! * `CSE_SEEDS`    — campaign seed budget (default 12)
//! * `CSE_JOBS`     — threads (default 1)
//!
//! A malformed value or an unknown `CSE_*` name is an error, not the
//! default (see `cse_vm::settings`).
//!
//! Output is line-oriented for scripting (`ci.sh` asserts on it):
//! `cells N` is the merged global map's covered-cell count, `corpus N`
//! the minimized live corpus size, `digest X` the campaign digest, and
//! `ir_verify_defects N` / `tv_defects N` the static oracles' totals.

use std::process::ExitCode;

use artemis_cse::core::campaign::{run_campaign, CampaignConfig};
use artemis_cse::vm::{Settings, VmKind};

fn main() -> ExitCode {
    let kind = match std::env::args().nth(1).as_deref() {
        None | Some("hotspot") => VmKind::HotSpotLike,
        Some("openj9") => VmKind::OpenJ9Like,
        Some("art") => VmKind::ArtLike,
        Some(other) => {
            eprintln!("coverage: unknown VM kind `{other}` (want hotspot|openj9|art)");
            return ExitCode::FAILURE;
        }
    };
    let env = Settings::get();
    let config = CampaignConfig::for_kind(kind, env.seeds.unwrap_or(12)).with_jobs(env.jobs);
    let result = run_campaign(&config);

    println!("kind {kind:?}");
    println!("seeds {}", result.totals.seeds);
    println!("mutants {}", result.totals.mutants);
    println!("bugs {}", result.bugs.len());
    println!("digest {:016x}", result.digest(&config));
    println!("ir_verify_defects {}", result.totals.ir_verify_defects);
    println!("tv_defects {}", result.totals.tv_defects);
    match &result.coverage {
        Some(state) => {
            println!("cells {}", state.cells());
            println!("corpus {}", state.corpus.len());
            let invocations = result.totals.vm_invocations;
            println!("vm_invocations {invocations}");
            let per_1k = if invocations == 0 {
                0.0
            } else {
                f64::from(state.cells()) * 1000.0 / invocations as f64
            };
            println!("cells_per_1k_invocations {per_1k:.2}");
            for (i, name) in ["baseline", "force_top", "force_t1"].iter().enumerate() {
                println!(
                    "variant {name} runs {} new_cells {}",
                    state.variant_runs[i], state.variant_new[i]
                );
            }
        }
        None => println!("cells 0"),
    }
    ExitCode::SUCCESS
}
