//! Bug hunt: a small fuzzing campaign against the OpenJ9-like VM profile,
//! followed by automatic reduction of the first reproducer — the paper's
//! full workflow (JavaFuzzer seeds → Artemis → Perses-style reduction).
//!
//! ```sh
//! cargo run --release --example bughunt
//! ```

use artemis_cse::core::campaign::{run_campaign, CampaignConfig};
use artemis_cse::core::validate::compile_checked;
use artemis_cse::vm::{FaultInjector, Settings, Vm, VmKind};

fn main() {
    let env = Settings::get();
    let seeds = env.seeds.unwrap_or(40);
    println!("hunting with {seeds} seeds x 8 mutants against the OpenJ9-like VM ...\n");
    let mut config = CampaignConfig::for_kind(VmKind::OpenJ9Like, seeds).with_jobs(env.jobs);
    // Run supervised: checkpoint + quarantine under results/bughunt
    // (gitignored — unlike the curated reports in results/). Kill the
    // hunt at any point and re-run to resume from the checkpoint.
    let workdir = std::path::Path::new("results").join("bughunt");
    config.supervisor.checkpoint_path = Some(workdir.join("campaign.checkpoint"));
    config.supervisor.checkpoint_every = 8;
    config.supervisor.quarantine_dir = Some(workdir.join("quarantine"));
    // CSE_TRIAGE=1 triages quarantined incidents at campaign end:
    // signature dedup, reduction, replay verdicts (see cse_core::triage).
    if env.triage {
        config = config.with_triage();
    }
    let result = run_campaign(&config);
    if let Some(triage) = &result.triage {
        print!("{}", triage.render());
    }
    println!(
        "{} unique bugs from {} mutants ({} duplicates, {:.1?} wall):",
        result.bugs.len(),
        result.totals.mutants,
        result.duplicates(),
        result.totals.wall
    );
    if !result.incidents.is_empty() {
        println!("{} harness incident(s) contained and quarantined", result.incidents.len());
    }
    for evidence in result.bugs.values() {
        println!(
            "  {:?}  [{:?} in {}]  first seen at seed {}",
            evidence.bug, evidence.symptom, evidence.component, evidence.first_seed
        );
    }
    let Some(evidence) = result.bugs.values().next() else {
        println!("no bugs found at this campaign size; raise CSE_SEEDS");
        return;
    };

    // Reduce the first reproducer while it still exposes its bug, by
    // validation's attribution rule: a candidate is interesting when
    // ablating that bug alone changes a non-exhausted observable. This
    // holds for crashes and mis-compilations alike.
    println!("\nreducing the reproducer for {:?} ...", evidence.bug);
    let reproducer = artemis_cse::lang::parse_and_check(&evidence.reproducer)
        .expect("stored reproducers re-parse");
    let vm = config.vm.clone();
    let bug = evidence.bug;
    let ablated =
        vm.clone().with_faults(FaultInjector::with(vm.faults.bugs().filter(|&b| b != bug)));
    let before = evidence.reproducer.lines().count();
    let reduced = artemis_cse::reduce::reduce(&reproducer, &mut |candidate| {
        let bytecode = compile_checked(candidate);
        let buggy = Vm::run_program(&bytecode, vm.clone());
        !buggy.outcome.is_resource_exhausted()
            && Vm::run_program(&bytecode, ablated.clone()).observable() != buggy.observable()
    });
    let reduced_source = artemis_cse::lang::pretty::print(&reduced);
    println!(
        "reduced from {before} to {} lines:\n\n{reduced_source}",
        reduced_source.lines().count()
    );
}
