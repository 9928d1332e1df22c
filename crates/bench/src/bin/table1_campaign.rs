//! Table 1 — "Statistics of reported JIT-compiler bugs".
//!
//! Runs a fuzzing campaign against each VM profile with its default seeded
//! bug set and prints the paper's layout: discrepancies reported, unique
//! (ground-truth-deduplicated) bugs, duplicates, and the symptom split
//! (mis-compilation / crash / performance). Scale with `CSE_SEEDS`.

#![forbid(unsafe_code)]

use cse_bench::{campaign_seeds, row, supervisor_from_env, ALL_KINDS};
use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_vm::{Settings, Symptom};

fn main() {
    let seeds = campaign_seeds(400);
    println!("config: {}", Settings::get());
    println!("Table 1: statistics of found JIT-compiler bugs");
    println!("({seeds} seeds x 8 mutants per VM; override with CSE_SEEDS;");
    println!(" supervision via CSE_CHECKPOINT_DIR / CSE_QUARANTINE_DIR / CSE_DEADLINE_SECS)\n");
    let mut results: Vec<(String, CampaignResult)> = Vec::new();
    for kind in ALL_KINDS {
        let mut config = CampaignConfig::for_kind(kind, seeds);
        config.supervisor = supervisor_from_env(&kind.to_string());
        let result = run_campaign(&config);
        results.push((kind.to_string(), result));
    }
    let widths = [26, 9, 9, 9, 9];
    let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
    println!("{}", row(&["", names[0], names[1], names[2], "Total"], &widths));

    let total = |f: &dyn Fn(&CampaignResult) -> usize| -> Vec<String> {
        let mut cells: Vec<String> = results.iter().map(|(_, r)| f(r).to_string()).collect();
        let sum: usize = results.iter().map(|(_, r)| f(r)).sum();
        cells.push(sum.to_string());
        cells
    };
    let print_row = |label: &str, cells: Vec<String>| {
        let mut all: Vec<&str> = vec![label];
        all.extend(cells.iter().map(String::as_str));
        println!("{}", row(&all, &widths));
    };

    print_row(
        "Reported (discrepancies)",
        total(&|r| r.bugs.values().map(|e| e.occurrences).sum::<usize>() + r.unattributed),
    );
    println!("{}", row(&["--- numbers of bugs ---", "", "", "", ""], &widths));
    print_row("Duplicate", total(&|r| r.duplicates()));
    print_row("Confirmed (unique bugs)", total(&|r| r.bugs.len()));
    println!("{}", row(&["--- types of bugs ---", "", "", "", ""], &widths));
    for (label, symptom) in [
        ("Mis-comp.", Symptom::MisCompilation),
        ("Crash", Symptom::Crash),
        ("Performance", Symptom::Performance),
    ] {
        print_row(label, total(&|r| r.bugs.values().filter(|e| e.symptom == symptom).count()));
    }
    println!();
    for (name, result) in &results {
        println!(
            "{name}: {} seeds with discrepancies, {} mutants ({} completed, {} discarded), \
             {} VM invocations, {:.1?} wall{}",
            result.cse_seeds.len(),
            result.totals.mutants,
            result.totals.completed,
            result.totals.discarded,
            result.totals.vm_invocations,
            result.totals.wall,
            if result.totals.partial { "  [PARTIAL — resume from checkpoint]" } else { "" },
        );
        if !result.incidents.is_empty() {
            println!("  {} harness incident(s) contained:", result.incidents.len());
            for incident in &result.incidents {
                println!(
                    "    seed {} [{}]: {}",
                    incident.seed,
                    incident.phase,
                    incident.payload.lines().next().unwrap_or("")
                );
            }
        }
        assert_eq!(
            result.totals.neutrality_violations, 0,
            "JoNM produced a non-neutral mutant — harness bug"
        );
        for evidence in result.bugs.values() {
            println!(
                "  {:?} [{:?}, {}] first at seed {} x{}",
                evidence.bug,
                evidence.symptom,
                evidence.component,
                evidence.first_seed,
                evidence.occurrences
            );
        }
    }
}
