//! The yield harness: every campaign experiment of the evaluation, run as
//! arms of one Algorithm-1 engine (`run_campaign`) and scored in the
//! unit that matters, unique ground-truth bugs per core-second.
//!
//! Each arm is a plain `CampaignConfig::for_kind` variant, run on every
//! VM profile with its default bug set:
//!
//! * `off` — the paper's campaign (Tables 1 and 2 print from it);
//! * `guide` — coverage-guided round scheduling;
//! * `traditional` — `off` plus the `count=0` baseline on every seed
//!   (Table 4 and the §4.3 throughput print from it);
//! * `thresholds/50` — the §4.5 tiny-threshold workaround;
//! * `max_iter=4`, `max_iter=16` — the §4.1 `MAX_ITER` choice around 8.
//!
//! One row per (profile, arm): seeds, mutants, VM invocations, unique
//! bugs, discrepant seeds, wall, core-seconds (wall × `CSE_JOBS`) and
//! bugs per core-second, then the bugs each arm gained and lost against
//! `off`. Seeds per campaign come from `CSE_SEEDS` (default 400).
//! Supervision via `CSE_CHECKPOINT_DIR` / `CSE_QUARANTINE_DIR` /
//! `CSE_DEADLINE_SECS`, with one checkpoint per profile and arm. The run
//! fails if any arm produced a non-neutral mutant or a bug outside its
//! profile's seeded set.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use cse_bench::{campaign_seeds, row, supervisor_from_env, ALL_KINDS};
use cse_core::campaign::{run_campaign, CampaignConfig, CampaignResult};
use cse_core::CoveragePolicy;
use cse_vm::{BugId, Settings, Symptom, VmKind};

type Arm = (&'static str, fn(&mut CampaignConfig));

const ARMS: [Arm; 6] = [
    ("off", |c| c.coverage = CoveragePolicy::Off),
    ("guide", |c| c.coverage = CoveragePolicy::Guide),
    ("traditional", |c| {
        c.coverage = CoveragePolicy::Off;
        c.run_traditional = true;
    }),
    ("thresholds/50", |c| {
        c.coverage = CoveragePolicy::Off;
        for tier in &mut c.vm.tiers {
            tier.invocations = (tier.invocations / 50).max(1);
            tier.backedge = (tier.backedge / 50).max(1);
        }
    }),
    ("max_iter=4", |c| {
        c.coverage = CoveragePolicy::Off;
        c.max_iter = 4;
    }),
    ("max_iter=16", |c| {
        c.coverage = CoveragePolicy::Off;
        c.max_iter = 16;
    }),
];

/// One finished campaign: a profile under one arm.
struct Run {
    kind: VmKind,
    arm: &'static str,
    config: CampaignConfig,
    result: CampaignResult,
}

impl Run {
    fn bugs(&self) -> BTreeSet<BugId> {
        self.result.bugs.keys().copied().collect()
    }

    fn core_secs(&self) -> f64 {
        self.result.totals.wall.as_secs_f64() * self.config.jobs as f64
    }
}

fn main() {
    let seeds = campaign_seeds(400);
    let jobs = Settings::get().jobs;
    println!("config: {}", Settings::get());
    println!("Yield harness: Algorithm 1 through run_campaign, one campaign per profile and arm");
    println!("({seeds} seeds per campaign, override with CSE_SEEDS; {jobs} job(s), CSE_JOBS;");
    println!(" supervision via CSE_CHECKPOINT_DIR / CSE_QUARANTINE_DIR / CSE_DEADLINE_SECS)\n");

    let mut runs = Vec::new();
    for kind in ALL_KINDS {
        for (arm, configure) in ARMS {
            let mut config = CampaignConfig::for_kind(kind, seeds).with_jobs(jobs);
            configure(&mut config);
            let label = format!("{kind}-{}", arm.replace(['/', '='], "-"));
            config.supervisor = supervisor_from_env(&label);
            let result = run_campaign(&config);
            runs.push(Run { kind, arm, config, result });
        }
    }

    print_yield(&runs);
    let off: Vec<&Run> = runs.iter().filter(|r| r.arm == "off").collect();
    print_table1(&off);
    let traditional: Vec<&Run> = runs.iter().filter(|r| r.arm == "traditional").collect();
    print_table4(&traditional);

    for run in &runs {
        let (kind, arm) = (run.kind, run.arm);
        assert_eq!(
            run.result.totals.neutrality_violations, 0,
            "{kind} {arm}: JoNM produced a non-neutral mutant — harness bug"
        );
        for bug in run.bugs() {
            assert!(run.config.vm.faults.active(bug), "{kind} {arm}: {bug:?} was never seeded");
        }
    }
}

/// The yield table, then each arm's bug set against `off`, then any
/// contained harness incidents.
fn print_yield(runs: &[Run]) {
    let widths = [8, 14, 6, 8, 9, 5, 10, 8, 8, 11];
    let header = [
        "profile",
        "arm",
        "seeds",
        "mutants",
        "VM inv.",
        "bugs",
        "disc.seeds",
        "wall s",
        "core-s",
        "bugs/core-s",
    ];
    println!("{}", row(&header, &widths));
    for run in runs {
        let t = &run.result.totals;
        let bugs = run.result.bugs.len();
        let core_secs = run.core_secs();
        let per_core_sec = if core_secs > 0.0 { bugs as f64 / core_secs } else { 0.0 };
        let line = row(
            &[
                &run.kind.to_string(),
                run.arm,
                &t.seeds.to_string(),
                &t.mutants.to_string(),
                &t.vm_invocations.to_string(),
                &bugs.to_string(),
                &run.result.cse_seeds.len().to_string(),
                &format!("{:.1}", t.wall.as_secs_f64()),
                &format!("{core_secs:.1}"),
                &format!("{per_core_sec:.3}"),
            ],
            &widths,
        );
        let partial = if t.partial { "  [PARTIAL — resume from checkpoint]" } else { "" };
        println!("{line}{partial}");
    }

    println!("\nBugs per arm (the `off` set, then + gained and - lost against it):");
    // `runs` holds one group of `ARMS` per profile, `off` first.
    for group in runs.chunks(ARMS.len()) {
        let off = group[0].bugs();
        println!("bugs {} off: {}", group[0].kind, names(off.iter().map(|b| format!("{b:?}"))));
        for run in &group[1..] {
            let bugs = run.bugs();
            let gained = bugs.difference(&off).map(|b| format!("+{b:?}"));
            let lost = off.difference(&bugs).map(|b| format!("-{b:?}"));
            println!("bugs {} {}: {}", run.kind, run.arm, names(gained.chain(lost)));
        }
    }

    for run in runs.iter().filter(|r| !r.result.incidents.is_empty()) {
        println!(
            "\n{} {}: {} harness incident(s) contained:",
            run.kind,
            run.arm,
            run.result.incidents.len()
        );
        for incident in &run.result.incidents {
            println!(
                "    seed {} [{}]: {}",
                incident.seed,
                incident.phase,
                incident.payload.lines().next().unwrap_or("")
            );
        }
    }
}

/// Space-separated bug names, or `-` for none.
fn names(names: impl Iterator<Item = String>) -> String {
    let joined = names.collect::<Vec<_>>().join(" ");
    if joined.is_empty() {
        "-".to_string()
    } else {
        joined
    }
}

/// Tables 1 and 2 from the `off` arm of every profile.
fn print_table1(off: &[&Run]) {
    println!("\nTable 1: statistics of found JIT-compiler bugs (arm `off`)");
    let widths = [26, 9, 9, 9, 9];
    let names: Vec<String> = off.iter().map(|r| r.kind.to_string()).collect();
    println!("{}", row(&["", &names[0], &names[1], &names[2], "Total"], &widths));

    let print_row = |label: &str, f: &dyn Fn(&CampaignResult) -> usize| {
        let mut cells: Vec<String> = off.iter().map(|r| f(&r.result).to_string()).collect();
        cells.push(off.iter().map(|r| f(&r.result)).sum::<usize>().to_string());
        let mut all: Vec<&str> = vec![label];
        all.extend(cells.iter().map(String::as_str));
        println!("{}", row(&all, &widths));
    };
    print_row("Reported (discrepancies)", &|r| {
        r.bugs.values().map(|e| e.occurrences).sum::<usize>() + r.unattributed
    });
    println!("{}", row(&["--- numbers of bugs ---", "", "", "", ""], &widths));
    print_row("Duplicate", &|r| r.duplicates());
    print_row("Confirmed (unique bugs)", &|r| r.bugs.len());
    println!("{}", row(&["--- types of bugs ---", "", "", "", ""], &widths));
    for (label, symptom) in [
        ("Mis-comp.", Symptom::MisCompilation),
        ("Crash", Symptom::Crash),
        ("Performance", Symptom::Performance),
    ] {
        print_row(label, &|r| r.bugs.values().filter(|e| e.symptom == symptom).count());
    }
    println!();
    for run in off {
        let t = &run.result.totals;
        println!(
            "{}: {} seeds with discrepancies, {} mutants ({} completed, {} discarded)",
            run.kind,
            run.result.cse_seeds.len(),
            t.mutants,
            t.completed,
            t.discarded,
        );
        for evidence in run.result.bugs.values() {
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

    println!("\nTable 2: crash bugs per affected JIT component (arm `off`)");
    println!("(counts are crash *occurrences*; unique = distinct bugs)");
    let widths = [28, 14, 8];
    for run in off {
        println!("\n--- {} ---", run.kind);
        println!("{}", row(&["Component", "#crashes", "unique"], &widths));
        let mut by_component: BTreeMap<_, (usize, usize)> = BTreeMap::new();
        for evidence in run.result.bugs.values().filter(|e| e.symptom == Symptom::Crash) {
            let entry = by_component.entry(evidence.component).or_default();
            entry.0 += evidence.occurrences;
            entry.1 += 1;
        }
        for (component, (occurrences, unique)) in &by_component {
            let cells: [&str; 3] =
                [&component.to_string(), &occurrences.to_string(), &unique.to_string()];
            println!("{}", row(&cells, &widths));
        }
        let total: usize = by_component.values().map(|(o, _)| o).sum();
        println!("{}", row(&["(total)", &total.to_string(), ""], &widths));
    }
}

/// Table 4 (CSE vs. the `count=0` traditional approach, in discrepant
/// seeds) and the §4.3 throughput, from the `traditional` arm.
fn print_table4(traditional: &[&Run]) {
    println!("\nTable 4: comparative study, CSE vs. the traditional approach (arm `traditional`)");
    let widths = [8, 7, 9, 6, 6, 6, 9];
    println!(
        "{}",
        row(&["profile", "#Seeds", "#Mutants", "CSE", "Tra.", "Both", "CSE-only"], &widths)
    );
    for run in traditional {
        let r = &run.result;
        let both =
            r.cse_seeds.iter().filter(|s| r.traditional_seeds.binary_search(s).is_ok()).count();
        let cse = r.cse_seeds.len();
        let cse_only = if cse > 0 { 100.0 * (cse - both) as f64 / cse as f64 } else { 0.0 };
        println!(
            "{}",
            row(
                &[
                    &run.kind.to_string(),
                    &r.totals.seeds.to_string(),
                    &r.totals.mutants.to_string(),
                    &cse.to_string(),
                    &r.traditional_seeds.len().to_string(),
                    &both.to_string(),
                    &format!("{cse_only:.1}%"),
                ],
                &widths,
            )
        );
    }
    println!("(CSE-only: share of CSE-found seeds the traditional approach misses)");

    println!("\nThroughput (§4.3, arm `traditional`):");
    for run in traditional {
        let t = &run.result.totals;
        let secs = t.wall.as_secs_f64().max(f64::EPSILON);
        println!(
            "  {}: {} VM invocations in {:.1?} = {:.2} invocations/second; \
             {:.2} seeds/second, {:.2} mutants/second",
            run.kind,
            t.vm_invocations,
            t.wall,
            t.vm_invocations as f64 / secs,
            t.seeds as f64 / secs,
            t.mutants as f64 / secs,
        );
    }
}
