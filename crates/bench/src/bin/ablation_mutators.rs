//! Ablation: mutator mix (LI-only vs SW-only vs MI-only vs all three).
//!
//! FuzzJIT corresponds roughly to LI-only (§5: "FuzzJIT wraps existing
//! code with a loop template ... specific to the loop template"); the
//! full mix should find at least as many discrepancy seeds.

#![forbid(unsafe_code)]

use cse_bench::campaign_seeds;
use cse_core::mutate::Mutator;
use cse_core::validate::{validate_with, ValidateConfig};
use cse_vm::{VmConfig, VmKind};

fn run_with(enabled: Vec<Mutator>, seeds: u64) -> (usize, usize) {
    let mut hits = 0;
    let mut discrepancies = 0;
    for seed_value in 0..seeds {
        let seed = cse_fuzz::generate(seed_value, &cse_fuzz::FuzzConfig::default());
        let mut config = ValidateConfig::paper_defaults(VmConfig::for_kind(VmKind::OpenJ9Like));
        config.verify_neutrality = false;
        let outcome = validate_with(&seed, &config, seed_value, |artemis| {
            artemis.enabled = enabled.clone();
        });
        if outcome.found_bug() {
            hits += 1;
        }
        discrepancies += outcome.discrepancies.len();
    }
    (hits, discrepancies)
}

fn main() {
    let seeds = campaign_seeds(150);
    println!("Ablation: mutator mix (OpenJ9-like, {seeds} seeds x 8 mutants)\n");
    println!("{:<18} {:>12} {:>15}", "Mutators", "seeds w/bug", "discrepancies");
    for (label, enabled) in [
        ("LI only", vec![Mutator::Li]),
        ("SW only", vec![Mutator::Sw]),
        ("MI only", vec![Mutator::Mi]),
        ("LI+SW+MI", Mutator::ALL.to_vec()),
    ] {
        let (hits, total) = run_with(enabled, seeds);
        println!("{label:<18} {hits:>12} {total:>15}");
    }
}
