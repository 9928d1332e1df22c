//! Table 3 — "Mutation cost of Artemis in seconds".
//!
//! * **Single-run**: one engine boot per mutant — parse the seed source,
//!   resolve/check it, construct the mutation engine, mutate once (the
//!   paper's "complete both source parsing and loop synthesis").
//! * **Large-scale**: the engine and parsed seed are reused across many
//!   mutants, amortizing everything but the mutation itself.
//!
//! The paper reports ~1.65 s single-run vs ~0.16 s large-scale on Spoon;
//! this front end is far lighter, so absolute numbers are milliseconds —
//! the *ratio* (boot cost dominating single runs) is the reproduced shape.
//!
//! A second table splits the cost of preparing a mutant for the VM by
//! layer: JoNM, then the front end a campaign runs on every mutant (type
//! check, lowering to bytecode, bytecode verification, and attaching the
//! program to its seed's artifact cache, which digests and decodes it).
//! It times the `campaign_hotspot` benchmark's window (fuzzer seeds 3–34,
//! `MAX_ITER = 8`, HotSpot parameters) and prints, per layer, the median
//! over several passes of the milliseconds one pass spends there.

#![forbid(unsafe_code)]

use std::time::Instant;

use cse_bench::campaign_seeds;
use cse_core::mutate::Artemis;
use cse_core::synth::SynthParams;
use cse_vm::{SharedArtifactCache, VmKind};

/// The `campaign_hotspot` window (its workload seed 1) and its JoNM
/// iterations per seed.
const LAYER_SEEDS: std::ops::Range<u64> = 3..35;
const LAYER_ITERATIONS: usize = 8;
/// Passes over the window; each layer reports its median pass.
const LAYER_PASSES: usize = 5;
/// The layers, in pipeline order.
const LAYERS: [&str; 5] = ["JoNM", "type-check", "lowering", "verification", "attach"];

fn stats(mut samples: Vec<f64>) -> (f64, f64, f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let median = samples[samples.len() / 2];
    (mean, median, samples[0], *samples.last().expect("nonempty"))
}

/// Milliseconds one pass over [`LAYER_SEEDS`] spends in each of
/// [`LAYERS`], mutating and preparing every mutant as a campaign does
/// (mutants without a mutation are skipped, and each seed's mutants
/// attach to one cache).
fn layer_pass(seeds: &[cse_lang::Program]) -> [f64; LAYERS.len()] {
    let mut ms = [0.0; LAYERS.len()];
    let mut lap = |layer: usize, start: &mut Instant| {
        let now = Instant::now();
        ms[layer] += (now - *start).as_secs_f64() * 1e3;
        *start = now;
    };
    for (seed, program) in LAYER_SEEDS.zip(seeds) {
        let mut artemis = Artemis::new(seed, SynthParams::for_kind(VmKind::HotSpotLike));
        let cache = SharedArtifactCache::new();
        for _ in 0..LAYER_ITERATIONS {
            let mut start = Instant::now();
            let (mut mutant, mutations) = artemis.jonm(program);
            lap(0, &mut start);
            if mutations.is_empty() {
                continue;
            }
            cse_lang::typeck::check(&mut mutant).expect("mutants type-check");
            lap(1, &mut start);
            let bytecode = cse_bytecode::compile(&mutant).expect("mutants lower");
            lap(2, &mut start);
            cse_bytecode::verify::verify_program(&bytecode).expect("mutants verify");
            lap(3, &mut start);
            std::hint::black_box(cache.attach(&bytecode));
            lap(4, &mut start);
        }
    }
    ms
}

fn main() {
    let n = campaign_seeds(300) as usize;
    println!("Table 3: mutation cost (milliseconds; paper reports seconds on Spoon)\n");
    let fuzz = cse_fuzz::FuzzConfig::default();
    // Pre-render seed sources: single-run mode starts from source text,
    // exactly like invoking the tool afresh per mutant.
    let sources: Vec<String> =
        (0..n).map(|i| cse_lang::pretty::print(&cse_fuzz::generate(i as u64, &fuzz))).collect();

    // Single-run: parse + check + boot + one mutation, per mutant.
    let mut single: Vec<f64> = Vec::with_capacity(n);
    for (i, source) in sources.iter().enumerate() {
        let start = Instant::now();
        let seed = cse_lang::parse_and_check(source).expect("seed re-parses");
        let mut artemis = Artemis::new(i as u64, SynthParams::for_kind(VmKind::HotSpotLike));
        let (mutant, _) = artemis.jonm(&seed);
        std::hint::black_box(&mutant);
        single.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // Large-scale: boot once, reuse the parsed seed, generate many mutants.
    let seeds: Vec<cse_lang::Program> =
        sources.iter().map(|s| cse_lang::parse_and_check(s).expect("seed re-parses")).collect();
    let mut artemis = Artemis::new(7, SynthParams::for_kind(VmKind::HotSpotLike));
    let mut large: Vec<f64> = Vec::with_capacity(n);
    for seed in &seeds {
        let start = Instant::now();
        let (mutant, _) = artemis.jonm(seed);
        std::hint::black_box(&mutant);
        large.push(start.elapsed().as_secs_f64() * 1e3);
    }

    println!("{:<12} {:>9} {:>9} {:>9} {:>9}", "", "Mean", "Median", "Min", "Max");
    for (label, samples) in [("Single-run", single), ("Large-scale", large)] {
        let (mean, median, min, max) = stats(samples);
        println!("{label:<12} {mean:>9.3} {median:>9.3} {min:>9.3} {max:>9.3}");
    }
    println!("\n({n} seeds; one mutant each; override count with CSE_SEEDS)");

    let fuzz = cse_fuzz::FuzzConfig::default();
    let window: Vec<cse_lang::Program> =
        LAYER_SEEDS.map(|seed| cse_fuzz::generate(seed, &fuzz)).collect();
    let passes: Vec<[f64; LAYERS.len()]> = (0..LAYER_PASSES).map(|_| layer_pass(&window)).collect();
    println!(
        "\nPer-mutant layers: ms per pass over fuzzer seeds {}-{} x {LAYER_ITERATIONS} JoNM \
         iterations (HotSpot), median of {LAYER_PASSES} passes",
        LAYER_SEEDS.start,
        LAYER_SEEDS.end - 1
    );
    let mut total = 0.0;
    for (layer, name) in LAYERS.iter().enumerate() {
        let (_, median, _, _) = stats(passes.iter().map(|pass| pass[layer]).collect());
        total += median;
        println!("layer {name:<13} {median:>9.1}");
    }
    println!("{:<19} {total:>9.1}", "sum of medians");
}
