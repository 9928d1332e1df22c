//! Coverage-guided exploration: a deterministic feedback scheduler
//! over the JIT-behavior coverage maps `cse-vm` records.
//!
//! The campaign runs in synchronized rounds of [`ROUND_LEN`] seeds.
//! Each round is one segment of the campaign engine; its coverage maps
//! are merged strictly in seed order on the calling thread (the same
//! seed-ordered merge every other campaign statistic already uses). At a round boundary the next round's
//! schedule — which generator seeds to run, which JoNM mutation sites
//! to boost, which forced plan to pin — is derived *purely* from the
//! merged [`CoverageState`] plus a counter-derived RNG. Nothing about
//! scheduling depends on worker count, timing, or completion order, so
//! a guided campaign is bit-identical across `jobs ∈ {1,2,4,8}` and
//! across kill/resume (the active round's schedule is persisted in the
//! checkpoint, v7).
//!
//! The live corpus is *minimized*: a mutant's map enters only if it
//! covers a cell the global map does not, and entries whose maps become
//! subsets of a newcomer's are evicted (the newcomer dominates them).

use cse_rng::Rng64;
use cse_vm::CoverageMap;
pub use cse_vm::CoveragePolicy;

/// Seeds per synchronized round under `guide`. Small enough that
/// feedback turns around quickly on smoke-sized campaigns, large
/// enough that a round saturates an 8-worker executor.
pub const ROUND_LEN: u64 = 4;

/// Live-corpus size cap; the weakest entry (fewest new cells at
/// admission, oldest first) is evicted past this.
const CORPUS_CAP: usize = 64;

/// The forced-plan coordinate a scheduled task pins, exploring the
/// plan dimension of the compilation space (§4.3's `-Xjit:count=0`
/// axis) instead of always sampling it implicitly through warmup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanVariant {
    /// No forced plan; tiers emerge from warmup as today.
    Baseline,
    /// Force every method to the profile's top tier before first call.
    ForceTop,
    /// Force every method to tier 1 (distinct from `ForceTop` only on
    /// multi-tier profiles; mapped to `Baseline` on single-tier ones).
    ForceT1,
}

impl PlanVariant {
    pub fn index(self) -> usize {
        match self {
            PlanVariant::Baseline => 0,
            PlanVariant::ForceTop => 1,
            PlanVariant::ForceT1 => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PlanVariant::Baseline => "baseline",
            PlanVariant::ForceTop => "force_top",
            PlanVariant::ForceT1 => "force_t1",
        }
    }

    pub fn from_name(name: &str) -> Option<PlanVariant> {
        match name {
            "baseline" => Some(PlanVariant::Baseline),
            "force_top" => Some(PlanVariant::ForceTop),
            "force_t1" => Some(PlanVariant::ForceT1),
            _ => None,
        }
    }
}

/// One scheduled campaign slot: which generator seed to expand, which
/// mutation sites to boost, which plan coordinate to pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Generator seed fed to `cse_fuzz::generate` (a corpus entry's
    /// seed when re-energizing, the slot's natural seed when fresh).
    pub gen_seed: u64,
    /// `Class.method` locations whose JoNM mutation probability is
    /// boosted (the sites that produced this entry's novel coverage).
    pub focus: Vec<String>,
    /// Forced-plan coordinate.
    pub plan: PlanVariant,
}

/// A corpus admission candidate: a mutant run that covered cells its
/// seed's earlier runs had not (produced inside `validate`, admitted —
/// or not — at the seed-ordered merge barrier).
#[derive(Debug, Clone)]
pub struct CorpusCandidate {
    /// The mutant run's full coverage map.
    pub map: CoverageMap,
    /// Mutation locations (`Class.method`) applied to the mutant.
    pub locations: Vec<String>,
}

/// One minimized-corpus entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Generator seed that (with its campaign mutations) reached the
    /// novel cells.
    pub gen_seed: u64,
    /// Mutation locations worth boosting when this entry is re-expanded.
    pub locations: Vec<String>,
    /// The entry's coverage map (for domination checks).
    pub map: CoverageMap,
    /// Cells this entry added to the global map at admission (its
    /// energy; also the eviction priority).
    pub new_cells: u32,
}

/// The merged campaign-wide coverage state: global map, minimized
/// corpus, per-plan-variant productivity counters, and the active
/// round's persisted schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageState {
    /// Union of every merged run's map.
    pub global: CoverageMap,
    /// Minimized live corpus.
    pub corpus: Vec<CorpusEntry>,
    /// The round the stored `schedule` belongs to.
    pub round: u64,
    /// The active round's schedule, persisted so a kill/resume
    /// mid-round replays identical tasks instead of re-deriving them
    /// from a state the completed prefix already mutated.
    pub schedule: Vec<TaskSpec>,
    /// Seeds run under each plan variant (by `PlanVariant::index`).
    pub variant_runs: [u64; 3],
    /// New cells contributed under each plan variant.
    pub variant_new: [u64; 3],
}

impl CoverageState {
    /// Covered cells in the global map.
    pub fn cells(&self) -> u32 {
        self.global.count()
    }

    /// Merges one seed's results into the state. Called only from the
    /// executor's seed-ordered merge, which is what makes the
    /// whole feedback loop worker-count-invariant.
    pub fn absorb(
        &mut self,
        run_coverage: &CoverageMap,
        candidates: Vec<CorpusCandidate>,
        gen_seed: u64,
        plan: PlanVariant,
    ) {
        self.variant_runs[plan.index()] += 1;
        self.variant_new[plan.index()] += u64::from(run_coverage.new_bits(&self.global));
        for candidate in candidates {
            let new_cells = candidate.map.new_bits(&self.global);
            if new_cells == 0 {
                continue;
            }
            // Minimization: the newcomer dominates (supersedes) every
            // entry whose map it covers entirely.
            self.corpus.retain(|entry| !entry.map.is_subset(&candidate.map));
            self.global.union(&candidate.map);
            self.corpus.push(CorpusEntry {
                gen_seed,
                locations: candidate.locations,
                map: candidate.map,
                new_cells,
            });
            if self.corpus.len() > CORPUS_CAP {
                let weakest = self
                    .corpus
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, entry)| (entry.new_cells, *i))
                    .map(|(i, _)| i)
                    .expect("corpus is non-empty past the cap");
                self.corpus.remove(weakest);
            }
        }
        self.global.union(run_coverage);
    }
}

/// Derives round `round`'s schedule (length `len`) from the merged
/// state. Pure: same state + same arguments → same schedule, on any
/// host, at any worker count.
pub fn schedule_round(
    state: &CoverageState,
    first_seed: u64,
    round: u64,
    len: u64,
    multi_tier: bool,
) -> Vec<TaskSpec> {
    let natural = |offset: u64| first_seed + round * ROUND_LEN + offset;
    if round == 0 || state.corpus.is_empty() {
        // Nothing learned yet: uniform exploration, identical to the
        // unguided campaign's slot order.
        return (0..len)
            .map(|i| TaskSpec {
                gen_seed: natural(i),
                focus: Vec::new(),
                plan: PlanVariant::Baseline,
            })
            .collect();
    }
    let mut rng = Rng64::seed_from_u64(
        first_seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc0de_c0de_5eed_5eed,
    );
    let mut tasks = Vec::with_capacity(len as usize);
    for offset in 0..len {
        // Slot 0 of every guided round always pins the top tier: forced
        // top-tier compilation reaches (method, tier) cells warmup-based
        // sampling rarely does, and keeping one slot deterministic
        // guarantees `guide` strictly grows over `collect` even on
        // smoke-sized budgets.
        let mut plan =
            if offset == 0 { PlanVariant::ForceTop } else { pick_variant(state, &mut rng) };
        if plan == PlanVariant::ForceT1 && !multi_tier {
            plan = PlanVariant::Baseline;
        }
        // Half the slots re-energize the corpus (novelty-weighted),
        // half keep exploring fresh seeds so the corpus cannot starve
        // the frontier.
        let (gen_seed, focus) = if rng.gen_bool(0.5) {
            let entry = pick_entry(state, &mut rng);
            (entry.gen_seed, entry.locations.clone())
        } else {
            (natural(offset), Vec::new())
        };
        tasks.push(TaskSpec { gen_seed, focus, plan });
    }
    tasks
}

/// Novelty-weighted plan-variant choice: weight ≈ new cells per run,
/// in integer arithmetic (floats would invite cross-host drift).
fn pick_variant(state: &CoverageState, rng: &mut Rng64) -> PlanVariant {
    let variants = [PlanVariant::Baseline, PlanVariant::ForceTop, PlanVariant::ForceT1];
    let weights: Vec<u64> = variants
        .iter()
        .map(|v| {
            let i = v.index();
            ((state.variant_new[i] + 1) * 1000 / (state.variant_runs[i] + 1)).max(1)
        })
        .collect();
    let total: u64 = weights.iter().sum();
    let mut roll = rng.gen_range(0..total);
    for (variant, weight) in variants.iter().zip(&weights) {
        if roll < *weight {
            return *variant;
        }
        roll -= weight;
    }
    PlanVariant::Baseline
}

/// Energy-weighted corpus choice: entries that contributed more new
/// cells at admission are re-expanded proportionally more often.
fn pick_entry<'s>(state: &'s CoverageState, rng: &mut Rng64) -> &'s CorpusEntry {
    let total: u64 = state.corpus.iter().map(|e| u64::from(e.new_cells) + 1).sum();
    let mut roll = rng.gen_range(0..total);
    for entry in &state.corpus {
        let weight = u64::from(entry.new_cells) + 1;
        if roll < weight {
            return entry;
        }
        roll -= weight;
    }
    &state.corpus[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(features: &[u64]) -> CoverageMap {
        let mut map = CoverageMap::new();
        for &feature in features {
            map.insert(feature);
        }
        map
    }

    #[test]
    fn absorb_admits_only_novel_candidates_and_evicts_dominated() {
        let mut state = CoverageState::default();
        let small = map_with(&[1, 2]);
        let big = map_with(&[1, 2, 3]);
        state.absorb(
            &small,
            vec![CorpusCandidate { map: small, locations: vec!["A.m".into()] }],
            7,
            PlanVariant::Baseline,
        );
        assert_eq!(state.corpus.len(), 1);
        let cells_after_small = state.cells();

        // A duplicate of already-covered cells is rejected.
        state.absorb(
            &small,
            vec![CorpusCandidate { map: small, locations: vec![] }],
            8,
            PlanVariant::Baseline,
        );
        assert_eq!(state.corpus.len(), 1, "non-novel candidate must not enter");
        assert_eq!(state.cells(), cells_after_small);

        // A dominating candidate evicts the subset entry.
        state.absorb(
            &big,
            vec![CorpusCandidate { map: big, locations: vec!["B.n".into()] }],
            9,
            PlanVariant::ForceTop,
        );
        assert_eq!(state.corpus.len(), 1, "dominated entry must be evicted");
        assert_eq!(state.corpus[0].gen_seed, 9);
        assert_eq!(state.variant_runs, [2, 1, 0]);
    }

    #[test]
    fn schedule_is_deterministic_and_uniform_before_feedback() {
        let state = CoverageState::default();
        let a = schedule_round(&state, 100, 0, ROUND_LEN, true);
        let b = schedule_round(&state, 100, 0, ROUND_LEN, true);
        assert_eq!(a, b);
        for (i, task) in a.iter().enumerate() {
            assert_eq!(task.gen_seed, 100 + i as u64);
            assert_eq!(task.plan, PlanVariant::Baseline);
            assert!(task.focus.is_empty());
        }
    }

    #[test]
    fn guided_rounds_pin_force_top_in_slot_zero_and_respect_tiers() {
        let mut state = CoverageState::default();
        state.absorb(
            &map_with(&[1]),
            vec![CorpusCandidate { map: map_with(&[1]), locations: vec!["A.m".into()] }],
            5,
            PlanVariant::Baseline,
        );
        let multi = schedule_round(&state, 0, 1, ROUND_LEN, true);
        assert_eq!(multi[0].plan, PlanVariant::ForceTop);
        let single = schedule_round(&state, 0, 1, ROUND_LEN, false);
        assert!(single.iter().all(|t| t.plan != PlanVariant::ForceT1));
        assert_eq!(schedule_round(&state, 0, 1, ROUND_LEN, true), multi, "pure function");
    }
}
