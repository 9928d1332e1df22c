//! Per-method profiling state — the paper's counter set `C_m`
//! (Definition 3.2) plus the branch profiles that drive speculation.

use cse_bytecode::Fnv;

use crate::config::Tier;

/// Runtime profile of one method.
#[derive(Debug, Clone, Default)]
pub struct MethodProfile {
    /// The method counter `c_0`.
    pub invocations: u64,
    /// Back-edge counters `c_1 .. c_M`, indexed like
    /// `BMethod::loop_headers`.
    pub backedges: Vec<u64>,
    /// Per-branch (bytecode pc) taken/not-taken counts gathered by the
    /// interpreter; tier-2 compilation speculates on zero entries. Dense,
    /// indexed by pc and grown lazily: recording a branch is two counter
    /// bumps on the interpreter hot path, never a hash lookup.
    pub branches: Vec<BranchProfile>,
    /// Per-switch hit counts, indexed by pc then arm, with the default
    /// arm stored last (`cases + 1` slots per recorded switch). Dense for
    /// the same hot-path reason as `branches`.
    pub switch_hits: Vec<Vec<u64>>,
    /// Current compiled tier (`Tier::INTERP` when interpreted).
    pub tier: Tier,
    /// De-optimizations taken so far.
    pub deopts: u32,
    /// Permanently banned from compilation (too many deopts).
    pub compile_banned: bool,
    /// Bytecode pcs whose speculation already failed once (the trap's
    /// resume target): recompilations never re-speculate these sites,
    /// like HotSpot's per-method trap history.
    pub no_speculate: std::collections::HashSet<u32>,
}

/// Taken / not-taken counts for a conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchProfile {
    /// Times the condition evaluated to `true`.
    pub taken: u64,
    /// Times the condition evaluated to `false`.
    pub not_taken: u64,
}

impl MethodProfile {
    /// Records a conditional-branch outcome.
    pub fn record_branch(&mut self, pc: u32, cond: bool) {
        let pc = pc as usize;
        if pc >= self.branches.len() {
            self.branches.resize(pc + 1, BranchProfile::default());
        }
        let entry = &mut self.branches[pc];
        if cond {
            entry.taken += 1;
        } else {
            entry.not_taken += 1;
        }
    }

    /// Records which switch arm was selected (`usize::MAX` = the default
    /// arm). `cases` is the switch's case count, fixed per pc, so the
    /// per-pc table is sized once on first record.
    pub fn record_switch(&mut self, pc: u32, arm: usize, cases: usize) {
        let pc = pc as usize;
        if pc >= self.switch_hits.len() {
            self.switch_hits.resize(pc + 1, Vec::new());
        }
        let arms = &mut self.switch_hits[pc];
        if arms.is_empty() {
            arms.resize(cases + 1, 0);
        }
        let idx = if arm == usize::MAX { cases } else { arm };
        arms[idx] += 1;
    }

    /// The branch profile at a pc, if the interpreter ever saw it.
    pub fn branch(&self, pc: u32) -> Option<BranchProfile> {
        self.branches.get(pc as usize).copied().filter(|b| b.taken + b.not_taken > 0)
    }

    /// Hit count of a switch arm (`usize::MAX` = the default arm).
    pub fn switch_arm_hits(&self, pc: u32, arm: usize) -> u64 {
        let Some(arms) = self.switch_hits.get(pc as usize) else {
            return 0;
        };
        if arms.is_empty() {
            return 0;
        }
        let idx = if arm == usize::MAX { arms.len() - 1 } else { arm };
        arms.get(idx).copied().unwrap_or(0)
    }

    /// Resets counters after a de-optimization: the method re-warms from
    /// the interpreter (the paper's "cooled down by uncommon traps").
    pub fn cool_down(&mut self, max_deopts: u32) {
        self.invocations = 0;
        for counter in &mut self.backedges {
            *counter = 0;
        }
        self.tier = Tier::INTERP;
        self.deopts += 1;
        if self.deopts >= max_deopts {
            self.compile_banned = true;
        }
    }

    /// The temperature of the method right now: the maximum band any of
    /// its counters reached given the tier thresholds (Definition 3.2,
    /// `τ(m) = max τ(c)`), capped by what has actually been compiled.
    pub fn temperature(&self) -> Tier {
        self.tier
    }

    /// Order-stable fingerprint of every field a compilation can read
    /// (see [`crate::jit::CompileCtx`]): speculation inputs (branch and
    /// switch profiles, trap history), warmth predicates (invocation and
    /// back-edge counters), and recompilation state (deopt count). Two
    /// profiles with equal fingerprints produce identical compiled code
    /// for the same method, tier, and configuration — the soundness basis
    /// of the cross-run artifact cache ([`crate::jit::SharedArtifactCache`]).
    pub fn compile_fingerprint(&self) -> u64 {
        let mut fp = Fnv::new();
        fp.u64(self.invocations);
        fp.u64(self.backedges.len() as u64);
        for &c in &self.backedges {
            fp.u64(c);
        }
        // The dense tables iterate in pc order, so hashing the populated
        // entries is already a pure function of the profile's contents.
        let seen_branches = self.branches.iter().filter(|b| b.taken + b.not_taken > 0);
        fp.u64(seen_branches.clone().count() as u64);
        for (pc, b) in self.branches.iter().enumerate() {
            if b.taken + b.not_taken > 0 {
                fp.u64(pc as u64);
                fp.u64(b.taken);
                fp.u64(b.not_taken);
            }
        }
        let seen_arms = self
            .switch_hits
            .iter()
            .enumerate()
            .flat_map(|(pc, arms)| arms.iter().enumerate().map(move |(arm, &h)| (pc, arm, h)))
            .filter(|&(_, _, hits)| hits > 0);
        fp.u64(seen_arms.clone().count() as u64);
        for (pc, arm, hits) in seen_arms {
            fp.u64(pc as u64);
            fp.u64(arm as u64);
            fp.u64(hits);
        }
        fp.u64(self.deopts as u64);
        fp.u64(self.compile_banned as u64);
        let mut no_speculate: Vec<u32> = self.no_speculate.iter().copied().collect();
        no_speculate.sort_unstable();
        fp.u64(no_speculate.len() as u64);
        for pc in no_speculate {
            fp.u64(pc as u64);
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_profiles_accumulate() {
        let mut p = MethodProfile::default();
        p.record_branch(4, true);
        p.record_branch(4, true);
        p.record_branch(4, false);
        assert_eq!(p.branch(4), Some(BranchProfile { taken: 2, not_taken: 1 }));
        assert_eq!(p.branch(5), None);
    }

    #[test]
    fn switch_profiles_accumulate() {
        let mut p = MethodProfile::default();
        p.record_switch(10, 0, 4);
        p.record_switch(10, usize::MAX, 4);
        p.record_switch(10, usize::MAX, 4);
        assert_eq!(p.switch_arm_hits(10, 0), 1);
        assert_eq!(p.switch_arm_hits(10, usize::MAX), 2);
        assert_eq!(p.switch_arm_hits(10, 3), 0);
    }

    #[test]
    fn compile_fingerprint_tracks_compile_relevant_state() {
        let mut a = MethodProfile::default();
        let mut b = MethodProfile::default();
        assert_eq!(a.compile_fingerprint(), b.compile_fingerprint());
        // Insertion order must not matter (HashMap iteration is unordered).
        a.record_branch(4, true);
        a.record_branch(9, false);
        b.record_branch(9, false);
        b.record_branch(4, true);
        assert_eq!(a.compile_fingerprint(), b.compile_fingerprint());
        // Any compile-visible change must move the fingerprint.
        let before = a.compile_fingerprint();
        a.record_branch(4, true);
        assert_ne!(a.compile_fingerprint(), before);
        let before = a.compile_fingerprint();
        a.no_speculate.insert(12);
        assert_ne!(a.compile_fingerprint(), before);
        let before = a.compile_fingerprint();
        a.invocations += 1;
        assert_ne!(a.compile_fingerprint(), before);
    }

    #[test]
    fn cool_down_resets_and_bans() {
        let mut p = MethodProfile {
            invocations: 500,
            backedges: vec![9, 9],
            tier: Tier::T2,
            ..Default::default()
        };
        p.cool_down(2);
        assert_eq!(p.invocations, 0);
        assert_eq!(p.backedges, vec![0, 0]);
        assert_eq!(p.tier, Tier::INTERP);
        assert!(!p.compile_banned);
        p.cool_down(2);
        assert!(p.compile_banned);
    }
}
