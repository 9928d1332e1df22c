//! JIT-behavior coverage: a compact, deterministic record of which JIT
//! behaviors one execution exercised.
//!
//! Each interesting event — a (method, tier) compilation, an OSR entry,
//! a pipeline pass firing over a method, an inline edge installed, a
//! de-optimization — is encoded as a 64-bit *feature* and hashed into a
//! fixed-size bitmap ([`CoverageMap`]). The map rides on
//! [`crate::ExecStats`] so campaign drivers can merge per-run maps into
//! a global picture of the compilation space actually explored, and
//! steer future inputs toward uncovered cells (see
//! `cse_core::coverage`).
//!
//! # Determinism
//!
//! Features are built exclusively from content digests
//! ([`cse_bytecode::digest::MethodDigest::key`]), static pass-table
//! names, and deterministic run state (tier, bytecode pc, deopt
//! reason). No addresses, no timing, no iteration order — two runs of
//! the same program under the same [`crate::VmConfig`] produce
//! bit-identical maps on any host, which is what lets coverage-guided
//! campaigns keep the bit-identical-digest contract across worker
//! counts and kill/resume cycles.
//!
//! # Cost
//!
//! Collection is gated on `VmConfig::coverage`; when the flag is off no
//! feature is ever computed and the map stays all-zero.

/// Number of `u64` words in a map: 64 words = 4096 cells.
pub const MAP_WORDS: usize = 64;

/// A fixed-size coverage bitmap: 4096 cells, one bit per cell.
///
/// Distinct features can collide on a cell (it is a hash map without
/// buckets); that loses a little discrimination but never determinism,
/// and 4096 cells comfortably hold the feature population of the fuzzed
/// corpus (hundreds of distinct features per campaign).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CoverageMap([u64; MAP_WORDS]);

impl Default for CoverageMap {
    fn default() -> CoverageMap {
        CoverageMap([0; MAP_WORDS])
    }
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoverageMap({} cells)", self.count())
    }
}

impl CoverageMap {
    /// Total number of cells.
    pub const CELLS: u32 = (MAP_WORDS * 64) as u32;

    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Marks the cell a feature hashes to.
    #[inline]
    pub fn insert(&mut self, feature: u64) {
        let cell = mix(feature) % u64::from(Self::CELLS);
        self.0[(cell / 64) as usize] |= 1u64 << (cell % 64);
    }

    /// Folds another map into this one.
    pub fn union(&mut self, other: &CoverageMap) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    /// Number of covered cells.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of cells covered here but not in `baseline`.
    pub fn new_bits(&self, baseline: &CoverageMap) -> u32 {
        self.0.iter().zip(&baseline.0).map(|(w, b)| (w & !b).count_ones()).sum()
    }

    /// Whether this map covers at least one cell `baseline` does not.
    pub fn covers_new(&self, baseline: &CoverageMap) -> bool {
        self.0.iter().zip(&baseline.0).any(|(w, b)| w & !b != 0)
    }

    /// Whether every cell covered here is also covered in `other`.
    pub fn is_subset(&self, other: &CoverageMap) -> bool {
        self.0.iter().zip(&other.0).all(|(w, o)| w & !o == 0)
    }

    /// Whether no cell is covered.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The raw words, for serialization (checkpoints).
    pub fn words(&self) -> &[u64; MAP_WORDS] {
        &self.0
    }

    /// Rebuilds a map from serialized words.
    pub fn from_words(words: [u64; MAP_WORDS]) -> CoverageMap {
        CoverageMap(words)
    }
}

/// SplitMix64 finalizer: a strong, dependency-free 64-bit bit mixer
/// (`cse-vm` deliberately has no crate dependencies beyond the
/// substrate, so it cannot pull `cse-rng` in for this).
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a string, for pass names and deopt reasons.
fn fnv_str(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// Feature-kind tags keep the taxonomies from colliding structurally
// (two different kinds sharing operands still mix to different cells).
const TAG_COMPILE: u64 = 0x636f_6d70;
const TAG_OSR: u64 = 0x006f_7372;
const TAG_PASS: u64 = 0x7061_7373;
const TAG_INLINE: u64 = 0x696e_6c6e;
const TAG_DEOPT: u64 = 0x6465_6f70;

/// A (method, tier) compilation; OSR entries get their own sub-space.
pub fn feat_compile(method_key: u64, tier: u8, osr: bool) -> u64 {
    let tag = if osr { TAG_OSR } else { TAG_COMPILE };
    mix(tag ^ method_key.rotate_left(8) ^ u64::from(tier))
}

/// One pipeline pass running over a (method, tier) compilation.
pub fn feat_pass(method_key: u64, tier: u8, pass: &str) -> u64 {
    mix(TAG_PASS ^ method_key.rotate_left(8) ^ u64::from(tier) ^ fnv_str(pass).rotate_left(24))
}

/// An inline edge (caller, callee) installed at a tier.
pub fn feat_inline(caller_key: u64, callee_key: u64, tier: u8) -> u64 {
    mix(TAG_INLINE ^ caller_key.rotate_left(8) ^ callee_key.rotate_left(32) ^ u64::from(tier))
}

/// A de-optimization (guard taken) at a bytecode pc, keyed by reason.
pub fn feat_deopt(method_key: u64, tier: u8, bc_pc: u32, reason: &str) -> u64 {
    mix(TAG_DEOPT
        ^ method_key.rotate_left(8)
        ^ u64::from(tier)
        ^ (u64::from(bc_pc) << 16)
        ^ fnv_str(reason).rotate_left(40))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_union_count_are_consistent() {
        let mut a = CoverageMap::new();
        assert!(a.is_empty());
        a.insert(feat_compile(1, 1, false));
        a.insert(feat_compile(1, 1, false));
        assert_eq!(a.count(), 1, "re-inserting a feature covers no new cell");
        let mut b = CoverageMap::new();
        b.insert(feat_compile(2, 1, false));
        assert!(b.covers_new(&a));
        assert!(!b.is_subset(&a));
        let mut u = a;
        u.union(&b);
        assert!(a.is_subset(&u) && b.is_subset(&u));
        assert_eq!(u.new_bits(&a), 1);
        assert_eq!(u.count(), 2);
    }

    #[test]
    fn feature_kinds_do_not_alias() {
        // The same operands under different taxonomies must produce
        // different features (cell collisions are possible but the
        // feature values themselves must differ).
        let features = [
            feat_compile(7, 2, false),
            feat_compile(7, 2, true),
            feat_pass(7, 2, "gvn"),
            feat_pass(7, 2, "licm"),
            feat_inline(7, 7, 2),
            feat_deopt(7, 2, 0, "GuardFailed"),
        ];
        for (i, a) in features.iter().enumerate() {
            for b in &features[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn words_round_trip() {
        let mut a = CoverageMap::new();
        for k in 0..100 {
            a.insert(feat_compile(k, 1, false));
        }
        let b = CoverageMap::from_words(*a.words());
        assert_eq!(a, b);
    }
}
