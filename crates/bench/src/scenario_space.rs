//! Rank-indexed enumeration of the controller-failure scenario space.
//!
//! A sweep over f simultaneous failures out of n controllers visits the
//! C(n, f) f-subsets of the controller set. The paper's ATT setup keeps
//! that tiny (C(6, 3) = 20), but production-scale SD-WANs do not:
//! C(64, 4) ≈ 635k, and materializing every subset as a `Vec` before
//! dispatch costs memory proportional to the whole space. A
//! [`ScenarioSpace`] instead treats the space as the integer range
//! `0..C(n, f)` under the **colexicographic order** and converts between
//! ranks and subsets on demand:
//!
//! * [`ScenarioSpace::rank`] — subset → rank, O(f) table lookups;
//! * [`ScenarioSpace::unrank`] — rank → subset, O(f log n) binary
//!   searches over a precomputed Pascal table.
//!
//! In colex order a subset `{c₀ < c₁ < …}` has rank
//! `Σᵢ C(cᵢ, i+1)` — subsets sort by their largest element first, so the
//! space for n controllers is a prefix of the space for n+1. Scenario
//! generation becomes a pure function of an integer index, which is what
//! makes streaming dispatch, deterministic sharding
//! ([`ScenarioSelection::shard_range`]) and seeded subsampling
//! ([`ScenarioSelection::sampled`]) composable: they all operate on plain
//! integer ranges and only pay [`ScenarioSpace::unrank`] for scenarios
//! actually executed.

use pm_sdwan::ControllerId;
use pm_topo::rng::DetRng;
use std::ops::Range;

/// Computes C(n, k), saturating at `u64::MAX`.
///
/// # Example
///
/// ```
/// use pm_bench::scenario_space::binomial;
/// assert_eq!(binomial(6, 3), 20);
/// assert_eq!(binomial(64, 4), 635_376);
/// assert_eq!(binomial(3, 5), 0);
/// assert_eq!(binomial(5, 0), 1);
/// ```
pub fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        // acc * (n - i) / (i + 1) stays integral at every step; do the
        // multiply in u128 to saturate instead of overflowing.
        let wide = acc as u128 * (n - i) as u128 / (i + 1) as u128;
        acc = u64::try_from(wide).unwrap_or(u64::MAX);
        if acc == u64::MAX {
            return u64::MAX;
        }
    }
    acc
}

/// The space of all f-subsets of n controllers, indexed by colex rank.
///
/// # Example
///
/// ```
/// use pm_bench::ScenarioSpace;
/// use pm_sdwan::ControllerId;
///
/// let space = ScenarioSpace::new(6, 3);
/// assert_eq!(space.count(), 20);
/// // Colex rank 0 is always {0, 1, …, f-1}.
/// assert_eq!(
///     space.unrank(0),
///     vec![ControllerId(0), ControllerId(1), ControllerId(2)]
/// );
/// // rank and unrank are inverses over the whole range.
/// for r in 0..space.count() {
///     assert_eq!(space.rank(&space.unrank(r)), r);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpace {
    n: usize,
    f: usize,
    /// Pascal table, row-major: `binom[c * (f + 1) + j] = C(c, j)` for
    /// `c ∈ 0..=n`, `j ∈ 0..=f`, saturating at `u64::MAX`. Saturated
    /// cells are harmless: every value `rank`/`unrank` actually reads is
    /// bounded by `count()`, which is checked to be exact.
    binom: Vec<u64>,
    count: u64,
}

impl ScenarioSpace {
    /// Builds the space of `f`-subsets of `n` controllers.
    ///
    /// Degenerate shapes follow the binomial coefficient: `f = 0` gives a
    /// single empty scenario, `f > n` gives an empty space.
    ///
    /// # Panics
    ///
    /// Panics if `C(n, f)` itself exceeds `u64::MAX` — the rank space
    /// must fit an integer. Every `n ≤ 64` fits for any `f`.
    pub fn new(n: usize, f: usize) -> Self {
        let count = binomial(n, f);
        assert!(
            count < u64::MAX || binomial_is_exact(n, f),
            "scenario space C({n}, {f}) exceeds u64"
        );
        let cols = f + 1;
        let mut binom = vec![0u64; (n + 1) * cols];
        for c in 0..=n {
            binom[c * cols] = 1;
            for j in 1..=f.min(c) {
                let a = binom[(c - 1) * cols + j - 1];
                let b = binom[(c - 1) * cols + j];
                binom[c * cols + j] = a.saturating_add(b);
            }
        }
        ScenarioSpace { n, f, binom, count }
    }

    /// The number of controllers `n`.
    pub fn controllers(&self) -> usize {
        self.n
    }

    /// The subset size `f` (simultaneous failures).
    pub fn failures(&self) -> usize {
        self.f
    }

    /// The size of the rank space, `C(n, f)`.
    pub fn count(&self) -> u64 {
        self.count
    }

    #[inline]
    fn c(&self, c: usize, j: usize) -> u64 {
        self.binom[c * (self.f + 1) + j]
    }

    /// The colex rank of `subset`: `Σᵢ C(cᵢ, i+1)`.
    ///
    /// # Panics
    ///
    /// Panics if `subset` is not a strictly ascending list of `f`
    /// controller ids below `n` — rank is only defined on canonical
    /// subsets.
    pub fn rank(&self, subset: &[ControllerId]) -> u64 {
        assert_eq!(
            subset.len(),
            self.f,
            "rank of a {}-subset in a {}-failure space",
            subset.len(),
            self.f
        );
        let mut r = 0u64;
        let mut prev = None;
        for (i, &c) in subset.iter().enumerate() {
            let c = c.index();
            assert!(c < self.n, "controller C{c} out of range (n = {})", self.n);
            assert!(
                prev.map_or(true, |p| p < c),
                "subset must be strictly ascending"
            );
            prev = Some(c);
            r += self.c(c, i + 1);
        }
        r
    }

    /// The subset at colex rank `rank`; inverse of [`ScenarioSpace::rank`].
    ///
    /// # Panics
    ///
    /// Panics if `rank >= count()`.
    pub fn unrank(&self, rank: u64) -> Vec<ControllerId> {
        let mut out = Vec::with_capacity(self.f);
        self.unrank_into(rank, &mut out);
        out
    }

    /// [`ScenarioSpace::unrank`] into a reusable buffer (cleared first) —
    /// the streaming dispatch path calls this once per executed scenario.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= count()`.
    pub fn unrank_into(&self, rank: u64, out: &mut Vec<ControllerId>) {
        assert!(
            rank < self.count,
            "rank {rank} out of range (count = {})",
            self.count
        );
        out.clear();
        out.resize(self.f, ControllerId(0));
        let mut r = rank;
        // Greedy from the largest element down: position j-1 holds the
        // largest c with C(c, j) <= the remaining rank.
        let mut hi = self.n; // exclusive candidate bound (strictly descending)
        for j in (1..=self.f).rev() {
            let (mut lo, mut up) = (j - 1, hi); // C(j-1, j) = 0 <= r always
            while up - lo > 1 {
                let mid = lo + (up - lo) / 2;
                if self.c(mid, j) <= r {
                    lo = mid;
                } else {
                    up = mid;
                }
            }
            out[j - 1] = ControllerId(lo);
            r -= self.c(lo, j);
            hi = lo;
        }
        debug_assert_eq!(r, 0, "greedy unrank consumes the whole rank");
    }
}

/// `true` when C(n, k) is exactly representable in u64 (no saturation).
fn binomial_is_exact(n: usize, k: usize) -> bool {
    if k > n {
        return true;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return false;
        }
    }
    true
}

/// An unbiased draw from `0..bound` (Lemire's multiply-shift rejection).
fn uniform_below(rng: &mut DetRng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(bound);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Which indices of `0..count` a sweep executes: all of them, or a seeded
/// sample, ascending either way. Positions `0..len()` index the
/// selection, and sharding slices that position range, so m shards
/// concatenated in shard order visit exactly the unsharded sequence.
/// [`ScenarioSelection`] picks colex ranks with it, and
/// [`crate::TimelineSelection`] is one over timeline ids.
#[derive(Debug, Clone)]
pub struct IndexSelection {
    count: u64,
    /// Sampled indices in ascending order; `None` means exhaustive.
    picks: Option<Vec<u64>>,
}

impl IndexSelection {
    /// Selects every index of `0..count`.
    pub fn exhaustive(count: u64) -> Self {
        IndexSelection { count, picks: None }
    }

    /// Selects at most `max` indices of `0..count`, drawn without
    /// replacement by Floyd's algorithm from a [`DetRng`] seeded with
    /// `seed`.
    ///
    /// When `max >= count` the budget is not a constraint and the
    /// selection falls back to the exhaustive range — sampling-without-
    /// replacement must never spin on an exhausted pool.
    pub fn sampled(count: u64, max: u64, seed: u64) -> Self {
        if max >= count {
            return IndexSelection::exhaustive(count);
        }
        // Floyd's algorithm: exactly `max` distinct indices in `max` draws,
        // no rejection loop however close `max` is to the pool size.
        let want = usize::try_from(max).expect("sample budget fits usize");
        let mut rng = DetRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::with_capacity(want);
        let mut picks = Vec::with_capacity(want);
        for j in (count - max)..count {
            let t = uniform_below(&mut rng, j + 1);
            let pick = if seen.insert(t) { t } else { j };
            if pick != t {
                seen.insert(pick);
            }
            picks.push(pick);
        }
        picks.sort_unstable();
        debug_assert!(picks.windows(2).all(|w| w[0] < w[1]));
        IndexSelection {
            count,
            picks: Some(picks),
        }
    }

    /// `true` when this is a strict subsample of the index space.
    pub fn is_sampled(&self) -> bool {
        self.picks.is_some()
    }

    /// How many indices the selection contains.
    pub fn len(&self) -> u64 {
        match &self.picks {
            Some(p) => p.len() as u64,
            None => self.count,
        }
    }

    /// `true` when the selection contains no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index executed at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn index_at(&self, pos: u64) -> u64 {
        match &self.picks {
            Some(p) => p[usize::try_from(pos).expect("position fits usize")],
            None => {
                assert!(pos < self.count, "position {pos} out of range");
                pos
            }
        }
    }

    /// The position range shard `i` of `m` executes (1-based `i`, the
    /// `--shard i/m` convention). Shards are contiguous, disjoint, cover
    /// the selection, and differ in size by at most one position;
    /// `shard = None` means the whole range.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in `1..=m` or `m == 0` — flag parsing
    /// rejects those shapes before they get here.
    pub fn shard_range(&self, shard: Option<(usize, usize)>) -> Range<u64> {
        let len = self.len();
        let Some((i, m)) = shard else {
            return 0..len;
        };
        assert!(m >= 1 && i >= 1 && i <= m, "--shard {i}/{m} out of range");
        let (i, m) = (i as u128, m as u128);
        let lo = (u128::from(len) * (i - 1) / m) as u64;
        let hi = (u128::from(len) * i / m) as u64;
        lo..hi
    }
}

/// Which scenarios of a [`ScenarioSpace`] a sweep executes: an
/// [`IndexSelection`] over its colex ranks.
#[derive(Debug, Clone)]
pub struct ScenarioSelection {
    space: ScenarioSpace,
    ranks: IndexSelection,
}

impl ScenarioSelection {
    /// Selects every scenario of `space`.
    pub fn exhaustive(space: ScenarioSpace) -> Self {
        let ranks = IndexSelection::exhaustive(space.count());
        ScenarioSelection { space, ranks }
    }

    /// Selects at most `max` scenarios of `space` (see
    /// [`IndexSelection::sampled`]).
    pub fn sampled(space: ScenarioSpace, max: u64, seed: u64) -> Self {
        let ranks = IndexSelection::sampled(space.count(), max, seed);
        ScenarioSelection { space, ranks }
    }

    /// The underlying scenario space.
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// `true` when this is a strict subsample of the space.
    pub fn is_sampled(&self) -> bool {
        self.ranks.is_sampled()
    }

    /// How many scenarios the selection contains.
    pub fn len(&self) -> u64 {
        self.ranks.len()
    }

    /// `true` when the selection contains no scenarios.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The colex rank executed at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn rank_at(&self, pos: u64) -> u64 {
        self.ranks.index_at(pos)
    }

    /// The failure scenario at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn scenario_at(&self, pos: u64) -> Vec<ControllerId> {
        self.space.unrank(self.rank_at(pos))
    }

    /// [`ScenarioSelection::scenario_at`] into a reusable buffer.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn scenario_at_into(&self, pos: u64, out: &mut Vec<ControllerId>) {
        self.space.unrank_into(self.rank_at(pos), out);
    }

    /// The position range shard `i` of `m` executes (see
    /// [`IndexSelection::shard_range`]).
    pub fn shard_range(&self, shard: Option<(usize, usize)>) -> Range<u64> {
        self.ranks.shard_range(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::combinations;

    #[test]
    fn binomial_edges_and_saturation() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(6, 6), 1);
        assert_eq!(binomial(6, 7), 0);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(128, 64), u64::MAX, "saturates, does not wrap");
    }

    #[test]
    fn colex_rank_zero_is_the_identity_prefix() {
        let space = ScenarioSpace::new(7, 4);
        assert_eq!(space.count(), 35);
        assert_eq!(
            space.unrank(0),
            (0..4).map(ControllerId).collect::<Vec<_>>()
        );
        assert_eq!(
            space.unrank(space.count() - 1),
            (3..7).map(ControllerId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rank_unrank_roundtrip_covers_the_space() {
        for (n, f) in [(6, 1), (6, 3), (9, 4), (12, 2), (5, 5)] {
            let space = ScenarioSpace::new(n, f);
            let mut seen = std::collections::HashSet::new();
            for r in 0..space.count() {
                let s = space.unrank(r);
                assert_eq!(s.len(), f);
                assert!(s.windows(2).all(|w| w[0] < w[1]), "ascending: {s:?}");
                assert!(s.iter().all(|c| c.index() < n));
                assert_eq!(space.rank(&s), r, "roundtrip at rank {r}");
                assert!(seen.insert(s), "rank {r} repeats a subset");
            }
            assert_eq!(seen.len() as u64, space.count(), "bijection onto the space");
        }
    }

    #[test]
    fn colex_enumeration_is_a_permutation_of_lex() {
        let space = ScenarioSpace::new(6, 3);
        let lex = combinations(6, 3);
        let colex: Vec<_> = (0..space.count()).map(|r| space.unrank(r)).collect();
        assert_eq!(colex.len(), lex.len());
        for s in &lex {
            assert!(colex.contains(s), "{s:?} missing from colex enumeration");
        }
        // Colex sorts by largest element first.
        for w in colex.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let pair = a.iter().rev().zip(b.iter().rev());
            let ord = pair
                .map(|(x, y)| x.cmp(y))
                .find(|o| o.is_ne())
                .expect("subsets differ");
            assert_eq!(ord, std::cmp::Ordering::Less, "{a:?} !< {b:?} in colex");
        }
    }

    #[test]
    fn degenerate_spaces() {
        let empty_subset = ScenarioSpace::new(4, 0);
        assert_eq!(empty_subset.count(), 1);
        assert_eq!(empty_subset.unrank(0), Vec::<ControllerId>::new());
        assert_eq!(empty_subset.rank(&[]), 0);
        let empty_space = ScenarioSpace::new(3, 5);
        assert_eq!(empty_space.count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_rejects_out_of_range() {
        ScenarioSpace::new(6, 2).unrank(15);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rank_rejects_unsorted_subsets() {
        ScenarioSpace::new(6, 2).rank(&[ControllerId(3), ControllerId(1)]);
    }

    #[test]
    fn sampling_is_seeded_sorted_and_without_replacement() {
        let space = ScenarioSpace::new(16, 3); // C(16,3) = 560
        let a = ScenarioSelection::sampled(space.clone(), 100, 7);
        let b = ScenarioSelection::sampled(space.clone(), 100, 7);
        let c = ScenarioSelection::sampled(space.clone(), 100, 8);
        assert!(a.is_sampled());
        assert_eq!(a.len(), 100);
        let ranks = |sel: &ScenarioSelection| -> Vec<u64> {
            (0..sel.len()).map(|p| sel.rank_at(p)).collect()
        };
        assert_eq!(ranks(&a), ranks(&b), "same seed, same sample");
        assert_ne!(ranks(&a), ranks(&c), "different seed, different sample");
        let ra = ranks(&a);
        assert!(ra.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(ra.iter().all(|&r| r < space.count()));
    }

    #[test]
    fn oversized_budget_falls_back_to_exhaustive() {
        // Regression: a budget >= C(n,f) must not spin looking for fresh
        // ranks — it degrades to the exhaustive enumeration.
        let space = ScenarioSpace::new(6, 3);
        for max in [20, 21, 10_000, u64::MAX] {
            let sel = ScenarioSelection::sampled(space.clone(), max, 42);
            assert!(!sel.is_sampled(), "budget {max} covers the space");
            assert_eq!(sel.len(), 20);
            let ranks: Vec<u64> = (0..sel.len()).map(|p| sel.rank_at(p)).collect();
            assert_eq!(ranks, (0..20).collect::<Vec<u64>>());
        }
        // One below the space size still samples.
        assert!(ScenarioSelection::sampled(space, 19, 42).is_sampled());
    }

    #[test]
    fn nearly_full_samples_terminate() {
        let space = ScenarioSpace::new(6, 3);
        let sel = ScenarioSelection::sampled(space, 19, 1);
        assert_eq!(sel.len(), 19, "Floyd draws exactly the budget");
    }

    #[test]
    fn shards_partition_the_selection() {
        let space = ScenarioSpace::new(10, 3); // 120 scenarios
        let sel = ScenarioSelection::exhaustive(space);
        for m in [1usize, 2, 3, 4, 7, 120, 121] {
            let mut covered = Vec::new();
            for i in 1..=m {
                let r = sel.shard_range(Some((i, m)));
                covered.extend(r.clone());
                let size = r.end - r.start;
                assert!(
                    (sel.len() / m as u64..=sel.len().div_ceil(m as u64)).contains(&size),
                    "shard {i}/{m} unbalanced: {size}"
                );
            }
            assert_eq!(covered, (0..sel.len()).collect::<Vec<u64>>(), "m = {m}");
        }
        assert_eq!(sel.shard_range(None), 0..120);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_within_count() {
        ScenarioSelection::exhaustive(ScenarioSpace::new(6, 2)).shard_range(Some((3, 2)));
    }

    #[test]
    fn uniform_below_is_in_range_and_deterministic() {
        let mut rng = DetRng::seed_from_u64(9);
        let draws: Vec<u64> = (0..1000).map(|_| uniform_below(&mut rng, 7)).collect();
        assert!(draws.iter().all(|&d| d < 7));
        let mut rng2 = DetRng::seed_from_u64(9);
        let again: Vec<u64> = (0..1000).map(|_| uniform_below(&mut rng2, 7)).collect();
        assert_eq!(draws, again);
        // Every residue appears over 1000 draws — sanity, not statistics.
        for v in 0..7 {
            assert!(draws.contains(&v), "residue {v} never drawn");
        }
    }
}
