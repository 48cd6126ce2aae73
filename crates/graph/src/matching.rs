//! Minimum-weight perfect matching on complete graphs.
//!
//! Christofides' heuristic needs a minimum-weight perfect matching over the
//! odd-degree vertices of the MST. Both backends are exact:
//!
//! * [`MatchingBackend::ExactDp`] — bitmask dynamic programming,
//!   `O(2^n · n)`, for `n <= ~20`. Also the ground truth in tests.
//! * [`MatchingBackend::Blossom`] — an `O(n³)` primal–dual blossom
//!   algorithm (maximum-weight matching on transformed weights), for any
//!   size this crate encounters.
//!
//! [`MatchingBackend::Auto`] picks DP for tiny inputs and blossom
//! otherwise. Both backends return mates only; the weight is summed here
//! in `f64` from the mates.

mod blossom;

use crate::DistMatrix;

/// Which matching algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchingBackend {
    /// DP for `n <= 16`, blossom otherwise.
    #[default]
    Auto,
    /// Exact bitmask dynamic programming (`n <= 20` practical).
    ExactDp,
    /// Exact O(n³) blossom algorithm.
    Blossom,
}

/// A perfect matching: `mates[v]` is the vertex matched to `v`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matching {
    /// Partner of each vertex; an involution without fixed points.
    pub mates: Vec<usize>,
    /// Total weight of the matched edges.
    pub weight: f64,
}

impl Matching {
    /// The matched edges with `u < v`, in vertex order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.mates
            .iter()
            .enumerate()
            .filter(|&(v, &m)| v < m)
            .map(|(v, &m)| (v, m))
            .collect()
    }

    /// Debug validation: every vertex matched, symmetric, no self-loops.
    pub fn is_perfect(&self) -> bool {
        self.mates
            .iter()
            .enumerate()
            .all(|(v, &m)| m < self.mates.len() && m != v && self.mates[m] == v)
    }
}

/// Minimum-weight perfect matching with the default backend.
///
/// # Panics
/// Panics when the vertex count is odd (no perfect matching exists).
pub fn min_weight_perfect_matching(m: &DistMatrix) -> Matching {
    min_weight_perfect_matching_with(m, MatchingBackend::Auto)
}

/// Minimum-weight perfect matching with an explicit backend.
///
/// # Panics
/// Panics when the vertex count is odd.
pub fn min_weight_perfect_matching_with(m: &DistMatrix, backend: MatchingBackend) -> Matching {
    let n = m.len();
    assert!(
        n.is_multiple_of(2),
        "perfect matching needs an even vertex count, got {n}"
    );
    let mates = match backend {
        MatchingBackend::Auto if n <= 16 => exact_dp(m),
        MatchingBackend::ExactDp => exact_dp(m),
        MatchingBackend::Auto | MatchingBackend::Blossom => {
            blossom::min_weight_perfect_matching_blossom(m)
        }
    };
    // The weight in f64 from the mates, free of blossom's integer scaling.
    let weight = mates
        .iter()
        .enumerate()
        .filter(|&(v, &p)| v < p)
        .map(|(v, &p)| m.get(v, p))
        .sum();
    let result = Matching { mates, weight };
    debug_assert!(result.is_perfect());
    result
}

/// Exact `O(2^n · n)` bitmask DP, as mates.
fn exact_dp(m: &DistMatrix) -> Vec<usize> {
    let n = m.len();
    assert!(n <= 22, "exact DP matching limited to n <= 22, got {n}");
    let full: usize = (1usize << n) - 1;
    let mut dp = vec![f64::INFINITY; full + 1];
    let mut choice = vec![usize::MAX; full + 1];
    dp[0] = 0.0;
    for mask in 1..=full {
        if mask.count_ones() % 2 == 1 {
            continue;
        }
        let i = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << i);
        let mut best = f64::INFINITY;
        let mut best_j = usize::MAX;
        let mut bits = rest;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let prev = dp[rest & !(1 << j)];
            let cand = prev + m.get(i, j);
            if cand < best {
                best = cand;
                best_j = j;
            }
        }
        dp[mask] = best;
        choice[mask] = best_j;
    }
    // Reconstruct mates.
    let mut mates = vec![usize::MAX; n];
    let mut mask = full;
    while mask != 0 {
        let i = mask.trailing_zeros() as usize;
        let j = choice[mask];
        mates[i] = j;
        mates[j] = i;
        mask &= !(1 << i);
        mask &= !(1 << j);
    }
    mates
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn euclid(pts: &[(f64, f64)]) -> DistMatrix {
        DistMatrix::from_euclidean(pts)
    }

    #[test]
    fn empty_matching() {
        let m = DistMatrix::zeros(0);
        let r = min_weight_perfect_matching(&m);
        assert!(r.mates.is_empty());
        assert_eq!(r.weight, 0.0);
    }

    #[test]
    #[should_panic(expected = "even vertex count")]
    fn odd_count_panics() {
        let m = DistMatrix::zeros(3);
        let _ = min_weight_perfect_matching(&m);
    }

    #[test]
    fn two_vertices_match_each_other() {
        let m = euclid(&[(0.0, 0.0), (3.0, 4.0)]);
        for backend in [MatchingBackend::ExactDp, MatchingBackend::Blossom] {
            let r = min_weight_perfect_matching_with(&m, backend);
            assert_eq!(r.mates, vec![1, 0], "{backend:?}");
            assert_eq!(r.weight, 5.0, "{backend:?}");
        }
    }

    #[test]
    fn four_on_a_line_pairs_neighbors() {
        // 0-1 and 2-3 (cost 2) beats 0-2/1-3 (cost 4) and 0-3/1-2 (cost 4).
        let m = euclid(&[(0.0, 0.0), (1.0, 0.0), (10.0, 0.0), (11.0, 0.0)]);
        for backend in [MatchingBackend::ExactDp, MatchingBackend::Blossom] {
            let r = min_weight_perfect_matching_with(&m, backend);
            assert!(r.is_perfect());
            assert_eq!(r.weight, 2.0, "{backend:?}");
            assert_eq!(r.mates[0], 1);
            assert_eq!(r.mates[2], 3);
        }
    }

    #[test]
    fn greedy_trap_instance_blossom_still_optimal() {
        // Taking the cheapest edge (1,2) first forces expensive
        // leftovers; the optimum avoids it.
        let mut m = DistMatrix::zeros(4);
        m.set(1, 2, 1.0);
        m.set(0, 1, 2.0);
        m.set(2, 3, 2.0);
        m.set(0, 3, 100.0);
        m.set(0, 2, 100.0);
        m.set(1, 3, 100.0);
        let exact = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp);
        let blossom = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom);
        assert_eq!(exact.weight, 4.0);
        assert!((blossom.weight - exact.weight).abs() < 1e-9);
    }

    #[test]
    fn blossom_matches_dp_on_fixed_grid() {
        let pts: Vec<(f64, f64)> = (0..12)
            .map(|i| ((i * 29 % 17) as f64, (i * 43 % 19) as f64))
            .collect();
        let m = euclid(&pts);
        let dp = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp);
        let bl = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom);
        assert!(bl.is_perfect());
        assert!(
            (bl.weight - dp.weight).abs() < 1e-6 * (1.0 + dp.weight),
            "blossom {} vs dp {}",
            bl.weight,
            dp.weight
        );
    }

    #[test]
    fn blossom_handles_larger_instance() {
        // 16 vertices, the largest `Auto` still hands to DP: blossom must
        // reach the DP optimum.
        let pts: Vec<(f64, f64)> = (0..16)
            .map(|i| ((i * 37 % 100) as f64, (i * 61 % 100) as f64))
            .collect();
        let m = euclid(&pts);
        let dp = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp);
        let bl = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom);
        assert!(bl.is_perfect());
        assert!(
            (bl.weight - dp.weight).abs() < 1e-9 * (1.0 + dp.weight),
            "blossom {} vs dp {}",
            bl.weight,
            dp.weight
        );
    }

    #[test]
    fn edges_listing_is_consistent() {
        let m = euclid(&[(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)]);
        let r = min_weight_perfect_matching(&m);
        let es = r.edges();
        assert_eq!(es.len(), 2);
        for (u, v) in es {
            assert_eq!(r.mates[u], v);
            assert_eq!(r.mates[v], u);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_blossom_matches_exact_dp(
            pts in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..7)
                .prop_map(|half| {
                    // Build an even-sized instance by mirroring points.
                    let mut v = half.clone();
                    for &(x, y) in &half { v.push((1000.0 - x, y + 13.0)); }
                    v
                })
        ) {
            let m = euclid(&pts);
            let dp = min_weight_perfect_matching_with(&m, MatchingBackend::ExactDp);
            let bl = min_weight_perfect_matching_with(&m, MatchingBackend::Blossom);
            prop_assert!(bl.is_perfect());
            prop_assert!((bl.weight - dp.weight).abs() < 1e-5 * (1.0 + dp.weight),
                "blossom {} vs dp {}", bl.weight, dp.weight);
        }
    }
}
