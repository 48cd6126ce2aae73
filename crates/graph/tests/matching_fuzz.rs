//! Fuzz harness for minimum-weight perfect matching: every backend is
//! compared against an *independent* brute-force oracle on all instances
//! with `n <= 10` vertices.
//!
//! The oracle enumerates every perfect matching recursively (always
//! pairing the lowest-index unmatched vertex, `(n-1)!! = 945` matchings
//! at `n = 10`), so it shares no code — and no failure mode — with the
//! bitmask-DP backend the unit tests lean on. Instances mix quantized
//! Euclidean points (duplicate points, collinear runs and mirrored pairs
//! make ties the norm) with arbitrary symmetric weight matrices, which
//! Euclidean generators can never produce (triangle-inequality
//! violations, zero rows, near-degenerate weights).
//!
//! Run with `--features validate` to widen to >= 1024 seeded cases.

use proptest::collection::vec;
use proptest::prelude::*;
use uavdc_graph::matching::{min_weight_perfect_matching_with, MatchingBackend};
use uavdc_graph::DistMatrix;

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        64
    }
}

/// Minimum matching weight by exhaustive recursion: pair the lowest
/// unmatched vertex with every candidate partner and recurse.
fn brute_force_min_weight(m: &DistMatrix) -> f64 {
    fn go(m: &DistMatrix, used: &mut [bool]) -> f64 {
        let Some(i) = used.iter().position(|&u| !u) else {
            return 0.0;
        };
        used[i] = true;
        let mut best = f64::INFINITY;
        for j in (i + 1)..used.len() {
            if used[j] {
                continue;
            }
            used[j] = true;
            let w = m.get(i, j) + go(m, used);
            if w < best {
                best = w;
            }
            used[j] = false;
        }
        used[i] = false;
        best
    }
    let mut used = vec![false; m.len()];
    go(m, &mut used)
}

/// Weight of a `mates` involution under `m`.
fn weight_of(m: &DistMatrix, mates: &[usize]) -> f64 {
    mates
        .iter()
        .enumerate()
        .filter(|&(v, &p)| v < p)
        .map(|(v, &p)| m.get(v, p))
        .sum()
}

fn check_against_oracle(m: &DistMatrix, tag: &str) {
    let want = brute_force_min_weight(m);
    let tol = 1e-9 * (1.0 + want.abs());
    for backend in [
        MatchingBackend::ExactDp,
        MatchingBackend::Blossom,
        MatchingBackend::Auto,
    ] {
        let got = min_weight_perfect_matching_with(m, backend);
        prop_assert!(
            got.is_perfect(),
            "{}: {:?} matching not perfect",
            tag,
            backend
        );
        prop_assert!(
            (got.weight - want).abs() <= tol,
            "{}: {:?} weight {} vs brute force {}",
            tag,
            backend,
            got.weight,
            want
        );
        // The reported weight must be the f64 sum of the reported edges.
        prop_assert_eq!(
            got.weight.to_bits(),
            weight_of(m, &got.mates).to_bits(),
            "{}: {:?} weight is not the sum of its own edges",
            tag,
            backend
        );
    }
}

/// Tie-heavy quantized coordinates (duplicates allowed on purpose).
fn qpoint() -> impl Strategy<Value = (f64, f64)> {
    (0u32..8, 0u32..8).prop_map(|(x, y)| (f64::from(x) * 2.5, f64::from(y) * 2.5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Euclidean instances, n in {2, 4, 6, 8, 10}: every exact backend
    /// hits the brute-force optimum, ties and duplicate points included.
    #[test]
    fn euclidean_backends_match_brute_force(pts in vec(qpoint(), 1..6)) {
        // Mirror each point to force an even count and extra symmetry.
        let mut all = pts.clone();
        for &(x, y) in &pts {
            all.push((17.5 - x, y));
        }
        let m = DistMatrix::from_euclidean(&all);
        check_against_oracle(&m, "euclidean");
    }

    /// Arbitrary symmetric non-negative weights (no triangle inequality):
    /// the blossom dual bounds must still certify the optimum.
    #[test]
    fn arbitrary_weights_match_brute_force(
        half in vec(0u32..100, 1..6),
        weights in vec(0.0f64..50.0, 45..46),
    ) {
        let n = 2 * half.len();
        let mut m = DistMatrix::zeros(n);
        let mut w = weights.iter().cycle();
        for i in 0..n {
            for j in (i + 1)..n {
                // Quantize to make exactly-equal weights common.
                let q = (w.next().unwrap() * 2.0).round() / 2.0;
                m.set(i, j, q);
            }
        }
        check_against_oracle(&m, "arbitrary");
    }

    /// Greedy-trap shapes: one ultra-cheap central edge whose endpoints
    /// are the only cheap partners of everyone else. Exact backends must
    /// not take the bait.
    #[test]
    fn trap_instances_match_brute_force(
        k in 1usize..5,
        cheap in 0.0f64..1.0,
        far in 50.0f64..100.0,
    ) {
        let n = 2 * k + 2;
        let mut m = DistMatrix::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, far);
            }
        }
        // Vertices 0 and 1 are mutually cheap and cheap-ish to everyone,
        // so pairing them strands the rest on expensive edges.
        m.set(0, 1, cheap);
        for v in 2..n {
            m.set(0, v, cheap + 1.0);
            m.set(1, v, cheap + 1.0);
        }
        check_against_oracle(&m, "trap");
    }
}
