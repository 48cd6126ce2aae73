//! Differential harness for the lazy engines of Algorithm 3 and the
//! Benchmark pruner (DESIGN.md §8): both read every per-iteration
//! geometry value from caches updated only where the tour changed, and
//! must still emit **bit-identical** [`CollectionPlan`]s to their
//! exhaustive references.
//!
//! * Algorithm 3: lazy ≡ exhaustive, and a prepared candidate set ≡ the
//!   cold path's own (same plan, same counters), for δ ∈ {5, 10, 30} m,
//!   K ∈ {1, 2, 4} and batteries from 1e5 to 9e5 J.
//! * Benchmark: lazy ≡ exhaustive from generous batteries down to ones
//!   that prune the tour to at most two points, where `removal_delta`
//!   is the whole out-and-back leg, on layouts up to 16 times denser
//!   than the paper's.
//!
//! Run with `--features validate` to widen every property to 1100
//! seeded cases (and to enable the paper-invariant exit hooks); the
//! default is a quick pass.

mod common;

use common::{cases, scenario};
use proptest::prelude::*;
use uavdc_core::{Alg3Config, Alg3Planner, BenchmarkPlanner, CandidateSet, EngineMode};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

/// [`scenario`] with every device position scaled by `squeeze` towards
/// the origin: `1/squeeze²` times the paper's device density.
fn squeezed(seed: u64, scale: f64, squeeze: f64, capacity_kj: f64) -> Scenario {
    let mut s = scenario(seed, scale, capacity_kj);
    for d in &mut s.devices {
        d.pos.x *= squeeze;
        d.pos.y *= squeeze;
    }
    s
}

/// Asserts Benchmark lazy ≡ exhaustive on `s`; returns the plan's stop
/// count.
fn assert_benchmark_engines_agree(s: &Scenario, tag: &str) -> usize {
    let (pl, sl) = BenchmarkPlanner.plan_with_stats(s, EngineMode::Lazy);
    let (pf, sf) = BenchmarkPlanner.plan_with_stats(s, EngineMode::Exhaustive);
    prop_assert_eq!(&pl, &pf, "{}: lazy and exhaustive plans diverge", tag);
    prop_assert_eq!(
        sl.counters.iterations,
        sf.counters.iterations,
        "{}: iteration counts diverge",
        tag
    );
    prop_assert!(
        sl.counters.evaluations <= sf.counters.exhaustive_bound(),
        "{}: lazy did {} evaluations, exhaustive bound is {}",
        tag,
        sl.counters.evaluations,
        sf.counters.exhaustive_bound()
    );
    pl.stops.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Algorithm 3 across grid edges, sojourn partitions and batteries:
    /// banked-column repairs, banked-row rescans and canonical
    /// positions, in-place marginals and the edge-cache tour length must
    /// reproduce the exhaustive rescan, and a prepared candidate set
    /// must be invisible.
    #[test]
    fn alg3_engines_and_prepared_agree(
        seed in 0u64..100_000,
        scale in 0.05f64..0.2,
        delta_sel in 0usize..3,
        k_sel in 0usize..3,
        capacity_kj in 100.0f64..900.0,
    ) {
        let s = scenario(seed, scale, capacity_kj);
        let base = Alg3Config {
            delta: [5.0, 10.0, 30.0][delta_sel],
            k: [1usize, 2, 4][k_sel],
            ..Alg3Config::default()
        };
        let tag = format!("alg3 δ={} K={} seed {seed}", base.delta, base.k);
        let prepared = CandidateSet::build_pruned(&s, base.delta);
        let run = |engine, prep| Alg3Planner::new(Alg3Config { engine, ..base }).plan_prepared(&s, prep);
        let (cold, sc) = run(EngineMode::Lazy, None);
        let (warm, sw) = run(EngineMode::Lazy, Some(&prepared));
        let (full, sf) = run(EngineMode::Exhaustive, None);
        prop_assert_eq!(&cold, &full, "{}: lazy and exhaustive plans diverge", tag);
        prop_assert_eq!(&cold, &warm, "{}: prepared and cold plans diverge", tag);
        prop_assert_eq!(sc.counters, sw.counters, "{}: prepared changed the counters", tag);
        prop_assert_eq!(
            sc.counters.iterations,
            sf.counters.iterations,
            "{}: iteration counts diverge",
            tag
        );
        prop_assert!(
            sc.counters.evaluations <= sf.counters.exhaustive_bound(),
            "{}: lazy did {} evaluations, exhaustive bound is {}",
            tag,
            sc.counters.evaluations,
            sf.counters.exhaustive_bound()
        );
    }

    /// Benchmark pruner from 9e5 J down to an empty battery (cubic skew,
    /// so most cases prune hard), at the paper's device density and up
    /// to 16 times denser: cached edges, skip distances and ratios must
    /// reproduce the full rescan, including the two-point tours where
    /// `removal_delta` is the whole tour length. Dense layouts give many
    /// stops several coverers, so a removal's orphans move on to a later
    /// stop and raise its hover time without changing its loss.
    #[test]
    fn benchmark_engines_agree_down_to_two_points(
        seed in 0u64..100_000,
        scale in 0.05f64..0.2,
        squeeze in 0.25f64..1.0,
        u in 0.0f64..1.0,
    ) {
        let s = squeezed(seed, scale, squeeze, 900.0 * u * u * u);
        assert_benchmark_engines_agree(
            &s,
            &format!("benchmark seed {seed} squeeze {squeeze} u {u}"),
        );
    }
}

/// A capacity ladder on one instance reaches every tour size the pruner
/// can end at, down to an empty plan: the loop then runs on a two-point
/// tour and removes its last stop through the `n <= 2` branch.
#[test]
fn benchmark_capacity_ladder_reaches_two_point_tours() {
    let mut s = scenario(7, 0.1, 0.0);
    let mut sizes = Vec::new();
    for cap in [0.0, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 3e5, 9e5] {
        s.uav.capacity = Joules(cap);
        sizes.push(assert_benchmark_engines_agree(
            &s,
            &format!("benchmark ladder {cap} J"),
        ));
    }
    assert_eq!(sizes[0], 0, "an empty battery keeps no stop");
    assert!(
        sizes.iter().any(|&n| n == 1 || n == 2),
        "no capacity left one or two stops: {sizes:?}"
    );
    assert!(
        sizes.windows(2).all(|w| w[0] <= w[1]),
        "stop counts not monotone in the battery: {sizes:?}"
    );
}

/// Dense instances where a removal's orphans move on to a later stop that
/// is neither a neighbour of the removed one nor short of a device, so
/// only the raised hover time changes its ratio: a pruner that kept that
/// ratio cached picks a different stop to remove on each of them.
#[test]
fn benchmark_orphan_moves_refresh_ratios() {
    for (seed, scale, squeeze, capacity_kj) in [
        (1180, 0.11, 0.7, 30.0),
        (4765, 0.13, 0.6, 60.0),
        (4906, 0.15, 0.8, 10.0),
        (6269, 0.11, 0.5, 10.0),
        (18078, 0.11, 0.9, 30.0),
    ] {
        let s = squeezed(seed, scale, squeeze, capacity_kj);
        assert_benchmark_engines_agree(&s, &format!("benchmark dense seed {seed}"));
    }
}
