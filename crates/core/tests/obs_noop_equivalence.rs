//! Property tests of the observability contract (DESIGN.md §10): a
//! recorder must **never influence planning**. For every planner and
//! both engine modes, running with the uninstrumented entry point, with
//! the explicit [`NoopRecorder`], and with a live [`CollectingRecorder`]
//! must produce bit-identical plans and identical evaluation counters —
//! the recorder only *watches*.
//!
//! Run with `--features validate` to additionally exercise the
//! paper-invariant hooks at every planner exit.

use proptest::prelude::*;
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, CollectionPlan, EngineMode,
    PlanStats,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::Scenario;
use uavdc_obs::{CollectingRecorder, NoopRecorder, Recorder};

fn small_scenario(seed: u64, scale: f64) -> Scenario {
    uniform(&ScenarioParams::default().scaled(scale), seed)
}

/// Runs one planner closure under the three recorder regimes and checks
/// plan + counter identity (wall-clock fields are excluded: they are
/// measurements, not behaviour).
fn assert_recorder_invisible(
    tag: &str,
    plain: impl Fn() -> (CollectionPlan, PlanStats),
    with_rec: impl Fn(&dyn Recorder) -> (CollectionPlan, PlanStats),
) -> CollectingRecorder {
    let (plan_plain, stats_plain) = plain();
    let (plan_noop, stats_noop) = with_rec(&NoopRecorder);
    let collecting = CollectingRecorder::new();
    let (plan_coll, stats_coll) = with_rec(&collecting);

    assert_eq!(
        plan_plain, plan_noop,
        "{tag}: noop recorder changed the plan"
    );
    assert_eq!(
        plan_plain, plan_coll,
        "{tag}: collecting recorder changed the plan"
    );
    assert_eq!(
        plan_plain.fingerprint(),
        plan_coll.fingerprint(),
        "{tag}: fingerprints must agree when plans do"
    );
    assert_eq!(
        stats_plain.counters, stats_noop.counters,
        "{tag}: noop recorder changed the counters"
    );
    assert_eq!(
        stats_plain.counters, stats_coll.counters,
        "{tag}: collecting recorder changed the counters"
    );
    collecting
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn alg2_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
        lazy_flag in 0u8..2,
    ) {
        let s = small_scenario(seed, scale);
        let engine = if lazy_flag == 1 { EngineMode::Lazy } else { EngineMode::Exhaustive };
        let planner = Alg2Planner::new(Alg2Config { engine, ..Alg2Config::default() });
        let rec = assert_recorder_invisible(
            "alg2",
            || planner.plan_with_stats(&s),
            |r| planner.plan_prepared_obs(&s, None, r),
        );
        // The collecting run must actually have recorded the loop.
        let report = rec.report();
        prop_assert!(report.counters.iter().any(|c| c.name == "alg2.iterations"));
    }

    #[test]
    fn alg3_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
        lazy_flag in 0u8..2,
        k in 2u32..5,
    ) {
        let s = small_scenario(seed, scale);
        let engine = if lazy_flag == 1 { EngineMode::Lazy } else { EngineMode::Exhaustive };
        let planner = Alg3Planner::new(Alg3Config {
            k: k as usize,
            engine,
            ..Alg3Config::default()
        });
        let rec = assert_recorder_invisible(
            "alg3",
            || planner.plan_with_stats(&s),
            |r| planner.plan_prepared_obs(&s, None, r),
        );
        prop_assert!(rec.report().counters.iter().any(|c| c.name == "alg3.iterations"));
    }

    #[test]
    fn benchmark_recorder_is_invisible(
        seed in 0u64..10_000,
        scale in 0.05f64..0.15,
        lazy_flag in 0u8..2,
    ) {
        let s = small_scenario(seed, scale);
        let engine = if lazy_flag == 1 { EngineMode::Lazy } else { EngineMode::Exhaustive };
        let rec = assert_recorder_invisible(
            "benchmark",
            || BenchmarkPlanner.plan_with_stats(&s, engine),
            |r| BenchmarkPlanner.plan_prepared_obs(&s, engine, None, r),
        );
        prop_assert!(rec.report().counters.iter().any(|c| c.name == "bench.iterations"));
    }
}

/// The report of an instrumented lazy run is itself deterministic:
/// running the same planner twice yields byte-identical JSON (modulo the
/// wall-clock span timings, which use the manual clock here).
#[test]
fn collected_report_is_deterministic() {
    let s = small_scenario(7, 0.1);
    let planner = Alg2Planner::new(Alg2Config {
        engine: EngineMode::Lazy,
        ..Alg2Config::default()
    });
    let run = || {
        let rec = CollectingRecorder::with_clock(Box::new(uavdc_obs::ManualClock::new()));
        let _ = planner.plan_prepared_obs(&s, None, &rec);
        rec.report().to_json()
    };
    assert_eq!(run(), run());
}
