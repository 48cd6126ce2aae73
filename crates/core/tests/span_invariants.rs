//! The span tree is the planners' one timing source (DESIGN.md §10):
//! `PlanStats::setup_ns` / `loop_ns` must be exactly the recorded totals
//! of the planner's `*/setup` and `*/loop` spans (`bench/prune` for the
//! benchmark), and spans must nest truthfully — every child total, and
//! the sum of a node's children, is at most the parent's total. The
//! recorder's clock advances on every read, so a timing taken outside
//! the span guards, or a span that does not enclose what its stat
//! measures, shows up as a mismatch.

use std::sync::atomic::{AtomicU64, Ordering};
use uavdc_core::{
    Alg1Planner, Alg2Config, Alg2Planner, Alg3Planner, BenchmarkPlanner, EngineMode, PlanStats,
    TourMode,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_obs::{Clock, CollectingRecorder, RunReport};

/// Each reading moves time forward by a growing step, so every span has
/// a non-zero, distinct duration.
struct TickingClock(AtomicU64);

impl Clock for TickingClock {
    fn now_ns(&self) -> u64 {
        let tick = self.0.fetch_add(1, Ordering::SeqCst) + 1;
        tick * (tick + 1) / 2
    }
}

fn recorder() -> CollectingRecorder {
    CollectingRecorder::with_clock(Box::new(TickingClock(AtomicU64::new(0))))
}

fn assert_nested(tag: &str, rep: &RunReport) {
    assert!(!rep.spans.is_empty(), "{tag}: no spans recorded");
    for parent in &rep.spans {
        let prefix = format!("{}/", parent.path);
        let mut sum = 0;
        for child in rep.spans.iter().filter(|s| {
            s.path
                .strip_prefix(&prefix)
                .is_some_and(|rest| !rest.contains('/'))
        }) {
            assert!(
                child.total_ns <= parent.total_ns,
                "{tag}: {} exceeds {}",
                child.path,
                parent.path
            );
            sum += child.total_ns;
        }
        assert!(
            sum <= parent.total_ns,
            "{tag}: children of {} overrun it",
            parent.path
        );
    }
}

fn assert_stats_are_spans(tag: &str, rec: &CollectingRecorder, stats: &PlanStats, n: usize) {
    let rep = rec.report();
    assert_nested(tag, &rep);
    let (setup, looped) = match rep.spans[0].path.as_str() {
        "bench" => ("bench/setup", "bench/prune"),
        "alg2" => ("alg2/setup", "alg2/loop"),
        _ => ("alg3/setup", "alg3/loop"),
    };
    let total = |path: &str| {
        rep.spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0, |s| s.total_ns)
    };
    assert_eq!(stats.setup_ns, total(setup), "{tag}: setup_ns");
    assert_eq!(stats.loop_ns, total(looped), "{tag}: loop_ns");
    assert!(stats.setup_ns > 0, "{tag}: set-up was never timed");
    assert_eq!(stats.loop_ns > 0, n > 0, "{tag}: loop span");
}

#[test]
fn plan_stats_are_span_totals_and_spans_nest() {
    let mut empty = uniform(&ScenarioParams::default().scaled(0.05), 1);
    empty.devices.clear();
    for s in [uniform(&ScenarioParams::default().scaled(0.05), 4), empty] {
        let n = s.num_devices();
        let rec = recorder();
        Alg1Planner::default().plan_obs(&s, &rec);
        assert_nested(&format!("alg1 n={n}"), &rec.report());
        for tour_mode in [TourMode::FastInsertion, TourMode::PaperChristofides] {
            let planner = Alg2Planner::new(Alg2Config {
                tour_mode,
                ..Alg2Config::default()
            });
            let rec = recorder();
            let (_, stats) = planner.plan_prepared_obs(&s, None, &rec);
            assert_stats_are_spans(&format!("alg2 {tour_mode:?} n={n}"), &rec, &stats, n);
        }
        let rec = recorder();
        let (_, stats) = Alg3Planner::default().plan_prepared_obs(&s, None, &rec);
        assert_stats_are_spans(&format!("alg3 n={n}"), &rec, &stats, n);
        for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
            let rec = recorder();
            let (_, stats) = BenchmarkPlanner.plan_prepared_obs(&s, engine, None, &rec);
            assert_stats_are_spans(&format!("bench {engine:?} n={n}"), &rec, &stats, n);
        }
    }
}
