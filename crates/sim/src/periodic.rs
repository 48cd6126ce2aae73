//! Periodic data collection over many rounds.
//!
//! The paper's premise is that aggregate nodes are drained
//! *periodically*; its optimization covers a single round. This module
//! closes the loop: devices generate data at per-device rates, the UAV
//! flies one planned tour per period, whatever is not collected stays as
//! backlog for the next round, and bounded device buffers drop data on
//! overflow. Exposes the steady-state questions a deployment cares
//! about — does the backlog stabilise, how much data is lost, how stale
//! is it on arrival?

use crate::sim::{simulate, SimConfig, SimOutcome};
use uavdc_core::{CollectionPlan, Planner};
use uavdc_net::units::{MegaBytes, MegaBytesPerSecond, Seconds};
use uavdc_net::Scenario;

/// Configuration of a periodic campaign.
#[derive(Clone, Debug)]
pub struct PeriodicConfig {
    /// Number of collection rounds to simulate.
    pub rounds: usize,
    /// Nominal time between tour starts. When a mission overruns the
    /// period, the next round starts when the UAV lands (and the extra
    /// generation time is accounted for).
    pub period: Seconds,
    /// Per-device data generation rates (one per scenario device).
    pub generation_rates: Vec<MegaBytesPerSecond>,
    /// Per-device buffer capacity; data beyond it is dropped (counted).
    /// `None` = unbounded buffers.
    pub buffer_capacity: Option<MegaBytes>,
    /// Simulator settings used for each mission.
    pub sim: SimConfig,
}

/// Statistics of one round.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// Round index, from 0.
    pub round: usize,
    /// Backlog when the UAV took off.
    pub stored_before: MegaBytes,
    /// Volume collected this round.
    pub collected: MegaBytes,
    /// Backlog immediately after the mission (before new generation).
    pub backlog_after: MegaBytes,
    /// Data dropped to buffer overflow while this round's generation
    /// accumulated.
    pub dropped: MegaBytes,
    /// Mission duration.
    pub mission_time: Seconds,
}

/// Result of a periodic campaign.
#[derive(Clone, Debug)]
pub struct PeriodicOutcome {
    /// Per-round statistics, in order.
    pub rounds: Vec<RoundStats>,
    /// Total generated over the campaign (including the initial stored
    /// volumes).
    pub total_generated: MegaBytes,
    /// Total collected over all rounds.
    pub total_collected: MegaBytes,
    /// Total dropped to buffer overflow.
    pub total_dropped: MegaBytes,
    /// Backlog remaining on the devices at the end.
    pub final_backlog: MegaBytes,
}

impl PeriodicOutcome {
    /// Conservation check: everything generated is either collected,
    /// dropped, or still stored. Exact up to float tolerance.
    pub fn conserves_data(&self) -> bool {
        let lhs = self.total_generated.value();
        let rhs =
            self.total_collected.value() + self.total_dropped.value() + self.final_backlog.value();
        (lhs - rhs).abs() < 1e-6 * (1.0 + lhs)
    }

    /// True when the backlog in the last quarter of the campaign never
    /// exceeded `bound` — a practical steady-state test.
    pub fn backlog_bounded_by(&self, bound: MegaBytes) -> bool {
        let start = self.rounds.len() - self.rounds.len() / 4 - 1;
        self.rounds[start..]
            .iter()
            .all(|r| r.backlog_after.value() <= bound.value() + 1e-9)
    }
}

/// Runs a periodic campaign: plan → fly → drain → accumulate, `rounds`
/// times. The planner sees the *current* backlog each round.
///
/// # Panics
/// Panics when `generation_rates` does not match the device count, or
/// `rounds == 0`, or the period is non-positive.
pub fn run_periodic<P: Planner>(
    scenario: &Scenario,
    planner: &P,
    cfg: &PeriodicConfig,
) -> PeriodicOutcome {
    assert!(cfg.rounds > 0, "need at least one round");
    assert!(cfg.period.value() > 0.0, "period must be positive");
    assert_eq!(
        cfg.generation_rates.len(),
        scenario.num_devices(),
        "one generation rate per device"
    );
    let mut backlog: Vec<f64> = scenario.devices.iter().map(|d| d.data.value()).collect();
    let mut total_generated: f64 = backlog.iter().sum();
    let mut total_collected = 0.0;
    let mut total_dropped = 0.0;
    let mut rounds = Vec::with_capacity(cfg.rounds);

    for round in 0..cfg.rounds {
        // Planner sees the current backlog.
        let mut current = scenario.clone();
        for (dev, &stored) in current.devices.iter_mut().zip(&backlog) {
            dev.data = MegaBytes(stored);
        }
        let plan: CollectionPlan = planner.plan(&current);
        debug_assert!(plan.validate(&current).is_ok());
        let outcome: SimOutcome = simulate(&current, &plan, &cfg.sim);

        // Drain what the mission brought home.
        let mut collected_round = 0.0;
        for (stored, got) in backlog.iter_mut().zip(&outcome.per_device) {
            let g = got.value().min(*stored);
            *stored -= g;
            collected_round += g;
        }
        total_collected += collected_round;
        let backlog_after: f64 = backlog.iter().sum();

        // Generation until the next takeoff.
        let gen_time = cfg.period.value().max(outcome.mission_time.value());
        let mut dropped_round = 0.0;
        for (stored, rate) in backlog.iter_mut().zip(&cfg.generation_rates) {
            let fresh = rate.value() * gen_time;
            total_generated += fresh;
            *stored += fresh;
            if let Some(cap) = cfg.buffer_capacity {
                if *stored > cap.value() {
                    dropped_round += *stored - cap.value();
                    *stored = cap.value();
                }
            }
        }
        total_dropped += dropped_round;

        rounds.push(RoundStats {
            round,
            stored_before: current.total_data(),
            collected: MegaBytes(collected_round),
            backlog_after: MegaBytes(backlog_after),
            dropped: MegaBytes(dropped_round),
            mission_time: outcome.mission_time,
        });
    }
    PeriodicOutcome {
        rounds,
        total_generated: MegaBytes(total_generated),
        total_collected: MegaBytes(total_collected),
        total_dropped: MegaBytes(total_dropped),
        final_backlog: MegaBytes(backlog.iter().sum()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_core::Alg2Planner;
    use uavdc_geom::{Aabb, Point2};
    use uavdc_net::units::{Joules, Meters};
    use uavdc_net::{IotDevice, RadioModel, UavSpec};

    fn scenario(capacity: f64) -> Scenario {
        Scenario {
            region: Aabb::square(200.0),
            devices: (0..6)
                .map(|i| IotDevice {
                    pos: Point2::new(30.0 + 25.0 * i as f64, 100.0),
                    data: MegaBytes(200.0),
                })
                .collect(),
            depot: Point2::new(100.0, 100.0),
            radio: RadioModel::new(Meters(20.0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(capacity),
                ..UavSpec::paper_default()
            },
        }
    }

    fn cfg(rounds: usize, rate: f64, cap: Option<f64>) -> PeriodicConfig {
        PeriodicConfig {
            rounds,
            period: Seconds(600.0),
            generation_rates: vec![MegaBytesPerSecond(rate); 6],
            buffer_capacity: cap.map(MegaBytes),
            sim: SimConfig::default(),
        }
    }

    #[test]
    fn conservation_holds_with_and_without_caps() {
        let s = scenario(20_000.0);
        let planner = Alg2Planner::default();
        for cap in [None, Some(400.0)] {
            let out = run_periodic(&s, &planner, &cfg(6, 0.5, cap));
            assert!(out.conserves_data(), "conservation failed for cap {cap:?}");
        }
    }

    #[test]
    fn ample_capacity_reaches_low_steady_state() {
        // UAV can easily drain everything each round: the backlog right
        // after each mission should be ~0 and nothing is dropped.
        let s = scenario(50_000.0);
        let out = run_periodic(&s, &Alg2Planner::default(), &cfg(8, 0.2, None));
        assert_eq!(out.total_dropped, MegaBytes::ZERO);
        let last = out.rounds.last().unwrap();
        assert!(
            last.backlog_after.value() < 1.0,
            "backlog should be drained, got {}",
            last.backlog_after
        );
        assert!(out.backlog_bounded_by(MegaBytes(1.0)));
    }

    #[test]
    fn starved_uav_accumulates_backlog_then_buffers_overflow() {
        // Tiny battery: the UAV cannot keep up with generation.
        let s = scenario(2_000.0);
        let unbounded = run_periodic(&s, &Alg2Planner::default(), &cfg(8, 1.0, None));
        let first = unbounded.rounds.first().unwrap().backlog_after.value();
        let last = unbounded.rounds.last().unwrap().backlog_after.value();
        assert!(
            last > first,
            "backlog should grow when starved: {first} -> {last}"
        );
        assert_eq!(unbounded.total_dropped, MegaBytes::ZERO);

        let bounded = run_periodic(&s, &Alg2Planner::default(), &cfg(8, 1.0, Some(800.0)));
        assert!(
            bounded.total_dropped.value() > 0.0,
            "bounded buffers must drop"
        );
        assert!(bounded.conserves_data());
        // Backlog cannot exceed the total buffer capacity.
        assert!(bounded.final_backlog.value() <= 6.0 * 800.0 + 1e-6);
    }

    #[test]
    fn zero_rates_reduce_to_repeated_oneshot() {
        let s = scenario(50_000.0);
        let out = run_periodic(&s, &Alg2Planner::default(), &cfg(3, 0.0, None));
        // Everything collected in round 0; later rounds collect nothing.
        assert!(out.rounds[0].collected.value() > 0.0);
        assert!(out.rounds[1].collected.value() < 1e-9);
        assert!(out.rounds[2].collected.value() < 1e-9);
        assert!((out.total_generated.value() - 1200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one generation rate per device")]
    fn mismatched_rates_rejected() {
        let s = scenario(10_000.0);
        let mut c = cfg(2, 0.1, None);
        c.generation_rates.pop();
        let _ = run_periodic(&s, &Alg2Planner::default(), &c);
    }

    #[test]
    fn round_stats_are_internally_consistent() {
        let s = scenario(20_000.0);
        let out = run_periodic(&s, &Alg2Planner::default(), &cfg(5, 0.5, None));
        for r in &out.rounds {
            assert!(r.collected.value() <= r.stored_before.value() + 1e-6);
            assert!(
                (r.stored_before.value() - r.collected.value() - r.backlog_after.value()).abs()
                    < 1e-6,
                "round {}: stored {} - collected {} != backlog {}",
                r.round,
                r.stored_before,
                r.collected,
                r.backlog_after
            );
        }
    }
}
