//! A valid scenario on a huge, sparsely populated region must plan in
//! time and memory that follow the devices, not the area: 25 devices on a
//! 10,000 km square give a `δ`-grid of 10^12 cells at `δ = 10 m`, and a
//! dense spatial-index bucket array of about 157 GB at `R0 = 50 m`.

use uavdc_core::{Alg1Planner, Alg2Planner, Alg3Planner, BenchmarkPlanner, CandidateSet, Planner};
use uavdc_geom::Point2;
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::MegaBytes;
use uavdc_net::{IotDevice, Scenario};

const SIDE: f64 = 1.0e7;

/// 20 devices spread over the whole square plus 5 within reach of the
/// depot at its centre, so the planners have something to collect.
fn huge_sparse_scenario() -> Scenario {
    let params = ScenarioParams {
        num_devices: 20,
        region_side: SIDE,
        ..ScenarioParams::default()
    };
    let mut s = uniform(&params, 7);
    let c = s.depot;
    for (k, (dx, dy)) in [
        (0.0, 0.0),
        (30.0, 10.0),
        (-120.0, 40.0),
        (200.0, -75.0),
        (35.0, 12.0),
    ]
    .into_iter()
    .enumerate()
    {
        s.devices.push(IotDevice {
            pos: Point2::new(c.x + dx, c.y + dy),
            data: MegaBytes(100.0 + 50.0 * k as f64),
        });
    }
    s
}

#[test]
fn scenario_is_valid_and_huge() {
    let s = huge_sparse_scenario();
    assert_eq!(s.validate(), Ok(()));
    assert_eq!(s.num_devices(), 25);
    assert_eq!(s.region.width(), SIDE);
}

#[test]
fn candidate_sets_stay_within_the_disc_bound() {
    let s = huge_sparse_scenario();
    let r0 = s.coverage_radius().value();
    for delta in [5.0, 10.0, 37.5] {
        let per_device = (2.0 * r0 / delta + 1.0).ceil() as usize;
        let bound = s.num_devices() * per_device * per_device;
        let all = CandidateSet::build(&s, delta);
        assert!(
            !all.is_empty() && all.len() <= bound,
            "delta {delta}: {} cells, bound {bound}",
            all.len()
        );
        let pruned = CandidateSet::build_pruned(&s, delta);
        assert!(!pruned.is_empty() && pruned.len() <= all.len());
        let mut reference = all.clone();
        reference.prune_dominated();
        assert_eq!(pruned.len(), reference.len(), "delta {delta}");
    }
}

#[test]
fn every_planner_plans_it() {
    let s = huge_sparse_scenario();
    let planners: [Box<dyn Planner>; 4] = [
        Box::new(Alg1Planner::default()),
        Box::new(Alg2Planner::default()),
        Box::new(Alg3Planner::default()),
        Box::new(BenchmarkPlanner),
    ];
    for p in &planners {
        let plan = p.plan(&s);
        assert_eq!(plan.validate(&s), Ok(()), "{}", p.name());
        assert!(
            plan.collected_volume() > MegaBytes(0.0),
            "{} collected nothing near the depot",
            p.name()
        );
    }
}
