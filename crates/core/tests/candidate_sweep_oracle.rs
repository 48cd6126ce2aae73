//! Oracle suite for the row-sweep candidate generator: on random small
//! scenarios, [`CandidateSet::build`] must equal the dense per-cell
//! builder below cell for cell (bit-equal positions, equal coverage
//! sets), and [`CandidateSet::build_pruned`] must equal that oracle
//! followed by [`CandidateSet::prune_dominated`].
//!
//! The oracle is the builder the sweep replaced: visit every cell of the
//! `δ`-grid in row-major order and ask a [`SpatialGrid`] for the devices
//! within `R0` of its centre. The generated layouts stress the places a
//! chord computation can slip: devices on cell centres, devices exactly
//! `R0` from a cell centre along an axis (tangent chords), duplicated
//! positions, devices on the region edge, and `δ` values from 0.5 m to
//! `3·R0` that need not divide the side.
//!
//! Run with `--features validate` to widen to >= 1024 seeded cases.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uavdc_core::{Candidate, CandidateSet};
use uavdc_geom::{Aabb, GridSpec, Point2, SpatialGrid};
use uavdc_net::units::{MegaBytes, MegaBytesPerSecond, Meters};
use uavdc_net::{IotDevice, RadioModel, Scenario, UavSpec};

fn cases() -> u32 {
    if cfg!(feature = "validate") {
        1100
    } else {
        96
    }
}

/// The dense builder: one radius query per grid cell.
fn oracle_build(s: &Scenario, delta: f64) -> CandidateSet {
    let r0 = s.coverage_radius();
    let grid = GridSpec::for_region(&s.region, delta);
    let index = SpatialGrid::build(&s.device_positions(), r0.value().max(delta));
    let mut candidates = Vec::new();
    for cell in grid.cells() {
        let center = grid.cell_center(cell);
        let mut covered: Vec<u32> = index
            .query_radius(center, r0.value())
            .into_iter()
            .map(|i| i as u32)
            .collect();
        if covered.is_empty() {
            continue;
        }
        covered.sort_unstable();
        candidates.push(Candidate {
            pos: center,
            covered,
        });
    }
    CandidateSet {
        delta,
        coverage_radius: r0,
        candidates,
    }
}

/// A random scenario on a small rectangle with a random `δ`, mixing
/// uniform devices with the adversarial placements listed in the module
/// doc.
fn random_case(seed: u64) -> (Scenario, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let width = rng.gen_range(5.0..160.0);
    let height = rng.gen_range(5.0..160.0);
    let min = Point2::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
    let mut s = Scenario {
        region: Aabb::new(min, Point2::new(min.x + width, min.y + height)),
        devices: Vec::new(),
        depot: min,
        radio: RadioModel::new(Meters(rng.gen_range(2.0..40.0)), MegaBytesPerSecond(150.0)),
        uav: UavSpec {
            altitude: Meters(0.0),
            ..UavSpec::paper_default()
        },
    };
    let r0 = s.coverage_radius().value();
    let delta = if rng.gen_range(0u32..4) == 0 {
        // A δ that divides the side exactly.
        width / rng.gen_range(1u32..40) as f64
    } else {
        rng.gen_range(0.5..=3.0 * r0)
    };
    let grid = GridSpec::for_region(&s.region, delta);
    let random_center = |rng: &mut SmallRng| {
        grid.cell_center(grid.cell_at(rng.gen_range(0..grid.nx()), rng.gen_range(0..grid.ny())))
    };
    let mut positions = Vec::new();
    for _ in 0..rng.gen_range(0usize..30) {
        let p = match rng.gen_range(0u32..6) {
            0 => random_center(&mut rng),
            1 => {
                // Exactly R0 from a cell centre along one axis.
                let c = random_center(&mut rng);
                match rng.gen_range(0u32..4) {
                    0 => Point2::new(c.x + r0, c.y),
                    1 => Point2::new(c.x - r0, c.y),
                    2 => Point2::new(c.x, c.y + r0),
                    _ => Point2::new(c.x, c.y - r0),
                }
            }
            2 if !positions.is_empty() => positions[rng.gen_range(0..positions.len())],
            3 => {
                // On the region edge (a side or a corner).
                let x = [min.x, min.x + width, rng.gen_range(min.x..min.x + width)];
                let y = [min.y, min.y + height, rng.gen_range(min.y..min.y + height)];
                let (i, j) = (rng.gen_range(0..3usize), rng.gen_range(0..2usize));
                if rng.gen_range(0u32..2) == 0 {
                    Point2::new(x[i], y[j])
                } else {
                    Point2::new(x[j], y[i])
                }
            }
            _ => Point2::new(
                rng.gen_range(min.x..min.x + width),
                rng.gen_range(min.y..min.y + height),
            ),
        };
        positions.push(p);
    }
    s.devices = positions
        .into_iter()
        .map(|pos| IotDevice {
            pos,
            data: MegaBytes(100.0),
        })
        .collect();
    (s, delta)
}

fn assert_same(got: &CandidateSet, want: &CandidateSet, tag: &str) {
    assert_eq!(got.delta.to_bits(), want.delta.to_bits(), "{tag}: delta");
    assert_eq!(got.coverage_radius, want.coverage_radius, "{tag}: R0");
    assert_eq!(got.len(), want.len(), "{tag}: candidate count");
    for (k, (g, w)) in got.candidates.iter().zip(&want.candidates).enumerate() {
        assert_eq!(
            (g.pos.x.to_bits(), g.pos.y.to_bits()),
            (w.pos.x.to_bits(), w.pos.y.to_bits()),
            "{tag}: position of candidate {k}"
        );
        assert_eq!(g.covered, w.covered, "{tag}: coverage of candidate {k}");
    }
}

#[test]
fn sweep_build_matches_dense_oracle() {
    for seed in 0..u64::from(cases()) {
        let (s, delta) = random_case(seed);
        let tag = format!("seed {seed}, delta {delta}");
        assert_same(
            &CandidateSet::build(&s, delta),
            &oracle_build(&s, delta),
            &tag,
        );
    }
}

#[test]
fn sweep_build_pruned_matches_oracle_then_prune() {
    for seed in 0..u64::from(cases()) {
        let (s, delta) = random_case(seed);
        let mut want = oracle_build(&s, delta);
        want.prune_dominated();
        let tag = format!("seed {seed}, delta {delta}");
        assert_same(&CandidateSet::build_pruned(&s, delta), &want, &tag);
    }
}

#[test]
fn generated_cases_hit_the_adversarial_layouts() {
    // The tangent placement must actually produce boundary coverage:
    // some device sits exactly R0 from a covering cell centre.
    let tangent = (0..u64::from(cases())).any(|seed| {
        let (s, delta) = random_case(seed);
        let r2 = s.coverage_radius().value().powi(2);
        CandidateSet::build(&s, delta).candidates.iter().any(|c| {
            c.covered
                .iter()
                .any(|&v| s.devices[v as usize].pos.distance_sq(c.pos) == r2)
        })
    });
    assert!(tangent, "no generated case covers a device at exactly R0");
}

#[test]
fn paper_scale_sets_match() {
    let s = uavdc_net::generator::paper_default(1);
    assert_same(
        &CandidateSet::build(&s, 10.0),
        &oracle_build(&s, 10.0),
        "paper_default(1), delta 10",
    );
    for delta in [5.0, 10.0, 20.0] {
        let mut want = CandidateSet::build(&s, delta);
        want.prune_dominated();
        let tag = format!("paper_default(1), delta {delta}");
        assert_same(&CandidateSet::build_pruned(&s, delta), &want, &tag);
    }
}
