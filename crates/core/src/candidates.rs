//! Candidate hovering locations and their coverage sets.
//!
//! Section IV of the paper partitions the monitoring region into squares
//! of edge `δ` and lets the UAV hover only at square centres. A square is
//! a useful candidate only when its centre covers at least one device.
//! With `δ = 5 m` and 500 devices that still leaves tens of thousands of
//! candidates, yet only a few thousand distinct coverage sets, so the sets
//! come from one row sweep rather than one radius query per cell: each
//! device disc cuts a chord of cells out of every grid row it reaches,
//! the coverage set changes only at chord endpoints, and a run of equal
//! cells costs one event. Work and memory scale with the discs, not with
//! the area of the region.

use std::ops::Range;

use uavdc_geom::{CellId, GridSpec, Point2};
use uavdc_net::units::{MegaBytes, Meters, Seconds};
use uavdc_net::Scenario;

/// A candidate hovering location: a grid-square centre plus the set of
/// devices within coverage radius `R0` of it (the paper's `C(s_j)`).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Projected hovering position (ground coordinates of the cell
    /// centre; the UAV actually hovers at altitude `H` above it).
    pub pos: Point2,
    /// Indices into [`Scenario::devices`] of the covered devices, sorted.
    pub covered: Vec<u32>,
}

impl Candidate {
    /// Full-collection hover duration `t(s) = max_{v∈C(s)} D_v / B`
    /// (paper Eq. 1/7) over the given residual volumes.
    pub fn hover_time(&self, residual: &[MegaBytes], scenario: &Scenario) -> Seconds {
        let b = scenario.radio.bandwidth;
        self.covered
            .iter()
            .map(|&v| residual[v as usize] / b)
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Total volume within coverage `P(s) = Σ_{v∈C(s)} D_v` (Eq. 2/6) over
    /// the given residual volumes.
    pub fn coverage_volume(&self, residual: &[MegaBytes]) -> MegaBytes {
        self.covered.iter().map(|&v| residual[v as usize]).sum()
    }
}

/// All candidate hovering locations for a scenario at a given `δ`.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// Grid edge length `δ`, metres.
    pub delta: f64,
    /// Coverage radius `R0` used.
    pub coverage_radius: Meters,
    /// Candidates with non-empty coverage, in grid row-major order.
    pub candidates: Vec<Candidate>,
}

impl CandidateSet {
    /// Builds the candidate set: partitions the region into `δ`-squares
    /// and keeps every square centre that covers at least one device.
    ///
    /// # Panics
    /// Panics when `delta` is non-positive or non-finite.
    pub fn build(scenario: &Scenario, delta: f64) -> Self {
        let grid = GridSpec::for_region(&scenario.region, delta);
        let mut candidates = Vec::new();
        sweep_runs(scenario, &grid, |iy, columns, covered, _| {
            candidates.extend(columns.map(|ix| Candidate {
                pos: grid.cell_center(CellId { ix, iy }),
                covered: covered.to_vec(),
            }));
        });
        CandidateSet {
            delta,
            coverage_radius: scenario.coverage_radius(),
            candidates,
        }
    }

    /// The candidate set Algorithms 2 and 3 and the joint fleet planner
    /// plan over: equal to [`build`](CandidateSet::build) followed by
    /// [`prune_dominated`](CandidateSet::prune_dominated), cell for cell.
    ///
    /// It never materialises the unpruned set: the sweep emits only the
    /// first cell (in row-major order) of each coverage set not seen
    /// before, and dominance then runs on the distinct sets alone.
    ///
    /// A `prepared` set handed to a planner's `plan_prepared` must equal
    /// this set for the planner's scenario layout and `δ`, which is what
    /// `uavdc-bench`'s artifact cache guarantees by keying on the
    /// request's generator seed and the bits of `δ`. Cold and prepared
    /// runs then share every instruction after set-up, so plans and
    /// counters are bit-identical (property-tested in
    /// `uavdc-bench/tests/service_cache_invisibility.rs`).
    ///
    /// # Panics
    /// Panics when `delta` is non-positive or non-finite.
    pub fn build_pruned(scenario: &Scenario, delta: f64) -> Self {
        let grid = GridSpec::for_region(&scenario.region, delta);
        let mut distinct = DistinctSets::default();
        sweep_runs(scenario, &grid, |iy, columns, covered, hash| {
            distinct.push_if_new(hash, covered, || {
                grid.cell_center(CellId {
                    ix: columns.start,
                    iy,
                })
            });
        });
        let mut candidates = distinct.candidates;
        retain_undominated(&mut candidates);
        CandidateSet {
            delta,
            coverage_radius: scenario.coverage_radius(),
            candidates,
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no candidate covers any device.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Removes dominated candidates: a candidate is dropped when another
    /// candidate covers a strict superset of its devices (or the same set,
    /// keeping the first in grid order). Preserves the attainable data
    /// volume while shrinking the search space.
    pub fn prune_dominated(&mut self) {
        // Collapse exact-duplicate coverage sets up front (common at
        // small δ, where many grid cells see the same devices): keep the
        // first candidate in grid order, in one O(n log n) pass, so the
        // dominance kernel sees distinct sets only. A BTreeMap keyed on
        // the sorted slice keeps this deterministic.
        let mut dup = vec![false; self.candidates.len()];
        {
            let mut seen: std::collections::BTreeMap<&[u32], usize> =
                std::collections::BTreeMap::new();
            for (i, c) in self.candidates.iter().enumerate() {
                if seen.contains_key(c.covered.as_slice()) {
                    dup[i] = true;
                } else {
                    seen.insert(c.covered.as_slice(), i);
                }
            }
        }
        drop_marked(&mut self.candidates, &dup);
        retain_undominated(&mut self.candidates);
    }

    /// Filters to a subset with pairwise-disjoint coverage sets, greedily
    /// keeping the candidates with the largest covered data volume first.
    /// This realises the paper's "without hovering coverage overlapping"
    /// setting for Algorithm 1.
    pub fn disjoint_by_volume(&self, scenario: &Scenario) -> CandidateSet {
        let volumes: Vec<MegaBytes> = scenario.devices.iter().map(|d| d.data).collect();
        let mut order: Vec<usize> = (0..self.candidates.len()).collect();
        order.sort_by(|&a, &b| {
            // lint:allow(unit-unwrap): cmp_f64_desc needs the raw values for its NaN-safe total order
            let va = self.candidates[a].coverage_volume(&volumes).value();
            // lint:allow(unit-unwrap): cmp_f64_desc needs the raw values for its NaN-safe total order
            let vb = self.candidates[b].coverage_volume(&volumes).value();
            uavdc_geom::cmp_f64_desc(va, vb)
        });
        let mut taken_device = vec![false; scenario.num_devices()];
        let mut kept = Vec::new();
        for i in order {
            let c = &self.candidates[i];
            if c.covered.iter().all(|&v| !taken_device[v as usize]) {
                for &v in &c.covered {
                    taken_device[v as usize] = true;
                }
                kept.push(c.clone());
            }
        }
        CandidateSet {
            delta: self.delta,
            coverage_radius: self.coverage_radius,
            candidates: kept,
        }
    }
}

/// The cells `lo..=hi` of one grid row that one device disc covers.
struct Chord {
    iy: u32,
    lo: u32,
    hi: u32,
    dev: u32,
}

/// Calls `each_run(iy, columns, covered, hash)` once for every maximal
/// run of cells in a row whose centres cover the same non-empty device
/// set, in row-major order. `covered` is sorted and `hash` is its Zobrist
/// hash (the XOR of [`zobrist`] over its devices). Rows no disc reaches
/// cost nothing.
fn sweep_runs(
    scenario: &Scenario,
    grid: &GridSpec,
    mut each_run: impl FnMut(u32, Range<u32>, &[u32], u64),
) {
    let chords = disc_chords(scenario, grid);
    // Events are `column << 32 | device`, so a plain sort orders them by
    // column.
    let mut events: Vec<u64> = Vec::new();
    let mut active: Vec<u32> = Vec::new();
    for row in chords.chunk_by(|a, b| a.iy == b.iy) {
        // A device enters the active set at `lo` and leaves at `hi + 1`;
        // it has one chord per row, so each event toggles it.
        events.clear();
        let event = |x: u32, dev: u32| u64::from(x) << 32 | u64::from(dev);
        events.extend(
            row.iter()
                .flat_map(|c| [event(c.lo, c.dev), event(c.hi + 1, c.dev)]),
        );
        events.sort_unstable();
        let column = |e: u64| (e >> 32) as u32;
        let mut hash = 0u64;
        let mut k = 0;
        while k < events.len() {
            let x = column(events[k]);
            while k < events.len() && column(events[k]) == x {
                let dev = events[k] as u32;
                match active.binary_search(&dev) {
                    Ok(at) => {
                        active.remove(at);
                    }
                    Err(at) => active.insert(at, dev),
                }
                hash ^= zobrist(dev);
                k += 1;
            }
            // A non-empty active set still has its exits ahead, so
            // `events[k]` exists and ends the run.
            if !active.is_empty() {
                each_run(row[0].iy, x..column(events[k]), &active, hash);
            }
        }
    }
}

/// Every device's chords, sorted by row.
///
/// A cell centre `c` covers device `p` exactly when
/// `p.distance_sq(c) <= R0²`, the same predicate a radius query applies.
/// Within a row that predicate holds on an interval of columns: the
/// squared offset `dx²` is unimodal in the column, and rounding is
/// monotone. Likewise the rows with `dy² <= R0²` form an interval. Each
/// interval is estimated with `sqrt` and then snapped to the predicate
/// one cell at a time, so the chords are exact.
fn disc_chords(scenario: &Scenario, grid: &GridSpec) -> Vec<Chord> {
    // lint:allow(unit-unwrap): the grid geometry is dimension-generic, radii in metres
    let r = scenario.coverage_radius().value();
    let r2 = r * r;
    let delta = grid.delta();
    let origin = grid.bounds().min;
    let mut chords = Vec::new();
    for (dev, p) in scenario.device_positions().into_iter().enumerate() {
        // A cell centre's x depends on its column only, its y on its row
        // only.
        let dx2 = |ix| {
            let dx = p.x - grid.cell_center(CellId { ix, iy: 0 }).x;
            dx * dx
        };
        let dy2 = |iy| {
            let dy = p.y - grid.cell_center(CellId { ix: 0, iy }).y;
            dy * dy
        };
        // Disc centre in cell units: cell `i`'s centre sits at `i`.
        let cx = (p.x - origin.x) / delta - 0.5;
        let cy = (p.y - origin.y) / delta - 0.5;
        let mx = nearest_cell(cx, grid.nx(), dx2);
        let my = nearest_cell(cy, grid.ny(), dy2);
        let rows = snap_interval(my, cy - r / delta, cy + r / delta, grid.ny(), |iy| {
            dy2(iy) <= r2
        });
        let Some((y_lo, y_hi)) = rows else {
            continue;
        };
        for iy in y_lo..=y_hi {
            let base = dy2(iy);
            let half = (r2 - base).max(0.0).sqrt() / delta;
            let columns = snap_interval(mx, cx - half, cx + half, grid.nx(), |ix| {
                dx2(ix) + base <= r2
            });
            if let Some((lo, hi)) = columns {
                chords.push(Chord {
                    iy,
                    lo,
                    hi,
                    dev: dev as u32,
                });
            }
        }
    }
    // Each device pushed its chords in row order, so this merges sorted
    // runs.
    chords.sort_by_key(|c| c.iy);
    chords
}

/// The cell of an axis of `n` cells that minimises the unimodal `d2`,
/// found by descending from the cell nearest `centre` (in cell units).
fn nearest_cell(centre: f64, n: u32, d2: impl Fn(u32) -> f64) -> u32 {
    let last = n - 1;
    let mut m = (centre.round() as i64).clamp(0, i64::from(last)) as u32;
    while m < last && d2(m + 1) < d2(m) {
        m += 1;
    }
    while m > 0 && d2(m - 1) < d2(m) {
        m -= 1;
    }
    m
}

/// The cells `lo..=hi` of an axis of `n` cells on which `inside` holds,
/// or `None` if it holds nowhere. `inside` must hold on an interval that,
/// when non-empty, contains `m`. The walk starts from the estimate
/// `[lo, hi]` (in cell units) and moves each end one cell at a time
/// until `inside` flips.
fn snap_interval(
    m: u32,
    lo: f64,
    hi: f64,
    n: u32,
    inside: impl Fn(u32) -> bool,
) -> Option<(u32, u32)> {
    if !inside(m) {
        return None;
    }
    let last = i64::from(n - 1);
    let mut lo = (lo.ceil() as i64).clamp(0, last).min(i64::from(m)) as u32;
    if inside(lo) {
        while lo > 0 && inside(lo - 1) {
            lo -= 1;
        }
    } else {
        while !inside(lo) {
            lo += 1;
        }
    }
    let mut hi = (hi.floor() as i64).clamp(0, last).max(i64::from(m)) as u32;
    if inside(hi) {
        while i64::from(hi) < last && inside(hi + 1) {
            hi += 1;
        }
    } else {
        while !inside(hi) {
            hi -= 1;
        }
    }
    Some((lo, hi))
}

/// A fixed pseudo-random 64-bit key per device (the splitmix64
/// finaliser); a set's hash is the XOR of its devices' keys.
fn zobrist(dev: u32) -> u64 {
    let mut z = (u64::from(dev) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Candidates with pairwise-distinct coverage sets, in emission order,
/// behind an open-addressing table keyed on the sets' Zobrist hashes. A
/// hash hit counts only when the stored set is equal, slice for slice.
#[derive(Default)]
struct DistinctSets {
    candidates: Vec<Candidate>,
    /// `hashes[k]` is the hash of `candidates[k].covered`.
    hashes: Vec<u64>,
    /// `0` is an empty slot, `k + 1` holds candidate `k`.
    slots: Vec<u32>,
}

impl DistinctSets {
    /// Appends a candidate at `pos()` covering `covered` unless an earlier
    /// candidate covers the same set.
    fn push_if_new(&mut self, hash: u64, covered: &[u32], pos: impl FnOnce() -> Point2) {
        if 2 * (self.hashes.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        while self.slots[s] != 0 {
            let k = self.slots[s] as usize - 1;
            if self.hashes[k] == hash && self.candidates[k].covered == covered {
                return;
            }
            s = (s + 1) & mask;
        }
        self.slots[s] = self.hashes.len() as u32 + 1;
        self.hashes.push(hash);
        self.candidates.push(Candidate {
            pos: pos(),
            covered: covered.to_vec(),
        });
    }

    /// Doubles the table and reinserts every stored hash.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(64);
        self.slots = vec![0; size];
        for (k, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & (size - 1);
            while self.slots[s] != 0 {
                s = (s + 1) & (size - 1);
            }
            self.slots[s] = k as u32 + 1;
        }
    }
}

/// The dominance kernel: drops every candidate whose coverage set is a
/// strict subset of another candidate's. The sets must be pairwise
/// distinct; survivors keep their order.
///
/// Sets are visited largest first, and only survivors are indexed: a set
/// is dominated only by a larger one, and if by any, then by a maximal
/// one, which was visited and kept before it.
fn retain_undominated(candidates: &mut Vec<Candidate>) {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(candidates[i].covered.len()));
    // Survivors by covered device. Device ids are dense, so a flat Vec
    // indexed by id keeps the peer iteration order deterministic (a hash
    // map's would not be).
    let num_ids = candidates
        .iter()
        .flat_map(|c| c.covered.iter())
        .map(|&v| v as usize + 1)
        .max()
        .unwrap_or(0);
    let mut kept_by_device: Vec<Vec<usize>> = vec![Vec::new(); num_ids];
    let mut dead = vec![false; candidates.len()];
    for i in order {
        // A dominator covers every device of i, so the survivors sharing
        // i's least-shared device are the only ones worth testing.
        let a = &candidates[i].covered;
        let pivot = a.iter().map(|&v| &kept_by_device[v as usize]);
        dead[i] = match pivot.min_by_key(|peers| peers.len()) {
            Some(peers) => peers.iter().any(|&j| {
                let b = &candidates[j].covered;
                b.len() > a.len() && is_subset(a, b)
            }),
            // The empty set: any other (hence non-empty) set dominates it.
            None => candidates.len() > 1,
        };
        if !dead[i] {
            for &v in a {
                kept_by_device[v as usize].push(i);
            }
        }
    }
    drop_marked(candidates, &dead);
}

/// Removes the candidates whose flag in `marked` is set.
fn drop_marked(candidates: &mut Vec<Candidate>, marked: &[bool]) {
    let mut k = 0;
    candidates.retain(|_| {
        let keep = !marked[k];
        k += 1;
        keep
    });
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    // Both sorted; standard merge scan.
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_geom::Aabb;
    use uavdc_net::units::{Joules, MegaBytesPerSecond, Meters};
    use uavdc_net::{IotDevice, RadioModel, Scenario, UavSpec};

    fn scenario_with(devices: Vec<(f64, f64, f64)>, r0: f64) -> Scenario {
        Scenario {
            region: Aabb::square(100.0),
            devices: devices
                .into_iter()
                .map(|(x, y, d)| IotDevice {
                    pos: Point2::new(x, y),
                    data: MegaBytes(d),
                })
                .collect(),
            depot: Point2::new(50.0, 50.0),
            radio: RadioModel::new(Meters(r0), MegaBytesPerSecond(150.0)),
            uav: UavSpec {
                capacity: Joules(1e5),
                ..UavSpec::paper_default()
            },
        }
    }

    #[test]
    fn empty_region_has_no_candidates() {
        let s = scenario_with(vec![], 10.0);
        let cs = CandidateSet::build(&s, 10.0);
        assert!(cs.is_empty());
    }

    #[test]
    fn every_candidate_covers_something_and_every_device_is_coverable() {
        let s = scenario_with(vec![(10.0, 10.0, 500.0), (90.0, 90.0, 300.0)], 15.0);
        let cs = CandidateSet::build(&s, 5.0);
        assert!(!cs.is_empty());
        let mut covered_devices = std::collections::HashSet::new();
        for c in &cs.candidates {
            assert!(!c.covered.is_empty());
            for &v in &c.covered {
                let d = s.devices[v as usize].pos.distance(c.pos);
                assert!(d <= 15.0 + 1e-9, "claimed coverage at distance {d}");
                covered_devices.insert(v);
            }
        }
        assert_eq!(covered_devices.len(), 2);
    }

    #[test]
    fn hover_time_is_max_over_covered() {
        let s = scenario_with(vec![(50.0, 50.0, 600.0), (52.0, 50.0, 150.0)], 10.0);
        let cs = CandidateSet::build(&s, 10.0);
        let volumes: Vec<MegaBytes> = s.devices.iter().map(|d| d.data).collect();
        let c = cs
            .candidates
            .iter()
            .find(|c| c.covered.len() == 2)
            .expect("some cell covers both");
        // t = max(600, 150) / 150 = 4 s; P = 750 MB.
        assert!((c.hover_time(&volumes, &s).value() - 4.0).abs() < 1e-12);
        assert_eq!(c.coverage_volume(&volumes), MegaBytes(750.0));
    }

    #[test]
    fn coarser_grid_fewer_candidates() {
        let s = scenario_with(vec![(25.0, 25.0, 100.0), (75.0, 75.0, 100.0)], 20.0);
        let fine = CandidateSet::build(&s, 5.0);
        let coarse = CandidateSet::build(&s, 25.0);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn prune_dominated_keeps_volume_attainable() {
        let s = scenario_with(vec![(30.0, 30.0, 100.0), (35.0, 30.0, 100.0)], 12.0);
        let mut cs = CandidateSet::build(&s, 4.0);
        let before = cs.len();
        cs.prune_dominated();
        assert!(cs.len() < before);
        // Some surviving candidate still covers both devices.
        assert!(cs.candidates.iter().any(|c| c.covered.len() == 2));
        // No candidate is a strict subset of another survivor.
        for i in 0..cs.len() {
            for j in 0..cs.len() {
                if i != j {
                    let (a, b) = (&cs.candidates[i].covered, &cs.candidates[j].covered);
                    assert!(
                        !(b.len() > a.len() && is_subset(a, b)),
                        "candidate {i} still dominated by {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_dominated_collapses_duplicates_keeping_first() {
        // Hand-built set: indices 0, 2, 4 share the exact coverage set
        // {0, 1}; index 1 is a strict subset {0}; index 3 is unrelated.
        let mk = |x: f64, covered: Vec<u32>| Candidate {
            pos: Point2::new(x, 0.0),
            covered,
        };
        let mut cs = CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates: vec![
                mk(0.0, vec![0, 1]),
                mk(1.0, vec![0]),
                mk(2.0, vec![0, 1]),
                mk(3.0, vec![2]),
                mk(4.0, vec![0, 1]),
            ],
        };
        cs.prune_dominated();
        let kept: Vec<f64> = cs.candidates.iter().map(|c| c.pos.x).collect();
        // First duplicate (x = 0) survives, later twins and the strict
        // subset are pruned, unrelated coverage is untouched.
        assert_eq!(kept, vec![0.0, 3.0]);
    }

    #[test]
    fn disjoint_filter_produces_disjoint_sets() {
        let s = scenario_with(
            vec![
                (30.0, 30.0, 900.0),
                (38.0, 30.0, 100.0),
                (80.0, 80.0, 400.0),
            ],
            12.0,
        );
        let cs = CandidateSet::build(&s, 4.0);
        let dj = cs.disjoint_by_volume(&s);
        let mut seen = std::collections::HashSet::new();
        for c in &dj.candidates {
            for &v in &c.covered {
                assert!(seen.insert(v), "device {v} covered twice in disjoint set");
            }
        }
        // Greedy keeps the largest-volume candidate: it must include the
        // cell covering both 900 MB and 100 MB devices if one exists.
        let max_cov = dj.candidates.iter().map(|c| c.covered.len()).max().unwrap();
        assert!(max_cov >= 1);
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn bad_delta_panics() {
        let s = scenario_with(vec![(1.0, 1.0, 1.0)], 10.0);
        let _ = CandidateSet::build(&s, -1.0);
    }
}
