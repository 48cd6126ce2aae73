//! Incremental Christofides tour maintenance (DESIGN.md §16).
//!
//! The paper's Algorithm 2 grows its hovering-stop set one candidate at a
//! time; re-running Christofides from scratch after every acceptance costs
//! `O(n³)` in the blossom matching alone. [`IncrementalTour`] maintains a
//! closed tour (depot fixed at stop id 0) *incrementally* under
//! single-stop insertion and removal:
//!
//! * **Patching** — cheapest-insertion splices ([`IncrementalTour::insert`]),
//!   removal splices ([`IncrementalTour::remove`]) and Or-opt / 2-opt local
//!   repair ([`IncrementalTour::or_opt_pass`],
//!   [`IncrementalTour::two_opt_compact`]) adjust the tour in `O(n)`–`O(n²)`
//!   per patch without touching the matching.
//! * **Cached structures** — every pairwise distance ever needed is kept in
//!   a growable triangular matrix. Each cached entry is the pure function
//!   value `((dx·dx + dy·dy)).sqrt()` of the two stop coordinates — exactly
//!   what `Point2::distance` computes — so a cached read is bit-identical
//!   to a fresh evaluation. This is the keystone of the patched ≡ rebuilt
//!   equivalence argument: rebuilds that consume the cache produce the same
//!   bits as rebuilds that recompute.
//! * **Re-tour with matching reuse** — a full Christofides rebuild
//!   ([`IncrementalTour::retour`]) drives the standard pipeline
//!   ([`crate::mst::prim_mst`] → odd vertices → perfect matching → Euler
//!   circuit → shortcut → 2-opt polish) over the cached matrix, memoising
//!   the odd-vertex perfect matching keyed by the odd stop-id list:
//!   rebuilds whose odd sets coincide skip the `O(n³)` matching entirely.
//!   Speculative scoring ([`IncrementalTour::speculative_order`]) rebuilds
//!   with one extra phantom stop — Algorithm 2's per-candidate `TSP(S ∪
//!   {s})` — sharing the same matrix cache and matching memo.
//!
//! The tour never rebuilds on its own: the caller compacts or calls
//! [`IncrementalTour::retour`] when it wants to.
//!
//! Because rebuilds read only cached (≡ recomputed) distances and run the
//! deterministic pipeline, a patched-then-rebuilt tour is bit-identical —
//! same stop order, same length — to a from-scratch Christofides over the
//! same stop set. `tests/incremental_props.rs` drives randomized
//! insert/remove sequences through both paths and asserts exactly that.
//!
//! The module also hosts the batch kernels the lazy engines of
//! `uavdc-core` (Algorithms 2 and 3) use to make their
//! (operation-count-frozen) rescans cheap: [`distances_to_point`] and
//! [`cheapest_insertions_banked`]. Both are specified — and
//! property-tested — to be bit-identical per lane to their scalar
//! `Point2` counterparts.

use std::collections::BTreeMap;

use crate::christofides::christofides_obs;
use crate::euler::{euler_circuit, shortcut_circuit};
use crate::improve::{or_opt, two_opt, two_opt_by};
use crate::matching::min_weight_perfect_matching;
use crate::mst::{odd_degree_vertices, prim_mst};
use crate::{DistMatrix, Tour};
use uavdc_obs::Recorder;

/// Deterministic counters of incremental-tour maintenance work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TourCounters {
    /// Incremental patches applied: insertion splices, removal splices,
    /// Or-opt relocations and 2-opt compactions that changed the tour.
    pub tour_patches: u64,
    /// Full Christofides rebuilds, including speculative scoring runs and
    /// trivial `n <= 3` identity rebuilds.
    pub full_retours: u64,
}

/// A closed tour over appendable stops with cached distances, patch-based
/// maintenance and memoised Christofides rebuilds. See the module docs.
///
/// Stop id 0 is the depot: it is created by [`IncrementalTour::new`],
/// always stays in the tour, and every produced order starts with it.
#[derive(Clone, Debug)]
pub struct IncrementalTour {
    /// Stop coordinates by id (structure-of-arrays for the kernels).
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Is the stop currently part of the tour?
    in_tour: Vec<bool>,
    /// Lower-triangular pairwise distances: entry `(i, j)` with `i > j`
    /// lives at `i*(i-1)/2 + j`. Grown by one row per appended stop.
    dist: Vec<f64>,
    /// Tour as stop ids; `order[0] == 0`.
    order: Vec<usize>,
    /// `edge_len[k]` = distance between `order[k]` and
    /// `order[(k+1) % len]`; empty while the tour has fewer than 2 stops.
    edge_len: Vec<f64>,
    counters: TourCounters,
    /// Odd stop-id list → perfect-matching pairs (odd-list index space).
    matching_memo: BTreeMap<Vec<usize>, Vec<(usize, usize)>>,
}

impl IncrementalTour {
    /// A depot-only tour. The depot becomes stop id 0.
    pub fn new(depot: (f64, f64)) -> Self {
        IncrementalTour {
            xs: vec![depot.0],
            ys: vec![depot.1],
            in_tour: vec![true],
            dist: Vec::new(),
            order: vec![0],
            edge_len: Vec::new(),
            counters: TourCounters::default(),
            matching_memo: BTreeMap::new(),
        }
    }

    /// Number of stops currently in the tour.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when only the depot remains (the tour is never fully empty).
    pub fn is_empty(&self) -> bool {
        self.order.len() <= 1
    }

    /// The current tour as stop ids, depot first.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Cached closing-edge-inclusive edge lengths, `edge_lengths()[k]`
    /// spanning `order()[k] → order()[(k+1) % len]`. Empty below 2 stops.
    pub fn edge_costs(&self) -> &[f64] {
        &self.edge_len
    }

    /// Coordinates of stop `id`.
    pub fn point(&self, id: usize) -> (f64, f64) {
        (self.xs[id], self.ys[id])
    }

    /// Is stop `id` currently part of the tour?
    pub fn contains(&self, id: usize) -> bool {
        self.in_tour[id]
    }

    /// Maintenance-work counters accumulated so far.
    pub fn counters(&self) -> TourCounters {
        self.counters
    }

    /// Cached distance between stops `i` and `j` (0 when `i == j`).
    /// Bit-identical to recomputing `Point2::distance` on their
    /// coordinates: the cache stores exactly that value.
    pub fn cost(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        self.dist[hi * (hi - 1) / 2 + lo]
    }

    /// Length of the current closed tour: the left-to-right sum of the
    /// cached edge lengths, matching `uavdc_geom::tour_length`'s
    /// summation order bit for bit.
    pub fn total_cost(&self) -> f64 {
        self.edge_len.iter().sum()
    }

    /// Allocates a stop id for `p` and fills its distance row (one fused
    /// multiply-sqrt per existing stop), without splicing it into the
    /// tour. Pair with [`IncrementalTour::insert_id_at`].
    pub fn append_point(&mut self, p: (f64, f64)) -> usize {
        let id = self.xs.len();
        self.dist.reserve(id);
        for k in 0..id {
            let dx = self.xs[k] - p.0;
            let dy = self.ys[k] - p.1;
            self.dist.push((dx * dx + dy * dy).sqrt());
        }
        self.xs.push(p.0);
        self.ys.push(p.1);
        self.in_tour.push(false);
        id
    }

    /// Cheapest insertion of appended stop `id` into the current tour,
    /// as `(delta, pos)` with `pos >= 1` (`pos == len()` uses the closing
    /// edge). First-strict argmin over edges in tour order — the same
    /// scan, on the same cached operands, as a fresh
    /// `cheapest_insertion_point` over the tour's points.
    pub fn cheapest_insertion_of(&self, id: usize) -> (f64, usize) {
        let n = self.order.len();
        match n {
            0 => (0.0, 1),
            1 => (2.0 * self.cost(self.order[0], id), 1),
            _ => {
                let mut best = f64::INFINITY;
                let mut pos = 1;
                for i in 0..n {
                    let a = self.order[i];
                    let delta = self.cost(a, id) + self.cost(id, self.order[(i + 1) % n])
                        - self.edge_len[i];
                    if delta < best {
                        best = delta;
                        pos = i + 1;
                    }
                }
                (best, pos)
            }
        }
    }

    /// Splices appended stop `id` into the tour at position `pos`
    /// (`1 <= pos <= len()`), patching the two affected edges from the
    /// cache. Counts one patch.
    pub fn insert_id_at(&mut self, id: usize, pos: usize) {
        assert!(!self.in_tour[id], "stop {id} is already in the tour");
        let n = self.order.len();
        assert!(
            pos >= 1 && pos <= n,
            "insertion position {pos} out of 1..={n}"
        );
        self.order.insert(pos, id);
        self.in_tour[id] = true;
        if n == 1 {
            let d = self.cost(self.order[0], id);
            self.edge_len = vec![d, d];
        } else {
            let m = n + 1;
            self.edge_len[pos - 1] = self.cost(self.order[pos - 1], id);
            self.edge_len
                .insert(pos, self.cost(id, self.order[(pos + 1) % m]));
        }
        self.counters.tour_patches += 1;
    }

    /// Appends `p` and splices it at its cheapest-insertion position.
    /// Returns the new stop id.
    pub fn insert(&mut self, p: (f64, f64)) -> usize {
        let id = self.append_point(p);
        let (_, pos) = self.cheapest_insertion_of(id);
        self.insert_id_at(id, pos);
        id
    }

    /// Removes stop `id` (never the depot) from the tour, patching the
    /// surrounding edges from the cache. The id and its distance row stay
    /// allocated, so the stop can be re-inserted later. Counts one patch.
    pub fn remove(&mut self, id: usize) {
        assert!(id != 0, "the depot cannot be removed");
        assert!(self.in_tour[id], "stop {id} is not in the tour");
        // The depot occupies position 0, so `id` sits at some pos >= 1.
        let pos = self.order.iter().position(|&s| s == id).unwrap_or_default();
        self.order.remove(pos);
        self.in_tour[id] = false;
        let n = self.order.len();
        if n <= 1 {
            self.edge_len.clear();
        } else {
            self.edge_len.remove(pos);
            self.edge_len[pos - 1] = self.cost(self.order[pos - 1], self.order[pos % n]);
        }
        self.counters.tour_patches += 1;
    }

    /// 2-opt compaction over the cached matrix: [`two_opt_by`] with a
    /// 100-sweep cap over `(id, previous position)` pairs, every distance
    /// read from the cache — the planners' paired 2-opt. Returns
    /// `Some(perm)` — `perm[k]` is the previous position of the stop now
    /// at `k` — when the tour changed (counted as one patch), `None`
    /// otherwise.
    pub fn two_opt_compact(&mut self) -> Option<Vec<usize>> {
        let mut pairs: Vec<(usize, usize)> = self.order.iter().copied().zip(0..).collect();
        if two_opt_by(&mut pairs, 100, |a, b| self.cost(a.0, b.0)) <= 0.0 {
            return None;
        }
        self.order = pairs.iter().map(|p| p.0).collect();
        self.rebuild_edges();
        self.counters.tour_patches += 1;
        Some(pairs.into_iter().map(|p| p.1).collect())
    }

    /// One Or-opt pass (segment relocation, lengths 1–3) over the cached
    /// matrix, re-anchoring the depot afterwards. Returns `Some(perm)`
    /// when the tour changed (counted as one patch), `None` otherwise.
    pub fn or_opt_pass(&mut self) -> Option<Vec<usize>> {
        let n = self.order.len();
        if n < 4 {
            return None;
        }
        let m = DistMatrix::from_fn(n, |i, j| self.cost(self.order[i], self.order[j]));
        let mut tour = Tour::new((0..n).collect());
        let saved = or_opt(&mut tour, &m);
        if saved <= 0.0 {
            return None;
        }
        tour.rotate_to_start(0);
        let perm = tour.order().to_vec();
        self.order = perm.iter().map(|&k| self.order[k]).collect();
        self.rebuild_edges();
        self.counters.tour_patches += 1;
        Some(perm)
    }

    /// Full Christofides rebuild over the current stops, through the
    /// cached matrix and the odd-vertex matching memo. Applies the result
    /// and returns the permutation (`perm[k]` = previous position of the
    /// stop now at position `k`). Bit-identical to a from-scratch
    /// Christofides over the same points: the matrix entries are pure
    /// recomputations and the pipeline is deterministic, memo hits
    /// included (`tests/incremental_props.rs` proves this per seed).
    pub fn retour(&mut self) -> Vec<usize> {
        self.counters.full_retours += 1;
        let n = self.order.len();
        if n <= 3 {
            return (0..n).collect();
        }
        let m = DistMatrix::from_fn(n, |i, j| self.cost(self.order[i], self.order[j]));
        let ids: Vec<Option<usize>> = self.order.iter().map(|&id| Some(id)).collect();
        let perm = christofides_order_cached(&m, &ids, &mut self.matching_memo, &uavdc_obs::NOOP);
        self.order = perm.iter().map(|&k| self.order[k]).collect();
        self.rebuild_edges();
        perm
    }

    /// Speculative Christofides order for the tour plus one phantom stop
    /// at `p` — Algorithm 2's `TSP(S ∪ {s})` scoring — without modifying
    /// the tour. The returned permutation is over positions `0..len()+1`
    /// where position `len()` is the phantom stop; it is bit-identical to
    /// a from-scratch Christofides over the same point sequence. The base
    /// distance block comes from the cache and the odd-vertex matching
    /// memo is consulted whenever the odd set avoids the phantom stop.
    /// The Christofides call statistics (`christofides.*`) go to `rec`.
    pub fn speculative_order(&mut self, p: (f64, f64), rec: &dyn Recorder) -> Vec<usize> {
        self.counters.full_retours += 1;
        let n = self.order.len();
        let n1 = n + 1;
        if n1 <= 3 {
            return (0..n1).collect();
        }
        let m = DistMatrix::from_fn(n1, |i, j| {
            if i == n || j == n {
                // A diagonal (i == j == n) read never reaches here:
                // from_fn only asks for i != j off-diagonal pairs via
                // symmetry… but guard anyway through the max/min split.
                let k = if i == n { j } else { i };
                if k == n {
                    0.0
                } else {
                    let dx = self.xs[self.order[k]] - p.0;
                    let dy = self.ys[self.order[k]] - p.1;
                    (dx * dx + dy * dy).sqrt()
                }
            } else {
                self.cost(self.order[i], self.order[j])
            }
        });
        let mut ids: Vec<Option<usize>> = self.order.iter().map(|&id| Some(id)).collect();
        ids.push(None); // the phantom stop is never memo-keyed
        christofides_order_cached(&m, &ids, &mut self.matching_memo, rec)
    }

    /// Applies a position permutation produced by an external re-tour
    /// (e.g. Algorithm 2's PaperChristofides commit): `perm[k]` is the
    /// previous position of the stop now at position `k`. `perm[0]` must
    /// keep the depot first.
    pub fn apply_permutation(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.order.len(), "permutation length mismatch");
        assert_eq!(
            perm.first().copied(),
            Some(0),
            "depot must stay at position 0"
        );
        self.order = perm.iter().map(|&k| self.order[k]).collect();
        self.rebuild_edges();
    }

    /// Rebuilds the edge cache from the triangular matrix.
    fn rebuild_edges(&mut self) {
        let n = self.order.len();
        self.edge_len.clear();
        if n < 2 {
            return;
        }
        for k in 0..n {
            self.edge_len
                .push(self.cost(self.order[k], self.order[(k + 1) % n]));
        }
    }
}

/// Christofides order (depot-rotated position permutation) over `m`,
/// memoising the odd-vertex matching. `ids[v]` is the memo identity of
/// matrix vertex `v` (`None` = never memoise through this vertex).
fn christofides_order_cached(
    m: &DistMatrix,
    ids: &[Option<usize>],
    memo: &mut BTreeMap<Vec<usize>, Vec<(usize, usize)>>,
    rec: &dyn Recorder,
) -> Vec<usize> {
    let n = m.len();
    debug_assert!(n >= 4, "trivial sizes are handled by the callers");
    rec.add("christofides.calls", 1);
    rec.observe("christofides.n", n as u64);
    let mst = prim_mst(m);
    let mut edges = mst.edges.clone();
    let odd = odd_degree_vertices(n, &edges);
    debug_assert_eq!(odd.len() % 2, 0);
    rec.observe("christofides.odd_vertices", odd.len() as u64);
    if !odd.is_empty() {
        let key: Option<Vec<usize>> = odd.iter().map(|&v| ids[v]).collect();
        let cached = key.as_ref().and_then(|k| memo.get(k).cloned());
        let pairs = match cached {
            Some(pairs) => pairs,
            None => {
                let sub = m.submatrix(&odd);
                let matching = min_weight_perfect_matching(&sub);
                let pairs = matching.edges();
                if let Some(k) = key {
                    memo.insert(k, pairs.clone());
                }
                pairs
            }
        };
        for &(a, b) in &pairs {
            edges.push((odd[a], odd[b]));
        }
    }
    let Some(circuit) = euler_circuit(n, &edges, 0) else {
        // Unreachable: the MST spans and the matching evens every degree,
        // so an Euler circuit exists. Route through the reference
        // implementation rather than panicking so this module needs no
        // panic sites.
        let mut tour = christofides_obs(m, rec);
        tour.rotate_to_start(0);
        return tour.order().to_vec();
    };
    let order = shortcut_circuit(&circuit);
    debug_assert_eq!(order.len(), n, "shortcut must visit every vertex once");
    let mut tour = Tour::new(order);
    two_opt(&mut tour, m);
    tour.rotate_to_start(0);
    tour.order().to_vec()
}

// ---------------------------------------------------------------------------
// Batch kernels (bit-identical per lane to their scalar counterparts)
// ---------------------------------------------------------------------------

/// Writes the Euclidean distance from `(px, py)` to every `(xs[i],
/// ys[i])` into `out` (cleared and resized to match). Each lane computes
/// `((x - px)² + (y - py)²).sqrt()` — bit-identical to `Point2::distance`
/// of the same pair in either argument order, since negating both
/// differences leaves the squares unchanged — and the loop body is
/// branch-free so it auto-vectorises.
pub fn distances_to_point(xs: &[f64], ys: &[f64], px: f64, py: f64, out: &mut Vec<f64>) {
    debug_assert_eq!(xs.len(), ys.len());
    out.clear();
    out.resize(xs.len(), 0.0);
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - px;
        let dy = y - py;
        *o = (dx * dx + dy * dy).sqrt();
    }
}

/// Cheapest-insertion scans of a batch of satellites against a closed
/// tour, reading *banked* satellite→tour-point distances instead of
/// recomputing them.
///
/// `cols[id][s]` must hold satellite `s`'s distance to the tour point
/// with stable id `id` (the [`distances_to_point`] batch computed when
/// that point entered the tour), `order` the tour's visiting order as
/// point ids, and `edge_costs` the cached edge costs (`edge_costs[i]`
/// spans positions `i → (i+1) % n`). For each satellite `batch[k]`,
/// `out[k]` (cleared and resized to match) receives `(delta, pos)`,
/// specified to be bit-identical to the scalar first-strict-argmin edge
/// scan (`cheapest_insertion_point` in `uavdc-core`): same
/// `(d(a,p) + d(p,b)) - d(a,b)` association, same strict-`<` update,
/// same position numbering. The scan runs edge by edge over the whole
/// batch, so each step reads two banked columns (contiguous, and small
/// enough to stay in cache) and the batch's running minima, with no
/// per-satellite row to assemble first.
pub fn cheapest_insertions_banked(
    cols: &[Vec<f64>],
    order: &[usize],
    edge_costs: &[f64],
    batch: &[u32],
    out: &mut Vec<(f64, u32)>,
) {
    out.clear();
    let n = order.len();
    if n <= 1 {
        out.extend(batch.iter().map(|&s| match n {
            0 => (0.0, 1),
            _ => (2.0 * cols[order[0]][s as usize], 1),
        }));
        return;
    }
    debug_assert_eq!(edge_costs.len(), n);
    out.resize(batch.len(), (f64::INFINITY, 1));
    // Edge `i` runs from `order[i]` to `order[(i + 1) % n]`.
    let ends = order[1..].iter().chain(&order[..1]);
    let mut pv = &cols[order[0]];
    for (i, (&e, &end)) in edge_costs.iter().zip(ends).enumerate() {
        let nx = &cols[end];
        let p = (i + 1) as u32;
        for (o, &s) in out.iter_mut().zip(batch) {
            let s = s as usize;
            let delta = pv[s] + nx[s] - e;
            if delta < o.0 {
                *o = (delta, p);
            }
        }
        pv = nx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavdc_geom::Point2;

    fn pts_of(t: &IncrementalTour) -> Vec<Point2> {
        t.order()
            .iter()
            .map(|&id| {
                let (x, y) = t.point(id);
                Point2::new(x, y)
            })
            .collect()
    }

    /// Scalar reference: cheapest insertion over a point tour.
    fn reference_cheapest(pts: &[Point2], p: Point2) -> (f64, usize) {
        match pts.len() {
            0 => (0.0, 1),
            1 => (2.0 * pts[0].distance(p), 1),
            n => {
                let mut best = f64::INFINITY;
                let mut pos = 1;
                for i in 0..n {
                    let a = pts[i];
                    let b = pts[(i + 1) % n];
                    let delta = a.distance(p) + p.distance(b) - a.distance(b);
                    if delta < best {
                        best = delta;
                        pos = i + 1;
                    }
                }
                (best, pos)
            }
        }
    }

    fn closed_len(pts: &[Point2]) -> f64 {
        uavdc_geom::tour_length(pts)
    }

    fn seeded_points(n: usize, mul: usize, add: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| (((i * mul + add) % 97) as f64, ((i * 31 + add) % 89) as f64))
            .collect()
    }

    #[test]
    fn insert_matches_scalar_reference_bitwise() {
        let mut t = IncrementalTour::new((50.0, 50.0));
        for (i, p) in seeded_points(24, 37, 13).into_iter().enumerate() {
            let before = pts_of(&t);
            let (want_d, want_pos) = reference_cheapest(&before, Point2::new(p.0, p.1));
            let id = t.append_point(p);
            let (got_d, got_pos) = t.cheapest_insertion_of(id);
            assert_eq!(got_d.to_bits(), want_d.to_bits(), "delta diverged at {i}");
            assert_eq!(got_pos, want_pos, "position diverged at {i}");
            t.insert_id_at(id, got_pos);
            let after = pts_of(&t);
            assert_eq!(t.total_cost().to_bits(), closed_len(&after).to_bits());
        }
    }

    #[test]
    fn edge_cache_stays_consistent_under_removal() {
        let mut t = IncrementalTour::new((0.0, 0.0));
        let ids: Vec<usize> = seeded_points(12, 41, 7)
            .into_iter()
            .map(|p| t.insert(p))
            .collect();
        for &id in ids.iter().step_by(3) {
            t.remove(id);
            let pts = pts_of(&t);
            assert_eq!(t.total_cost().to_bits(), closed_len(&pts).to_bits());
            assert!(!t.contains(id));
        }
        // Removed stops can come back.
        let (_, pos) = t.cheapest_insertion_of(ids[0]);
        t.insert_id_at(ids[0], pos);
        let pts = pts_of(&t);
        assert_eq!(t.total_cost().to_bits(), closed_len(&pts).to_bits());
    }

    #[test]
    fn two_opt_compact_matches_paired_reference() {
        // Reference: the planners' paired 2-opt over (point, tag) pairs.
        fn two_opt_paired(mut paired: Vec<(Point2, usize)>) -> (Vec<(Point2, usize)>, bool) {
            let n = paired.len();
            if n < 4 {
                return (paired, false);
            }
            let mut changed = false;
            let mut improved = true;
            let mut sweeps = 0;
            while improved && sweeps < 100 {
                improved = false;
                sweeps += 1;
                for i in 0..n - 1 {
                    for j in (i + 2)..n {
                        if i == 0 && j == n - 1 {
                            continue;
                        }
                        let (a, b) = (paired[i].0, paired[i + 1].0);
                        let (c, d) = (paired[j].0, paired[(j + 1) % n].0);
                        let delta = a.distance(c) + b.distance(d) - a.distance(b) - c.distance(d);
                        if delta < -1e-10 {
                            paired[i + 1..=j].reverse();
                            improved = true;
                            changed = true;
                        }
                    }
                }
            }
            (paired, changed)
        }

        let mut t = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(20, 61, 3) {
            t.insert(p);
        }
        let before: Vec<(Point2, usize)> = pts_of(&t)
            .into_iter()
            .zip(t.order().iter().copied())
            .collect();
        let (pts, ids): (Vec<Point2>, Vec<usize>) = before.iter().copied().unzip();
        let (want, want_changed) = two_opt_paired(before);
        let want_ids: Vec<usize> = want.iter().map(|e| e.1).collect();
        // The matrix-based 2-opt on the same points walks the same moves.
        let m = DistMatrix::from_fn(pts.len(), |i, j| pts[i].distance(pts[j]));
        let mut tour = Tour::new((0..pts.len()).collect());
        let saved = two_opt(&mut tour, &m);
        assert_eq!(saved > 0.0, want_changed);
        let via_matrix: Vec<usize> = tour.order().iter().map(|&k| ids[k]).collect();
        assert_eq!(via_matrix, want_ids, "improve::two_opt order diverged");
        let got_perm = t.two_opt_compact();
        assert_eq!(got_perm.is_some(), want_changed);
        let got: Vec<usize> = t.order().to_vec();
        assert_eq!(got, want_ids, "2-opt result order diverged");
        assert_eq!(
            t.total_cost().to_bits(),
            closed_len(&pts_of(&t)).to_bits(),
            "edge cache inconsistent after 2-opt"
        );
    }

    #[test]
    fn or_opt_never_lengthens_and_keeps_depot() {
        let mut t = IncrementalTour::new((1.0, 2.0));
        for p in seeded_points(16, 53, 11) {
            t.insert(p);
        }
        let before = t.total_cost();
        let _ = t.or_opt_pass();
        assert!(t.total_cost() <= before + 1e-9);
        assert_eq!(t.order()[0], 0, "depot must stay first");
        assert_eq!(t.total_cost().to_bits(), closed_len(&pts_of(&t)).to_bits());
    }

    #[test]
    fn retour_matches_from_scratch_christofides() {
        let mut t = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(18, 29, 5) {
            t.insert(p);
        }
        let pts = pts_of(&t);
        let ids_before: Vec<usize> = t.order().to_vec();
        let perm = t.retour();
        // From-scratch reference over the same pre-retour point order.
        let m = DistMatrix::from_fn(pts.len(), |i, j| pts[i].distance(pts[j]));
        let mut tour = crate::christofides::christofides(&m);
        tour.rotate_to_start(0);
        assert_eq!(perm, tour.order().to_vec(), "retour permutation diverged");
        let want_ids: Vec<usize> = tour.order().iter().map(|&k| ids_before[k]).collect();
        assert_eq!(t.order(), &want_ids[..]);
        assert_eq!(t.total_cost().to_bits(), closed_len(&pts_of(&t)).to_bits());
        assert_eq!(t.counters().full_retours, 1);
    }

    #[test]
    fn matching_memo_reuse_is_bit_identical() {
        let mut a = IncrementalTour::new((50.0, 50.0));
        let mut b = IncrementalTour::new((50.0, 50.0));
        for p in seeded_points(14, 43, 9) {
            a.insert(p);
            b.insert(p);
        }
        // Warm `a`'s memo with an identical speculative run, then compare
        // a memo-hit retour against `b`'s cold retour.
        let spec = a.speculative_order((60.0, 60.0), &uavdc_obs::NOOP);
        let spec2 = a.speculative_order((60.0, 60.0), &uavdc_obs::NOOP);
        assert_eq!(spec, spec2, "speculative scoring must be deterministic");
        let pa = a.retour();
        let pb = b.retour();
        assert_eq!(pa, pb, "memo-warm and cold retours diverged");
        assert_eq!(a.order(), b.order());
        assert_eq!(a.total_cost().to_bits(), b.total_cost().to_bits());
    }

    #[test]
    fn distances_to_point_matches_point2() {
        let pts = seeded_points(33, 59, 21);
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let q = Point2::new(17.5, 42.25);
        let mut out = Vec::new();
        distances_to_point(&xs, &ys, q.x, q.y, &mut out);
        for (i, &d) in out.iter().enumerate() {
            let want = Point2::new(xs[i], ys[i]).distance(q);
            assert_eq!(d.to_bits(), want.to_bits(), "lane {i} diverged");
        }
    }
}
