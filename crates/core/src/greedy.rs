//! Shared lazy-greedy evaluation engine for the max-ρ planners.
//!
//! Algorithms 2 and 3 (and, in its pruning mirror image, the benchmark
//! heuristic) are greedy loops that repeatedly pick the candidate with the
//! best reward/cost ratio. The textbook implementation rescans all `M`
//! candidates every iteration — `O(M·(|C(s)| + |tour|))` per commit, which
//! at `δ = 5 m` (≈ 40 000 candidates) dominates planning wall time.
//!
//! This module provides the machinery for an *incremental* greedy loop
//! whose plans are bit-identical to the exhaustive rescan:
//!
//! * [`DeviceIndex`] — inverted device → candidate index. Committing a
//!   stop drains a handful of devices; only the candidates sharing one of
//!   them can see their marginal reward change, so the dirty set per
//!   iteration is `∪_{v drained} index[v]` instead of all `M`.
//! * [`InsertionCache`] — exact cheapest-insertion deltas maintained
//!   under tour mutation. Inserting a point removes one tour edge and adds
//!   two; every cached delta is repaired in O(1) (min against the two new
//!   edges) and only candidates whose cached argmin edge was the removed
//!   one need a full rescan. 2-opt compaction rebuilds wholesale, and only
//!   when it actually changed the tour.
//! * `LazyPre` — the tour geometry both insertion loops (Algorithms 2
//!   and 3) read, updated only where the tour changed: a bank of
//!   candidate → tour-point distance columns, each computed once when its
//!   point enters the tour, and an `IncrementalTour` mirror whose cached
//!   edge lengths give the repair edges and the tour length. Repairs,
//!   rescans, the winner's canonical insertion position and the battery
//!   test's tour length are then table arithmetic — no iteration
//!   recomputes a distance the tour already has. It also holds the
//!   device index and the flattened coverage lists the marginals run
//!   over.
//! * [`LazyHeap`] — a CELF-style max-heap of generation-stamped cached ρ
//!   values. The planner re-pushes an entry whenever a candidate's cache
//!   changes, so every live entry is exact; selection pops the top, asks
//!   the planner for the candidate's *feasible* value (which may decay the
//!   entry, CELF-style, when the battery rules out its best variant),
//!   parks candidates that cannot fit until slack reappears, and resolves
//!   near-ties with the same `1e-15` band + lowest-candidate-index fold
//!   the exhaustive serial scan uses. A selection that finds nothing
//!   feasible retires the whole heap in one linear pass.
//! * `chunked_argmax` / `chunked_map` — the one shared
//!   implementation of the scoped-thread chunked scan that
//!   `alg2::best_evaluation` and `alg3::best_virtual` used to duplicate,
//!   now also pointed at dirty *batches* instead of the full range. Thread
//!   count is configurable through `UAVDC_THREADS` for reproducible
//!   benchmark runs.
//! * [`EvalCounters`] — instrumentation: how many full candidate
//!   evaluations the lazy engine actually performed versus the
//!   `M × iterations` an exhaustive loop would have, so the perf baseline
//!   (`crates/bench`, `BENCH_planner.json`) can track the trajectory and
//!   CI can trip on regressions.
//!
//! Identical-output argument (also in DESIGN.md §8): the engine never
//! *approximates* — every cached quantity a selection reads is equal to
//! what a fresh evaluation would produce, because each mutation event
//! (device drain, edge removal, tour compaction) eagerly re-evaluates or
//! repairs exactly the caches it touched, and every banked distance is
//! the `Point2::distance` of the same pair. Selection then reproduces the
//! serial fold's comparator, so the winning candidate — and therefore the
//! committed plan — matches the exhaustive scan bit for bit.

use std::collections::BinaryHeap;
use std::sync::OnceLock;

use crate::candidates::CandidateSet;
use uavdc_graph::incremental::{cheapest_insertions_banked, distances_to_point, IncrementalTour};
use uavdc_net::Scenario;

/// Ratio-comparison band shared with the exhaustive scans: `a` beats `b`
/// only when `a.ratio > b.ratio + RATIO_BAND`, and exact ties go to the
/// lower candidate index.
pub const RATIO_BAND: f64 = 1e-15;

/// Which per-iteration evaluation strategy a greedy planner uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Incremental evaluation: dirty-set invalidation + lazy max-heap.
    /// Produces the same plans as [`EngineMode::Exhaustive`] (property
    /// tested) at a fraction of the evaluations.
    #[default]
    Lazy,
    /// Full rescan of every candidate each iteration — the reference
    /// implementation the lazy engine is validated against.
    Exhaustive,
}

// ---------------------------------------------------------------------------
// Thread configuration (shared by all chunked scans)
// ---------------------------------------------------------------------------

/// Number of worker threads used by the chunked candidate scans.
///
/// `UAVDC_THREADS` (a positive integer) overrides the default of
/// `available_parallelism().min(16)` so benchmark runs are reproducible
/// across machines. Read once per process.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("UAVDC_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(16)
    })
}

/// Chunked parallel argmax over `0..n`, deduplicating the scan that
/// `alg2::best_evaluation` and `alg3::best_virtual` used to each carry.
///
/// `eval(c)` returns the candidate's evaluation (or `None` when it is
/// inactive/infeasible) and `better(a, b)` decides whether `a` should
/// replace `b`. Chunks are folded in ascending-index order and merged in
/// chunk order, reproducing the original code's result exactly. With
/// `parallel == false` the scan is a plain serial fold.
pub(crate) fn chunked_argmax<E, F, B>(n: usize, parallel: bool, eval: F, better: B) -> Option<E>
where
    E: Send,
    F: Fn(usize) -> Option<E> + Sync,
    B: Fn(&E, &E) -> bool + Sync,
{
    let threads = if parallel { num_threads() } else { 1 };
    chunked_argmax_with(n, threads, eval, better)
}

/// `chunked_argmax` with an explicit worker-thread count, bypassing the
/// process-wide `UAVDC_THREADS` cache. `threads == 1` (or `n < 2`) is the
/// plain serial fold. The result is bit-identical for every thread count:
/// chunks are folded in ascending-index order and merged in chunk order,
/// so ties always resolve to the lowest-index winner under a strict
/// `better` predicate. Exposed (and property-tested) so determinism can
/// be checked across thread counts within one process.
pub fn chunked_argmax_with<E, F, B>(n: usize, threads: usize, eval: F, better: B) -> Option<E>
where
    E: Send,
    F: Fn(usize) -> Option<E> + Sync,
    B: Fn(&E, &E) -> bool + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < 2 {
        let mut best: Option<E> = None;
        for c in 0..n {
            if let Some(e) = eval(c) {
                if best.as_ref().is_none_or(|b| better(&e, b)) {
                    best = Some(e);
                }
            }
        }
        return best;
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Option<E>> = Vec::new();
    results.resize_with(threads, || None);
    std::thread::scope(|scope| {
        for (t, slot) in results.iter_mut().enumerate() {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            let eval = &eval;
            let better = &better;
            scope.spawn(move || {
                let mut best: Option<E> = None;
                for c in lo..hi {
                    if let Some(e) = eval(c) {
                        if best.as_ref().is_none_or(|b| better(&e, b)) {
                            best = Some(e);
                        }
                    }
                }
                *slot = best;
            });
        }
    });
    results
        .into_iter()
        .flatten()
        .fold(None, |acc, e| match acc {
            None => Some(e),
            Some(b) => Some(if better(&e, &b) { e } else { b }),
        })
}

/// Chunked parallel for-each over an index batch: applies `f` to every
/// element of `batch`, splitting across scoped threads when the batch is
/// at least `parallel_threshold` long. Each invocation must write only to
/// state owned by its index (the caller passes a closure over interior-
/// mutability-free shared slices via `per_item` results), so this variant
/// returns the computed values in batch order instead of mutating.
pub(crate) fn chunked_map<T, R, F>(batch: &[T], parallel_threshold: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = batch.len();
    let threads = if n < parallel_threshold.max(2) {
        1
    } else {
        num_threads()
    };
    chunked_map_with(batch, threads, f)
}

/// `chunked_map` with an explicit worker-thread count, bypassing the
/// process-wide `UAVDC_THREADS` cache. Results come back in batch order
/// regardless of the thread count (chunks are contiguous and concatenated
/// in chunk order), which the determinism property test asserts.
pub fn chunked_map_with<T, R, F>(batch: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = batch.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return batch.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    results.resize_with(threads, Vec::new);
    std::thread::scope(|scope| {
        for (t, slot) in results.iter_mut().enumerate() {
            let lo = (t * chunk).min(n);
            let hi = ((t + 1) * chunk).min(n);
            let f = &f;
            scope.spawn(move || {
                *slot = batch[lo..hi].iter().map(f).collect();
            });
        }
    });
    results.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// Inverted device → candidate index
// ---------------------------------------------------------------------------

/// Inverted index from device id to the candidates covering it.
///
/// Built once per planning run from the (pruned) [`CandidateSet`];
/// committing a stop that drains devices `S` dirties exactly
/// `∪_{v ∈ S} candidates_of(v)` — the only candidates whose marginal
/// reward terms can have changed.
#[derive(Clone, Debug)]
pub struct DeviceIndex {
    /// CSR layout: device `v`'s candidates sit at
    /// `data[offsets[v]..offsets[v + 1]]` — one flat allocation instead
    /// of a `Vec` per device.
    offsets: Vec<u32>,
    data: Vec<u32>,
}

impl DeviceIndex {
    /// Builds the index. `num_devices` bounds the device-id space.
    pub fn build(candidates: &CandidateSet, num_devices: usize) -> Self {
        let mut offsets = vec![0u32; num_devices + 1];
        for c in &candidates.candidates {
            for &v in &c.covered {
                offsets[v as usize + 1] += 1;
            }
        }
        for v in 0..num_devices {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut data = vec![0u32; offsets[num_devices] as usize];
        // Candidates are visited in ascending order, so each device's
        // slice comes out ascending — same order the per-device Vec
        // layout produced.
        for (i, c) in candidates.candidates.iter().enumerate() {
            for &v in &c.covered {
                let slot = cursor[v as usize];
                data[slot as usize] = i as u32;
                cursor[v as usize] = slot + 1;
            }
        }
        DeviceIndex { offsets, data }
    }

    /// Candidates covering device `v`, in ascending candidate order.
    #[inline]
    pub fn candidates_of(&self, v: u32) -> &[u32] {
        &self.data[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Collects the deduplicated dirty candidate set for a batch of
    /// drained devices, using `stamp`/`epoch` as a reusable visited
    /// marker (no per-call allocation of a fresh bitmap).
    pub fn dirty_candidates(
        &self,
        drained: impl IntoIterator<Item = u32>,
        stamp: &mut [u32],
        epoch: u32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for v in drained {
            for &c in self.candidates_of(v) {
                if stamp[c as usize] != epoch {
                    stamp[c as usize] = epoch;
                    out.push(c);
                }
            }
        }
        out.sort_unstable();
    }
}

/// Epoch-stamped membership push: `touched` accumulates each candidate at
/// most once per epoch, replacing a sort+dedup pass. Heap pushes may
/// then happen in discovery order rather than ascending candidate order —
/// harmless, because the heap's pop sequence depends only on the *set* of
/// `(ratio, cand, gen)` entries (strict total order), never on push order,
/// and per-candidate generation numbers count only that candidate's own
/// pushes.
pub(crate) fn touch(tstamp: &mut [u32], tepoch: u32, touched: &mut Vec<u32>, c: u32) {
    if tstamp[c as usize] != tepoch {
        tstamp[c as usize] = tepoch;
        touched.push(c);
    }
}

// ---------------------------------------------------------------------------
// Exact incremental cheapest-insertion cache
// ---------------------------------------------------------------------------

/// Cached cheapest-insertion evaluations, maintained *exactly* across
/// tour insertions.
///
/// For each candidate we store the cheapest-insertion `(delta, pos)` into
/// the current tour, where `pos` doubles as the identity of the edge that
/// achieved the minimum (insertion position `pos` splits the edge between
/// tour indices `pos-1` and `pos mod n`). Inserting a point at position
/// `q` removes that one edge and adds two; a cached entry stays exact by
/// (a) shifting its edge index, and (b) taking the min against the two new
/// edges — unless its own edge was removed, in which case it must rescan.
/// The cached *value* always equals a fresh full scan's value; the cached
/// *position* may name a different edge of equal delta, which is
/// irrelevant because planners recompute the canonical position for the
/// single winning candidate at commit time.
#[derive(Clone, Debug)]
pub struct InsertionCache {
    delta: Vec<f64>,
    pos: Vec<usize>,
    valid: Vec<bool>,
}

impl InsertionCache {
    /// An all-invalid cache for `m` candidates.
    pub fn new(m: usize) -> Self {
        InsertionCache {
            delta: vec![0.0; m],
            pos: vec![usize::MAX; m],
            valid: vec![false; m],
        }
    }

    /// The cached `(delta, pos)`; `None` when the entry needs a rescan.
    #[inline]
    pub fn get(&self, c: usize) -> Option<(f64, usize)> {
        if self.valid[c] {
            Some((self.delta[c], self.pos[c]))
        } else {
            None
        }
    }

    /// Stores a freshly computed evaluation.
    #[inline]
    pub fn set(&mut self, c: usize, delta: f64, pos: usize) {
        self.delta[c] = delta;
        self.pos[c] = pos;
        self.valid[c] = true;
    }

    /// Repairs, in O(1) each, the entry of every candidate `c` with
    /// `live(c)` after a point was inserted at tour position `ins_pos`.
    /// `d = [d_a, d_p, d_b]` are candidate-indexed distance columns to
    /// the predecessor `a`, the inserted point `p` and the successor `b`;
    /// `e = [e_ap, e_pb]` are the two new tour edges. Per entry: a
    /// cached argmin edge that the insertion removed invalidates it
    /// (listed in `invalidated`; it needs a rescan before its next read),
    /// an edge after the insertion shifts by one, and the two new edges
    /// are tried in order as strict improvements (listed in `improved`).
    /// Both lists come out ascending; the return value is the number of
    /// live entries. The in-module repair property locks the result to a
    /// fresh `cheapest_insertion_point` scan.
    pub fn repair_insertion(
        &mut self,
        d: [&[f64]; 3],
        e: [f64; 2],
        ins_pos: usize,
        live: impl Fn(usize) -> bool,
        improved: &mut Vec<u32>,
        invalidated: &mut Vec<u32>,
    ) -> u64 {
        let m = self.delta.len();
        let [d_a, d_p, d_b] = d.map(|col| &col[..m]);
        let [e_ap, e_pb] = e;
        improved.clear();
        invalidated.clear();
        let mut repaired = 0u64;
        for c in 0..m {
            if !live(c) {
                continue;
            }
            repaired += 1;
            let p = self.pos[c];
            if !self.valid[c] || p == ins_pos {
                self.valid[c] = false;
                invalidated.push(c as u32);
                continue;
            }
            let old = self.delta[c];
            let delta_a = d_a[c] + d_p[c] - e_ap;
            let (nd, np) = if delta_a < old {
                (delta_a, ins_pos)
            } else {
                (old, p + (p > ins_pos) as usize)
            };
            let delta_b = d_p[c] + d_b[c] - e_pb;
            let (nd, np) = if delta_b < nd {
                (delta_b, ins_pos + 1)
            } else {
                (nd, np)
            };
            self.delta[c] = nd;
            self.pos[c] = np;
            if nd < old {
                improved.push(c as u32);
            }
        }
        repaired
    }
}

// ---------------------------------------------------------------------------
// Banked tour geometry for the lazy insertion loops
// ---------------------------------------------------------------------------

/// The lazy engines' shared accelerator for Algorithms 2 and 3, built in
/// the planners' setup phase and then updated only where the tour
/// changes.
///
/// Input-derived part (a pure function of scenario and candidates): the
/// inverted device → candidate index, candidate coordinate arrays, the
/// flattened coverage CSR with device volumes and full hover times
/// preresolved, and the candidates' distance column to the depot.
///
/// Loop part: an [`IncrementalTour`] mirror of the growing tour (its
/// cached edge lengths give the repair edges and the tour length) and a
/// bank of candidate → tour-point distance columns. When a point enters
/// the tour its column over every candidate is computed once
/// (vectorised, [`distances_to_point`]) and kept; the per-insertion
/// repairs read three columns, and rescans and canonical positions run
/// [`cheapest_insertions_banked`] edge by edge over them. Every banked
/// value is the `Point2::distance` of the same pair, so every scan over
/// the bank is bit-identical to the point-form scan it replaces, and no
/// distance the tour already has is ever recomputed.
pub(crate) struct LazyPre {
    /// Inverted device → candidate index.
    pub(crate) index: DeviceIndex,
    cand_xs: Vec<f64>,
    cand_ys: Vec<f64>,
    /// Coverage CSR: candidate `c` covers the devices in
    /// `cov_dev[cov_off[c]..cov_off[c + 1]]`, in candidate order.
    cov_off: Vec<u32>,
    cov_dev: Vec<u32>,
    /// Data volume per CSR slot.
    cov_data: Vec<f64>,
    /// Full hover time (volume / bandwidth) per CSR slot.
    cov_rate: Vec<f64>,
    /// Column bank: `cols[id][c]` = candidate `c`'s distance to the tour
    /// point with [`IncrementalTour`] id `id` (id 0 is the depot).
    cols: Vec<Vec<f64>>,
    inc: IncrementalTour,
    /// Scratch output of the banked scans.
    scan: Vec<(f64, u32)>,
}

impl LazyPre {
    /// Builds the input-derived part over a depot-only tour.
    pub(crate) fn build(candidates: &CandidateSet, scenario: &Scenario) -> Self {
        let m = candidates.len();
        let cand_xs: Vec<f64> = candidates.candidates.iter().map(|c| c.pos.x).collect();
        let cand_ys: Vec<f64> = candidates.candidates.iter().map(|c| c.pos.y).collect();
        let bandwidth = scenario.radio.bandwidth.value();
        let mut cov_off: Vec<u32> = Vec::with_capacity(m + 1);
        cov_off.push(0);
        let mut cov_dev: Vec<u32> = Vec::new();
        let mut cov_data: Vec<f64> = Vec::new();
        let mut cov_rate: Vec<f64> = Vec::new();
        for c in &candidates.candidates {
            for &v in &c.covered {
                let d = scenario.devices[v as usize].data.value();
                cov_dev.push(v);
                cov_data.push(d);
                cov_rate.push(d / bandwidth);
            }
            cov_off.push(cov_dev.len() as u32);
        }
        let mut depot_col = Vec::new();
        let depot = scenario.depot;
        distances_to_point(&cand_xs, &cand_ys, depot.x, depot.y, &mut depot_col);
        LazyPre {
            index: DeviceIndex::build(candidates, scenario.num_devices()),
            cand_xs,
            cand_ys,
            cov_off,
            cov_dev,
            cov_data,
            cov_rate,
            cols: vec![depot_col],
            inc: IncrementalTour::new((depot.x, depot.y)),
            scan: Vec::new(),
        }
    }

    /// Devices covered by candidate `c`, in candidate order.
    #[inline]
    pub(crate) fn covered(&self, c: usize) -> &[u32] {
        &self.cov_dev[self.cov_off[c] as usize..self.cov_off[c + 1] as usize]
    }

    /// Full-collection marginal of candidate `c` on the devices not yet
    /// `collected`: `(volume, hover time)` (Eqs. 11–12). Branch-free over
    /// the CSR and bit-identical to the plain filtered loop, because the
    /// masked contributions are exact identities: volumes are
    /// non-negative and both accumulators start at +0.0, so `+= d·0.0`
    /// and `.max(rate·0.0)` leave them unchanged bit for bit.
    pub(crate) fn marginal(&self, c: usize, collected: &[bool]) -> (f64, f64) {
        let lo = self.cov_off[c] as usize;
        let hi = self.cov_off[c + 1] as usize;
        let mut vol = 0.0f64;
        let mut t = 0.0f64;
        for j in lo..hi {
            let w = (!collected[self.cov_dev[j] as usize]) as u32 as f64;
            vol += self.cov_data[j] * w;
            t = t.max(self.cov_rate[j] * w);
        }
        (vol, t)
    }

    /// Candidate `c`'s cheapest-insertion delta into the depot-only tour
    /// (`2·d`, bit-identical to `cheapest_insertion_point`).
    #[inline]
    pub(crate) fn depot_delta(&self, c: usize) -> f64 {
        2.0 * self.cols[0][c]
    }

    /// Length of the current tour: the left-to-right sum of the cached
    /// edge lengths, bit-identical to `closed_tour_length` over the same
    /// points.
    pub(crate) fn tour_len(&self) -> f64 {
        self.inc.total_cost()
    }

    /// Incremental-tour patches applied so far.
    pub(crate) fn tour_patches(&self) -> u64 {
        self.inc.counters().tour_patches
    }

    /// Canonical cheapest-insertion position of candidate `c` into the
    /// current tour, from the bank: the first strict argmin over edges in
    /// tour order, exactly as `cheapest_insertion_point` finds it (the
    /// insertion cache may name a different edge of equal delta).
    pub(crate) fn insertion_pos(&mut self, c: usize) -> usize {
        let (order, elen) = (self.inc.order(), self.inc.edge_costs());
        cheapest_insertions_banked(&self.cols, order, elen, &[c as u32], &mut self.scan);
        self.scan[0].1 as usize
    }

    /// Splices candidate `c` into the tour at position `pos`, banks its
    /// distance column, and repairs the cached insertion delta of every
    /// candidate `k` with `live(k)` from the banked columns of the new
    /// point and its two neighbours plus the two new cached tour edges
    /// (see [`InsertionCache::repair_insertion`]). Returns the number of
    /// entries repaired; `improved` and `invalidated` list the changed
    /// ones, and an invalidated candidate needs a [`LazyPre::rescan`]
    /// before its delta is read again.
    pub(crate) fn insert(
        &mut self,
        c: usize,
        pos: usize,
        ins: &mut InsertionCache,
        live: impl Fn(usize) -> bool,
        improved: &mut Vec<u32>,
        invalidated: &mut Vec<u32>,
    ) -> u64 {
        let id = self.inc.append_point((self.cand_xs[c], self.cand_ys[c]));
        self.inc.insert_id_at(id, pos);
        debug_assert_eq!(id, self.cols.len());
        let mut col = Vec::new();
        distances_to_point(
            &self.cand_xs,
            &self.cand_ys,
            self.cand_xs[c],
            self.cand_ys[c],
            &mut col,
        );
        self.cols.push(col);
        let order = self.inc.order();
        let cols = [order[pos - 1], id, order[(pos + 1) % order.len()]].map(|k| &self.cols[k][..]);
        let elen = self.inc.edge_costs();
        ins.repair_insertion(
            cols,
            [elen[pos - 1], elen[pos]],
            pos,
            live,
            improved,
            invalidated,
        )
    }

    /// Recomputes the cheapest-insertion delta of every candidate in
    /// `cands` from the bank (pure table arithmetic), stores it in
    /// `ins`, and reports `(candidate, delta)` to `done` in `cands`
    /// order.
    pub(crate) fn rescan(
        &mut self,
        ins: &mut InsertionCache,
        cands: &[u32],
        mut done: impl FnMut(u32, f64),
    ) {
        let (order, elen) = (self.inc.order(), self.inc.edge_costs());
        cheapest_insertions_banked(&self.cols, order, elen, cands, &mut self.scan);
        for (&cu, &(delta, p)) in cands.iter().zip(&self.scan) {
            ins.set(cu as usize, delta, p as usize);
            done(cu, delta);
        }
    }

    /// 2-opt compaction of the mirrored tour over its cached distances;
    /// returns the position permutation when the tour changed (see
    /// [`IncrementalTour::two_opt_compact`]).
    pub(crate) fn compact(&mut self) -> Option<Vec<usize>> {
        self.inc.two_opt_compact()
    }
}

// ---------------------------------------------------------------------------
// CELF-style lazy max-heap
// ---------------------------------------------------------------------------

/// Order-preserving bijection from `f64` under [`f64::total_cmp`] to
/// `u64` under integer `<`: the sign-dependent XOR from `total_cmp`'s own
/// definition, shifted from `i64` into `u64` range. Exact for every bit
/// pattern (including NaNs, infinities and signed zeros), so a `u64`
/// comparison of mapped values is bit-for-bit the `TotalF64` ordering.
#[inline]
fn mono_f64(v: f64) -> u64 {
    let b = v.to_bits() as i64;
    let m = b ^ (((b >> 63) as u64) >> 1) as i64;
    (m as u64) ^ (1u64 << 63)
}

/// Inverse of [`mono_f64`] (the XOR mask is sign-preserved, so the map is
/// an involution on the shifted integers). Bit-exact round trip.
#[inline]
fn unmono_f64(u: u64) -> f64 {
    let m = (u ^ (1u64 << 63)) as i64;
    let b = m ^ (((m >> 63) as u64) >> 1) as i64;
    f64::from_bits(b as u64)
}

/// Heap entry packed into one `u128` key: max by ratio (via
/// [`mono_f64`]), then min by candidate index (`!cand`: ties at bit-equal
/// ratio resolve to the lower index, like the serial fold), `gen` last so
/// the ordering is total. Packing keeps the entry at 16 bytes while
/// turning the three-field lexicographic comparison into a single integer
/// compare — the heap's sift loops dominate lazy-selection wall time.
#[inline]
fn pack_entry(ratio: f64, cand: u32, gen: u32) -> u128 {
    ((mono_f64(ratio) as u128) << 64) | (((!cand) as u128) << 32) | gen as u128
}

#[inline]
fn entry_ratio(key: u128) -> f64 {
    unmono_f64((key >> 64) as u64)
}

#[inline]
fn entry_cand(key: u128) -> u32 {
    !((key >> 32) as u32)
}

#[inline]
fn entry_gen(key: u128) -> u32 {
    key as u32
}

/// What [`LazyHeap::select`] learned about a popped candidate.
pub enum Probe {
    /// The candidate's best feasible ratio right now. Must be
    /// `<= `the entry's cached ratio (evaluations only decay under
    /// tightening feasibility; anything that can *raise* a ratio must
    /// instead go through [`LazyHeap::push`]).
    Feasible(f64),
    /// Nothing about this candidate fits the remaining battery. It is
    /// parked until [`LazyHeap::unpark_all`] (slack reappeared) or a
    /// [`LazyHeap::push`] (its own cost shrank) revives it.
    Infeasible,
}

/// Pops without a feasible candidate after which a selection checks, in
/// one linear pass, whether anything left in the heap is feasible at all
/// (see `LazyHeap::drain_if_infeasible`).
const DRAIN_CHECK_AFTER: usize = 32;

/// Generation-stamped lazy max-heap over cached candidate ratios.
///
/// Every push stamps the candidate's current generation; entries whose
/// stamp is stale (the candidate was re-pushed since) are discarded on
/// pop. The planner guarantees that at selection time the newest entry of
/// every unparked, active candidate carries a ratio `>=` its true current
/// value (exact for Algorithm 2; an upper bound that [`Probe::Feasible`]
/// decays for Algorithm 3's battery-filtered virtual stops).
pub struct LazyHeap {
    heap: BinaryHeap<u128>,
    gen: Vec<u32>,
    parked: Vec<u128>,
    purge_at: usize,
}

impl LazyHeap {
    /// An empty heap over `m` candidates.
    pub fn new(m: usize) -> Self {
        LazyHeap {
            heap: BinaryHeap::with_capacity(m),
            gen: vec![0; m],
            parked: Vec::new(),
            purge_at: usize::MAX,
        }
    }

    /// Enables bulk sweeps of superseded entries at the start of
    /// [`select`](LazyHeap::select) whenever the heap holds more than
    /// `4·m` entries. A sweep only reschedules *when* a superseded entry
    /// leaves the heap, never *whether*: every pushed entry is discarded
    /// exactly once either way — at the heap top or during a sweep — and
    /// both count toward the pop counter, so the counter total is
    /// invariant. That bookkeeping identity needs the planner loop to
    /// end by running selection to heap exhaustion (as Algorithm 2's
    /// does — its only exit is an empty selection, which pops every
    /// remaining entry). Loops with early exits (`alg3`'s iteration cap
    /// and zero-gain break) must leave purging off, or entries the
    /// baseline left uncounted in the resident heap would get counted.
    pub fn enable_purge(&mut self) {
        self.purge_at = (4 * self.gen.len()).max(64);
    }

    /// Sweeps superseded entries out in bulk, counting each into `pops`
    /// (see [`enable_purge`](LazyHeap::enable_purge)). Live entries are
    /// untouched, so selection observes the same candidates in the same
    /// order; the point is that a discard during the sweep is O(1) while
    /// the same discard at the heap top is O(log n) on a heap bloated by
    /// the very entries being discarded.
    fn purge(&mut self, pops: &mut u64) {
        if self.heap.len() < self.purge_at {
            return;
        }
        let old = std::mem::take(&mut self.heap).into_vec();
        let mut live = Vec::with_capacity(self.gen.len());
        for e in old {
            if entry_gen(e) == self.gen[entry_cand(e) as usize] {
                live.push(e);
            } else {
                *pops += 1;
            }
        }
        self.heap = BinaryHeap::from(live);
    }

    /// Retires every entry at once when none of them is feasible, and
    /// reports whether it did. Popping them one by one would then discard
    /// each superseded or deactivated entry, park each live one, count
    /// every entry as a pop and find nothing to select; this leaves the
    /// same parked set, the same count and an empty heap in one linear
    /// pass instead of a heap-ordered one. `probe` and `active` are pure
    /// within a selection, so a failed check changes nothing. Selection
    /// runs it once its cohort has stayed empty for [`DRAIN_CHECK_AFTER`]
    /// pops — which is how the loops' last selection, facing a heap of
    /// superseded entries and an exhausted battery, usually looks.
    fn drain_if_infeasible(
        &mut self,
        active: &mut impl FnMut(usize) -> bool,
        probe: &mut impl FnMut(usize) -> Probe,
        pops: &mut u64,
    ) -> bool {
        let live = |e: u128, gen: &[u32], active: &mut dyn FnMut(usize) -> bool| {
            let c = entry_cand(e) as usize;
            entry_gen(e) == gen[c] && active(c)
        };
        for &e in self.heap.iter() {
            if live(e, &self.gen, active)
                && matches!(probe(entry_cand(e) as usize), Probe::Feasible(_))
            {
                return false;
            }
        }
        *pops += self.heap.len() as u64;
        for e in std::mem::take(&mut self.heap).into_vec() {
            if live(e, &self.gen, active) {
                self.parked.push(e);
            }
        }
        true
    }

    /// Publishes candidate `c`'s current cached ratio, superseding any
    /// previous entry for `c`.
    pub fn push(&mut self, c: usize, ratio: f64) {
        self.gen[c] = self.gen[c].wrapping_add(1);
        self.heap.push(pack_entry(ratio, c as u32, self.gen[c]));
    }

    /// Returns parked candidates to contention (call when battery slack
    /// grew, e.g. after a tour compaction shortened the tour). Stale
    /// parked entries are filtered out by the generation check on pop.
    pub fn unpark_all(&mut self) {
        for e in self.parked.drain(..) {
            self.heap.push(e);
        }
    }

    /// Number of candidates currently parked as infeasible.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Selects the candidate the exhaustive serial fold would pick:
    /// among feasible candidates, the lowest-index one that no candidate
    /// beats by more than [`RATIO_BAND`] under the fold's replacement
    /// rule. `probe(c)` reports the candidate's current feasible value
    /// (see [`Probe`]); `active(c)` filters candidates that have been
    /// deactivated since their entry was pushed.
    ///
    /// Returns `(candidate, ratio)` or `None` when nothing is feasible.
    pub fn select(
        &mut self,
        mut active: impl FnMut(usize) -> bool,
        mut probe: impl FnMut(usize) -> Probe,
        pops: &mut u64,
    ) -> Option<(usize, f64)> {
        self.purge(pops);
        // Cohort of feasible candidates within the tie band of each
        // other; kept sorted implicitly by collecting then folding.
        let mut cohort: Vec<(f64, u32, u32)> = Vec::new();
        let mut cohort_min = f64::INFINITY;
        let mut misses = 0usize;
        while let Some(&top) = self.heap.peek() {
            if !cohort.is_empty() && entry_ratio(top) < cohort_min - RATIO_BAND {
                break;
            }
            if cohort.is_empty()
                && misses == DRAIN_CHECK_AFTER
                && self.drain_if_infeasible(&mut active, &mut probe, pops)
            {
                return None;
            }
            misses += cohort.is_empty() as usize;
            // lint:allow(panic-site): peek above proves the heap is non-empty
            let entry = self.heap.pop().expect("heap entry vanished after peek");
            *pops += 1;
            let c = entry_cand(entry) as usize;
            if entry_gen(entry) != self.gen[c] || !active(c) {
                continue; // superseded or deactivated entry
            }
            match probe(c) {
                Probe::Infeasible => self.parked.push(entry),
                Probe::Feasible(v) => {
                    if v >= entry_ratio(entry) {
                        // Exact entry: joins the cohort directly.
                        cohort_min = cohort_min.min(v);
                        cohort.push((v, entry_cand(entry), entry_gen(entry)));
                    } else {
                        // CELF decay: the feasible value is below the
                        // cached bound; re-queue at its true value so it
                        // competes in the right order.
                        self.heap
                            .push(pack_entry(v, entry_cand(entry), entry_gen(entry)));
                    }
                }
            }
        }
        // Serial-fold tie-break over the cohort in ascending candidate
        // order: replace only on a strict RATIO_BAND improvement.
        cohort.sort_unstable_by_key(|e| e.1);
        let mut best: Option<(f64, u32, u32)> = None;
        for &(r, c, g) in &cohort {
            match best {
                None => best = Some((r, c, g)),
                Some((br, _, _)) => {
                    if r > br + RATIO_BAND {
                        best = Some((r, c, g));
                    }
                }
            }
        }
        let winner = best?;
        // Losers stay current: return them to the heap unchanged.
        for &(r, c, g) in &cohort {
            if c != winner.1 {
                self.heap.push(pack_entry(r, c, g));
            }
        }
        Some((winner.1 as usize, winner.0))
    }
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

/// Work counters for one planning run, comparing the lazy engine's
/// actual evaluation count against the exhaustive bound.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalCounters {
    /// Candidates at loop start (after pruning) — the `M` of the bound.
    pub candidates: usize,
    /// Greedy iterations performed (selection attempts, including the
    /// final one that found nothing feasible).
    pub iterations: u64,
    /// Full candidate evaluations performed (marginal-reward recomputes
    /// and/or insertion-delta rescans; one event per candidate per batch).
    pub evaluations: u64,
    /// Marginal-reward recomputes triggered by drained devices.
    pub marginal_evals: u64,
    /// Cheapest-insertion full rescans (edge removed under the cached
    /// argmin, or tour compaction changed the tour).
    pub delta_rescans: u64,
    /// O(1) insertion-cache repairs performed.
    pub fixups: u64,
    /// Heap entries retired during selection: top-of-heap pops plus
    /// stale entries removed by the purge sweep. Every pushed entry is
    /// retired exactly once, so the count is purge-invariant.
    pub heap_pops: u64,
    /// Incremental tour patches applied (insertion splices plus local
    /// compactions that changed the tour). Deterministic: equal across
    /// engines because both drive the same state evolution.
    pub tour_patches: u64,
    /// Full Christofides tour rebuilds (PaperChristofides evaluations and
    /// uncached commits; always 0 under FastInsertion).
    pub full_retours: u64,
}

impl EvalCounters {
    /// Evaluations an exhaustive rescan would have performed:
    /// `iterations × candidates`.
    pub fn exhaustive_bound(&self) -> u64 {
        self.iterations.saturating_mul(self.candidates as u64)
    }

    /// Evaluations avoided relative to the exhaustive bound.
    pub fn saved(&self) -> u64 {
        self.exhaustive_bound().saturating_sub(self.evaluations)
    }
}

/// Timing + work breakdown for one planning run, returned by the
/// planners' `plan_with_stats` entry points and consumed by the
/// `planner_baseline` perf harness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanStats {
    /// Engine that produced the plan.
    pub engine: EngineMode,
    /// Work counters (candidate counts are planner-specific: grid
    /// candidates for Algorithms 2/3, initial tour stops for the
    /// benchmark heuristic).
    pub counters: EvalCounters,
    /// Wall time of everything before the loop, nanoseconds: building
    /// and pruning the candidate set (or the benchmark's initial tour)
    /// and the engine's precompute. The duration of the planner's
    /// `*/setup` span.
    pub setup_ns: u64,
    /// Wall time of the greedy loop itself, nanoseconds: the duration of
    /// the planner's `*/loop` span (`bench/prune` for the benchmark).
    pub loop_ns: u64,
}

impl PlanStats {
    /// Total planning wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.setup_ns + self.loop_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tourutil::cheapest_insertion_point;
    use uavdc_geom::Point2;
    use uavdc_net::units::Meters;

    #[test]
    fn device_index_inverts_coverage() {
        use crate::candidates::Candidate;
        let cs = CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates: vec![
                Candidate {
                    pos: Point2::new(0.0, 0.0),
                    covered: vec![0, 2],
                },
                Candidate {
                    pos: Point2::new(1.0, 0.0),
                    covered: vec![1],
                },
                Candidate {
                    pos: Point2::new(2.0, 0.0),
                    covered: vec![0, 1],
                },
            ],
        };
        let idx = DeviceIndex::build(&cs, 3);
        assert_eq!(idx.candidates_of(0), &[0, 2]);
        assert_eq!(idx.candidates_of(1), &[1, 2]);
        assert_eq!(idx.candidates_of(2), &[0]);
        let mut stamp = vec![0u32; 3];
        let mut out = Vec::new();
        idx.dirty_candidates([0, 1], &mut stamp, 1, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        idx.dirty_candidates([2], &mut stamp, 2, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn packed_heap_key_matches_three_field_ordering() {
        // The packed u128 key must reproduce the lexicographic
        // (total_cmp ratio, Reverse(cand), gen) ordering bit for bit —
        // the heap's pop sequence, and with it the frozen `heap_pops`
        // baseline counter, depends on it. Exercise the f64 edge cases
        // total_cmp distinguishes plus a pseudo-random sweep.
        let specials = [
            f64::NEG_INFINITY,
            -1.5e300,
            -1.0,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1.5e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut vals: Vec<f64> = specials.to_vec();
        let mut s = 0x2545f4914f6cdd1du64;
        for _ in 0..512 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            vals.push(f64::from_bits(s));
        }
        for &a in &vals {
            assert_eq!(
                unmono_f64(mono_f64(a)).to_bits(),
                a.to_bits(),
                "mono/unmono round trip broke {a:?}"
            );
            for &b in &vals {
                assert_eq!(
                    mono_f64(a).cmp(&mono_f64(b)),
                    a.total_cmp(&b),
                    "mono order diverged from total_cmp on {a:?} vs {b:?}"
                );
            }
        }
        // Tie-breaks: equal ratio prefers the lower candidate; equal
        // (ratio, cand) prefers the higher generation.
        assert!(pack_entry(1.0, 3, 7) > pack_entry(1.0, 4, 7));
        assert!(pack_entry(1.0, 3, 8) > pack_entry(1.0, 3, 7));
        assert!(pack_entry(2.0, 9, 1) > pack_entry(1.0, 0, 9));
        assert_eq!(entry_cand(pack_entry(1.0, 3, 7)), 3);
        assert_eq!(entry_gen(pack_entry(1.0, 3, 7)), 7);
    }

    #[test]
    fn insertion_cache_repair_matches_full_rescan() {
        // Deterministic pseudo-random points; after every insertion the
        // batch repair (plus a rescan of invalidated entries) must match
        // a fresh cheapest_insertion_point bit for bit. Every fifth
        // candidate is left out of the repair and must come through
        // untouched.
        let cands: Vec<Point2> = (0..40)
            .map(|i| Point2::new(((i * 37) % 101) as f64, ((i * 53) % 97) as f64))
            .collect();
        let inserts: Vec<Point2> = (0..12)
            .map(|i| Point2::new(((i * 61 + 13) % 89) as f64, ((i * 29 + 7) % 83) as f64))
            .collect();
        let live = |c: usize| !c.is_multiple_of(5);
        let mut tour = vec![Point2::new(50.0, 50.0)];
        let mut cache = InsertionCache::new(cands.len());
        for (c, &p) in cands.iter().enumerate() {
            let (d, pos) = cheapest_insertion_point(&tour, p);
            cache.set(c, d, pos);
        }
        let (mut improved, mut invalidated) = (Vec::new(), Vec::new());
        let (mut n_imp, mut n_inv) = (0, 0);
        for &p in &inserts {
            let (_, ins_pos) = cheapest_insertion_point(&tour, p);
            tour.insert(ins_pos, p);
            let a = tour[ins_pos - 1];
            let b = tour[(ins_pos + 1) % tour.len()];
            let col = |q: Point2| -> Vec<f64> { cands.iter().map(|&c| q.distance(c)).collect() };
            let (ca, cp, cb) = (col(a), col(p), col(b));
            let before: Vec<_> = (0..cands.len()).map(|c| cache.get(c)).collect();
            let repaired = cache.repair_insertion(
                [&ca, &cp, &cb],
                [a.distance(p), p.distance(b)],
                ins_pos,
                live,
                &mut improved,
                &mut invalidated,
            );
            assert_eq!(
                repaired,
                (0..cands.len()).filter(|&c| live(c)).count() as u64
            );
            assert!(improved.windows(2).all(|w| w[0] < w[1]));
            assert!(invalidated.windows(2).all(|w| w[0] < w[1]));
            n_imp += improved.len();
            n_inv += invalidated.len();
            for &c in &invalidated {
                let c = c as usize;
                assert_eq!(cache.get(c), None);
                let (d, pos) = cheapest_insertion_point(&tour, cands[c]);
                cache.set(c, d, pos);
            }
            for (c, &cp) in cands.iter().enumerate() {
                if !live(c) {
                    assert_eq!(cache.get(c), before[c], "dead candidate {c} changed");
                    continue;
                }
                let (want, _) = cheapest_insertion_point(&tour, cp);
                let (got, got_pos) = cache.get(c).unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "candidate {c} delta diverged"
                );
                // A repaired (not rescanned) entry is reported improved
                // exactly when its delta fell.
                if !invalidated.contains(&(c as u32)) {
                    let was = before[c].map(|(d, _)| d);
                    let in_improved = improved.contains(&(c as u32));
                    assert_eq!(in_improved, was.is_some_and(|d| got < d), "candidate {c}");
                }
                // The cached position must name a real edge achieving
                // the cached delta (not necessarily the canonical one).
                let n = tour.len();
                let (ea, eb) = (tour[got_pos - 1], tour[got_pos % n]);
                let at = ea.distance(cp) + cp.distance(eb) - ea.distance(eb);
                assert_eq!(at.to_bits(), got.to_bits(), "candidate {c} edge");
            }
        }
        // The sequence exercises both changed outcomes.
        assert!(
            n_imp > 0 && n_inv > 0,
            "improved {n_imp}, invalidated {n_inv}"
        );
    }

    #[test]
    fn banked_geometry_matches_point_scans() {
        // LazyPre's bank and edge cache must reproduce the point-form
        // scans: canonical insertion positions, tour lengths and
        // repaired deltas, bit for bit, across a growing tour.
        use crate::candidates::Candidate;
        use crate::tourutil::closed_tour_length;
        use uavdc_geom::Aabb;
        use uavdc_net::{IotDevice, RadioModel, UavSpec};
        let pts: Vec<Point2> = (0..30)
            .map(|i| Point2::new(((i * 37) % 101) as f64 + 0.5, ((i * 53) % 97) as f64))
            .collect();
        let cs = CandidateSet {
            delta: 1.0,
            coverage_radius: Meters(1.0),
            candidates: pts
                .iter()
                .map(|&pos| Candidate {
                    pos,
                    covered: Vec::new(),
                })
                .collect(),
        };
        let scenario = Scenario {
            region: Aabb::square(110.0),
            devices: vec![IotDevice {
                pos: Point2::new(1.0, 1.0),
                data: uavdc_net::units::MegaBytes(1.0),
            }],
            depot: Point2::new(50.0, 50.0),
            radio: RadioModel::new(Meters(1.0), uavdc_net::units::MegaBytesPerSecond(1.0)),
            uav: UavSpec::paper_default(),
        };
        let mut pre = LazyPre::build(&cs, &scenario);
        let mut tour = vec![scenario.depot];
        let mut ins = InsertionCache::new(pts.len());
        for (c, &p) in pts.iter().enumerate() {
            assert_eq!(
                pre.depot_delta(c).to_bits(),
                cheapest_insertion_point(&tour, p).0.to_bits()
            );
            ins.set(c, pre.depot_delta(c), 1);
        }
        let mut on_tour = vec![false; pts.len()];
        let (mut improved, mut rescan) = (Vec::new(), Vec::new());
        // Twenty distinct candidates (7 and 30 are coprime), near and
        // far points mixed.
        for step in 0..20 {
            let c = (step * 7) % pts.len();
            let pos = pre.insertion_pos(c);
            assert_eq!(pos, cheapest_insertion_point(&tour, pts[c]).1);
            on_tour[c] = true;
            tour.insert(pos, pts[c]);
            pre.insert(
                c,
                pos,
                &mut ins,
                |k| !on_tour[k],
                &mut improved,
                &mut rescan,
            );
            pre.rescan(&mut ins, &rescan, |_, _| {});
            assert_eq!(
                pre.tour_len().to_bits(),
                closed_tour_length(&tour).to_bits()
            );
            for (k, &p) in pts.iter().enumerate() {
                if !on_tour[k] {
                    let want = cheapest_insertion_point(&tour, p).0;
                    assert_eq!(ins.get(k).unwrap().0.to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn lazy_heap_orders_by_ratio_then_index() {
        let mut h = LazyHeap::new(4);
        h.push(2, 5.0);
        h.push(0, 7.0);
        h.push(1, 7.0);
        h.push(3, 1.0);
        let mut pops = 0;
        let got = h.select(
            |_| true,
            |c| Probe::Feasible([7.0, 7.0, 5.0, 1.0][c]),
            &mut pops,
        );
        // Bit-equal ratios: lowest index wins.
        assert_eq!(got, Some((0, 7.0)));
    }

    #[test]
    fn lazy_heap_discards_superseded_entries() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(0, 3.0); // supersedes the 9.0 entry
        h.push(1, 5.0);
        let mut pops = 0;
        let got = h.select(|_| true, |c| Probe::Feasible([3.0, 5.0][c]), &mut pops);
        assert_eq!(got, Some((1, 5.0)));
    }

    #[test]
    fn lazy_heap_parks_infeasible_until_unparked() {
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 5.0);
        let mut pops = 0;
        let got = h.select(
            |_| true,
            |c| {
                if c == 0 {
                    Probe::Infeasible
                } else {
                    Probe::Feasible(5.0)
                }
            },
            &mut pops,
        );
        assert_eq!(got, Some((1, 5.0)));
        assert_eq!(h.parked_len(), 1);
        // Candidate 0 is out of contention until slack returns.
        let got = h.select(|_| true, |_| Probe::Feasible(9.0), &mut pops);
        assert_eq!(got, None);
        h.unpark_all();
        let got = h.select(|_| true, |_| Probe::Feasible(9.0), &mut pops);
        assert_eq!(got, Some((0, 9.0)));
    }

    #[test]
    fn lazy_heap_decays_upper_bounds() {
        // Candidate 0's bound is 9 but its feasible value is 2; candidate
        // 1's exact 5 must win.
        let mut h = LazyHeap::new(2);
        h.push(0, 9.0);
        h.push(1, 5.0);
        let mut pops = 0;
        let got = h.select(
            |_| true,
            |c| Probe::Feasible(if c == 0 { 2.0 } else { 5.0 }),
            &mut pops,
        );
        assert_eq!(got, Some((1, 5.0)));
        // The decayed entry remains selectable at its true value.
        let got = h.select(|_| true, |_| Probe::Feasible(2.0), &mut pops);
        assert_eq!(got, Some((0, 2.0)));
    }

    #[test]
    fn lazy_heap_drain_matches_popping_one_by_one() {
        // Many superseded entries on top, the live ones (the newest, with
        // the lowest ratios) at the bottom, none feasible: past
        // DRAIN_CHECK_AFTER pops the selection retires the rest at once.
        // Every entry counts as a pop, exactly the live ones park, and
        // they come back on unpark like singly popped ones would.
        let m = 8;
        let mut h = LazyHeap::new(m);
        let mut pushed = 0u64;
        for round in (0..20).rev() {
            for c in 0..m {
                h.push(c, (round * m + c) as f64);
                pushed += 1;
            }
        }
        let deactivated = 5;
        let mut pops = 0;
        let got = h.select(|c| c != deactivated, |_| Probe::Infeasible, &mut pops);
        assert_eq!(got, None);
        assert_eq!(pops, pushed, "every entry is retired once");
        assert_eq!(h.parked_len(), m - 1, "live entries park");
        h.unpark_all();
        let mut pops = 0;
        let got = h.select(|_| true, |c| Probe::Feasible(c as f64), &mut pops);
        assert_eq!(got, Some((m - 1, (m - 1) as f64)));
        assert_eq!(pops, 1, "the live entries are back");
    }

    #[test]
    fn chunked_argmax_parallel_matches_serial() {
        let score = |c: usize| -> Option<(f64, usize)> {
            if c % 7 == 3 {
                None
            } else {
                Some((((c * 2654435761) % 1000) as f64, c))
            }
        };
        let better = |a: &(f64, usize), b: &(f64, usize)| {
            a.0 > b.0 + RATIO_BAND || (a.0 >= b.0 - RATIO_BAND && a.1 < b.1)
        };
        let serial = chunked_argmax(5000, false, score, better);
        let parallel = chunked_argmax(5000, true, score, better);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn chunked_map_preserves_order() {
        let batch: Vec<u32> = (0..1000).collect();
        let serial = chunked_map(&batch, usize::MAX, |&x| x * 3);
        let parallel = chunked_map(&batch, 1, |&x| x * 3);
        assert_eq!(serial, parallel);
    }

    // A worker panic is not swallowed: `std::thread::scope` joins every
    // worker and then re-raises in the caller.
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn chunked_map_with_propagates_worker_panic() {
        let batch: Vec<u32> = (0..64).collect();
        chunked_map_with(&batch, 4, |&x| {
            assert_ne!(x, 50, "worker failure");
            x
        });
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn chunked_argmax_with_propagates_worker_panic() {
        chunked_argmax_with(
            64,
            4,
            |c| {
                assert_ne!(c, 50, "worker failure");
                Some(c)
            },
            |a, b| a > b,
        );
    }

    #[test]
    fn counters_bound_arithmetic() {
        let c = EvalCounters {
            candidates: 100,
            iterations: 10,
            evaluations: 150,
            ..EvalCounters::default()
        };
        assert_eq!(c.exhaustive_bound(), 1000);
        assert_eq!(c.saved(), 850);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(num_threads() >= 1);
    }
}
