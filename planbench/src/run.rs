//! One benchmark run: set-up, the timed phase, and (with `--trace 1`) the
//! traced phase with its checks.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use uavdc_bench::service::{run_batch, PlanRequest, ServiceAlgorithm, ServiceConfig};
use uavdc_core::{BenchmarkSetup, CandidateSet, EngineMode};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;

use crate::stats::{median, percentile, tail};
use crate::trace::{Analysis, Tracer};
use crate::workload::{
    guarded, instance, plan_cold, plan_prepared, plan_traced, replay_christofides,
    traced_candidates, with_capacity, Algo, Checker, Counts, SplitMix, BATTERY_SWEEP,
};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["fine-grid", "warm-service"];

/// Largest share of traced request time the layer spans may leave
/// uncovered before the layer-sum check fails.
pub const LAYER_GAP_BOUND: f64 = 0.02;

/// Set-up repetitions whose median is reported as `setup_s`; about half
/// run before the timed phase and the rest after it, so that the median
/// does not hang on the machine's speed at one moment.
const SETUP_REPS_COLD: usize = 8;
const SETUP_REPS_WARM: usize = 5;

/// Percentile `plan_ms_tail` reports. On a shared 2-vCPU VM, higher
/// percentiles are set by the host's sporadic slow seconds rather than by
/// the program: over ten runs of `fine-grid` p95 spread 16% of its median
/// while p50 spread 4%, and between two runs p98 moved 33→39 ms
/// (`fine-grid`) and 7.6→11.8 ms (`warm-service`).
pub const TAIL_PERCENTILE: f64 = 0.9;

/// Share of `--seconds` the traced run spends without spans (the rest is
/// traced); the two phases give the tracing overhead.
const UNTRACED_SHARE: f64 = 0.4;

/// Layers timed in the traced run, as span names.
pub const LAYERS: [&str; 18] = [
    "candidates.build",
    "candidates.prune",
    "candidates.disjoint",
    "alg1.stitch",
    "alg2.plan_prepared",
    "alg2-paper.plan_prepared",
    "alg3.plan_prepared",
    "benchmark.setup",
    "benchmark.prune",
    "graph.matrix",
    "graph.mst",
    "graph.matching",
    "graph.euler",
    "graph.polish",
    "auxgraph.build",
    "orienteering.solve",
    "plan.validate",
    "sim.simulate",
];

/// Per-call counts of the traced run, with their units.
pub const COUNTS: [(&str, &str); 10] = [
    ("candidates.cells", "count"),
    ("candidates.kept", "count"),
    ("candidates.kept_ratio", "ratio"),
    ("greedy.iterations", "count"),
    ("greedy.evaluations", "count"),
    ("greedy.tour_patches", "count"),
    ("greedy.full_retours", "count"),
    ("benchmark.removals", "count"),
    ("graph.odd_vertices", "count"),
    ("orienteering.tour_len", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Every check passed and no request failed.
    pub correct: bool,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn finish(&mut self, ck: Checker) {
        self.attempted = ck.attempted.max(1);
        self.failed = ck.failed;
        self.correct = ck.failed == 0 && ck.problems.is_empty();
        for p in ck.problems {
            self.notes.push(format!("FAILED: {p}"));
        }
    }
}

/// Runs workload `name`; `None` when no workload has that name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    match name {
        "fine-grid" => Some(run_cold(seed, seconds, trace)),
        "warm-service" => Some(run_warm(seed, seconds, trace)),
        _ => None,
    }
}

/// One request of a cold workload; its scenario is generated from
/// `seed` just before the request, outside the timed window, so the
/// inputs of a whole run never sit in memory together.
struct Req {
    algo: Algo,
    /// Instance scale (fraction of the paper's 500 devices).
    scale: f64,
    seed: u64,
    capacity: f64,
}

impl Req {
    fn scenario(&self) -> Scenario {
        with_capacity(&instance(self.scale, self.seed), self.capacity)
    }
}

/// The `fine-grid` workload: one closed-loop client sending a stream of
/// distinct requests, each on a fresh instance. Fresh instances matter:
/// planning time varies between instances, so a run that cycled a few
/// instances would report their quantiles, not the workload's.
struct Cold {
    requests: Vec<Req>,
}

/// Requests in the stream; more than a run completes.
const COLD_STREAM: usize = 2000;

/// `collected_gb` of `fine-grid` is the mean over its first requests,
/// the same set on every run with one seed; battery and planner cycle so
/// the set holds each pairing equally often.
const QUALITY_REQUESTS: usize = 100;

/// Fixed requests whose plan fingerprints are frozen: they do not depend
/// on `--seed`, so they check that the program's outputs are unchanged.
/// `(planner, instance scale, instance seed, capacity J, fingerprint)`.
type Golden = (Algo, f64, u64, f64, u64);

const GOLDEN_FINE: [Golden; 4] = [
    (
        Algo::Alg2 { delta: 5.0 },
        1.0,
        1,
        6.0e5,
        0xeea7_5561_31d7_2b2d,
    ),
    (
        Algo::Alg3 { delta: 5.0, k: 4 },
        1.0,
        1,
        6.0e5,
        0xcaed_22c0_cca9_c31e,
    ),
    (Algo::Alg1, 1.0, 1, 6.0e5, 0x63a5_8fa3_79d4_fda7),
    (
        Algo::Alg2Paper { delta: 25.0 },
        0.15,
        1,
        6.0e5,
        0x7287_613c_4b27_c973,
    ),
];
const GOLDEN_WARM: [Golden; 3] = [
    (
        Algo::Alg2 { delta: 10.0 },
        1.0,
        1,
        6.0e5,
        0xa705_e2e8_32c9_3676,
    ),
    (
        Algo::Alg3 { delta: 30.0, k: 4 },
        1.0,
        1,
        6.0e5,
        0x1ccf_b1b9_b7b5_6ec0,
    ),
    (Algo::Benchmark, 1.0, 1, 6.0e5, 0x42dd_50d3_801d_bcf1),
];

fn check_golden(golden: &[Golden], ck: &mut Checker) {
    for &(algo, scale, seed, cap, want) in golden {
        let s = with_capacity(&instance(scale, seed), cap);
        let got = guarded(|| plan_cold(algo, &s).fingerprint());
        if got != Ok(want) {
            ck.problem(format!(
                "golden plan {algo:?} scale {scale} seed {seed} E {cap}: fingerprint {got:x?}, frozen {want:x}"
            ));
        }
    }
}

impl Cold {
    fn build(seed: u64) -> Cold {
        let mut rng = SplitMix(seed ^ 0x706c_616e_6265_6e63);
        let requests = (0..COLD_STREAM)
            .map(|i| {
                // Per 20 requests: 16 candidate-bound Alg2/Alg3 requests at
                // δ = 5 m, 2 Algorithm 1 and 2 paper-mode Algorithm 2
                // requests. The last two keep Algorithm 1's orienteering
                // layers and paper mode measured at a small share of the
                // time. Paper mode runs on 75-device instances at
                // δ = 25 m, where it takes 3–25 ms; on 100-device
                // instances it takes 8–295 ms and a few slow instances
                // would decide the tail.
                let (algo, scale) = match i % 20 {
                    0..=15 if i % 2 == 0 => (Algo::Alg2 { delta: 5.0 }, 1.0),
                    0..=15 => (Algo::Alg3 { delta: 5.0, k: 4 }, 1.0),
                    16 | 17 => (Algo::Alg1, 1.0),
                    _ => (Algo::Alg2Paper { delta: 25.0 }, 0.15),
                };
                Req {
                    algo,
                    scale,
                    seed: rng.next_u64(),
                    capacity: BATTERY_SWEEP[(i + i / 20) % 5],
                }
            })
            .collect();
        Cold { requests }
    }

    /// Every scenario of the stream: the workload's one-time input
    /// generation, timed as `setup_s`.
    fn generate_all(&self) -> usize {
        self.requests
            .iter()
            .map(|r| black_box(r.scenario()).num_devices())
            .sum()
    }
}

/// Keeps the closed loop going until `seconds` have passed and the
/// `collected_gb` requests are done.
fn keep_going(started: Instant, seconds: f64, i: usize) -> bool {
    i < QUALITY_REQUESTS || started.elapsed().as_secs_f64() < seconds
}

/// Latency of each passed request, ms, keyed by request index.
type Latencies = Vec<(usize, f64)>;

/// The closed loop: each request through the planner's public cold entry
/// point plus `validate`. Returns the latency of every passed request and
/// the loop's wall time, s.
fn cold_loop(w: &Cold, ck: &mut Checker, seconds: f64) -> (Latencies, f64) {
    let mut lat = Vec::new();
    let started = Instant::now();
    let n = w.requests.len();
    let mut i = 0;
    while keep_going(started, seconds, i) {
        let r = &w.requests[i % n];
        let s = r.scenario();
        ck.attempted += 1;
        let t0 = Instant::now();
        let res = guarded(|| {
            let plan = plan_cold(r.algo, &s);
            plan.validate(&s).map(|()| plan)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Err(p) => ck.fail(format!("request {}: panicked: {p}", i % n)),
            Ok(Err(e)) => ck.fail(format!("request {}: invalid plan: {e:?}", i % n)),
            Ok(Ok(plan)) => {
                if ck.verify(i % n, &s, &plan) {
                    lat.push((i % n, ms));
                }
            }
        }
        i += 1;
    }
    (lat, started.elapsed().as_secs_f64())
}

/// The traced twin of [`cold_loop`]: each request runs as its layer calls
/// under a `request.<planner>` span. It starts again from the first
/// request, so the decompositions must reproduce the fingerprints the
/// cold entry points recorded.
fn cold_traced_loop(
    w: &Cold,
    ck: &mut Checker,
    tr: &mut Tracer,
    counts: &mut Counts,
    seconds: f64,
) -> Latencies {
    let mut lat = Vec::new();
    let started = Instant::now();
    let n = w.requests.len();
    let mut i = 0;
    while keep_going(started, seconds, i) {
        let r = &w.requests[i % n];
        let s = r.scenario();
        ck.attempted += 1;
        let t0 = Instant::now();
        tr.begin(r.algo.root());
        let res = guarded(|| {
            let plan = plan_traced(tr, counts, r.algo, &s);
            tr.span("plan.validate", || plan.validate(&s))
                .map(|()| plan)
        });
        tr.close_all();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Err(p) => ck.fail(format!("traced request {}: panicked: {p}", i % n)),
            Ok(Err(e)) => ck.fail(format!("traced request {}: invalid plan: {e:?}", i % n)),
            Ok(Ok(plan)) => {
                let agrees = tr.span("sim.simulate", || ck.agrees(&s, &plan));
                if ck.record(i % n, &plan, agrees) {
                    lat.push((i % n, ms));
                }
            }
        }
        i += 1;
    }
    lat
}

fn run_cold(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let mut ck = Checker::default();
    // The golden plans run first, so set-up is timed on a warmed-up core.
    check_golden(&GOLDEN_FINE, &mut ck);
    let w = Cold::build(seed);
    rep.notes.push(format!(
        "fine-grid: stream of {} distinct requests, one closed-loop client",
        w.requests.len()
    ));
    if !trace {
        let generate = || black_box(w.generate_all());
        let mut setup = time_reps(SETUP_REPS_COLD / 2, generate);
        let (lat, wall) = cold_loop(&w, &mut ck, seconds);
        setup.extend(time_reps(SETUP_REPS_COLD - SETUP_REPS_COLD / 2, generate));
        latency_metrics(&mut rep, lat.into_iter().map(|(_, ms)| ms).collect(), wall);
        rep.metric("setup_s", median(&setup), "s");
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
        ok_and_quality(&mut rep, &ck, QUALITY_REQUESTS);
        rep.finish(ck);
        return rep;
    }
    let (plain, _) = cold_loop(&w, &mut ck, seconds * UNTRACED_SHARE);
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let traced = cold_traced_loop(
        &w,
        &mut ck,
        &mut tr,
        &mut counts,
        seconds * (1.0 - UNTRACED_SHARE),
    );
    let a = Analysis::of(tr.spans());
    layer_metrics(&mut rep, &a, &counts, &plain, &traced, &mut ck);
    service_metrics(&mut rep, None);
    isolation_fine_grid(&a, &mut rep, &mut ck);
    write_spans(&tr, "fine-grid", seed, &mut rep);
    rep.finish(ck);
    rep
}

/// The warm-service request batch and what the run knows about it.
struct Warm {
    requests: Vec<PlanRequest>,
    /// Index into `distinct` of each request.
    key_of: Vec<usize>,
    /// Distinct `(instance seed, capacity, planner)` triples.
    distinct: Vec<(u64, f64, ServiceAlgorithm)>,
    /// Base instance per seed, as the service generates it.
    bases: BTreeMap<u64, Scenario>,
    /// One request per artifact the service caches.
    first_per_key: Vec<PlanRequest>,
}

/// Service planners: both grid edges for Algorithms 2 and 3 (K = 2, 4),
/// plus the Benchmark heuristic.
const WARM_ALGORITHMS: [ServiceAlgorithm; 7] = [
    ServiceAlgorithm::Alg2 { delta: 10.0 },
    ServiceAlgorithm::Alg3 { delta: 10.0, k: 2 },
    ServiceAlgorithm::Alg3 { delta: 10.0, k: 4 },
    ServiceAlgorithm::Alg2 { delta: 30.0 },
    ServiceAlgorithm::Alg3 { delta: 30.0, k: 2 },
    ServiceAlgorithm::Alg3 { delta: 30.0, k: 4 },
    ServiceAlgorithm::Benchmark,
];

/// Instances per batch and copies of each (instance, capacity, planner)
/// request: 4 × 5 × 7 × 10 = 1400 requests share 12 artifacts, so more
/// than 99% of requests hit the cache.
const WARM_INSTANCES: usize = 4;
const WARM_REPEAT: usize = 10;

impl Warm {
    fn build(seed: u64) -> Warm {
        let mut rng = SplitMix(seed ^ 0x7761_726d_7365_7276);
        let seeds: Vec<u64> = (0..WARM_INSTANCES).map(|_| rng.next_u64()).collect();
        let mut distinct = Vec::new();
        for &s in &seeds {
            for cap in BATTERY_SWEEP {
                for algo in WARM_ALGORITHMS {
                    distinct.push((s, cap, algo));
                }
            }
        }
        let request = |&(seed, cap, algorithm): &(u64, f64, ServiceAlgorithm)| PlanRequest {
            seed,
            capacity: Joules(cap),
            algorithm,
            engine: EngineMode::Lazy,
        };
        let mut requests = Vec::new();
        let mut key_of = Vec::new();
        for _ in 0..WARM_REPEAT {
            for (k, d) in distinct.iter().enumerate() {
                requests.push(request(d));
                key_of.push(k);
            }
        }
        let first_per_key = distinct
            .iter()
            .filter(|d| {
                d.1 == BATTERY_SWEEP[0]
                    && matches!(
                        d.2,
                        ServiceAlgorithm::Alg2 { .. } | ServiceAlgorithm::Benchmark
                    )
            })
            .map(request)
            .collect();
        let bases = seeds.iter().map(|&s| (s, instance(1.0, s))).collect();
        Warm {
            requests,
            key_of,
            distinct,
            bases,
            first_per_key,
        }
    }
}

/// Set-up artifacts the benchmark builds itself, outside the service.
struct Artifacts {
    cands: BTreeMap<(u64, u64), CandidateSet>,
    bench: BTreeMap<u64, BenchmarkSetup>,
}

impl Artifacts {
    fn get(&self, seed: u64, algo: Algo) -> (Option<&CandidateSet>, Option<&BenchmarkSetup>) {
        match algo.delta() {
            Some(d) => (self.cands.get(&(seed, d.to_bits())), None),
            None => (None, self.bench.get(&seed)),
        }
    }
}

fn warm_deltas() -> Vec<f64> {
    let mut d: Vec<f64> = WARM_ALGORITHMS
        .iter()
        .filter_map(|&a| Algo::of_service(a).delta())
        .collect();
    d.sort_by(f64::total_cmp);
    d.dedup();
    d
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        scale: 1.0,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        reuse_artifacts: true,
    }
}

/// One service batch checked against the references. Returns the batch
/// report when it ran.
fn warm_batch(
    w: &Warm,
    ck: &mut Checker,
    lat: &mut Vec<f64>,
) -> Option<uavdc_bench::service::BatchReport> {
    match guarded(|| run_batch(&service_config(), &w.requests)) {
        Err(p) => {
            ck.attempted += w.requests.len() as u64;
            for _ in &w.requests {
                ck.fail(format!("service batch panicked: {p}"));
            }
            None
        }
        Ok(batch) => {
            for (i, o) in batch.outcomes.iter().enumerate() {
                ck.attempted += 1;
                let key = w.key_of[i];
                if ck.recorded(key) == Some(o.plan_hash) {
                    lat.push(o.latency_ns as f64 / 1e6);
                } else {
                    ck.fail(format!(
                        "service request {i}: plan differs from reference {key}"
                    ));
                }
            }
            Some(batch)
        }
    }
}

fn run_warm(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let mut ck = Checker::default();
    let w = Warm::build(seed);
    check_golden(&GOLDEN_WARM, &mut ck);
    // One untraced pass plans every distinct request outside the service,
    // over artifacts built here, and checks the plans; the fingerprints it
    // records are what every service outcome must reproduce.
    warm_replay(&w, &mut ck, &mut Tracer::off(), &mut Counts::default(), 0.0);
    rep.notes.push(format!(
        "warm-service: {} requests per batch over {} distinct, {} threads",
        w.requests.len(),
        w.distinct.len(),
        service_config().threads
    ));
    if !trace {
        let set_up = || guarded(|| run_batch(&service_config(), &w.first_per_key).wall_ns);
        let mut setup = time_setup_batches(SETUP_REPS_WARM / 2 + 1, set_up, &mut ck);
        let mut lat = Vec::new();
        let mut wall_ns = 0u64;
        let started = Instant::now();
        let mut batches = 0;
        let mut peak_rss = f64::NAN;
        while batches == 0 || started.elapsed().as_secs_f64() < seconds {
            match warm_batch(&w, &mut ck, &mut lat) {
                Some(b) => wall_ns += b.wall_ns,
                None => break,
            }
            if batches == 0 {
                // Every artifact and per-request structure now exists;
                // later batches only add allocator fragmentation across
                // the worker threads' arenas, which grows the peak by a
                // varying 0.5–5 MB.
                peak_rss = peak_rss_mb();
            }
            batches += 1;
        }
        setup.extend(time_setup_batches(SETUP_REPS_WARM / 2, set_up, &mut ck));
        rep.notes.push(format!(
            "warm-service: {batches} batches; peak RSS {:.1} MB after the first, {:.1} MB at the end",
            peak_rss,
            peak_rss_mb()
        ));
        latency_metrics(&mut rep, lat, wall_ns as f64 / 1e9);
        rep.metric("setup_s", median(&setup), "s");
        rep.metric("peak_rss_mb", peak_rss, "MB");
        ok_and_quality(&mut rep, &ck, w.distinct.len());
        rep.finish(ck);
        return rep;
    }
    let batch = warm_batch(&w, &mut ck, &mut Vec::new());
    let plain = warm_replay(
        &w,
        &mut ck,
        &mut Tracer::off(),
        &mut Counts::default(),
        seconds * UNTRACED_SHARE,
    );
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let traced = warm_replay(
        &w,
        &mut ck,
        &mut tr,
        &mut counts,
        seconds * (1.0 - UNTRACED_SHARE),
    );
    for base in w.bases.values() {
        let (tour, m) = replay_christofides(&mut tr, &mut counts, base);
        ck.check_replay(&tour, &m);
    }
    let a = Analysis::of(tr.spans());
    layer_metrics(&mut rep, &a, &counts, &plain, &traced, &mut ck);
    service_metrics(&mut rep, batch.as_ref());
    isolation_warm_service(&a, &mut rep, &mut ck);
    isolation_matching(&a, &mut rep, &mut ck);
    write_spans(&tr, "warm-service", seed, &mut rep);
    rep.finish(ck);
    rep
}

/// A replay of the warm-service batch outside the service, one request at
/// a time: every artifact built once under a `setup` span, then each
/// distinct request's `plan_prepared` under its request span, cycled for
/// at least `seconds` and one pass. With [`Tracer::off`] it is the
/// reference pass and the untraced baseline of the tracing overhead.
fn warm_replay(
    w: &Warm,
    ck: &mut Checker,
    tr: &mut Tracer,
    counts: &mut Counts,
    seconds: f64,
) -> Latencies {
    let mut art = Artifacts {
        cands: BTreeMap::new(),
        bench: BTreeMap::new(),
    };
    tr.begin("setup");
    for (&seed, base) in &w.bases {
        for d in warm_deltas() {
            let c = traced_candidates(tr, counts, base, d);
            art.cands.insert((seed, d.to_bits()), c);
        }
        let b = tr.span("benchmark.setup", || BenchmarkSetup::build(base));
        art.bench.insert(seed, b);
    }
    tr.close_all();
    let mut lat = Vec::new();
    let started = Instant::now();
    let n = w.distinct.len();
    let mut i = 0;
    while i < n || started.elapsed().as_secs_f64() < seconds {
        let (seed, cap, algorithm) = w.distinct[i % n];
        let s = with_capacity(&w.bases[&seed], cap);
        let algo = Algo::of_service(algorithm);
        let (cands, bench) = art.get(seed, algo);
        let layer = match algo {
            Algo::Benchmark => "benchmark.prune",
            Algo::Alg3 { .. } => "alg3.plan_prepared",
            _ => "alg2.plan_prepared",
        };
        ck.attempted += 1;
        let t0 = Instant::now();
        tr.begin(algo.root());
        let res = guarded(|| {
            let (plan, c) = tr.span(layer, || plan_prepared(algo, &s, cands, bench));
            counts.add_greedy(algo, &c);
            tr.span("plan.validate", || plan.validate(&s))
                .map(|()| plan)
        });
        tr.close_all();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match res {
            Err(p) => ck.fail(format!("distinct request {}: panicked: {p}", i % n)),
            Ok(Err(e)) => ck.fail(format!("distinct request {}: invalid plan: {e:?}", i % n)),
            Ok(Ok(plan)) => {
                let agrees = tr.span("sim.simulate", || ck.agrees(&s, &plan));
                if ck.record(i % n, &plan, agrees) {
                    lat.push((i % n, ms));
                }
            }
        }
        i += 1;
    }
    lat
}

/// Wall time of each of `n` runs of `f`, seconds.
fn time_reps<R>(n: usize, f: impl Fn() -> R) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Wall times of `n` set-up batches, seconds.
fn time_setup_batches(
    n: usize,
    batch: impl Fn() -> Result<u64, String>,
    ck: &mut Checker,
) -> Vec<f64> {
    (0..n)
        .filter_map(|_| match batch() {
            Ok(ns) => Some(ns as f64 / 1e9),
            Err(p) => {
                ck.problem(format!("set-up batch panicked: {p}"));
                None
            }
        })
        .collect()
}

fn latency_metrics(rep: &mut Report, mut lat: Vec<f64>, wall_s: f64) {
    lat.sort_by(f64::total_cmp);
    let t = tail(&lat, TAIL_PERCENTILE);
    rep.metric("plan_ms_p50", percentile(&lat, 0.5), "ms");
    rep.metric("plan_ms_tail", t.value, "ms");
    rep.metric("plans_per_s", lat.len() as f64 / wall_s.max(1e-9), "1/s");
    rep.notes.push(format!(
        "plan_ms_tail is p{} over {} samples ({} beyond it)",
        t.percentile * 100.0,
        lat.len(),
        t.beyond
    ));
    let ladder: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .map(|&p| format!("p{} {:.3}", p * 100.0, percentile(&lat, p)))
        .collect();
    rep.notes.push(format!("latency ms: {}", ladder.join(", ")));
}

/// `ok_frac`, and `collected_gb` over the requests with keys below
/// `quality_keys`.
fn ok_and_quality(rep: &mut Report, ck: &Checker, quality_keys: usize) {
    let failed_frac = ck.failed as f64 / ck.attempted.max(1) as f64;
    rep.metric("ok_frac", 1.0 - failed_frac, "ratio");
    rep.metric("collected_gb", ck.mean_collected_gb(quality_keys), "GB");
    rep.notes.push(format!(
        "failed_frac = {failed_frac} ({} of {} requests)",
        ck.failed, ck.attempted
    ));
}

/// Tracing overhead: time of the traced requests over the time the same
/// requests took untraced, minus one. Requests are matched by key so that
/// the two phases' different request mixes do not count as overhead.
fn overhead(plain: &[(usize, f64)], traced: &[(usize, f64)]) -> (f64, f64, f64) {
    let mean_by_key = |v: &[(usize, f64)]| {
        let mut m: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for &(k, ms) in v {
            let e = m.entry(k).or_default();
            e.0 += ms;
            e.1 += 1.0;
        }
        m.into_iter()
            .map(|(k, (sum, n))| (k, sum / n))
            .collect::<BTreeMap<_, _>>()
    };
    let (p, t) = (mean_by_key(plain), mean_by_key(traced));
    let (sp, st) = t
        .iter()
        .filter_map(|(k, tv)| p.get(k).map(|pv| (pv, tv)))
        .fold((0.0, 0.0), |(a, b), (pv, tv)| (a + pv, b + tv));
    (st / sp - 1.0, sp, st)
}

/// Per-layer metrics of a traced run, from the spans, the per-call
/// counts, and the request latencies of the untraced and traced phases.
fn layer_metrics(
    rep: &mut Report,
    a: &Analysis,
    counts: &Counts,
    plain: &[(usize, f64)],
    traced: &[(usize, f64)],
    ck: &mut Checker,
) {
    let requests = a.request_ns.len().max(1) as f64;
    for layer in LAYERS {
        rep.metric(format!("{layer}_ms"), a.median_call_ms(layer), "ms");
        let self_ms = a.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        rep.metric(format!("{layer}.self_ms_per_req"), self_ms / requests, "ms");
    }
    for (name, unit) in COUNTS {
        rep.metric(name, counts.mean(name), unit);
    }
    let (overhead, plain_ms, traced_ms) = overhead(plain, traced);
    rep.metric("trace.overhead_frac", overhead, "ratio");
    rep.metric("trace.layer_gap_frac", a.gap_frac(), "ratio");
    rep.metric("trace.requests", a.request_ns.len() as f64, "count");
    rep.notes.push(format!(
        "tracing overhead: {traced_ms:.3} ms traced vs {plain_ms:.3} ms untraced over the same requests ({:+.2}%)",
        overhead * 100.0
    ));
    rep.notes.push(format!(
        "layer-sum: layer self times cover {:.3}% of traced request time (gap bound {}%)",
        (1.0 - a.gap_frac()) * 100.0,
        LAYER_GAP_BOUND * 100.0
    ));
    if a.gap_frac() > LAYER_GAP_BOUND {
        ck.problem(format!(
            "layer-sum: {:.2}% of request time lies outside every layer span",
            a.gap_frac() * 100.0
        ));
    }
}

/// `service.*` metrics from a batch; zeros where no service ran.
fn service_metrics(rep: &mut Report, batch: Option<&uavdc_bench::service::BatchReport>) {
    let (wall_ms, busy, hit) = batch.map_or((0.0, 0.0, 0.0), |b| {
        let busy_ns: u64 = b.outcomes.iter().map(|o| o.latency_ns).sum();
        let wall = b.wall_ns.max(1) as f64;
        (
            b.wall_ns as f64 / 1e6,
            busy_ns as f64 / (wall * b.threads as f64),
            b.cache_hits as f64 / b.outcomes.len().max(1) as f64,
        )
    });
    rep.metric("service.wall_ms", wall_ms, "ms");
    rep.metric("service.busy_frac", busy, "ratio");
    rep.metric("service.hit_ratio", hit, "ratio");
}

const CANDIDATE_LAYERS: [&str; 3] = [
    "candidates.build",
    "candidates.prune",
    "candidates.disjoint",
];

/// On `fine-grid` the candidate layers hold most of the request time.
fn isolation_fine_grid(a: &Analysis, rep: &mut Report, ck: &mut Checker) {
    let cand: u64 = a
        .request_total
        .keys()
        .flat_map(|root| CANDIDATE_LAYERS.iter().map(move |l| a.self_in(root, l)))
        .sum();
    let share = cand as f64 / a.request_total_ns().max(1) as f64;
    rep.notes.push(format!(
        "isolation: candidates.* hold {:.1}% of fine-grid request time",
        share * 100.0
    ));
    if share <= 0.5 {
        ck.problem(format!(
            "isolation: candidates.* hold only {:.1}% of fine-grid request time",
            share * 100.0
        ));
    }
}

/// Exact matching is the largest layer of the Benchmark set-up (the
/// artifact `warm-service` builds once per instance). The replayed
/// Christofides sub-layers stand in for the part of `benchmark.setup` they
/// reproduce; the rest of the set-up (coverage lists, reordering) is its
/// own entry.
fn isolation_matching(a: &Analysis, rep: &mut Report, ck: &mut Checker) {
    let graph = [
        "graph.matrix",
        "graph.mst",
        "graph.matching",
        "graph.euler",
        "graph.polish",
    ];
    let of = |l: &str| a.self_ns.get(l).copied().unwrap_or(0) as f64;
    let replay: f64 = graph.iter().map(|l| of(l)).sum();
    let mut layers: Vec<(&str, f64)> = graph.iter().map(|&l| (l, of(l))).collect();
    layers.push(("rest of benchmark.setup", of("benchmark.setup") - replay));
    layers.sort_by(|x, y| y.1.total_cmp(&x.1));
    let total = of("benchmark.setup").max(1.0);
    let shares: Vec<String> = layers
        .iter()
        .map(|(l, ns)| format!("{l} {:.1}%", ns / total * 100.0))
        .collect();
    rep.notes.push(format!(
        "isolation: Benchmark set-up by layer: {}",
        shares.join(", ")
    ));
    if layers.first().map(|l| l.0) != Some("graph.matching") {
        ck.problem(
            "isolation: graph.matching is not the largest layer of the Benchmark set-up".into(),
        );
    }
}

/// On `warm-service`, candidate generation happens only in set-up.
fn isolation_warm_service(a: &Analysis, rep: &mut Report, ck: &mut Checker) {
    let only_setup = CANDIDATE_LAYERS
        .iter()
        .filter_map(|l| a.roots_of.get(l))
        .all(|roots| roots == &["setup"]);
    let seen = a.roots_of.contains_key("candidates.build");
    rep.notes.push(format!(
        "isolation: candidates.* spans appear only under set-up: {}",
        only_setup && seen
    ));
    if !(only_setup && seen) {
        ck.problem("isolation: candidates.* ran outside warm-service set-up".into());
    }
}

fn write_spans(tr: &Tracer, name: &str, seed: u64, rep: &mut Report) {
    let path = format!(".planbench/trace-{name}-seed{seed}.jsonl");
    match tr.write_jsonl(Path::new(&path)) {
        Ok(()) => rep
            .notes
            .push(format!("{} spans written to {path}", tr.spans().len())),
        Err(e) => rep.notes.push(format!("could not write {path}: {e}")),
    }
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
