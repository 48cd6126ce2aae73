//! Batch planning service: thousands of independent planning requests,
//! sharded across threads, sharing per-instance setup artifacts.
//!
//! A [`PlanRequest`] names an instance (generator seed at the batch's
//! scale), a battery capacity, an algorithm, and an engine. [`run_batch`]
//! executes a whole batch with the `chunked_map_with` helpers from
//! `uavdc-core` and reuses the capacity-independent setup work across
//! requests through two [`ArtifactCache`]s keyed by
//! [`Scenario::layout_fingerprint`]-derived hashes:
//!
//! * built **and pruned** [`CandidateSet`]s, keyed by (layout, `δ`) —
//!   shared by Algorithm 2 and Algorithm 3 requests;
//! * [`BenchmarkSetup`]s (coverage lists + the initial Christofides
//!   tour), keyed by layout — shared by benchmark requests.
//!
//! The cache is *invisible* to plan output: artifacts are exactly what
//! the cold path would rebuild, and the planners' `plan_prepared_obs`
//! entries run the same instructions either way, so cached and cold
//! batches produce bit-identical plans and identical deterministic
//! counters at any thread count (property-tested in
//! `tests/service_cache_invisibility.rs`). Outcomes are returned in
//! request order regardless of how chunks interleave.
//!
//! Concurrency discipline (scanned clean by `uavdc-lint` v4): worker
//! closures are pure — they read shared state (`Arc`'d scenarios, cache
//! lookups) and return values; the coordinator alone publishes artifacts,
//! in deterministic key order, before the execution phase starts. A
//! worker that ever misses the cache rebuilds the artifact locally
//! without publishing it, so a cache miss can change timing but never
//! output.
//!
//! Throughput is reported as plans/sec over the batch wall clock plus
//! p50/p99 of per-request planner latency (`PlanStats::total_ns`, the
//! planners' own set-up and loop spans), both carried in a `uavdc-obs`
//! [`RunReport`] alongside the deterministic `service.*` counters.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use uavdc_core::cache::ArtifactCache;
use uavdc_core::greedy::{chunked_map_with, num_threads};
use uavdc_core::{
    Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, BenchmarkPlanner, BenchmarkSetup,
    CandidateSet, EngineMode,
};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::Joules;
use uavdc_net::Scenario;
use uavdc_obs::{CollectingRecorder, Histogram, Recorder, RunReport};

/// Which planner a request runs (the engine-aware roster; Algorithm 1
/// plans by orienteering reduction and has no lazy/exhaustive split).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceAlgorithm {
    /// Algorithm 2 with grid edge `δ`.
    Alg2 {
        /// Grid edge length, metres.
        delta: f64,
    },
    /// Algorithm 3 with grid edge `δ` and `K` sojourn partitions.
    Alg3 {
        /// Grid edge length, metres.
        delta: f64,
        /// Sojourn partitions.
        k: usize,
    },
    /// The pruning benchmark (no parameters).
    Benchmark,
}

impl ServiceAlgorithm {
    /// Legend label, matching the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceAlgorithm::Alg2 { .. } => "Algorithm 2",
            ServiceAlgorithm::Alg3 { k: 2, .. } => "Algorithm 3 (K=2)",
            ServiceAlgorithm::Alg3 { k: 4, .. } => "Algorithm 3 (K=4)",
            ServiceAlgorithm::Alg3 { .. } => "Algorithm 3",
            ServiceAlgorithm::Benchmark => "Benchmark",
        }
    }

    /// The grid edge `δ` of candidate-grid algorithms, `None` for the
    /// benchmark (which plans over device positions directly).
    fn delta(&self) -> Option<f64> {
        match *self {
            ServiceAlgorithm::Alg2 { delta } | ServiceAlgorithm::Alg3 { delta, .. } => Some(delta),
            ServiceAlgorithm::Benchmark => None,
        }
    }
}

/// One independent planning request.
#[derive(Clone, Copy, Debug)]
pub struct PlanRequest {
    /// Instance generator seed (at the batch's scale).
    pub seed: u64,
    /// Battery capacity `E` for this request.
    pub capacity: Joules,
    /// Planner to run.
    pub algorithm: ServiceAlgorithm,
    /// Evaluation engine.
    pub engine: EngineMode,
}

/// Batch-wide settings.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Instance scale in `(0, 1]` (see `HarnessConfig::scale`).
    pub scale: f64,
    /// Worker threads; `0` resolves to `uavdc_core::greedy::num_threads()`.
    pub threads: usize,
    /// Share setup artifacts across requests. `false` is the cold
    /// reference: every request rebuilds its own setup (bit-identical
    /// output, more work).
    pub reuse_artifacts: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            scale: 1.0,
            threads: 0,
            reuse_artifacts: true,
        }
    }
}

/// Deterministic result of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestOutcome {
    /// FNV-1a fingerprint of the produced plan.
    pub plan_hash: u64,
    /// Candidate count the planner worked with (initial tour stops for
    /// the benchmark).
    pub candidates: usize,
    /// Greedy/pruning iterations.
    pub iterations: u64,
    /// Candidate evaluations performed.
    pub evaluations: u64,
    /// Incremental tour patches applied (Algorithm 2's fast-insertion
    /// maintenance; 0 for planners that never patch a tour).
    pub tour_patches: u64,
    /// Full Christofides rebuilds (Algorithm 2's paper mode; 0
    /// elsewhere).
    pub full_retours: u64,
    /// Planner-measured latency: `PlanStats::total_ns` (timing — the one
    /// nondeterministic field).
    pub latency_ns: u64,
}

/// Everything [`run_batch`] measured.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in request order.
    pub outcomes: Vec<RequestOutcome>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Distinct instances (seeds) in the batch.
    pub unique_instances: usize,
    /// Requests served from a shared artifact (beyond its first build).
    pub cache_hits: u64,
    /// Artifacts built and published by the warm-up phase.
    pub cache_misses: u64,
    /// Batch wall clock, nanoseconds (scenario generation + warm-up +
    /// execution).
    pub wall_ns: u64,
    /// Requests per wall-clock second.
    pub plans_per_sec: f64,
    /// Median per-request planner latency (log2-bucket resolution).
    pub p50_latency_ns: u64,
    /// 99th-percentile per-request planner latency.
    pub p99_latency_ns: u64,
    /// `service.*` counters plus the latency histogram as a `uavdc-obs`
    /// report.
    pub report: RunReport,
}

/// Cache key of a pruned candidate set: instance layout × grid edge.
fn candidate_key(layout_fp: u64, delta: f64) -> u64 {
    fnv_words(&[layout_fp, delta.to_bits(), 0xca4d])
}

/// Cache key of a benchmark setup: instance layout only.
fn benchmark_key(layout_fp: u64) -> u64 {
    fnv_words(&[layout_fp, 0xbe4c])
}

/// FNV-1a over a word sequence (the workspace's fingerprint primitive).
fn fnv_words(words: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Runs one request against its base scenario and (possibly cached)
/// setup artifacts. `cand`/`bench` are `None` on a cache miss or in cold
/// mode — the planner then rebuilds setup itself, which is the same
/// computation.
fn run_one(
    req: &PlanRequest,
    base: &Scenario,
    cand: Option<&CandidateSet>,
    bench: Option<&BenchmarkSetup>,
) -> RequestOutcome {
    let mut scenario = base.clone();
    scenario.uav.capacity = req.capacity;
    let (plan, stats) = match req.algorithm {
        ServiceAlgorithm::Alg2 { delta } => Alg2Planner::new(Alg2Config {
            delta,
            engine: req.engine,
            ..Alg2Config::default()
        })
        .plan_prepared(&scenario, cand),
        ServiceAlgorithm::Alg3 { delta, k } => Alg3Planner::new(Alg3Config {
            delta,
            k,
            engine: req.engine,
            ..Alg3Config::default()
        })
        .plan_prepared(&scenario, cand),
        ServiceAlgorithm::Benchmark => BenchmarkPlanner.plan_prepared(&scenario, req.engine, bench),
    };
    RequestOutcome {
        plan_hash: plan.fingerprint(),
        candidates: stats.counters.candidates,
        iterations: stats.counters.iterations,
        evaluations: stats.counters.evaluations,
        tour_patches: stats.counters.tour_patches,
        full_retours: stats.counters.full_retours,
        latency_ns: stats.total_ns(),
    }
}

/// Executes a request batch and reports outcomes plus throughput.
///
/// Three phases, each sharded with `chunked_map_with` (chunk-ordered
/// deterministic merge): generate the distinct base scenarios; build the
/// distinct missing artifacts (warm-up — skipped when
/// `cfg.reuse_artifacts` is off); execute every request against the
/// warmed caches. Worker closures only read shared state; all cache
/// publication happens on the coordinator between phases, in key order.
pub fn run_batch(cfg: &ServiceConfig, requests: &[PlanRequest]) -> BatchReport {
    let threads = if cfg.threads == 0 {
        num_threads()
    } else {
        cfg.threads
    };
    let started = Instant::now();
    let params = ScenarioParams::default().scaled(cfg.scale);

    // Phase 1: distinct base scenarios (capacity is applied per request,
    // so one scenario per seed suffices).
    let seeds: Vec<u64> = {
        let set: std::collections::BTreeSet<u64> = requests.iter().map(|r| r.seed).collect();
        set.into_iter().collect()
    };
    let built = chunked_map_with(&seeds, threads, |&seed| Arc::new(uniform(&params, seed)));
    let scenarios: BTreeMap<u64, Arc<Scenario>> = seeds.iter().copied().zip(built).collect();
    let layout_of: BTreeMap<u64, u64> = scenarios
        .iter()
        .map(|(&seed, s)| (seed, s.layout_fingerprint()))
        .collect();

    // Phase 2: warm the artifact caches with every key the batch needs,
    // building distinct artifacts in parallel and publishing them from
    // this coordinator thread in deterministic key order.
    let cand_cache: ArtifactCache<CandidateSet> = ArtifactCache::new();
    let bench_cache: ArtifactCache<BenchmarkSetup> = ArtifactCache::new();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    if cfg.reuse_artifacts {
        let mut cand_jobs: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        let mut bench_jobs: BTreeMap<u64, u64> = BTreeMap::new();
        for req in requests {
            let Some(&layout) = layout_of.get(&req.seed) else {
                continue; // unreachable: layout_of covers every request seed
            };
            match req.algorithm.delta() {
                Some(delta) => {
                    let key = candidate_key(layout, delta);
                    if cand_jobs.insert(key, (req.seed, delta)).is_some() {
                        cache_hits += 1;
                    }
                }
                None => {
                    let key = benchmark_key(layout);
                    if bench_jobs.insert(key, req.seed).is_some() {
                        cache_hits += 1;
                    }
                }
            }
        }
        cache_misses = (cand_jobs.len() + bench_jobs.len()) as u64;
        let cand_list: Vec<(u64, u64, f64)> = cand_jobs
            .into_iter()
            .map(|(key, (seed, delta))| (key, seed, delta))
            .collect();
        let cand_built = chunked_map_with(&cand_list, threads, |&(_, seed, delta)| {
            scenarios
                .get(&seed)
                .map(|s| CandidateSet::build_pruned(s, delta))
        });
        for ((key, _, _), artifact) in cand_list.iter().zip(cand_built) {
            if let Some(a) = artifact {
                cand_cache.insert(*key, a);
            }
        }
        let bench_list: Vec<(u64, u64)> = bench_jobs.into_iter().collect();
        let bench_built = chunked_map_with(&bench_list, threads, |&(_, seed)| {
            scenarios.get(&seed).map(|s| BenchmarkSetup::build(s))
        });
        for ((key, _), artifact) in bench_list.iter().zip(bench_built) {
            if let Some(a) = artifact {
                bench_cache.insert(*key, a);
            }
        }
    }

    // Phase 3: execute every request. Workers read the warmed caches
    // concurrently (an `Arc` clone per hit); a miss — cold mode, or a
    // seed the warm-up somehow skipped — rebuilds locally without
    // publishing, so it is slower but bit-identical.
    let outcomes = chunked_map_with(requests, threads, |req| {
        let fallback;
        let base = match scenarios.get(&req.seed) {
            Some(s) => s,
            None => {
                fallback = Arc::new(uniform(&params, req.seed));
                &fallback
            }
        };
        let layout = base.layout_fingerprint();
        match req.algorithm.delta() {
            Some(delta) => {
                let local;
                let cand = match cand_cache.get(candidate_key(layout, delta)) {
                    Some(a) => a,
                    None => {
                        local = Arc::new(CandidateSet::build_pruned(base, delta));
                        local
                    }
                };
                run_one(req, base, Some(&cand), None)
            }
            None => {
                let local;
                let bench = match bench_cache.get(benchmark_key(layout)) {
                    Some(a) => a,
                    None => {
                        local = Arc::new(BenchmarkSetup::build(base));
                        local
                    }
                };
                run_one(req, base, None, Some(&bench))
            }
        }
    });

    // Aggregate on the coordinator: latency percentiles at log2-bucket
    // resolution, throughput over the batch wall clock, and the obs
    // report carrying both next to the deterministic service counters.
    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut latency = Histogram::new();
    for o in &outcomes {
        latency.record(o.latency_ns);
    }
    let p50_latency_ns = latency.percentile(0.50);
    let p99_latency_ns = latency.percentile(0.99);
    let plans_per_sec = outcomes.len() as f64 / (wall_ns.max(1) as f64 / 1e9);
    let rec = CollectingRecorder::new();
    rec.add("service.requests", outcomes.len() as u64);
    rec.add("service.unique_instances", scenarios.len() as u64);
    rec.add("service.threads", threads as u64);
    rec.add("service.cache_hits", cache_hits);
    rec.add("service.cache_misses", cache_misses);
    for o in &outcomes {
        rec.observe("service.latency_ns", o.latency_ns);
    }
    BatchReport {
        threads,
        unique_instances: scenarios.len(),
        cache_hits,
        cache_misses,
        wall_ns,
        plans_per_sec,
        p50_latency_ns,
        p99_latency_ns,
        report: rec.report(),
        outcomes,
    }
}

/// The standard request grid the `service_baseline` artifact commits:
/// every seed × the paper's battery sweep × the engine-aware roster
/// (δ = 10 m) × both engines, replicated `repeat` times (replicas model
/// independent clients asking for the same plan — pure cache hits).
pub fn standard_grid(seeds: &[u64], repeat: usize) -> Vec<PlanRequest> {
    let algorithms = [
        ServiceAlgorithm::Alg2 { delta: 10.0 },
        ServiceAlgorithm::Alg3 { delta: 10.0, k: 2 },
        ServiceAlgorithm::Alg3 { delta: 10.0, k: 4 },
        ServiceAlgorithm::Benchmark,
    ];
    let mut out = Vec::new();
    for _ in 0..repeat.max(1) {
        for &seed in seeds {
            for &e in &crate::energy_sweep() {
                for &algorithm in &algorithms {
                    for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
                        out.push(PlanRequest {
                            seed,
                            capacity: Joules(e),
                            algorithm,
                            engine,
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_batch() -> Vec<PlanRequest> {
        let mut reqs = Vec::new();
        for seed in [11u64, 12] {
            for cap in [3.0e5, 6.0e5] {
                for algorithm in [
                    ServiceAlgorithm::Alg2 { delta: 20.0 },
                    ServiceAlgorithm::Alg3 { delta: 20.0, k: 2 },
                    ServiceAlgorithm::Benchmark,
                ] {
                    for engine in [EngineMode::Lazy, EngineMode::Exhaustive] {
                        reqs.push(PlanRequest {
                            seed,
                            capacity: Joules(cap),
                            algorithm,
                            engine,
                        });
                    }
                }
            }
        }
        reqs
    }

    fn cfg(reuse: bool, threads: usize) -> ServiceConfig {
        ServiceConfig {
            scale: 0.05,
            threads,
            reuse_artifacts: reuse,
        }
    }

    #[test]
    fn cached_equals_cold_bit_for_bit() {
        let reqs = tiny_batch();
        let warm = run_batch(&cfg(true, 2), &reqs);
        let cold = run_batch(&cfg(false, 2), &reqs);
        assert_eq!(warm.outcomes.len(), reqs.len());
        for (i, (w, c)) in warm.outcomes.iter().zip(&cold.outcomes).enumerate() {
            assert_eq!(w.plan_hash, c.plan_hash, "request {i}");
            assert_eq!(w.evaluations, c.evaluations, "request {i}");
            assert_eq!(w.iterations, c.iterations, "request {i}");
            assert_eq!(w.candidates, c.candidates, "request {i}");
        }
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 0);
    }

    #[test]
    fn cache_accounting_is_deterministic() {
        let reqs = tiny_batch();
        let report = run_batch(&cfg(true, 1), &reqs);
        // 2 seeds × {candidates@δ20, benchmark setup} = 4 distinct
        // artifacts; every other request shares one.
        assert_eq!(report.cache_misses, 4);
        assert_eq!(report.cache_hits, reqs.len() as u64 - 4);
        assert_eq!(report.unique_instances, 2);
        assert_eq!(report.report.counter("service.cache_misses"), 4);
        assert_eq!(report.report.counter("service.requests"), reqs.len() as u64);
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let reqs = tiny_batch();
        let one = run_batch(&cfg(true, 1), &reqs);
        let four = run_batch(&cfg(true, 4), &reqs);
        let det = |r: &BatchReport| -> Vec<(u64, usize, u64, u64)> {
            r.outcomes
                .iter()
                .map(|o| (o.plan_hash, o.candidates, o.iterations, o.evaluations))
                .collect()
        };
        assert_eq!(det(&one), det(&four));
        assert_eq!(one.cache_hits, four.cache_hits);
        assert_eq!(one.cache_misses, four.cache_misses);
    }

    #[test]
    fn percentiles_come_from_recorded_latencies() {
        let reqs = tiny_batch();
        let report = run_batch(&cfg(true, 2), &reqs);
        let hist = report
            .report
            .histograms
            .iter()
            .find(|h| h.name == "service.latency_ns")
            .expect("latency histogram recorded");
        assert_eq!(hist.count, reqs.len() as u64);
        assert_eq!(hist.percentile(0.50), report.p50_latency_ns);
        assert_eq!(hist.percentile(0.99), report.p99_latency_ns);
        assert!(report.p50_latency_ns <= report.p99_latency_ns);
        assert!(report.plans_per_sec > 0.0);
    }

    #[test]
    fn standard_grid_shape() {
        let grid = standard_grid(&[1, 2], 3);
        // 3 repeats × 2 seeds × 5 capacities × 4 algorithms × 2 engines.
        assert_eq!(grid.len(), 3 * 2 * 5 * 4 * 2);
    }
}
