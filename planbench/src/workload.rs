//! The benchmark's workloads: request mixes, planning calls (plain and
//! traced), and the correctness checks every request passes through.
//!
//! * `fine-grid` — one closed-loop client, cold paper-scale requests,
//!   mostly Algorithms 2 and 3 at δ = 5 m. Candidate generation and
//!   dominance pruning do most of the work, the greedy loop little.
//! * `warm-service` — closed batches through `uavdc_bench::service`, whose
//!   artifact cache turns candidate generation and the Benchmark
//!   heuristic's Christofides tour into one-time set-up.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use uavdc_bench::service::ServiceAlgorithm;
use uavdc_core::{
    Alg1Config, Alg1Planner, Alg2Config, Alg2Planner, Alg3Config, Alg3Planner, AuxGraph,
    BenchmarkPlanner, BenchmarkSetup, CandidateSet, CollectionPlan, EngineMode, EvalCounters,
    HoverStop, Planner, TourMode,
};
use uavdc_graph::christofides::christofides;
use uavdc_graph::euler::{euler_circuit, shortcut_circuit};
use uavdc_graph::improve::two_opt;
use uavdc_graph::matching::min_weight_perfect_matching;
use uavdc_graph::mst::{odd_degree_vertices, prim_mst};
use uavdc_graph::{DistMatrix, Tour};
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_net::units::{megabytes_as_gb, Joules, Seconds};
use uavdc_net::{DeviceId, Scenario};
use uavdc_sim::{simulate, SimConfig};

use crate::trace::Tracer;

/// The paper's battery sweep, joules.
pub const BATTERY_SWEEP: [f64; 5] = [3.0e5, 4.5e5, 6.0e5, 7.5e5, 9.0e5];

/// A planner as a request names it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// Algorithm 2, FastInsertion with the lazy engine.
    Alg2 {
        /// Grid edge, metres.
        delta: f64,
    },
    /// Algorithm 2 in `TourMode::PaperChristofides`.
    Alg2Paper {
        /// Grid edge, metres.
        delta: f64,
    },
    /// Algorithm 3 with the lazy engine.
    Alg3 {
        /// Grid edge, metres.
        delta: f64,
        /// Sojourn partitions.
        k: usize,
    },
    /// Algorithm 1 with its default configuration.
    Alg1,
    /// The §VII.A Benchmark heuristic with the lazy pruning engine.
    Benchmark,
}

impl Algo {
    /// Name of the root span of this planner's requests.
    pub fn root(self) -> &'static str {
        match self {
            Algo::Alg2 { .. } => "request.alg2",
            Algo::Alg2Paper { .. } => "request.alg2-paper",
            Algo::Alg3 { .. } => "request.alg3",
            Algo::Alg1 => "request.alg1",
            Algo::Benchmark => "request.benchmark",
        }
    }

    /// The planner a service request runs.
    pub fn of_service(a: ServiceAlgorithm) -> Self {
        match a {
            ServiceAlgorithm::Alg2 { delta } => Algo::Alg2 { delta },
            ServiceAlgorithm::Alg3 { delta, k } => Algo::Alg3 { delta, k },
            ServiceAlgorithm::Benchmark => Algo::Benchmark,
        }
    }

    /// Grid edge of the candidate set this planner builds, if any.
    pub fn delta(self) -> Option<f64> {
        match self {
            Algo::Alg2 { delta } | Algo::Alg2Paper { delta } | Algo::Alg3 { delta, .. } => {
                Some(delta)
            }
            Algo::Alg1 => Some(Alg1Config::default().delta),
            Algo::Benchmark => None,
        }
    }

    fn alg2(self) -> Option<Alg2Planner> {
        let (delta, tour_mode) = match self {
            Algo::Alg2 { delta } => (delta, TourMode::FastInsertion),
            Algo::Alg2Paper { delta } => (delta, TourMode::PaperChristofides),
            _ => return None,
        };
        Some(Alg2Planner::new(Alg2Config {
            delta,
            tour_mode,
            ..Alg2Config::default()
        }))
    }

    fn alg3(self) -> Option<Alg3Planner> {
        match self {
            Algo::Alg3 { delta, k } => Some(Alg3Planner::new(Alg3Config {
                delta,
                k,
                ..Alg3Config::default()
            })),
            _ => None,
        }
    }
}

/// Generates the base instance with `seed` at `scale` of the paper's
/// setting (500 devices in a 1000 m square).
pub fn instance(scale: f64, seed: u64) -> Scenario {
    uniform(&ScenarioParams::default().scaled(scale), seed)
}

/// `base` with battery capacity `capacity` joules.
pub fn with_capacity(base: &Scenario, capacity: f64) -> Scenario {
    let mut s = base.clone();
    s.uav.capacity = Joules(capacity);
    s
}

/// SplitMix64: derives instance seeds from the run's seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Plans `s` through the planner's public cold entry point: every request
/// builds its own set-up.
pub fn plan_cold(algo: Algo, s: &Scenario) -> CollectionPlan {
    if let Some(p) = algo.alg2() {
        return p.plan_with_stats(s).0;
    }
    if let Some(p) = algo.alg3() {
        return p.plan_with_stats(s).0;
    }
    match algo {
        Algo::Benchmark => BenchmarkPlanner.plan_with_stats(s, EngineMode::Lazy).0,
        _ => Alg1Planner::default().plan(s),
    }
}

/// Plans `s` over prebuilt set-up artifacts, as the service does.
pub fn plan_prepared(
    algo: Algo,
    s: &Scenario,
    cands: Option<&CandidateSet>,
    bench: Option<&BenchmarkSetup>,
) -> (CollectionPlan, EvalCounters) {
    let (plan, stats) = if let Some(p) = algo.alg2() {
        p.plan_prepared(s, cands)
    } else if let Some(p) = algo.alg3() {
        p.plan_prepared(s, cands)
    } else {
        BenchmarkPlanner.plan_prepared(s, EngineMode::Lazy, bench)
    };
    (plan, stats.counters)
}

/// Per-call counts gathered in the traced run: sum and number of calls.
#[derive(Debug, Default)]
pub struct Counts(BTreeMap<&'static str, (f64, u64)>);

impl Counts {
    /// Adds one observation of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    /// Mean per call, 0 when never observed.
    pub fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
    }

    /// Records a planner's work counters.
    pub fn add_greedy(&mut self, algo: Algo, c: &EvalCounters) {
        if algo == Algo::Benchmark {
            self.add("benchmark.removals", c.iterations as f64);
            return;
        }
        self.add("greedy.iterations", c.iterations as f64);
        self.add("greedy.evaluations", c.evaluations as f64);
        self.add("greedy.tour_patches", c.tour_patches as f64);
        self.add("greedy.full_retours", c.full_retours as f64);
    }
}

/// Builds and prunes a candidate set in two layer spans.
pub fn traced_candidates(
    tr: &mut Tracer,
    counts: &mut Counts,
    s: &Scenario,
    delta: f64,
) -> CandidateSet {
    let mut c = tr.span("candidates.build", || CandidateSet::build(s, delta));
    let cells = c.len() as f64;
    tr.span("candidates.prune", || c.prune_dominated());
    counts.add("candidates.cells", cells);
    counts.add("candidates.kept", c.len() as f64);
    counts.add("candidates.kept_ratio", c.len() as f64 / cells.max(1.0));
    c
}

/// The cold path of a `fine-grid` request, broken into one span per public
/// call. Plans are bit-identical to [`plan_cold`]'s (the run checks each
/// fingerprint against the one recorded for the same request).
pub fn plan_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    algo: Algo,
    s: &Scenario,
) -> CollectionPlan {
    match algo {
        Algo::Alg1 => {
            let cfg = Alg1Config::default();
            let c = tr.span("candidates.build", || CandidateSet::build(s, cfg.delta));
            counts.add("candidates.cells", c.len() as f64);
            let c = tr.span("candidates.disjoint", || c.disjoint_by_volume(s));
            if c.is_empty() {
                return CollectionPlan::empty();
            }
            let aux = tr.span("auxgraph.build", || AuxGraph::build(s, &c));
            let sol = tr.span("orienteering.solve", || {
                uavdc_orienteering::solve(&aux.instance, cfg.backend)
            });
            counts.add("orienteering.tour_len", sol.tour.len() as f64);
            tr.span("alg1.stitch", || stitch(s, &c, &sol.tour))
        }
        Algo::Benchmark => {
            unreachable!("only warm-service plans Benchmark requests, over prepared set-ups")
        }
        _ => {
            let delta = algo.delta().unwrap_or_default();
            let c = traced_candidates(tr, counts, s, delta);
            let name = match algo {
                Algo::Alg3 { .. } => "alg3.plan_prepared",
                Algo::Alg2Paper { .. } => "alg2-paper.plan_prepared",
                _ => "alg2.plan_prepared",
            };
            let (plan, c) = tr.span(name, || plan_prepared(algo, s, Some(&c), None));
            counts.add_greedy(algo, &c);
            plan
        }
    }
}

/// Algorithm 1's last step: materialises the orienteering tour as a plan,
/// collecting each device in full at the first tour stop that covers it.
/// `Alg1Planner` does this internally; the run checks that the traced
/// decomposition reproduces its plans bit for bit.
fn stitch(s: &Scenario, c: &CandidateSet, tour: &[usize]) -> CollectionPlan {
    let b = s.radio.bandwidth;
    let mut collected = vec![false; s.num_devices()];
    let stops = tour
        .iter()
        .skip(1)
        .map(|&vertex| {
            let cand = &c.candidates[vertex - 1];
            let mut sojourn = Seconds::ZERO;
            let mut got = Vec::new();
            for &v in &cand.covered {
                if !std::mem::replace(&mut collected[v as usize], true) {
                    let data = s.devices[v as usize].data;
                    sojourn = sojourn.max(data / b);
                    got.push((DeviceId(v), data));
                }
            }
            HoverStop {
                pos: cand.pos,
                sojourn,
                collected: got,
            }
        })
        .collect();
    CollectionPlan { stops }
}

/// Replays the Christofides construction `BenchmarkSetup::build` runs over
/// the depot and every device, one span per sub-layer, under a `replay`
/// root. Returns the replayed tour and the distance matrix it used.
pub fn replay_christofides(
    tr: &mut Tracer,
    counts: &mut Counts,
    s: &Scenario,
) -> (Tour, DistMatrix) {
    let root = tr.begin("replay");
    let mut pts = vec![s.depot];
    pts.extend(s.device_positions());
    let n = pts.len();
    let m = tr.span("graph.matrix", || {
        DistMatrix::from_fn(n, |i, j| pts[i].distance(pts[j]))
    });
    let (mut edges, odd) = tr.span("graph.mst", || {
        let mst = prim_mst(&m);
        let odd = odd_degree_vertices(n, &mst.edges);
        (mst.edges, odd)
    });
    counts.add("graph.odd_vertices", odd.len() as f64);
    tr.span("graph.matching", || {
        let matching = min_weight_perfect_matching(&m.submatrix(&odd));
        edges.extend(matching.edges().into_iter().map(|(a, b)| (odd[a], odd[b])));
    });
    let order = tr.span("graph.euler", || {
        let circuit = euler_circuit(n, &edges, 0)
            .expect("the MST plus a perfect matching of its odd vertices is Eulerian");
        shortcut_circuit(&circuit)
    });
    let mut tour = Tour::new(order);
    tr.span("graph.polish", || two_opt(&mut tour, &m));
    tr.end(root);
    (tour, m)
}

/// Checks every plan a run produces and remembers what it saw.
pub struct Checker {
    sim: SimConfig,
    recorded: BTreeMap<usize, u64>,
    collected_gb: BTreeMap<usize, f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that panicked, failed validation, disagreed with the
    /// simulator, or changed fingerprint.
    pub failed: u64,
    /// Failed run-level checks and the first failed requests, for the log.
    pub problems: Vec<String>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            sim: SimConfig {
                record_uploads: false,
                ..SimConfig::default()
            },
            recorded: BTreeMap::new(),
            collected_gb: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }
}

impl Checker {
    /// Records a failed request.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Records a failed run-level check.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Does the simulator's calm, plan-strict flight of `plan` agree with
    /// the plan's own accounting?
    pub fn agrees(&self, s: &Scenario, plan: &CollectionPlan) -> bool {
        simulate(s, plan, &self.sim).agrees_with_plan(plan, s)
    }

    /// Records the checks of a validated plan for request `key`: the
    /// simulator must have agreed with it, and its fingerprint must equal
    /// the one recorded the first time the request completed.
    pub fn record(&mut self, key: usize, plan: &CollectionPlan, agrees: bool) -> bool {
        if !agrees {
            self.fail(format!("request {key}: simulation disagrees with the plan"));
            return false;
        }
        let fp = plan.fingerprint();
        if *self.recorded.entry(key).or_insert(fp) != fp {
            self.fail(format!("request {key}: plan fingerprint changed"));
            return false;
        }
        self.collected_gb
            .entry(key)
            .or_insert_with(|| megabytes_as_gb(plan.collected_volume()));
        true
    }

    /// [`Checker::agrees`] then [`Checker::record`].
    pub fn verify(&mut self, key: usize, s: &Scenario, plan: &CollectionPlan) -> bool {
        let agrees = self.agrees(s, plan);
        self.record(key, plan, agrees)
    }

    /// Fingerprint recorded for request `key`.
    pub fn recorded(&self, key: usize) -> Option<u64> {
        self.recorded.get(&key).copied()
    }

    /// Mean collected volume over the requests with keys below `keys`, GB.
    pub fn mean_collected_gb(&self, keys: usize) -> f64 {
        let v: Vec<f64> = self.collected_gb.range(..keys).map(|(_, &gb)| gb).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Replay-fidelity check: the replayed tour must be the one
    /// `uavdc_graph::christofides::christofides` builds on the same matrix,
    /// or the `graph.*` numbers describe a different computation.
    pub fn check_replay(&mut self, tour: &Tour, m: &DistMatrix) {
        if christofides(m).order() != tour.order() {
            self.problem(
                "replay fidelity: the Christofides replay differs from christofides()".into(),
            );
        }
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}
