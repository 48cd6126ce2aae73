//! In-memory span tracing from the benchmark's own code.
//!
//! The traced run breaks each request into calls of the layers' public
//! functions and records one span per call: name, start, end and parent.
//! Nothing inside the program is instrumented; a span covers exactly one
//! public call made here. Spans stay in memory until the run ends, then
//! [`Tracer::write_jsonl`] writes them out.
//!
//! Root spans name what caused the work: `request.<planner>` for a
//! request's blocking path, `setup` for one-time work, `replay` for the
//! Christofides replay (off the blocking path), and `sim.simulate` for the
//! correctness check. Every other span is a layer.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer (or root) name.
    pub name: &'static str,
    /// Enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; spans must close in the order they opened.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing: the same loop runs untraced.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every open span (after a panic unwound through them).
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// All spans recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Is `name` the root of a request's blocking path?
fn is_request(name: &str) -> bool {
    name.starts_with("request.")
}

fn is_layer(name: &str) -> bool {
    !is_request(name) && name != "setup" && name != "replay"
}

/// Per-layer and per-request figures derived from a span list.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Duration of every call per layer, nanoseconds.
    pub calls: BTreeMap<&'static str, Vec<u64>>,
    /// Total self time per layer, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Total self time per layer within requests of each root name.
    pub self_in_request: BTreeMap<(&'static str, &'static str), u64>,
    /// Layers seen under each root name.
    pub roots_of: BTreeMap<&'static str, Vec<&'static str>>,
    /// Duration of every request root, nanoseconds.
    pub request_ns: Vec<u64>,
    /// Total request time per request root name, nanoseconds.
    pub request_total: BTreeMap<&'static str, u64>,
    /// Request time no layer span covers, summed over requests.
    pub gap_ns: u64,
}

impl Analysis {
    /// Derives self times, per-call durations and request gaps. A span's
    /// self time is its duration minus its children's durations (children
    /// lie inside their parent because spans nest strictly).
    pub fn of(spans: &[SpanRec]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let root_of = |mut i: usize| {
            while let Some(p) = spans[i].parent {
                i = p;
            }
            spans[i].name
        };
        let mut a = Analysis::default();
        for (i, s) in spans.iter().enumerate() {
            let own = s.duration_ns() - child_ns[i];
            if is_request(s.name) && s.parent.is_none() {
                a.request_ns.push(s.duration_ns());
                *a.request_total.entry(s.name).or_default() += s.duration_ns();
                a.gap_ns += own;
            }
            if !is_layer(s.name) {
                continue;
            }
            let root = root_of(i);
            a.calls.entry(s.name).or_default().push(s.duration_ns());
            *a.self_ns.entry(s.name).or_default() += own;
            let roots = a.roots_of.entry(s.name).or_default();
            if !roots.contains(&root) {
                roots.push(root);
            }
            if is_request(root) {
                *a.self_in_request.entry((root, s.name)).or_default() += own;
            }
        }
        a
    }

    /// Sum of all request durations, nanoseconds.
    pub fn request_total_ns(&self) -> u64 {
        self.request_ns.iter().sum()
    }

    /// Share of request time that no layer span accounts for.
    pub fn gap_frac(&self) -> f64 {
        self.gap_ns as f64 / self.request_total_ns().max(1) as f64
    }

    /// Median duration of one call of `layer`, milliseconds (0 when the
    /// layer was never called).
    pub fn median_call_ms(&self, layer: &str) -> f64 {
        self.calls.get(layer).map_or(0.0, |v| {
            let ms: Vec<f64> = v.iter().map(|&ns| ns as f64 / 1e6).collect();
            crate::stats::median(&ms)
        })
    }

    /// Self time of `layer` summed over requests of root `root`.
    pub fn self_in(&self, root: &str, layer: &str) -> u64 {
        self.self_in_request
            .iter()
            .filter(|((r, l), _)| *r == root && *l == layer)
            .map(|(_, &ns)| ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_gap_is_request_self_time() {
        let spans = vec![
            span("request.alg2", None, 0, 100),
            span("candidates.build", Some(0), 5, 45),
            span("alg2.plan_prepared", Some(0), 45, 95),
            span("replay", None, 100, 130),
            span("graph.mst", Some(3), 100, 110),
            span("sim.simulate", None, 130, 134),
        ];
        let a = Analysis::of(&spans);
        assert_eq!(a.request_ns, vec![100]);
        assert_eq!(a.gap_ns, 10);
        assert!((a.gap_frac() - 0.1).abs() < 1e-12);
        assert_eq!(a.self_ns["candidates.build"], 40);
        assert_eq!(a.self_in("request.alg2", "alg2.plan_prepared"), 50);
        assert_eq!(a.roots_of["graph.mst"], vec!["replay"]);
        assert_eq!(a.roots_of["sim.simulate"], vec!["sim.simulate"]);
        assert!(!a.calls.contains_key("replay"));
        assert_eq!(a.median_call_ms("graph.euler"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        let root = t.begin("request.alg2");
        let x = t.span("candidates.build", || 7);
        t.end(root);
        assert_eq!(x, 7);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
