//! In-memory spans recorded by the benchmark around its calls into each
//! layer, reduced to per-layer self times and written out at exit as a
//! Chrome trace through `pst_perf::chrome_trace`.

use std::collections::BTreeMap;
use std::time::Instant;

use pst_obs::json::Json;

use crate::stats::Pass;
use crate::{trace_dir, Report};

/// One recorded span.
struct Span {
    op: u64,
    layer: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// Spans kept in memory; operations that start past the cap go untraced,
/// which bounds a fast pass's memory and trace file.
const MAX_SPANS: usize = 60_000;

/// A span recorder; when disabled every call is a no-op, so the untraced
/// pass runs the same code without the bookkeeping.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// One layer's share of a traced pass.
pub struct LayerTime {
    pub layer: &'static str,
    /// Self time summed over the pass, in ns.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` for operation `op` under `parent`.
    pub fn begin(&mut self, op: u64, layer: &'static str, parent: Option<SpanId>) -> SpanId {
        let untraced_parent = matches!(parent, Some(SpanId(None)));
        let full = parent.is_none() && self.spans.len() >= MAX_SPANS;
        if !self.enabled || untraced_parent || full {
            return SpanId(None);
        }
        let start = self.now();
        self.spans.push(Span {
            op,
            layer,
            parent: parent.and_then(|p| p.0),
            start,
            end: start,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.now();
        }
    }

    /// Appends another recorder's spans (started no earlier than this
    /// one), shifted onto this recorder's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start: s.start + shift,
            end: s.end + shift,
            ..s
        }));
    }

    /// Number of distinct operations with a root span.
    pub fn ops(&self) -> usize {
        let mut ops: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.op)
            .collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Self time per layer: each span's duration minus the part its
    /// direct children cover, summed by layer name.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *by_layer.entry(s.layer).or_default() += (s.end - s.start).saturating_sub(covered);
        }
        by_layer
            .into_iter()
            .map(|(layer, self_ns)| LayerTime { layer, self_ns })
            .collect()
    }

    /// The spans as a Chrome trace (one complete event per span, the op
    /// id in the event name's suffix), validated before it is returned.
    pub fn chrome_trace(&self) -> Result<Json, String> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn node(spans: &[Span], children: &[Vec<usize>], i: usize) -> Json {
            let s = &spans[i];
            Json::obj([
                ("name", Json::Str(format!("{}#{}", s.layer, s.op))),
                ("count", Json::UInt(1)),
                ("nanos", Json::UInt(s.end - s.start)),
                ("start_nanos", Json::UInt(s.start)),
                (
                    "children",
                    Json::Arr(
                        children[i]
                            .iter()
                            .map(|&c| node(spans, children, c))
                            .collect(),
                    ),
                ),
            ])
        }
        let obs = Json::obj([(
            "spans",
            Json::Arr(
                roots
                    .iter()
                    .map(|&r| node(&self.spans, &children, r))
                    .collect(),
            ),
        )]);
        let trace = pst_perf::chrome_trace(&obs).map_err(|e| e.to_string())?;
        pst_perf::validate_chrome_trace(&trace).map_err(|e| e.to_string())?;
        Ok(trace)
    }
}

/// Per-layer self times of a traced pass against the untraced pass:
/// `<workload>.<layer>.self_ms` (mean per operation), `.self_share`,
/// `.trace.overhead_ratio` (untraced over traced throughput) and
/// `.trace.reconcile_gap` (the latency-path layers' self times summed,
/// against the untraced mean latency).
pub fn span_metrics(
    report: &mut Report,
    workload: &str,
    tracer: &Tracer,
    latency_layers: &[&str],
    untraced: &Pass,
    traced: &Pass,
) -> Result<(), String> {
    let untraced_mean_ms = untraced.mean_latency_ms();
    let ops = tracer.ops().max(1) as f64;
    let layers = tracer.layer_times();
    let total: u64 = layers.iter().map(|l| l.self_ns).sum();
    let mut path_ms = 0.0;
    for l in &layers {
        let self_ms = l.self_ns as f64 / 1e6 / ops;
        if latency_layers.contains(&l.layer) {
            path_ms += self_ms;
        }
        report.layer(format!("{workload}.{}.self_ms", l.layer), self_ms, "ms");
        report.layer(
            format!("{workload}.{}.self_share", l.layer),
            l.self_ns as f64 / total.max(1) as f64,
            "ratio",
        );
    }
    let gap = (path_ms - untraced_mean_ms).abs() / untraced_mean_ms;
    println!(
        "{workload}: layer self times on the latency path sum to {path_ms:.4} ms per op; untraced mean latency {untraced_mean_ms:.4} ms; gap {:.2}% (bar: 10%)",
        gap * 100.0
    );
    report.layer(
        format!("{workload}.trace.overhead_ratio"),
        untraced.throughput() / traced.throughput(),
        "ratio",
    );
    report.layer(format!("{workload}.trace.reconcile_gap"), gap, "ratio");
    let trace = tracer.chrome_trace()?;
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.json"));
    std::fs::write(&path, trace.to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{workload}: chrome trace written to {}", path.display());
    Ok(())
}
