//! The measurement loop: run the pipeline over a workload, attribute
//! wall time and allocations to phases.
//!
//! One pipeline body (`run_pipeline`) serves both measurements
//! through a sink abstraction: the timing pass wraps each phase in
//! [`std::time::Instant`] reads, the allocation pass in
//! [`alloc::snapshot`] differences. Because both passes execute the
//! *same* code path, the per-phase allocation attribution is checkable
//! against the whole-run totals (`tests/alloc_attribution.rs` asserts
//! phase deltas sum exactly to the outer delta for a single-threaded
//! run).
//!
//! Phase vocabulary (a workload reports the subset it exercises):
//! `parse`, `lower`, `canonicalize`, `dominators`, `cycle_equiv`,
//! `pst`, `control_regions`, `ssa`, `dataflow` — plus `cd_fow` /
//! `cd_cfs` / `cd_linear` / `ntscd` / `dod` for the
//! `controldep/strong*` family (classic control-region baselines
//! against the strong analyses), and `serve_cold` / `serve_hot` for
//! the in-process daemon workload, which measures the `pst serve`
//! request path instead of the one-shot pipeline.

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use pst_cfg::{canonicalize, CanonicalizeOptions, Cfg, Graph, NodeId};
use pst_controldep::{
    cfs_control_regions, fow_control_regions, linear_control_regions, Dod, Ntscd,
    DEFAULT_DOD_BUDGET,
};
use pst_core::{collapse_all, ControlRegions, CycleEquiv, ProgramStructureTree};
use pst_dataflow::{QpgContext, SingleVariableReachingDefs};
use pst_dominators::{dominator_tree, postdominator_tree};
use pst_lang::{
    lower_program, parse_program, pretty_function, LoweredFunction, VarId,
};
use pst_obs::json::Json;
use pst_serve::{ServeConfig, SharedSession};
use pst_ssa::{place_phis_pst_unchecked, rename};
use pst_workloads::{
    generate_function, irreducible_mesh, random_cfg, random_digraph, DigraphConfig,
    ProgramGenConfig,
};

use crate::alloc::{self, AllocDelta};
use crate::report::{AllocStats, PhaseReport, WorkloadReport};
use crate::stats::{BootstrapConfig, Summary};
use crate::workload::{StrongCdShape, Workload, WorkloadSpec};

/// The canonical phase order; reports list phases in first-execution
/// order, which is a subsequence of this.
pub const PHASE_NAMES: [&str; 16] = [
    "parse",
    "lower",
    "canonicalize",
    "dominators",
    "cycle_equiv",
    "pst",
    "control_regions",
    "cd_fow",
    "cd_cfs",
    "cd_linear",
    "ntscd",
    "dod",
    "ssa",
    "dataflow",
    "serve_cold",
    "serve_hot",
];

/// The `pst-obs` histogram each phase's per-iteration latency lands in.
/// `histogram!` needs `&'static str` names, so the nine phase names map
/// through this fixed table.
pub fn phase_histogram_name(phase: &str) -> &'static str {
    match phase {
        "parse" => "phase_nanos_parse",
        "lower" => "phase_nanos_lower",
        "canonicalize" => "phase_nanos_canonicalize",
        "dominators" => "phase_nanos_dominators",
        "cycle_equiv" => "phase_nanos_cycle_equiv",
        "pst" => "phase_nanos_pst",
        "control_regions" => "phase_nanos_control_regions",
        "cd_fow" => "phase_nanos_cd_fow",
        "cd_cfs" => "phase_nanos_cd_cfs",
        "cd_linear" => "phase_nanos_cd_linear",
        "ntscd" => "phase_nanos_ntscd",
        "dod" => "phase_nanos_dod",
        "ssa" => "phase_nanos_ssa",
        "dataflow" => "phase_nanos_dataflow",
        "serve_cold" => "phase_nanos_serve_cold",
        "serve_hot" => "phase_nanos_serve_hot",
        _ => "phase_nanos_other",
    }
}

/// How many iterations to run and how to summarize them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HarnessConfig {
    /// Timed iterations per workload (at least 1 is always run).
    pub iters: u64,
    /// Discarded warm-up iterations per workload.
    pub warmup: u64,
    /// Bootstrap CI parameters.
    pub bootstrap: BootstrapConfig,
}

impl HarnessConfig {
    /// The `--quick` profile: enough samples for a sane median, fast
    /// enough for CI smoke tests.
    pub fn quick() -> HarnessConfig {
        HarnessConfig {
            iters: 10,
            warmup: 2,
            bootstrap: BootstrapConfig::default(),
        }
    }

    /// The default full profile.
    pub fn full() -> HarnessConfig {
        HarnessConfig {
            iters: 30,
            warmup: 5,
            bootstrap: BootstrapConfig::default(),
        }
    }
}

/// A workload could not be built or analyzed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HarnessError {
    /// What went wrong, prefixed with the workload name when known.
    pub message: String,
}

impl HarnessError {
    fn new(message: impl Into<String>) -> HarnessError {
        HarnessError {
            message: message.into(),
        }
    }
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench harness: {}", self.message)
    }
}

impl std::error::Error for HarnessError {}

/// A sink observes each phase execution; the closure's return value
/// passes through untouched.
trait PhaseSink {
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// Accumulates nanoseconds per phase name (summed when a phase runs
/// more than once per iteration, e.g. once per function).
#[derive(Default)]
struct TimerSink {
    phases: Vec<(&'static str, u64)>,
}

impl PhaseSink for TimerSink {
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => self.phases.push((name, ns)),
        }
        result
    }
}

/// Accumulates allocator deltas per phase name.
#[derive(Default)]
struct AllocSink {
    phases: Vec<(&'static str, AllocDelta)>,
}

impl AllocSink {
    fn get(&self, name: &str) -> AllocDelta {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }
}

impl PhaseSink for AllocSink {
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        alloc::reset_peak();
        let before = alloc::snapshot();
        let result = f();
        let after = alloc::snapshot();
        let d = alloc::delta(&before, &after);
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => {
                total.allocs += d.allocs;
                total.bytes += d.bytes;
                total.peak_live_bytes = total.peak_live_bytes.max(d.peak_live_bytes);
            }
            None => self.phases.push((name, d)),
        }
        result
    }
}

/// A workload's input, materialized once and reused every iteration so
/// generation cost never pollutes the samples.
enum PreparedInput {
    Source(String),
    Cfg(Cfg),
    Digraph(Graph, NodeId),
    /// A strong-control-dependence input: the valid CFG the classic
    /// baselines run on, plus the raw digraph the strong analyses run
    /// on (identical to `cfg.graph()` except for the terminal-SCC
    /// shape, where the raw graph keeps its inescapable cycles and the
    /// CFG is its canonicalized repair).
    StrongCd { cfg: Cfg, graph: Graph },
}

fn prepare(w: &Workload) -> Result<PreparedInput, HarnessError> {
    match &w.spec {
        WorkloadSpec::ServeMix { .. } | WorkloadSpec::ServeConc { .. } => Err(HarnessError::new(
            "serve workloads take the dedicated daemon path, not the pipeline",
        )),
        WorkloadSpec::MiniSource { source } => Ok(PreparedInput::Source(source.clone())),
        WorkloadSpec::GenProg { config, seed } => {
            let f = generate_function("bench", config, *seed);
            Ok(PreparedInput::Source(pretty_function(&f)))
        }
        WorkloadSpec::RandomCfg {
            nodes,
            extra_edges,
            seed,
        } => random_cfg(*nodes, *extra_edges, *seed)
            .map(PreparedInput::Cfg)
            .map_err(|e| HarnessError::new(format!("random_cfg: {e}"))),
        WorkloadSpec::RandomDigraph { config, seed } => {
            let (g, entry) = random_digraph(config, *seed);
            Ok(PreparedInput::Digraph(g, entry))
        }
        WorkloadSpec::StrongCd { shape, size, seed } => {
            let (cfg, graph) = match shape {
                StrongCdShape::Random => {
                    let cfg = random_cfg(*size, *size / 4, *seed)
                        .map_err(|e| HarnessError::new(format!("random_cfg: {e}")))?;
                    let graph = cfg.graph().clone();
                    (cfg, graph)
                }
                StrongCdShape::Irreducible => {
                    let cfg = irreducible_mesh(*size);
                    let graph = cfg.graph().clone();
                    (cfg, graph)
                }
                StrongCdShape::TerminalScc => {
                    let (g, entry) = random_digraph(
                        &DigraphConfig {
                            nodes: *size,
                            edges: *size + *size / 2,
                            force_entry_predecessor: false,
                            force_unreachable: false,
                            force_infinite_loop: true,
                            force_multiple_exits: true,
                            force_self_loop: true,
                        },
                        *seed,
                    );
                    // The baselines need a valid Definition-1 CFG;
                    // canonicalize once here (untimed) so iterations
                    // measure only the dependence analyses.
                    let canonical =
                        canonicalize(&g, entry, &CanonicalizeOptions::default())
                            .map_err(|e| {
                                HarnessError::new(format!("canonicalize: {e}"))
                            })?;
                    (canonical.cfg, g)
                }
            };
            Ok(PreparedInput::StrongCd { cfg, graph })
        }
    }
}

/// The CFG-level analysis phases shared by every input kind; returns
/// the PST for the SSA/dataflow phases.
fn analyze_cfg(cfg: &Cfg, sink: &mut impl PhaseSink) -> ProgramStructureTree {
    let doms = sink.phase("dominators", || {
        (
            dominator_tree(cfg.graph(), cfg.entry()),
            postdominator_tree(cfg),
        )
    });
    black_box(&doms);
    let ce = sink.phase("cycle_equiv", || {
        let (g, _extra) = cfg.to_strongly_connected();
        CycleEquiv::compute_unchecked(&g, cfg.entry())
    });
    black_box(&ce);
    let pst = sink.phase("pst", || ProgramStructureTree::build(cfg));
    let cr = sink.phase("control_regions", || ControlRegions::compute(cfg));
    black_box(&cr);
    pst
}

/// The SSA + sparse-dataflow phases (only run for lowered functions,
/// which carry variable information).
fn analyze_function(
    f: &LoweredFunction,
    pst: &ProgramStructureTree,
    sink: &mut impl PhaseSink,
) -> Result<(), HarnessError> {
    let ssa = sink.phase("ssa", || {
        let collapsed = collapse_all(&f.cfg, pst);
        let sparse = place_phis_pst_unchecked(f, pst, &collapsed);
        rename(f, &sparse.placement)
    })
    .map_err(|e| HarnessError::new(format!("ssa: {e}")))?;
    black_box(&ssa);
    sink.phase("dataflow", || -> Result<(), HarnessError> {
        let ctx = QpgContext::new(&f.cfg, pst)
            .map_err(|e| HarnessError::new(format!("qpg: {e}")))?;
        for v in 0..f.var_count() {
            let var = VarId::from_index(v);
            let problem = SingleVariableReachingDefs::new(f, var);
            let qpg = ctx
                .build_from_sites(problem.sites())
                .map_err(|e| HarnessError::new(format!("qpg build: {e}")))?;
            let solution = ctx
                .solve(&qpg, &problem)
                .map_err(|e| HarnessError::new(format!("qpg solve: {e}")))?;
            black_box(&solution);
        }
        Ok(())
    })
}

/// Runs the whole pipeline once over a prepared input; returns the
/// analyzed CFG size `(nodes, edges)` (summed over functions for
/// program inputs, canonical CFG for digraph inputs).
fn run_pipeline(input: &PreparedInput, sink: &mut impl PhaseSink) -> Result<(u64, u64), HarnessError> {
    match input {
        PreparedInput::Source(src) => {
            let program = sink
                .phase("parse", || parse_program(src))
                .map_err(|e| HarnessError::new(format!("parse: {e}")))?;
            let lowered = sink
                .phase("lower", || lower_program(&program))
                .map_err(|e| HarnessError::new(format!("lower: {e}")))?;
            let (mut nodes, mut edges) = (0u64, 0u64);
            for f in &lowered {
                nodes += f.cfg.node_count() as u64;
                edges += f.cfg.edge_count() as u64;
                let pst = analyze_cfg(&f.cfg, sink);
                analyze_function(f, &pst, sink)?;
            }
            Ok((nodes, edges))
        }
        PreparedInput::Cfg(cfg) => {
            let pst = analyze_cfg(cfg, sink);
            black_box(&pst);
            Ok((cfg.node_count() as u64, cfg.edge_count() as u64))
        }
        PreparedInput::StrongCd { cfg, graph } => {
            let fow = sink.phase("cd_fow", || fow_control_regions(cfg));
            black_box(&fow);
            let cfs = sink.phase("cd_cfs", || cfs_control_regions(cfg));
            black_box(&cfs);
            let lin = sink.phase("cd_linear", || linear_control_regions(cfg));
            black_box(&lin);
            let ntscd = sink.phase("ntscd", || Ntscd::compute(graph));
            black_box(&ntscd);
            let dod = sink.phase("dod", || Dod::compute_budgeted(graph, DEFAULT_DOD_BUDGET));
            black_box(&dod);
            Ok((graph.node_count() as u64, graph.edge_count() as u64))
        }
        PreparedInput::Digraph(graph, entry) => {
            let canonical = sink
                .phase("canonicalize", || {
                    canonicalize(graph, *entry, &CanonicalizeOptions::default())
                })
                .map_err(|e| HarnessError::new(format!("canonicalize: {e}")))?;
            let cfg = &canonical.cfg;
            let pst = analyze_cfg(cfg, sink);
            black_box(&pst);
            Ok((cfg.node_count() as u64, cfg.edge_count() as u64))
        }
    }
}

/// Measures one workload: `warmup` discarded runs, `iters` timed runs
/// (per-phase and total nanoseconds), then one dedicated allocation
/// pass with per-phase snapshot attribution.
pub fn run_workload(w: &Workload, config: &HarnessConfig) -> Result<WorkloadReport, HarnessError> {
    let _span = pst_obs::Span::enter("bench_workload");
    // Everything this workload records — counters, gauges, phase
    // histograms — is attributed to it as a unit, so the metrics report
    // carries a per-workload sub-report alongside the global aggregate.
    let _unit = pst_obs::UnitScope::enter(w.name.as_str());
    let in_workload = |e: HarnessError| HarnessError::new(format!("{}: {}", w.name, e.message));
    if let WorkloadSpec::ServeMix { units, seed } = &w.spec {
        return run_serve_workload(w, *units, *seed, config).map_err(in_workload);
    }
    if let WorkloadSpec::ServeConc {
        units,
        clients,
        seed,
    } = &w.spec
    {
        return run_serve_conc_workload(w, *units, *clients, *seed, config).map_err(in_workload);
    }
    let input = prepare(w).map_err(|e| HarnessError::new(format!("{}: {}", w.name, e.message)))?;

    for _ in 0..config.warmup {
        let mut t = TimerSink::default();
        run_pipeline(&input, &mut t).map_err(in_workload)?;
    }

    let iters = config.iters.max(1);
    let mut order: Vec<&'static str> = Vec::new();
    let mut samples: Vec<Vec<u64>> = Vec::new();
    let mut totals: Vec<u64> = Vec::with_capacity(iters as usize);
    let (mut nodes, mut edges) = (0u64, 0u64);
    for _ in 0..iters {
        let mut t = TimerSink::default();
        let (n, e) = run_pipeline(&input, &mut t).map_err(in_workload)?;
        nodes = n;
        edges = e;
        let mut total = 0u64;
        for (name, ns) in t.phases {
            total += ns;
            // Timed iterations only (warm-ups above never get here), so
            // the latency histograms describe the same samples the
            // Summary quantiles are computed from.
            pst_obs::histogram!(phase_histogram_name(name), ns);
            match order.iter().position(|&o| o == name) {
                Some(i) => samples[i].push(ns),
                None => {
                    order.push(name);
                    samples.push(vec![ns]);
                }
            }
        }
        pst_obs::histogram!("bench_iter_nanos", total);
        totals.push(total);
    }

    let mut asink = AllocSink::default();
    alloc::reset_peak();
    let before = alloc::snapshot();
    run_pipeline(&input, &mut asink).map_err(in_workload)?;
    let after = alloc::snapshot();
    let outer = alloc::delta(&before, &after);

    let mut attributed_bytes = 0u64;
    let mut phases = Vec::with_capacity(order.len());
    for (i, &name) in order.iter().enumerate() {
        let d = asink.get(name);
        attributed_bytes += d.bytes;
        phases.push(PhaseReport {
            name: name.to_string(),
            time: Summary::from_samples(&samples[i], &config.bootstrap),
            alloc: AllocStats {
                allocs: d.allocs,
                bytes_total: d.bytes,
                peak_live_bytes: d.peak_live_bytes,
            },
        });
    }

    pst_obs::counter!("bench_workloads_run");
    pst_obs::counter!("bench_iterations", iters);
    pst_obs::gauge!("bench_workload_nodes", nodes as usize);

    Ok(WorkloadReport {
        name: w.name.clone(),
        nodes,
        edges,
        phases,
        total_time: Summary::from_samples(&totals, &config.bootstrap),
        alloc_total: AllocStats {
            allocs: outer.allocs,
            bytes_total: outer.bytes,
            peak_live_bytes: outer.peak_live_bytes,
        },
        alloc_unattributed_bytes: outer.bytes.saturating_sub(attributed_bytes),
    })
}

/// The request mix one serve workload drives: a generated mini unit per
/// slot, each queried with two methods from a rotating schedule, so the
/// batch exercises unit registration, stage interning, and per-method
/// memo hits rather than a single code path.
fn prepare_serve_mix(units: usize, seed: u64) -> Result<(Vec<String>, u64, u64), HarnessError> {
    const METHODS: [&str; 4] = ["pst", "control_regions", "ssa", "lint"];
    let gen_config = ProgramGenConfig {
        target_stmts: 40,
        max_depth: 5,
        num_vars: 12,
        goto_prob: 0.05,
        loop_prob: 0.3,
    };
    let mut lines = Vec::with_capacity(units * 2);
    let (mut nodes, mut edges) = (0u64, 0u64);
    for i in 0..units {
        let f = generate_function("serve", &gen_config, seed.wrapping_add(i as u64));
        let source = pretty_function(&f);
        // The report's nodes/edges describe the registered units, same
        // as the pipeline workloads describe their analyzed CFGs.
        let program = parse_program(&source)
            .map_err(|e| HarnessError::new(format!("serve mix unit {i}: parse: {e}")))?;
        let lowered = lower_program(&program)
            .map_err(|e| HarnessError::new(format!("serve mix unit {i}: lower: {e}")))?;
        for lf in &lowered {
            nodes += lf.cfg.node_count() as u64;
            edges += lf.cfg.edge_count() as u64;
        }
        for (k, method) in [METHODS[i % 4], METHODS[(i + 2) % 4]].into_iter().enumerate() {
            lines.push(
                Json::obj([
                    ("id", Json::UInt((i * 2 + k) as u64)),
                    ("method", Json::Str(method.to_string())),
                    ("source", Json::Str(source.clone())),
                ])
                .to_string(),
            );
        }
    }
    Ok((lines, nodes, edges))
}

/// A fresh single-worker daemon front end, as `pst serve` runs over
/// stdio: the serve workloads measure the path users actually hit
/// (request parse, dispatch, shard lock, per-request record, reply).
fn stdio_daemon() -> SharedSession {
    SharedSession::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
}

/// Measures the `pst serve` request path with an in-process daemon:
/// per timed iteration, a fresh daemon answers the whole request mix
/// twice — the cold batch registers every unit (cache misses, full
/// pipeline), the hot batch repeats the identical requests (memo hits).
/// `serve_cold` / `serve_hot` become ordinary gated phases, and the
/// request throughput lands in the `serve_requests_per_sec` gauge.
fn run_serve_workload(
    w: &Workload,
    units: usize,
    seed: u64,
    config: &HarnessConfig,
) -> Result<WorkloadReport, HarnessError> {
    let (lines, nodes, edges) = prepare_serve_mix(units, seed)?;

    // One validation pass: every reply in the mix must be ok (a broken
    // request means a broken workload, caught before any timing).
    {
        let session = stdio_daemon();
        for line in &lines {
            let reply = session.handle_line(line);
            let ok = Json::parse(&reply.line)
                .ok()
                .and_then(|j| j.get("ok").cloned())
                == Some(Json::Bool(true));
            if !ok {
                return Err(HarnessError::new(format!(
                    "serve mix request failed: {} -> {}",
                    line, reply.line
                )));
            }
        }
    }

    let drive = |session: &SharedSession| {
        for line in &lines {
            black_box(session.handle_line(line));
        }
    };

    for _ in 0..config.warmup {
        let session = stdio_daemon();
        drive(&session);
        drive(&session);
    }

    let iters = config.iters.max(1);
    let mut cold_samples = Vec::with_capacity(iters as usize);
    let mut hot_samples = Vec::with_capacity(iters as usize);
    let mut totals = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let session = stdio_daemon();
        let start = Instant::now();
        drive(&session);
        let cold = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        drive(&session);
        let hot = start.elapsed().as_nanos() as u64;
        pst_obs::histogram!("phase_nanos_serve_cold", cold);
        pst_obs::histogram!("phase_nanos_serve_hot", hot);
        pst_obs::histogram!("bench_iter_nanos", cold + hot);
        cold_samples.push(cold);
        hot_samples.push(hot);
        totals.push(cold + hot);
    }

    // Dedicated allocation pass, same shape as the pipeline path: the
    // outer delta wraps both batches, so attributed + unattributed
    // equals the total exactly.
    let mut asink = AllocSink::default();
    alloc::reset_peak();
    let before = alloc::snapshot();
    let session = stdio_daemon();
    asink.phase("serve_cold", || drive(&session));
    asink.phase("serve_hot", || drive(&session));
    let after = alloc::snapshot();
    let outer = alloc::delta(&before, &after);
    drop(session);

    let requests = lines.len() as u64 * 2 * iters;
    let spent: u64 = totals.iter().sum();
    pst_obs::gauge!(
        "serve_requests_per_sec",
        (requests as f64 * 1e9 / spent.max(1) as f64) as u64
    );

    // Price the live-telemetry layer itself: the same hot batch through
    // a single-shard SharedSession with the windowed series on (default
    // window) vs off (`--metrics-window-ms 0`). The gauge is the on/off
    // throughput ratio in percent — ~100 means the per-request series
    // fold is lost in the noise. Only the full-matrix mix is wide
    // enough for a stable ratio, so the quick matrix skips it.
    if units >= 16 {
        let hot_nanos = |window_ms: u64| -> u64 {
            let shared = SharedSession::new(ServeConfig {
                workers: 1,
                metrics_window_ms: window_ms,
                ..ServeConfig::default()
            });
            for line in &lines {
                black_box(shared.handle_line(line));
            }
            let start = Instant::now();
            for line in &lines {
                black_box(shared.handle_line(line));
            }
            (start.elapsed().as_nanos() as u64).max(1)
        };
        let on = hot_nanos(1000);
        let off = hot_nanos(0);
        pst_obs::gauge!(
            "serve_telemetry_overhead",
            ((off as f64 / on as f64) * 100.0) as u64
        );
    }
    pst_obs::counter!("bench_workloads_run");
    pst_obs::counter!("bench_iterations", iters);
    pst_obs::gauge!("bench_workload_nodes", nodes as usize);

    let mut attributed_bytes = 0u64;
    let mut phases = Vec::with_capacity(2);
    for (name, samples) in [("serve_cold", &cold_samples), ("serve_hot", &hot_samples)] {
        let d = asink.get(name);
        attributed_bytes += d.bytes;
        phases.push(PhaseReport {
            name: name.to_string(),
            time: Summary::from_samples(samples, &config.bootstrap),
            alloc: AllocStats {
                allocs: d.allocs,
                bytes_total: d.bytes,
                peak_live_bytes: d.peak_live_bytes,
            },
        });
    }

    Ok(WorkloadReport {
        name: w.name.clone(),
        nodes,
        edges,
        phases,
        total_time: Summary::from_samples(&totals, &config.bootstrap),
        alloc_total: AllocStats {
            allocs: outer.allocs,
            bytes_total: outer.bytes,
            peak_live_bytes: outer.peak_live_bytes,
        },
        alloc_unattributed_bytes: outer.bytes.saturating_sub(attributed_bytes),
    })
}

/// Deterministic jitter source for the concurrent clients' retry
/// backoff (splitmix64, seeded from the workload seed so the retry
/// schedule is reproducible run to run).
fn jitter_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives one client's request sequence to completion, retrying
/// `overloaded` sheds with jittered exponential backoff. The shed
/// envelope's `retry_after_ms` hint is calibrated for network clients;
/// in-process the gate clears in microseconds, so the backoff starts at
/// ~20µs and doubles (±50% jitter) up to a 1ms cap — shed requests are
/// measured work, never lost work.
fn drive_conc_client(shared: &SharedSession, lines: &[&str], jitter_seed: u64) {
    let mut state = jitter_seed;
    for line in lines {
        let mut backoff_us = 20u64;
        loop {
            let reply = shared.handle_line(line);
            if !reply.line.contains("\"code\":\"overloaded\"") {
                black_box(&reply);
                break;
            }
            let jitter = jitter_next(&mut state) % backoff_us.max(1);
            std::thread::sleep(std::time::Duration::from_micros(backoff_us / 2 + jitter));
            backoff_us = (backoff_us * 2).min(1000);
        }
    }
}

/// Measures the *concurrent* `pst serve` request path: `clients` scoped
/// threads fire the same seeded request mix at one sharded
/// [`SharedSession`] whose admission gate is armed below the client
/// count, so overload shedding and the client-side retry loop are part
/// of the measured path rather than an untested branch. Each client
/// starts at a different offset in the mix (shards never convoy in
/// lockstep), and because the clients overlap, the daemon computes each
/// unit once and answers the rest from the shared memo cache — which is
/// why aggregate throughput beats the sequential mix even on one core.
/// Cold and hot batches mirror the sequential serve workload
/// (`serve_cold` / `serve_hot` phases); throughput lands in the
/// `serve_conc_requests_per_sec` gauge, which the verify script asserts
/// strictly exceeds the sequential `serve_requests_per_sec`.
fn run_serve_conc_workload(
    w: &Workload,
    units: usize,
    clients: usize,
    seed: u64,
    config: &HarnessConfig,
) -> Result<WorkloadReport, HarnessError> {
    let clients = clients.max(1);
    let (lines, nodes, edges) = prepare_serve_mix(units, seed)?;

    let daemon_config = || ServeConfig {
        workers: clients,
        // Gate below the client count so some requests are genuinely
        // shed under full concurrency and the backoff/retry path runs.
        max_inflight: clients.saturating_sub(1).max(1),
        ..ServeConfig::default()
    };

    // One sequential validation pass: with a single caller the gate
    // never sheds, so every reply in the mix must be ok.
    {
        let shared = SharedSession::new(daemon_config());
        for line in &lines {
            let reply = shared.handle_line(line);
            let ok = Json::parse(&reply.line)
                .ok()
                .and_then(|j| j.get("ok").cloned())
                == Some(Json::Bool(true));
            if !ok {
                return Err(HarnessError::new(format!(
                    "serve conc request failed: {} -> {}",
                    line, reply.line
                )));
            }
        }
    }

    // Per-client request orders: the same mix rotated to a staggered
    // starting offset, materialized once so rotation cost never lands
    // in the samples.
    let orders: Vec<Vec<&str>> = (0..clients)
        .map(|c| {
            let start = c * lines.len() / clients;
            lines[start..]
                .iter()
                .chain(&lines[..start])
                .map(String::as_str)
                .collect()
        })
        .collect();

    let drive_all = |shared: &SharedSession| {
        std::thread::scope(|scope| {
            for (c, order) in orders.iter().enumerate() {
                let jitter_seed = seed ^ ((c as u64 + 1) << 32);
                scope.spawn(move || drive_conc_client(shared, order, jitter_seed));
            }
        });
    };

    for _ in 0..config.warmup {
        let shared = SharedSession::new(daemon_config());
        drive_all(&shared);
        drive_all(&shared);
    }

    let iters = config.iters.max(1);
    let mut cold_samples = Vec::with_capacity(iters as usize);
    let mut hot_samples = Vec::with_capacity(iters as usize);
    let mut totals = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let shared = SharedSession::new(daemon_config());
        let start = Instant::now();
        drive_all(&shared);
        let cold = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        drive_all(&shared);
        let hot = start.elapsed().as_nanos() as u64;
        pst_obs::histogram!("phase_nanos_serve_cold", cold);
        pst_obs::histogram!("phase_nanos_serve_hot", hot);
        pst_obs::histogram!("bench_iter_nanos", cold + hot);
        cold_samples.push(cold);
        hot_samples.push(hot);
        totals.push(cold + hot);
    }

    // Dedicated allocation pass. The counting allocator's counters are
    // process-global atomics and every client joins before the closing
    // snapshot, so the totals are exact; the per-phase split is exact
    // too because nothing else allocates between the scope boundaries.
    let mut asink = AllocSink::default();
    alloc::reset_peak();
    let before = alloc::snapshot();
    let shared = SharedSession::new(daemon_config());
    asink.phase("serve_cold", || drive_all(&shared));
    asink.phase("serve_hot", || drive_all(&shared));
    let after = alloc::snapshot();
    let outer = alloc::delta(&before, &after);
    drop(shared);

    // Successful requests only: retries of shed requests are extra
    // daemon work the rate deliberately pays for, not extra credit.
    let requests = lines.len() as u64 * clients as u64 * 2 * iters;
    let spent: u64 = totals.iter().sum();
    pst_obs::gauge!(
        "serve_conc_requests_per_sec",
        (requests as f64 * 1e9 / spent.max(1) as f64) as u64
    );
    pst_obs::counter!("bench_workloads_run");
    pst_obs::counter!("bench_iterations", iters);
    pst_obs::gauge!("bench_workload_nodes", nodes as usize);

    let mut attributed_bytes = 0u64;
    let mut phases = Vec::with_capacity(2);
    for (name, samples) in [("serve_cold", &cold_samples), ("serve_hot", &hot_samples)] {
        let d = asink.get(name);
        attributed_bytes += d.bytes;
        phases.push(PhaseReport {
            name: name.to_string(),
            time: Summary::from_samples(samples, &config.bootstrap),
            alloc: AllocStats {
                allocs: d.allocs,
                bytes_total: d.bytes,
                peak_live_bytes: d.peak_live_bytes,
            },
        });
    }

    Ok(WorkloadReport {
        name: w.name.clone(),
        nodes,
        edges,
        phases,
        total_time: Summary::from_samples(&totals, &config.bootstrap),
        alloc_total: AllocStats {
            allocs: outer.allocs,
            bytes_total: outer.bytes,
            peak_live_bytes: outer.peak_live_bytes,
        },
        alloc_unattributed_bytes: outer.bytes.saturating_sub(attributed_bytes),
    })
}

/// Measures every workload in order, failing fast on the first error —
/// a broken workload means a broken matrix, not a partial report.
pub fn run_matrix(
    workloads: &[Workload],
    config: &HarnessConfig,
) -> Result<Vec<WorkloadReport>, HarnessError> {
    let _span = pst_obs::Span::enter("bench_matrix");
    workloads.iter().map(|w| run_workload(w, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::standard_matrix;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            iters: 2,
            warmup: 0,
            bootstrap: BootstrapConfig {
                resamples: 10,
                seed: 1,
            },
        }
    }

    #[test]
    fn cfg_workload_reports_analysis_phases() {
        let w = Workload {
            name: "random_cfg/64".into(),
            spec: WorkloadSpec::RandomCfg {
                nodes: 64,
                extra_edges: 16,
                seed: 0xC0FFEE,
            },
        };
        let r = run_workload(&w, &tiny()).unwrap();
        assert_eq!(r.nodes, 64);
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["dominators", "cycle_equiv", "pst", "control_regions"]
        );
        assert!(r.phases.iter().all(|p| p.time.samples == 2));
    }

    #[test]
    fn source_workload_runs_all_phases_in_pipeline_order() {
        let w = Workload::mini(
            "mini:tiny",
            "fn f(n) { x = 1; if (x < n) { x = x + 1; } else { x = 0; } return x; }",
        );
        let r = run_workload(&w, &tiny()).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        // Every reported phase appears in canonical order.
        let positions: Vec<usize> = names
            .iter()
            .map(|n| PHASE_NAMES.iter().position(|p| p == n).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert!(names.contains(&"parse") && names.contains(&"dataflow"));
    }

    #[test]
    fn digraph_workload_canonicalizes_first() {
        let matrix = standard_matrix(true);
        let w = matrix
            .iter()
            .find(|w| w.name.starts_with("digraph_messy"))
            .unwrap();
        let r = run_workload(w, &tiny()).unwrap();
        assert_eq!(r.phases[0].name, "canonicalize");
        // The canonical CFG may shrink (unreachable pruning) or grow
        // (synthetic entry/exit/latches); it just has to be non-trivial.
        assert!(r.nodes > 2, "canonical CFG is non-trivial");
    }

    #[test]
    fn strong_cd_workloads_report_the_dependence_phases() {
        for shape in [
            StrongCdShape::Random,
            StrongCdShape::Irreducible,
            StrongCdShape::TerminalScc,
        ] {
            let w = Workload {
                name: format!("controldep/test/{shape:?}"),
                spec: WorkloadSpec::StrongCd {
                    shape,
                    size: 24,
                    seed: 0x5CD,
                },
            };
            let r = run_workload(&w, &tiny()).unwrap();
            let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(
                names,
                ["cd_fow", "cd_cfs", "cd_linear", "ntscd", "dod"],
                "{shape:?}"
            );
            assert!(r.phases.iter().all(|p| p.time.samples == 2));
            assert!(r.nodes > 0 && r.edges > 0);
        }
    }

    #[test]
    fn serve_workload_reports_cold_and_hot_phases() {
        let w = Workload {
            name: "serve/mix3".into(),
            spec: WorkloadSpec::ServeMix {
                units: 3,
                seed: 0x5E12E,
            },
        };
        let r = run_workload(&w, &tiny()).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["serve_cold", "serve_hot"]);
        assert!(r.phases.iter().all(|p| p.time.samples == 2));
        assert!(r.nodes > 0 && r.edges > 0, "units contribute CFG sizes");
        // Both batches allocate, and the outer delta covers them both.
        assert!(r.alloc_total.bytes_total >= r.phases[0].alloc.bytes_total);
    }

    #[test]
    fn serve_conc_workload_answers_every_client_and_reports_phases() {
        let w = Workload {
            name: "serve/conc3".into(),
            spec: WorkloadSpec::ServeConc {
                units: 2,
                clients: 3,
                seed: 0x5E12E,
            },
        };
        let r = run_workload(&w, &tiny()).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["serve_cold", "serve_hot"]);
        assert!(r.phases.iter().all(|p| p.time.samples == 2));
        // Three disjoint client mixes each contribute CFG sizes.
        assert!(r.nodes > 0 && r.edges > 0, "units contribute CFG sizes");
        assert!(r.alloc_total.bytes_total >= r.phases[0].alloc.bytes_total);
    }

    #[test]
    fn serve_workload_is_not_a_pipeline_input() {
        let Err(err) = prepare(&Workload {
            name: "serve/mix1".into(),
            spec: WorkloadSpec::ServeMix { units: 1, seed: 0 },
        }) else {
            panic!("serve spec must be rejected by the pipeline preparer");
        };
        assert!(err.message.contains("daemon path"), "{}", err.message);
    }
}
