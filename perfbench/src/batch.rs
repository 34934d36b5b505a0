//! `batch_cfg`: the paper's phases in process, one input at a time:
//! canonicalize → dominators and postdominators → cycle equivalence →
//! PST → control regions. No socket and no cache is on this path.

use std::time::{Duration, Instant};

use pst_cfg::{
    canonicalize, parse_edge_list, parse_edge_list_graph, CanonicalizeOptions, Cfg, Graph, NodeId,
};
use pst_core::{canonical_regions, ControlRegions, CycleEquiv, ProgramStructureTree};
use pst_dominators::{
    dominator_tree, iterative_dominator_tree, postdominator_tree, Direction, DomTree,
};

use crate::daemon::{schedstat_ns, vm_hwm_mb};
use crate::inputs::{edge_list, log_stratified, messy_digraph, rng, shuffle};
use crate::stats::{log_log_slope, median, quiet_median, Mark, Pass};
use crate::trace::span_metrics;
use crate::trace::{SpanId, Tracer};
use crate::{Args, Corrupter, Report};

/// Valid `random_cfg` inputs at 2048–8192 nodes: a working set near a
/// 4 MiB L2 cache (64k-node inputs spill into the shared L3, where
/// neighbouring load moves them).
const CFG_INPUTS: usize = 12;
/// Messy digraphs at 256–768 nodes with every Definition-1 violation
/// forced, so canonicalization does real repairs.
const MESSY_INPUTS: usize = 6;
/// Set-ups per run; `setup_s` sums, over the inputs, the median of each
/// input's 4 quietest parses.
const SETUPS: usize = 40;
const QUIET_SETUPS: usize = 4;
/// The timing metrics are read over the quietest operations of each
/// input (see `Pass::report`), 0.23 per second of the pass: in a 30 s
/// pass the 7 quietest of 70 to 135 per input, 126 operations, so the
/// tail is p90.
const QUIET_OPS_PER_S: f64 = 0.23;
/// `check_cycle_equiv`'s undirected oracle is quadratic: it runs on the
/// CFGs up to this size (the canonicalized messy digraphs), under a step
/// budget past which the check is inconclusive, not failed.
const CHECK_MAX_NODES: usize = 1024;
const CHECK_BUDGET: u64 = 50_000_000;
pub const PHASES: [&str; 5] = [
    "canonicalize",
    "dominators",
    "cycle_equiv",
    "pst",
    "control_regions",
];

/// One input: its edge-list text and whether it is a messy digraph.
struct Input {
    text: String,
    messy: bool,
}

/// A parsed input: a valid CFG or a raw digraph with its entry.
enum Parsed {
    Cfg(Cfg),
    Graph(Graph, NodeId),
}

impl Parsed {
    fn graph(&self) -> (&Graph, NodeId) {
        match self {
            Parsed::Cfg(cfg) => (cfg.graph(), cfg.entry()),
            Parsed::Graph(g, entry) => (g, *entry),
        }
    }
}

fn parse(input: &Input) -> Result<Parsed, String> {
    if input.messy {
        parse_edge_list_graph(&input.text).map(|(g, e)| Parsed::Graph(g, e))
    } else {
        parse_edge_list(&input.text).map(Parsed::Cfg)
    }
}

fn inputs(seed: u64) -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for i in 0..CFG_INPUTS {
        let nodes = log_stratified(2048.0, 8192.0, CFG_INPUTS, i) as usize;
        let cfg = pst_workloads::random_cfg(nodes, nodes / 4, seed.wrapping_add(31 * i as u64))
            .map_err(|e| e.to_string())?;
        out.push(Input {
            text: edge_list(cfg.graph()),
            messy: false,
        });
    }
    for i in 0..MESSY_INPUTS {
        let nodes = log_stratified(256.0, 768.0, MESSY_INPUTS, i) as usize;
        let (g, _entry) = messy_digraph(nodes, i % 2 == 0, seed.wrapping_add(57 * i as u64));
        out.push(Input {
            text: edge_list(&g),
            messy: true,
        });
    }
    shuffle(&mut out, &mut rng(seed, 2));
    Ok(out)
}

/// Everything the five phases produce for one input.
struct Outputs {
    cfg: Cfg,
    dom: DomTree,
    pdom: DomTree,
    cycle_equiv: CycleEquiv,
    pst: ProgramStructureTree,
    regions: ControlRegions,
}

/// Runs the five phases, each under its own span.
fn phases(
    graph: &Graph,
    entry: NodeId,
    tracer: &mut Tracer,
    op: u64,
    root: SpanId,
) -> Result<Outputs, String> {
    let span = tracer.begin(op, "canonicalize", Some(root));
    let cfg = canonicalize(graph, entry, &CanonicalizeOptions::default())
        .map_err(|e| e.to_string())?
        .cfg;
    tracer.end(span);
    let span = tracer.begin(op, "dominators", Some(root));
    let (dom, pdom) = (
        dominator_tree(cfg.graph(), cfg.entry()),
        postdominator_tree(&cfg),
    );
    tracer.end(span);
    let span = tracer.begin(op, "cycle_equiv", Some(root));
    let (s, _back) = cfg.to_strongly_connected();
    let cycle_equiv = CycleEquiv::compute(&s, cfg.entry()).map_err(|e| e.to_string())?;
    tracer.end(span);
    let span = tracer.begin(op, "pst", Some(root));
    let pst = ProgramStructureTree::build(&cfg);
    tracer.end(span);
    let span = tracer.begin(op, "control_regions", Some(root));
    let regions = ControlRegions::compute(&cfg);
    tracer.end(span);
    Ok(Outputs {
        cfg,
        dom,
        pdom,
        cycle_equiv,
        pst,
        regions,
    })
}

/// FNV-1a over every output: the validated digest each timed operation
/// must reproduce.
fn digest(o: &Outputs) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let idx = |n: Option<NodeId>| n.map_or(u64::MAX, |n| n.index() as u64);
    put(o.cfg.node_count() as u64);
    put(o.cfg.edge_count() as u64);
    for n in o.cfg.graph().nodes() {
        put(idx(o.dom.idom(n)));
        put(idx(o.pdom.idom(n)));
    }
    for &c in o.cycle_equiv.classes().iter().chain(o.regions.classes()) {
        put(u64::from(c));
    }
    for r in o.pst.regions() {
        put(o.pst.parent(r).map_or(u64::MAX, |p| p.index() as u64));
        put(o.pst.entry_edge(r).map_or(u64::MAX, |e| e.index() as u64));
        put(o.pst.exit_edge(r).map_or(u64::MAX, |e| e.index() as u64));
    }
    h
}

/// Checks one input's outputs with the independent oracles. Returns the
/// problems found; a `check_pst` verdict is returned apart, as the known
/// finding it is (see NOTES.md).
fn validate(o: &Outputs) -> (Vec<String>, Option<String>) {
    let mut problems = Vec::new();
    let cfg = &o.cfg;
    let (fwd, bwd) = (
        iterative_dominator_tree(cfg.graph(), cfg.entry(), Direction::Forward),
        iterative_dominator_tree(cfg.graph(), cfg.exit(), Direction::Backward),
    );
    if cfg
        .graph()
        .nodes()
        .any(|n| fwd.idom(n) != o.dom.idom(n) || bwd.idom(n) != o.pdom.idom(n))
    {
        problems.push("dominators differ from the iterative dominator tree".to_string());
    }
    let detection = canonical_regions(cfg);
    if !pst_controldep::same_partition(detection.cycle_equiv.classes(), o.cycle_equiv.classes()) {
        problems.push("CycleEquiv::compute differs from region detection's partition".to_string());
    }
    let mut reports = vec![
        pst_verify::check_sese(cfg, &detection),
        pst_verify::check_control_regions(cfg, &o.regions),
    ];
    if cfg.node_count() <= CHECK_MAX_NODES {
        reports.push(pst_verify::check_cycle_equiv(
            cfg,
            &detection,
            Some(CHECK_BUDGET),
        ));
    }
    for r in &reports {
        if r.budget_exhausted {
            println!(
                "batch_cfg: {:?} check inconclusive (oracle budget) on a {}-node CFG",
                r.checker,
                cfg.node_count()
            );
        }
    }
    reports.retain(|r| r.violation_count > 0);
    problems.extend(
        reports
            .iter()
            .map(|r| format!("{:?}: {}", r.checker, r.violations.join("; "))),
    );
    let pst = pst_verify::check_pst(cfg, &o.pst);
    let finding = (pst.violation_count > 0).then(|| first_violation(&pst));
    (problems, finding)
}

/// The `check_pst` disagreement found on canonicalized messy digraphs
/// (see NOTES.md), on its smallest known case, so that every run reports
/// whether it still reproduces.
fn known_finding() -> Result<Option<String>, String> {
    let (graph, entry) = messy_digraph(64, false, 0);
    let cfg = canonicalize(&graph, entry, &CanonicalizeOptions::default())
        .map_err(|e| e.to_string())?
        .cfg;
    let report = pst_verify::check_pst(&cfg, &ProgramStructureTree::build(&cfg));
    Ok((report.violation_count > 0).then(|| first_violation(&report)))
}

fn first_violation(report: &pst_verify::ViolationReport) -> String {
    let first = report.violations.first().map_or("", String::as_str);
    format!("{first} ({} violations)", report.violation_count)
}

/// Per-phase allocation counts over one pass of the inputs.
fn phase_allocs(parsed: &[Parsed]) -> Result<[u64; 5], String> {
    let mut allocs = [0u64; 5];
    for p in parsed {
        let (graph, entry) = p.graph();
        let mut snap = pst_perf::alloc::snapshot();
        let mut mark = |i: usize, allocs: &mut [u64; 5]| {
            let now = pst_perf::alloc::snapshot();
            allocs[i] += pst_perf::alloc::delta(&snap, &now).allocs;
            snap = now;
        };
        let cfg = canonicalize(graph, entry, &CanonicalizeOptions::default())
            .map_err(|e| e.to_string())?
            .cfg;
        mark(0, &mut allocs);
        let doms = (
            dominator_tree(cfg.graph(), cfg.entry()),
            postdominator_tree(&cfg),
        );
        mark(1, &mut allocs);
        let (s, _back) = cfg.to_strongly_connected();
        let ce = CycleEquiv::compute(&s, cfg.entry()).map_err(|e| e.to_string())?;
        mark(2, &mut allocs);
        let pst = ProgramStructureTree::build(&cfg);
        mark(3, &mut allocs);
        let cr = ControlRegions::compute(&cfg);
        mark(4, &mut allocs);
        drop((doms, ce, pst, cr));
    }
    Ok(allocs)
}

/// Per-phase time of one valid CFG through all five phases, median of
/// `reps` runs; for the growth sweep.
fn phase_times(cfg: &Cfg, reps: usize) -> Result<[f64; 5], String> {
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..reps {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin(0, "op", None);
        phases(cfg.graph(), cfg.entry(), &mut tracer, 0, root)?;
        tracer.end(root);
        for l in tracer.layer_times() {
            if let Some(i) = PHASES.iter().position(|&p| p == l.layer) {
                samples[i].push(l.self_ns as f64);
            }
        }
    }
    Ok(samples.map(|s| median(&s)))
}

/// Whole cycles over the inputs until the deadline has passed; every
/// operation's digest is compared with the validated one.
fn pass(
    parsed: &[Parsed],
    digests: &[u64],
    seconds: f64,
    tracer: &mut Tracer,
    every: u64,
) -> Result<Pass, String> {
    let mut corrupt = Corrupter::new(every);
    let mut out = Pass::default();
    let cpu = || {
        schedstat_ns(std::path::Path::new("/proc/thread-self/schedstat")).map_err(|e| e.to_string())
    };
    let started = Instant::now();
    out.marks.push(Mark::new(cpu()?, 0));
    let deadline = started + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        for (i, (p, &expected)) in parsed.iter().zip(digests).enumerate() {
            let (graph, entry) = p.graph();
            let op = out.attempted;
            let root = tracer.begin(op, "op", None);
            let t = Instant::now();
            let outputs = phases(graph, entry, tracer, op, root)?;
            let ns = t.elapsed().as_nanos() as u64;
            let span = tracer.begin(op, "digest", Some(root));
            let mut d = digest(&outputs);
            if corrupt.fires() {
                d ^= 1;
            }
            tracer.end(span);
            tracer.end(root);
            out.attempted += 1;
            out.failed += u64::from(d != expected);
            out.edges += outputs.cfg.edge_count() as u64;
            out.op(ns);
            // A window per operation, ranked against the same input's.
            out.marks.push(Mark::new(cpu()?, i));
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

pub fn run(args: &Args, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(args.seed)?;
    // Each input's parse times over the set-ups; like the operations, an
    // input's parse is only compared with its own.
    let mut parse_s = vec![Vec::new(); inputs.len()];
    let mut parsed = Vec::new();
    for _ in 0..SETUPS {
        parsed = inputs
            .iter()
            .zip(&mut parse_s)
            .map(|(input, times)| {
                let t = Instant::now();
                let p = parse(input);
                times.push(t.elapsed().as_secs_f64());
                p
            })
            .collect::<Result<Vec<_>, _>>()?;
    }
    let setup_s = parse_s.iter().map(|t| quiet_median(t, QUIET_SETUPS)).sum();

    let mut digests = Vec::new();
    let mut findings = 0;
    let mut off = Tracer::new(false);
    for (i, p) in parsed.iter().enumerate() {
        let (graph, entry) = p.graph();
        let root = off.begin(0, "op", None);
        let outputs = phases(graph, entry, &mut off, 0, root)?;
        let (problems, finding) = validate(&outputs);
        for problem in problems {
            report.problem(format!("batch_cfg input {i}: {problem}"));
        }
        if let Some(message) = finding {
            findings += 1;
            println!(
                "batch_cfg: known finding: check_pst disagrees on input {i} ({} nodes, messy: {}): {message}",
                outputs.cfg.node_count(),
                inputs[i].messy
            );
        }
        digests.push(digest(&outputs));
    }
    println!(
        "batch_cfg: {} inputs validated; check_pst disagreements: {findings}",
        parsed.len()
    );
    match known_finding()? {
        Some(message) => println!(
            "batch_cfg: known finding still reproduces: check_pst disagrees on the canonicalized 64-node messy digraph of seed 0: {message}"
        ),
        None => println!("batch_cfg: known finding no longer reproduces: check_pst agrees on the 64-node messy digraph of seed 0"),
    }

    // Peak memory over the measured pass only: reset the high-water mark.
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))?;
    let untraced = pass(&parsed, &digests, seconds, &mut off, args.corrupt_every)?;
    let peak_rss = vm_hwm_mb("/proc/self/status").map_err(|e| e.to_string())?;
    let quiet = ((seconds * QUIET_OPS_PER_S).round() as usize).max(1);
    untraced.report(report, "batch_cfg", quiet, setup_s, peak_rss);
    if !traced {
        return Ok(());
    }

    let mut tracer = Tracer::new(true);
    let traced_pass = pass(&parsed, &digests, seconds, &mut tracer, args.corrupt_every)?;
    report.count(&traced_pass);
    let per_edge: Vec<f64> = {
        let layers = tracer.layer_times();
        PHASES
            .iter()
            .map(|p| {
                let ns = layers
                    .iter()
                    .find(|l| l.layer == *p)
                    .map_or(0, |l| l.self_ns);
                ns as f64 / traced_pass.edges as f64
            })
            .collect()
    };
    let allocs = phase_allocs(&parsed)?;
    let edges_once: u64 = traced_pass.edges * parsed.len() as u64 / traced_pass.attempted;
    // Growth sweep, 1k to 64k nodes, traced run only.
    let mut sweep: [Vec<(f64, f64)>; 5] = Default::default();
    for k in 0..7 {
        let nodes = 1024usize << k;
        let cfg = pst_workloads::random_cfg(nodes, nodes / 4, args.seed.wrapping_add(k as u64))
            .map_err(|e| e.to_string())?;
        let times = phase_times(&cfg, if nodes > 16_384 { 3 } else { 5 })?;
        for (i, t) in times.iter().enumerate() {
            sweep[i].push((cfg.edge_count() as f64, *t));
        }
    }
    for (i, p) in PHASES.iter().enumerate() {
        report.layer(format!("{p}.ns_per_edge"), per_edge[i], "ns/edge");
        report.layer(
            format!("{p}.allocs_per_edge"),
            allocs[i] as f64 / edges_once as f64,
            "allocs/edge",
        );
        report.layer(format!("{p}.slope"), log_log_slope(&sweep[i]), "slope");
    }
    report.layer(
        "cycle_equiv.vs_dominators",
        per_edge[2] / per_edge[1],
        "ratio",
    );
    span_metrics(
        report,
        "batch_cfg",
        &tracer,
        &PHASES,
        &untraced,
        &traced_pass,
    )
}
