//! Seeded input generation. Generation is never timed: every workload
//! builds its inputs before set-up starts.

use pst_cfg::Graph;
use pst_perf::SplitMix64;
use pst_workloads::{generate_function, ProgramGenConfig};

/// An independent random stream for one purpose of one run.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `count` log-uniform values over `[lo, hi]`, stratified: value `i` is
/// the midpoint of the `i`-th of `count` equal slices of the log range,
/// so every run sees the same size mix whatever its seed.
pub fn log_stratified(lo: f64, hi: f64, count: usize, i: usize) -> f64 {
    lo * (hi / lo).powf((i as f64 + 0.5) / count as f64)
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// A mini-language program of at most `max_bytes` (and at least one
/// function): generated functions appended while they fit.
pub fn mini_source(max_bytes: usize, seed: u64) -> String {
    let config = ProgramGenConfig {
        target_stmts: 12,
        ..ProgramGenConfig::default()
    };
    let mut out = String::new();
    for i in 0u64.. {
        let f = generate_function(&format!("f{i}"), &config, seed.wrapping_add(i));
        let text = pst_lang::pretty_function(&f);
        if !out.is_empty() && out.len() + text.len() + 1 > max_bytes {
            break;
        }
        out.push_str(&text);
        out.push('\n');
    }
    out
}

/// The `a->b` edge-list text of a graph, one edge per line, in edge
/// order (so parsing it back reproduces node and edge ids).
pub fn edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    for e in graph.edges() {
        let (s, t) = graph.endpoints(e);
        out.push_str(&format!("{}->{}\n", s.index(), t.index()));
    }
    out
}

/// A messy digraph with every Definition-1 violation forced.
pub fn messy_digraph(nodes: usize, self_loop: bool, seed: u64) -> (Graph, pst_cfg::NodeId) {
    pst_workloads::random_digraph(
        &pst_workloads::DigraphConfig {
            nodes,
            edges: nodes + nodes / 2,
            force_entry_predecessor: true,
            force_unreachable: true,
            force_infinite_loop: true,
            force_multiple_exits: true,
            force_self_loop: self_loop,
        },
        seed,
    )
}

/// JSON string literal of `text`.
pub fn json_str(text: &str) -> String {
    pst_obs::json::Json::Str(text.to_string()).to_string()
}
