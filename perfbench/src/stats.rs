//! Sample summaries shared by every workload.

use std::time::Instant;

use crate::Report;

/// Median of a sample (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of the `keep` smallest values of a sample: the quiet reading
/// of repeated work on a shared host (see `Pass::report`).
pub fn quiet_median(samples: &[f64], keep: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted[..keep.min(sorted.len())])
}

/// The percentiles a tail is read at, highest first. p99 and above are
/// left out on purpose: under the delayed-ACK stall `serve_hot`'s p99 sits
/// on the edge between the 44 ms and 48 ms timer ticks, and once serving
/// is CPU-bound a p99.9 over 10^5 requests reads scheduler hiccups.
const TAIL_LADDER: [f64; 3] = [95.0, 90.0, 50.0];

/// The tail of a latency sample: the highest percentile of the ladder
/// that still has at least ten samples beyond it. Returns
/// `(percentile, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest sample with at least pct% at or below it.
    let rank = |pct: f64| ((pct * n as f64 / 100.0).ceil() as usize).max(1);
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| n >= rank(p) + 10)
        .unwrap_or(0.0);
    (pct, sorted.get(rank(pct) - 1).copied().unwrap_or(0.0))
}

/// A window boundary: when it was read, the CPU time the measured
/// process had used by then, and the group of the window it closes
/// (windows are only ranked against others of their group).
pub struct Mark {
    pub at: Instant,
    pub cpu_ns: u64,
    pub group: usize,
}

impl Mark {
    pub fn new(cpu_ns: u64, group: usize) -> Mark {
        Mark {
            at: Instant::now(),
            cpu_ns,
            group,
        }
    }
}

/// One window of a pass: the operations completed in it, its wall time
/// and the CPU time the measured process used in it.
struct Window {
    group: usize,
    latencies_ms: Vec<f64>,
    wall_s: f64,
    cpu_ns: u64,
}

impl Window {
    fn cpu_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.latencies_ms.len() as f64
    }
}

/// What one measured pass saw.
#[derive(Default)]
pub struct Pass {
    /// Completion instant and latency of every operation.
    pub ops: Vec<(Instant, f64)>,
    /// (line index, round-trip ns) per request: `serve_hot`'s transport
    /// split.
    pub rtts: Vec<(usize, u64)>,
    /// Canonical-CFG edges processed: `batch_cfg`'s per-edge costs.
    pub edges: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Window boundaries, from the start of the pass to its end.
    pub marks: Vec<Mark>,
}

impl Pass {
    /// Records one operation that has just completed.
    pub fn op(&mut self, latency_ns: u64) {
        self.ops.push((Instant::now(), latency_ns as f64 / 1e6));
    }

    /// Merges another client's requests into this pass.
    pub fn absorb(&mut self, other: Pass) {
        self.ops.extend(other.ops);
        self.rtts.extend(other.rtts);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn throughput(&self) -> f64 {
        self.attempted as f64 / self.wall_s
    }

    pub fn mean_latency_ms(&self) -> f64 {
        self.ops.iter().map(|o| o.1).sum::<f64>() / self.ops.len().max(1) as f64
    }

    /// CPU time per operation over the whole pass.
    pub fn cpu_ms_per_op(&self) -> f64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => {
                (last.cpu_ns - first.cpu_ns) as f64 / 1e6 / self.attempted.max(1) as f64
            }
            _ => 0.0,
        }
    }

    /// The windows between consecutive marks that completed an operation.
    fn windows(&self) -> Vec<Window> {
        let mut ops = self.ops.clone();
        ops.sort_by_key(|o| o.0);
        self.marks
            .windows(2)
            .map(|m| {
                let from = ops.partition_point(|o| o.0 <= m[0].at);
                let to = ops.partition_point(|o| o.0 <= m[1].at);
                Window {
                    group: m[1].group,
                    latencies_ms: ops[from..to].iter().map(|o| o.1).collect(),
                    wall_s: (m[1].at - m[0].at).as_secs_f64(),
                    cpu_ns: m[1].cpu_ns - m[0].cpu_ns,
                }
            })
            .filter(|w| !w.latencies_ms.is_empty())
            .collect()
    }

    /// The `keep` quietest windows of each group, ranked by CPU time per
    /// operation.
    fn quiet(&self, keep: usize) -> Vec<Window> {
        let mut windows = self.windows();
        windows.sort_by(|a, b| {
            a.group
                .cmp(&b.group)
                .then(a.cpu_per_op().total_cmp(&b.cpu_per_op()))
        });
        // (group, windows of it seen so far)
        let mut seen = (usize::MAX, 0);
        windows
            .into_iter()
            .filter(|w| {
                seen = (w.group, if w.group == seen.0 { seen.1 + 1 } else { 1 });
                seen.1 <= keep
            })
            .collect()
    }

    /// Reports the end-to-end metrics of an untraced pass: recorded in an
    /// untraced run, printed for information in a traced one.
    ///
    /// The host is shared, and its speed swings within fractions of a
    /// second. So the timing metrics are read over the `quiet` quietest
    /// windows of each group of windows that carry the same work, ranked
    /// by CPU time per operation: throughput over their wall time,
    /// latencies over their operations, CPU time over their operations.
    /// A fixed count, not a share, keeps the tail at one percentile
    /// whatever the host's speed.
    pub fn report(
        &self,
        report: &mut Report,
        workload: &str,
        quiet: usize,
        setup_s: f64,
        peak_rss_mb: f64,
    ) {
        let kept = self.quiet(quiet);
        let latencies: Vec<f64> = kept.iter().flat_map(|w| w.latencies_ms.clone()).collect();
        let wall_s: f64 = kept.iter().map(|w| w.wall_s).sum();
        let cpu_ns: u64 = kept.iter().map(|w| w.cpu_ns).sum();
        let (pct, tail_ms) = tail(&latencies);
        let success = (self.attempted - self.failed) as f64 / self.attempted as f64;
        println!(
            "{workload}: {} operations ({} failed) in {:.3} s; whole pass: {:.4} ops/s, {:.4} CPU ms per op; \
             metrics over the {} quietest of {} windows: {} operations in {wall_s:.3} s, tail = p{pct}",
            self.attempted,
            self.failed,
            self.wall_s,
            self.throughput(),
            self.cpu_ms_per_op(),
            kept.len(),
            self.marks.len().saturating_sub(1),
            latencies.len(),
        );
        let ops = latencies.len() as f64;
        for (name, value, unit) in [
            ("throughput_ops_s", success * ops / wall_s, "ops/s"),
            ("latency_p50_ms", median(&latencies), "ms"),
            ("latency_tail_ms", tail_ms, "ms"),
            ("cpu_ms_per_op", cpu_ns as f64 / 1e6 / ops, "ms"),
            ("success_rate", success, "ratio"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ] {
            report.e2e(workload, name, value, unit);
        }
        report.count(self);
    }
}

/// Least-squares slope of `ln y` over `ln x`: 1 for linear growth, 2
/// for quadratic.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), (95.0, 950.0));
        assert_eq!(tail(&samples[..100]), (90.0, 90.0));
        assert_eq!(tail(&samples[..30]), (50.0, 15.0));
        assert_eq!(tail(&samples[..5]), (0.0, 1.0));
    }

    #[test]
    fn quiet_keeps_the_cheapest_windows_of_each_group() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        let mut pass = Pass::default();
        pass.marks.push(Mark {
            at: at(0),
            cpu_ns: 0,
            group: 0,
        });
        // Group 0 costs 10, 40, 20, 30 ns per op; group 1 costs 100, 100.
        let cpu = [10, 100, 40, 100, 20, 30];
        let group = [0, 1, 0, 1, 0, 0];
        let mut used = 0;
        for i in 0..cpu.len() {
            pass.ops.push((at(10 * i as u64 + 5), i as f64));
            used += cpu[i];
            pass.marks.push(Mark {
                at: at(10 * i as u64 + 10),
                cpu_ns: used,
                group: group[i],
            });
        }
        let kept: Vec<f64> = pass
            .quiet(2)
            .iter()
            .flat_map(|w| w.latencies_ms.clone())
            .collect();
        assert_eq!(kept, vec![0.0, 4.0, 1.0, 3.0]);
        assert_eq!(pass.quiet(9).len(), 6);
    }

    #[test]
    fn slope_of_a_square_law_is_two() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((log_log_slope(&pts) - 2.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quiet_median(&[8.0, 1.0, 3.0, 2.0, 9.0, 7.0], 3), 2.0);
        assert_eq!(quiet_median(&[3.0, 1.0, 2.0], 3), 2.0);
    }
}
