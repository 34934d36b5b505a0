//! The repository benchmark: the `pst serve` daemon over real sockets
//! (`serve_hot`, `serve_churn`) and the paper's five phases in batch
//! (`batch_cfg`). See `perfbench/NOTES.md` for the workloads, metrics
//! and known findings.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_churn|batch_cfg> --seed N \
//!           --seconds S --trace <0|1> [--corrupt-every K]
//! ```
//!
//! An untraced run prints every end-to-end metric of one workload; a
//! traced run measures every layer of all three workloads and prints
//! every per-layer metric. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//! `--corrupt-every K` flips one byte of every K-th reply or output
//! digest before it is checked, which must show as failed operations.

// The same counting allocator as the `pst` binary, so the daemon child
// runs exactly what `pst serve` runs and batch phases can count
// allocations.
#[global_allocator]
static ALLOC: pst_perf::CountingAlloc = pst_perf::CountingAlloc::new();

mod batch;
mod daemon;
mod inputs;
mod serve;
mod stats;
mod trace;

use pst_obs::json::Json;

pub const WORKLOADS: [&str; 3] = ["serve_hot", "serve_churn", "batch_cfg"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt_every: u64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt_every) =
        (None, None, None, None, 0);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value} (expected one of {WORKLOADS:?})"
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1) as f64),
            "--trace" => trace = Some(number()? != 0),
            "--corrupt-every" => corrupt_every = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_every,
    })
}

/// Metrics and operation counts of one run.
#[derive(Default)]
pub struct Report {
    /// A traced run prints its end-to-end figures instead of reporting
    /// them.
    pub traced: bool,
    pub end_to_end: Vec<(String, f64, &'static str)>,
    pub per_layer: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside the counted operations (set-up replies, batch
    /// validation) that went wrong.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, workload: &str, name: &str, value: f64, unit: &'static str) {
        if self.traced {
            println!("{workload} untraced pass: {name} = {value} {unit}");
        } else {
            self.end_to_end.push((name.to_string(), value, unit));
        }
    }

    /// Counts a pass's operations.
    pub fn count(&mut self, pass: &stats::Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.per_layer.push((name.into(), value, unit));
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.problems.push(what);
    }
}

/// Flips one byte of every `every`-th output (the self-test hook).
pub struct Corrupter {
    every: u64,
    seen: u64,
}

impl Corrupter {
    pub fn new(every: u64) -> Corrupter {
        Corrupter { every, seen: 0 }
    }

    /// Whether the next output is to be corrupted.
    pub fn fires(&mut self) -> bool {
        self.seen += 1;
        self.every > 0 && self.seen.is_multiple_of(self.every)
    }
}

/// Where traced runs write their Chrome traces: under the build
/// directory, inside the checkout.
pub fn trace_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::Path::new(&base).join("perfbench-traces")
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if !args.trace {
        return match args.workload.as_str() {
            "serve_hot" => serve::hot(args, args.seconds, false, report),
            "serve_churn" => serve::churn(args, args.seconds, false, report),
            _ => batch::run(args, args.seconds, false, report),
        };
    }
    // A traced run measures every layer, so it runs all three workloads:
    // an untraced pass and a traced pass of a sixth of the run length
    // each, plus the layer probes, which keeps the whole run near the
    // length of three untraced runs.
    let sixth = (args.seconds / 6.0).max(1.0);
    serve::hot(args, sixth, true, report)?;
    serve::churn(args, sixth, true, report)?;
    batch::run(args, sixth, true, report)
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--daemon") {
        std::process::exit(daemon::run_child());
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--corrupt-every K]", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let mut report = Report {
        traced: args.trace,
        ..Report::default()
    };
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for (name, value, unit) in shown {
        println!("metric {name} = {value} {unit}");
    }
    let metrics = shown
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Float(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let correct = report.failed == 0 && report.problems.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(report.attempted)),
            ("failed", Json::UInt(report.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
}
