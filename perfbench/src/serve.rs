//! The serve workloads: closed loops of TCP clients against the daemon
//! child, every reply checked byte for byte against a reference.
//!
//! The reference is a fresh single-threaded `SharedSession` with the
//! daemon's configuration, fed the same lines in the same order, so its
//! replies (cache flags included) must equal the daemon's once the
//! envelope's `nanos` timing is zeroed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pst_obs::json::Json;
use pst_serve::{Request, ServeConfig, SharedSession};

use crate::daemon::Daemon;
use crate::inputs::{
    edge_list, json_str, log_stratified, messy_digraph, mini_source, rng, shuffle,
};
use crate::stats::{log_log_slope, median, quiet_median, Mark, Pass};
use crate::trace::{span_metrics, Tracer};
use crate::{Args, Corrupter, Report};

/// Daemon set-ups per untraced run, and how many of the quietest of them
/// `setup_s` is the median of (see `Pass::report`). A traced run sets up
/// once.
const SETUPS_HOT: usize = 12;
const QUIET_SETUPS_HOT: usize = 3;
const SETUPS_CHURN: usize = 3;

/// `serve_hot`: mini units and edge-list units, each at most 4 KB.
const HOT_UNITS_PER_KIND: usize = 8;
const HOT_MAX_BYTES: usize = 4096;
const HOT_CLIENTS: usize = 2;
/// `serve_hot`'s windows: one clock tick each, about 45 requests under
/// the daemon's reply stall. The timing metrics are read over the
/// quietest of them (see `Pass::report`), one per 3 s of the pass: about
/// a third of them, and over 200 requests in a 15 s pass, so the tail is
/// p95.
const HOT_WINDOW: Duration = Duration::from_secs(1);
const HOT_QUIET_WINDOWS_PER_S: f64 = 1.0 / 3.0;
const MINI_METHODS: [&str; 6] = [
    "pst",
    "control_regions",
    "controldep",
    "lint",
    "ssa",
    "dataflow",
];
const EDGE_METHODS: [&str; 5] = [
    "pst",
    "control_regions",
    "controldep",
    "lint",
    "canonicalize",
];

/// `serve_churn`: 3x the default 256-entry cache, Zipf(1) popularity,
/// seven log-spaced size classes from 1 to 64 KB.
const CHURN_UNITS: usize = 768;
const CHURN_WARM: usize = 256;
const CHURN_CLASSES_KB: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Requests per cycle: a multiple of the six methods and seven classes.
const CHURN_CYCLE: usize = 42;
/// A run holds only about six churn cycles, too few to leave any out:
/// the timing metrics are read over all of them (see `Pass::report`).
const CHURN_QUIET_CYCLES: usize = usize::MAX;
const CHURN_METHODS: [&str; 6] = [
    "pst",
    "control_regions",
    "ssa",
    "dataflow",
    "lint",
    "controldep",
];

/// Zeroes the envelope's `nanos` field: the only bytes of a reply that
/// legitimately differ between two sessions answering the same line.
pub fn normalize(reply: &str) -> String {
    const KEY: &str = ",\"nanos\":";
    match reply.find(KEY) {
        Some(at) => {
            let digits = at + KEY.len();
            let end = reply[digits..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(reply.len(), |n| digits + n);
            format!("{}0{}", &reply[..digits], &reply[end..])
        }
        None => reply.to_string(),
    }
}

fn io_err(context: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// One client connection. `TCP_NODELAY` is set and every request goes
/// out in a single write; nothing else is tuned, so whatever the daemon's
/// own writes cost on the wire shows in the client's latency.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged daemon ends the run with an error instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// One round trip: `line` (newline included) in one write, then the
    /// whole reply line.
    fn call(&mut self, line: &str) -> io::Result<&str> {
        self.stream.write_all(line.as_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// Sends `lines` back to back on `conn` while this thread reads the
/// replies, so neither side's socket buffer fills up.
fn pipeline(conn: &mut Conn, lines: &[String]) -> io::Result<Vec<String>> {
    let mut writer = conn.stream.try_clone()?;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<()> {
            for line in lines {
                writer.write_all(line.as_bytes())?;
            }
            Ok(())
        });
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            replies.push(normalize(conn.read_reply()?));
        }
        sender
            .join()
            .map_err(|_| io::Error::other("pipeline writer panicked"))??;
        Ok(replies)
    })
}

/// The reference session.
struct Reference(SharedSession);

impl Reference {
    fn new() -> Reference {
        Reference(SharedSession::new(ServeConfig::default()))
    }

    fn answer(&self, line: &str) -> String {
        normalize(&self.0.handle_line(line.trim_end()).line)
    }
}

/// Checks that a reference reply is a success: the workloads are chosen
/// so that no operation fails.
fn expect_ok(reply: &str) -> Result<(), String> {
    if reply.contains("\"ok\":true") {
        Ok(())
    } else {
        Err(format!(
            "workload request fails on the reference session: {}",
            &reply[..reply.len().min(300)]
        ))
    }
}

fn time_ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ns(&mut f) as f64).collect();
    median(&samples)
}

/// Starts `times` daemons one after another, each registering the
/// working set; keeps the last. Returns it, the connection that
/// registered (the first client goes on using it, so the daemon worker
/// that holds the working set also serves the loop), and the set-up
/// time (spawn to ready plus registration): the median of the `quiet`
/// quietest set-ups.
fn set_up(
    lines: &[String],
    expected: &[String],
    times: usize,
    quiet: usize,
    report: &mut Report,
) -> Result<(Daemon, Conn, f64), String> {
    let mut secs = Vec::new();
    let mut kept: Option<(Daemon, Conn)> = None;
    for _ in 0..times {
        if let Some((previous, conn)) = kept.take() {
            drop(conn);
            previous
                .stop()
                .map_err(io_err("stopping a set-up daemon"))?;
        }
        let started = Instant::now();
        let daemon = Daemon::start().map_err(io_err("starting the daemon"))?;
        let mut conn = Conn::open(daemon.addr).map_err(io_err("connecting"))?;
        let replies = pipeline(&mut conn, lines).map_err(io_err("registering the working set"))?;
        secs.push(started.elapsed().as_secs_f64());
        let wrong = replies.iter().zip(expected).filter(|(a, b)| a != b).count();
        if wrong > 0 {
            report.problem(format!("{wrong} set-up replies differ from the reference"));
        }
        kept = Some((daemon, conn));
    }
    let (daemon, conn) = kept.expect("at least one set-up");
    Ok((daemon, conn, quiet_median(&secs, quiet)))
}

/// The `stats` RPC's cache counters: (hits, misses, evictions).
fn cache_counters(addr: SocketAddr) -> Result<(u64, u64, u64), String> {
    let mut conn = Conn::open(addr).map_err(io_err("stats"))?;
    let reply = Json::parse(
        conn.call("{\"method\":\"stats\"}\n")
            .map_err(io_err("stats"))?,
    )
    .map_err(|e| format!("stats reply: {e}"))?;
    let cache = reply
        .get("result")
        .and_then(|r| r.get("cache"))
        .ok_or("stats reply has no cache")?;
    let field = |k: &str| {
        cache
            .get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("stats cache has no {k}"))
    };
    Ok((field("hits")?, field("misses")?, field("evictions")?))
}

// ---------------------------------------------------------------- serve_hot

struct HotMix {
    setup: Vec<String>,
    setup_expected: Vec<String>,
    cycle: Vec<String>,
    expected: Vec<String>,
}

/// Eight mini sources and eight edge lists (half valid `random_cfg`s,
/// half messy digraphs), each at most 4 KB; every method registered at
/// set-up, so every request of the cycle is a memo hit, half by unit id
/// and half inline.
fn hot_mix(seed: u64, reference: &Reference) -> Result<HotMix, String> {
    let mut units: Vec<(&str, String, &[&str])> = Vec::new();
    for i in 0..HOT_UNITS_PER_KIND {
        let bytes = log_stratified(512.0, HOT_MAX_BYTES as f64, HOT_UNITS_PER_KIND, i) as usize;
        units.push((
            "source",
            mini_source(bytes, seed.wrapping_add(1000 * i as u64)),
            &MINI_METHODS,
        ));
    }
    for i in 0..HOT_UNITS_PER_KIND {
        let mut nodes = log_stratified(48.0, 320.0, HOT_UNITS_PER_KIND, i) as usize;
        let unit_seed = seed.wrapping_add(7919 * i as u64);
        let text = loop {
            let text = if i % 2 == 0 {
                let cfg = pst_workloads::random_cfg(nodes, nodes / 4, unit_seed)
                    .map_err(|e| e.to_string())?;
                edge_list(cfg.graph())
            } else {
                edge_list(&messy_digraph(nodes, i % 4 == 1, unit_seed).0)
            };
            if text.len() <= HOT_MAX_BYTES {
                break text;
            }
            nodes = nodes * 9 / 10;
        };
        units.push(("edges", text, &EDGE_METHODS));
    }
    let mut setup = Vec::new();
    for (u, (field, text, methods)) in units.iter().enumerate() {
        for m in methods.iter() {
            setup.push(format!(
                "{{\"id\":\"s{u}.{m}\",\"method\":\"{m}\",\"{field}\":{}}}\n",
                json_str(text)
            ));
        }
    }
    let setup_expected: Vec<String> = setup.iter().map(|l| reference.answer(l)).collect();
    let mut cycle = Vec::new();
    let mut at = 0;
    for (u, (field, text, methods)) in units.iter().enumerate() {
        let first = Json::parse(&setup_expected[at]).map_err(|e| e.to_string())?;
        let Some(Json::Str(hex)) = first.get("unit") else {
            return Err("registration reply names no unit".into());
        };
        for m in methods.iter() {
            expect_ok(&setup_expected[at])?;
            at += 1;
            cycle.push(format!(
                "{{\"id\":\"h{u}.{m}.u\",\"method\":\"{m}\",\"unit\":\"{hex}\"}}\n"
            ));
            cycle.push(format!(
                "{{\"id\":\"h{u}.{m}.i\",\"method\":\"{m}\",\"{field}\":{}}}\n",
                json_str(text)
            ));
        }
    }
    shuffle(&mut cycle, &mut rng(seed, 1));
    let expected: Vec<String> = cycle.iter().map(|l| reference.answer(l)).collect();
    if let Some(cold) = expected.iter().find(|r| !r.contains("\"cached\":true")) {
        return Err(format!(
            "serve_hot request is not a memo hit: {}",
            &cold[..cold.len().min(200)]
        ));
    }
    Ok(HotMix {
        setup,
        setup_expected,
        cycle,
        expected,
    })
}

/// Compares a reply with its expected bytes (after the self-test hook).
fn reply_ok(reply: &str, expected: &str, corrupt: &mut Corrupter) -> bool {
    let mut got = normalize(reply);
    if corrupt.fires() {
        got.replace_range(..1, "#");
    }
    got == expected
}

/// One client of the hot loop: its share of the cycle, whole shares
/// until the deadline has passed.
fn hot_client(
    conn: &mut Conn,
    mix: &HotMix,
    client: usize,
    deadline: Instant,
    tracer: &mut Tracer,
    every: u64,
) -> io::Result<Pass> {
    let mut corrupt = Corrupter::new(every);
    let mut pass = Pass::default();
    let mine: Vec<usize> = (client..mix.cycle.len()).step_by(HOT_CLIENTS).collect();
    loop {
        for &i in &mine {
            let op = ((client as u64) << 40) | pass.attempted;
            let root = tracer.begin(op, "op", None);
            let rpc = tracer.begin(op, "rpc", Some(root));
            let started = Instant::now();
            let reply = conn.call(&mix.cycle[i])?;
            let ns = started.elapsed().as_nanos() as u64;
            tracer.end(rpc);
            let check = tracer.begin(op, "check", Some(root));
            let ok = reply_ok(reply, &mix.expected[i], &mut corrupt);
            tracer.end(check);
            tracer.end(root);
            pass.attempted += 1;
            pass.failed += u64::from(!ok);
            pass.op(ns);
            pass.rtts.push((i, ns));
        }
        if Instant::now() >= deadline {
            return Ok(pass);
        }
    }
}

fn hot_pass(
    daemon: &Daemon,
    conns: &mut [Conn],
    mix: &HotMix,
    seconds: f64,
    traced: bool,
    every: u64,
) -> Result<(Pass, Tracer), String> {
    let mut tracer = Tracer::new(traced);
    let cpu = || daemon.cpu_ns().map_err(io_err("daemon CPU"));
    let started = Instant::now();
    let mut marks = vec![Mark::new(cpu()?, 0)];
    let deadline = started + Duration::from_secs_f64(seconds);
    let results: Result<Vec<io::Result<(Pass, Tracer)>>, String> = std::thread::scope(|scope| {
        let clients: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced);
                    let pass = hot_client(conn, mix, c, deadline, &mut tracer, every)?;
                    Ok((pass, tracer))
                })
            })
            .collect();
        // The two clients' requests interleave, so there is no cycle
        // boundary to cut windows at: the daemon's CPU is read on a clock
        // tick instead.
        let mut tick = started + HOT_WINDOW;
        while !clients.iter().all(|h| h.is_finished()) {
            let now = Instant::now();
            if now >= tick {
                marks.push(Mark::new(cpu()?, 0));
                tick += HOT_WINDOW;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect())
    });
    let wall_s = started.elapsed().as_secs_f64();
    marks.push(Mark::new(cpu()?, 0));
    let mut pass = Pass::default();
    for r in results? {
        let (p, t) = r.map_err(io_err("serve_hot client"))?;
        pass.absorb(p);
        tracer.absorb(t);
    }
    pass.wall_s = wall_s;
    pass.marks = marks;
    Ok((pass, tracer))
}

pub fn hot(args: &Args, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let reference = Reference::new();
    let mix = hot_mix(args.seed, &reference)?;
    let (daemon, first, setup_s) = set_up(
        &mix.setup,
        &mix.setup_expected,
        if traced { 1 } else { SETUPS_HOT },
        QUIET_SETUPS_HOT,
        report,
    )?;
    let mut conns = vec![first];
    while conns.len() < HOT_CLIENTS {
        conns.push(Conn::open(daemon.addr).map_err(io_err("connecting"))?);
    }
    if traced {
        let before = daemon.cpu_ns().map_err(io_err("daemon CPU"))?;
        std::thread::sleep(Duration::from_secs(1));
        let idle = daemon.cpu_ns().map_err(io_err("daemon CPU"))? - before;
        report.layer("server.idle_cpu_ms_per_s", idle as f64 / 1e6, "ms/s");
    }
    let (pass, _) = hot_pass(
        &daemon,
        &mut conns,
        &mix,
        seconds,
        false,
        args.corrupt_every,
    )?;
    let rss = daemon.peak_rss_mb().map_err(io_err("daemon VmHWM"))?;
    let quiet = ((seconds * HOT_QUIET_WINDOWS_PER_S).round() as usize).max(1);
    pass.report(report, "serve_hot", quiet, setup_s, rss);
    if traced {
        let (traced_pass, tracer) =
            hot_pass(&daemon, &mut conns, &mix, seconds, true, args.corrupt_every)?;
        report.count(&traced_pass);
        let inproc = hot_layers(&mix, &reference, report)?;
        let transport: Vec<f64> = traced_pass
            .rtts
            .iter()
            .map(|&(i, ns)| (ns as f64 - inproc[i]) / 1e3)
            .collect();
        report.layer("server.transport_us_p50", median(&transport), "us");
        span_metrics(report, "serve_hot", &tracer, &["rpc"], &pass, &traced_pass)?;
    }
    drop(conns);
    daemon.stop().map_err(io_err("stopping the daemon"))
}

/// In-process layer probes on the hot mix. Returns the in-process
/// `handle_line` time of each cycle line (ns), for the transport split.
fn hot_layers(
    mix: &HotMix,
    reference: &Reference,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let inproc: Vec<f64> = mix
        .cycle
        .iter()
        .map(|l| median_ns(5, || drop(reference.0.handle_line(l.trim_end()))))
        .collect();
    report.layer("shared.hit_us_p50", median(&inproc) / 1e3, "us");

    let window = Duration::from_millis(400);
    let hits_in_window = || {
        let end = Instant::now() + window;
        let mut n = 0u64;
        while Instant::now() < end {
            for l in &mix.cycle {
                drop(reference.0.handle_line(l.trim_end()));
                n += 1;
            }
        }
        n
    };
    let one = hits_in_window();
    let two: u64 = std::thread::scope(|s| {
        let a = s.spawn(hits_in_window);
        let b = s.spawn(hits_in_window);
        a.join().unwrap_or(0) + b.join().unwrap_or(0)
    });
    report.layer("shared.scaling_2v1", two as f64 / one as f64, "ratio");

    let parse: Vec<f64> = mix
        .cycle
        .iter()
        .map(|l| median_ns(5, || drop(Request::parse(l.trim_end()))))
        .collect();
    report.layer("proto.request_parse_us_p50", median(&parse) / 1e3, "us");

    let (mut render_ns, mut render_bytes) = (0.0, 0usize);
    for reply in &mix.expected {
        let json = Json::parse(reply).map_err(|e| e.to_string())?;
        let mut bytes = 0;
        render_ns += median_ns(5, || bytes = json.to_string().len());
        render_bytes += bytes;
    }
    report.layer(
        "json.render_ns_per_byte",
        render_ns / render_bytes as f64,
        "ns/B",
    );

    let session = |window_ms| {
        let s = SharedSession::new(ServeConfig {
            metrics_window_ms: window_ms,
            ..ServeConfig::default()
        });
        for l in &mix.setup {
            drop(s.handle_line(l.trim_end()));
        }
        s
    };
    let (on, off) = (
        session(ServeConfig::default().metrics_window_ms),
        session(0),
    );
    let (mut on_ns, mut off_ns) = (0u64, 0u64);
    for _ in 0..5 {
        for (s, total) in [(&on, &mut on_ns), (&off, &mut off_ns)] {
            *total += time_ns(|| {
                for l in &mix.cycle {
                    drop(s.handle_line(l.trim_end()));
                }
            });
        }
    }
    report.layer(
        "metrics.overhead_ratio",
        on_ns as f64 / off_ns as f64,
        "ratio",
    );
    Ok(inproc)
}

// -------------------------------------------------------------- serve_churn

struct ChurnMix {
    /// Mini source of each popularity rank (rank 0 is the most popular).
    sources: Vec<String>,
    /// The same, as JSON string literals.
    escaped: Vec<String>,
    /// Zipf(1) cumulative distribution over ranks.
    cdf: Vec<f64>,
}

impl ChurnMix {
    fn new(seed: u64) -> ChurnMix {
        let sources: Vec<String> = (0..CHURN_UNITS)
            .map(|r| {
                mini_source(
                    Self::class_kb(r) * 1024,
                    seed.wrapping_add(100_003 * r as u64),
                )
            })
            .collect();
        let escaped = sources.iter().map(|s| json_str(s)).collect();
        let weights: Vec<f64> = (0..CHURN_UNITS).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ChurnMix {
            sources,
            escaped,
            cdf,
        }
    }

    /// Size class of a rank: interleaved, so every stretch of seven
    /// ranks holds each class once.
    fn class_kb(rank: usize) -> usize {
        CHURN_CLASSES_KB[rank % CHURN_CLASSES_KB.len()]
    }

    fn rank_at(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(CHURN_UNITS - 1)
    }

    /// The warm set registered at set-up: the cache's worth of the most
    /// popular units, least popular first so the hottest are the most
    /// recently used.
    fn warm(&self) -> Vec<String> {
        (0..CHURN_WARM)
            .rev()
            .map(|r| {
                format!(
                    "{{\"id\":\"w{r}\",\"method\":\"pst\",\"source\":{}}}\n",
                    self.escaped[r]
                )
            })
            .collect()
    }

    /// Cycle `c` of the request sequence: one request per equal slice of
    /// the Zipf distribution. A slice spanning fewer than two ranks of
    /// each class sends its middle rank; a wider (tail) slice picks, at
    /// random, one of its ranks of the slot's size class. So every cycle
    /// carries the same mix of classes and methods while its tail units
    /// change.
    fn cycle(&self, seed: u64, c: u64) -> Vec<String> {
        let mut r = rng(seed, 1_000 + c);
        let classes = CHURN_CLASSES_KB.len();
        let mut lines: Vec<String> = (0..CHURN_CYCLE)
            .map(|k| {
                let lo = self.rank_at(k as f64 / CHURN_CYCLE as f64);
                let hi = self.rank_at((k + 1) as f64 / CHURN_CYCLE as f64);
                let rank = if hi - lo + 1 >= 2 * classes {
                    let class = (k + c as usize) % classes;
                    let first = lo + (class + classes - lo % classes) % classes;
                    first + classes * r.below(((hi - first) / classes + 1) as u64) as usize
                } else {
                    self.rank_at((k as f64 + 0.5) / CHURN_CYCLE as f64)
                };
                let method = CHURN_METHODS[(k + c as usize) % CHURN_METHODS.len()];
                format!(
                    "{{\"id\":\"c{c}.{k}\",\"method\":\"{method}\",\"source\":{}}}\n",
                    self.escaped[rank]
                )
            })
            .collect();
        shuffle(&mut lines, &mut r);
        lines
    }
}

/// Sends whole cycles from `first_cycle` on until the deadline has
/// passed. Returns the pass and the replies received.
fn churn_pass(
    daemon: &Daemon,
    conn: &mut Conn,
    mix: &ChurnMix,
    seed: u64,
    first_cycle: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Pass, Vec<String>), String> {
    let mut pass = Pass::default();
    let mut replies = Vec::new();
    let cpu = || daemon.cpu_ns().map_err(io_err("daemon CPU"));
    let started = Instant::now();
    pass.marks.push(Mark::new(cpu()?, 0));
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut c = first_cycle;
    while Instant::now() < deadline {
        for line in mix.cycle(seed, c) {
            let op = pass.attempted + (first_cycle << 32);
            let root = tracer.begin(op, "op", None);
            let rpc = tracer.begin(op, "rpc", Some(root));
            let t = Instant::now();
            let reply = conn.call(&line).map_err(io_err("serve_churn request"))?;
            let ns = t.elapsed().as_nanos() as u64;
            tracer.end(rpc);
            let keep = tracer.begin(op, "check", Some(root));
            replies.push(normalize(reply));
            tracer.end(keep);
            tracer.end(root);
            pass.op(ns);
            pass.attempted += 1;
        }
        c += 1;
        pass.marks.push(Mark::new(cpu()?, 0));
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    Ok((pass, replies))
}

/// Replays the cycles a pass sent, from `first_cycle` on, through the
/// reference in order, and counts the replies that differ.
fn churn_check(
    reference: &Reference,
    mix: &ChurnMix,
    seed: u64,
    first_cycle: u64,
    replies: &[String],
    every: u64,
) -> u64 {
    let mut corrupt = Corrupter::new(every);
    let cycles = (replies.len() / CHURN_CYCLE) as u64;
    (first_cycle..first_cycle + cycles)
        .flat_map(|c| mix.cycle(seed, c))
        .zip(replies)
        .filter(|(line, reply)| !reply_ok(reply, &reference.answer(line), &mut corrupt))
        .count() as u64
}

pub fn churn(args: &Args, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let mix = ChurnMix::new(args.seed);
    let reference = Reference::new();
    let warm = mix.warm();
    let warm_expected: Vec<String> = warm.iter().map(|l| reference.answer(l)).collect();
    for r in &warm_expected {
        expect_ok(r)?;
    }
    let (daemon, mut conn, setup_s) = set_up(
        &warm,
        &warm_expected,
        if traced { 1 } else { SETUPS_CHURN },
        SETUPS_CHURN,
        report,
    )?;
    let before = cache_counters(daemon.addr)?;
    let mut untraced_tracer = Tracer::new(false);
    let (mut pass, replies) = churn_pass(
        &daemon,
        &mut conn,
        &mix,
        args.seed,
        0,
        seconds,
        &mut untraced_tracer,
    )?;
    let cycles = (replies.len() / CHURN_CYCLE) as u64;
    pass.failed = churn_check(&reference, &mix, args.seed, 0, &replies, args.corrupt_every);
    let rss = daemon.peak_rss_mb().map_err(io_err("daemon VmHWM"))?;
    pass.report(report, "serve_churn", CHURN_QUIET_CYCLES, setup_s, rss);
    if traced {
        let mut tracer = Tracer::new(true);
        let (mut traced_pass, replies) = churn_pass(
            &daemon,
            &mut conn,
            &mix,
            args.seed,
            cycles,
            seconds,
            &mut tracer,
        )?;
        traced_pass.failed = churn_check(
            &reference,
            &mix,
            args.seed,
            cycles,
            &replies,
            args.corrupt_every,
        );
        report.count(&traced_pass);
        let after = cache_counters(daemon.addr)?;
        let requests = (pass.attempted + traced_pass.attempted) as f64;
        let (hits, misses, evictions) =
            (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        report.layer(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        report.layer(
            "cache.evictions_per_kreq",
            evictions as f64 * 1e3 / requests,
            "1/kreq",
        );
        span_metrics(
            report,
            "serve_churn",
            &tracer,
            &["rpc"],
            &pass,
            &traced_pass,
        )?;
        churn_layers(&mix, args.seed, report)?;
    } else {
        let after = cache_counters(daemon.addr)?;
        println!(
            "serve_churn: {cycles} cycles; cache hits {}, misses {}, evictions {} during the pass",
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2
        );
    }
    drop(conn);
    daemon.stop().map_err(io_err("stopping the daemon"))
}

/// In-process layer probes on churn units: the wire parser's growth,
/// registration, and the per-method analyses.
fn churn_layers(mix: &ChurnMix, seed: u64, report: &mut Report) -> Result<(), String> {
    let parse = |line: &str| median_ns(3, || drop(Json::parse(line)));
    let rank_64k = CHURN_CLASSES_KB.len() - 1;
    let line = format!(
        "{{\"method\":\"pst\",\"source\":{}}}",
        mix.escaped[rank_64k]
    );
    report.layer(
        "json.parse_ns_per_byte",
        parse(&line) / line.len() as f64,
        "ns/B",
    );
    let points: Vec<(f64, f64)> = [1usize, 4, 16, 64, 256]
        .iter()
        .map(|kb| {
            let line = format!(
                "{{\"method\":\"pst\",\"source\":{}}}",
                json_str(&mini_source(kb * 1024, seed))
            );
            (line.len() as f64, parse(&line))
        })
        .collect();
    for (bytes, ns) in &points {
        println!(
            "json parse: {bytes} B line in {:.3} ms ({:.1} ns/B)",
            ns / 1e6,
            ns / bytes
        );
    }
    report.layer("json.parse_slope", log_log_slope(&points), "slope");

    // Two units of each size class, past the head of the distribution.
    let sample: Vec<usize> = (CHURN_CLASSES_KB.len()..3 * CHURN_CLASSES_KB.len()).collect();
    let session = SharedSession::new(ServeConfig::default());
    let register: Vec<f64> = sample
        .iter()
        .map(|&r| {
            // `canonicalize` does not apply to mini units: the session
            // registers the unit, then answers `unsupported`, so cold
            // minus warm is the registration alone.
            let line = format!(
                "{{\"method\":\"canonicalize\",\"source\":{}}}",
                mix.escaped[r]
            );
            let cold = time_ns(|| drop(session.handle_line(&line))) as f64;
            let warm = median_ns(3, || drop(session.handle_line(&line)));
            (cold - warm) / 1e6
        })
        .collect();
    report.layer("session.register_ms_p50", median(&register), "ms");

    let (mut parse_ns, mut lower_ns, mut bytes, mut edges) = (0u64, 0u64, 0usize, 0usize);
    let (mut ssa, mut dataflow, mut lint, mut controldep, mut dataflow_allocs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for &r in &sample {
        let source = &mix.sources[r];
        let mut program = None;
        parse_ns += time_ns(|| program = pst_lang::parse_program(source).ok());
        let program = program.ok_or("churn source does not parse")?;
        let mut lowered = None;
        lower_ns += time_ns(|| lowered = pst_lang::lower_program(&program).ok());
        let lowered = lowered.ok_or("churn source does not lower")?;
        bytes += source.len();
        for (f, ast) in lowered.iter().zip(&program.functions) {
            edges += f.cfg.edge_count();
            let pst = pst_core::ProgramStructureTree::build(&f.cfg);
            ssa += time_ns(|| {
                let collapsed = pst_core::collapse_all(&f.cfg, &pst);
                if let Ok(sparse) = pst_ssa::place_phis_pst(f, &pst, &collapsed) {
                    drop(pst_ssa::rename(f, &sparse.placement));
                }
            });
            let allocs_before = pst_perf::alloc::snapshot();
            dataflow += time_ns(|| {
                if let Ok(ctx) = pst_dataflow::QpgContext::new(&f.cfg, &pst) {
                    for v in 0..f.var_count() {
                        let problem = pst_dataflow::SingleVariableReachingDefs::new(
                            f,
                            pst_lang::VarId::from_index(v),
                        );
                        if let Ok(qpg) = ctx.build_from_sites(problem.sites()) {
                            drop(ctx.solve(&qpg, &problem));
                        }
                        drop(pst_dataflow::solve_iterative(&f.cfg, &problem));
                    }
                }
            });
            dataflow_allocs +=
                pst_perf::alloc::delta(&allocs_before, &pst_perf::alloc::snapshot()).allocs;
            lint += time_ns(|| {
                drop(pst_analysis::lint_function(
                    f,
                    Some(ast),
                    &pst_analysis::LintConfig::new(),
                ))
            });
            controldep += time_ns(|| drop(pst_controldep::StrongControlDeps::of_cfg(&f.cfg)));
        }
    }
    let per_edge = |ns: u64| ns as f64 / edges as f64;
    report.layer(
        "lang.parse_ns_per_byte",
        parse_ns as f64 / bytes as f64,
        "ns/B",
    );
    report.layer("lang.lower_ns_per_edge", per_edge(lower_ns), "ns/edge");
    report.layer("ssa.ns_per_edge", per_edge(ssa), "ns/edge");
    report.layer("dataflow.ns_per_edge", per_edge(dataflow), "ns/edge");
    report.layer(
        "dataflow.allocs_per_edge",
        per_edge(dataflow_allocs),
        "allocs/edge",
    );
    report.layer("lint.ns_per_edge", per_edge(lint), "ns/edge");
    report.layer("controldep.ns_per_edge", per_edge(controldep), "ns/edge");
    Ok(())
}
