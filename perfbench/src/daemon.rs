//! The serve daemon as its own child process.
//!
//! The benchmark re-executes itself with `--daemon`, which runs exactly
//! what `pst serve --listen 127.0.0.1:0` runs: `pst_serve::serve_tcp`
//! with the default configuration and the obs features the `pst` binary
//! enables. Measuring a separate process keeps the client, the reference
//! session and the input generator out of the daemon's CPU time and
//! memory figures.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Entry point of the `--daemon` child. A watchdog thread ends the
/// process when its stdin closes, so a daemon can never outlive the
/// benchmark that started it.
pub fn run_child() -> i32 {
    std::thread::spawn(|| {
        let _ = io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    match pst_serve::serve_tcp(pst_serve::ServeConfig::default(), "127.0.0.1:0") {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            1
        }
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    // Held open for the daemon's lifetime: closing stdin stops it, and
    // stdout carries its announce line.
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts a daemon and waits until it announces its listening port.
    pub fn start() -> io::Result<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("no daemon stdin"))?;
        let mut stdout = BufReader::new(
            child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("no daemon stdout"))?,
        );
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("pst serve: listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| io::Error::other(format!("unexpected daemon announce line {line:?}")))?;
        Ok(Daemon {
            child,
            _stdin: stdin,
            _stdout: stdout,
            addr,
        })
    }

    /// CPU time the daemon has used so far, in nanoseconds: the sum of
    /// every thread's scheduler run time (`/proc/<pid>/task/*/schedstat`),
    /// which has nanosecond resolution, unlike the tick counts in `stat`.
    /// The daemon's threads live as long as it does, so none is missed.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            total += schedstat_ns(&task?.path().join("schedstat"))?;
        }
        Ok(total)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> io::Result<()> {
        let mut conn = TcpStream::connect(self.addr)?;
        conn.write_all(b"{\"method\":\"shutdown\"}\n")?;
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other(
            "daemon did not exit within 10 s of shutdown",
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// First field of a `schedstat` file: time spent on the CPU, in ns.
pub fn schedstat_ns(path: &std::path::Path) -> io::Result<u64> {
    let text = std::fs::read_to_string(path)?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::other(format!("unreadable {}", path.display())))
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(status_path)?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in {status_path}")))
}
