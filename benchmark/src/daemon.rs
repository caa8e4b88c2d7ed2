//! The shipped `gridband serve` as a child process: spawn, find its
//! port, read its CPU time and peak memory from `/proc`, kill it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its listen address. Recovery
/// over a large WAL directory happens before the listener opens.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it,
/// so no run can leave one behind.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// When `spawn` was called, for restart timings.
    pub spawned_at: Instant,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    /// Start `bin serve <args>` and wait for its "listening on" line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let spawned_at = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            // One admission thread whatever the caller's environment.
            .env_remove("GRIDBAND_ADMIT_THREADS")
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // The daemon logs to stderr for its whole life; keep draining
        // so it never blocks on a full pipe, and keep the text for
        // error reports.
        let stderr = std::thread::spawn(move || {
            let mut log = String::new();
            let mut tx = Some(tx);
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if let Some(at) = line.find("listening on ") {
                    let addr = line[at + "listening on ".len()..]
                        .split_whitespace()
                        .next()
                        .and_then(|a| a.parse::<SocketAddr>().ok());
                    if let (Some(addr), Some(tx)) = (addr, tx.take()) {
                        let _ = tx.send(addr);
                    }
                }
                if log.len() < 16_384 {
                    log.push_str(&line);
                    log.push('\n');
                }
            }
            log
        });
        let mut daemon = Daemon {
            child,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            spawned_at,
            stderr: Some(stderr),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => Err(format!("daemon never listened:\n{}", daemon.kill())),
        }
    }

    /// CPU time of all the daemon's threads so far, in seconds. Summed
    /// from each thread's `schedstat` (nanoseconds on a core, user and
    /// kernel) because `/proc/<pid>/stat` counts in 10 ms ticks, too
    /// coarse for half-second slices. The daemon's threads all live as
    /// long as it does, so none drops out of the sum.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut ns = 0u64;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry
                .map_err(|e| format!("{dir}: {e}"))?
                .path()
                .join("schedstat");
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            ns += text
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{}: malformed", path.display()))?;
        }
        Ok(ns as f64 / 1e9)
    }

    /// Peak resident set size in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        std::fs::read_to_string(&path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// SIGKILL the daemon, wait for it, and return what it logged.
    pub fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}
