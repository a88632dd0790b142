//! The server under test as a child process: boot, health, scrapes of
//! `/metrics` and `/v1/admin/status`, and `/proc` accounting.

use crate::loadgen::{connect, round_trip, ReplyReader};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use t2v_engine::Json;

/// `/proc/<pid>/stat` CPU times are in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_S: f64 = 100.0;

pub struct Server {
    child: std::process::Child,
    pub addr: String,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn `bin args…` and wait for its first healthy `/healthz`. Returns
    /// the server and the seconds from spawn to healthy.
    pub fn boot(bin: &Path, args: &[String]) -> io::Result<(Server, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server exited during boot:\n{log}"
                )));
            }
            log.push_str(&line);
            if let Some(rest) = line.split(" on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let mut server = Server {
            child,
            addr,
            stderr_drain: Some(stderr_drain),
        };
        loop {
            if matches!(server.get("/healthz"), Ok((200, _))) {
                break;
            }
            if t0.elapsed() > Duration::from_secs(120) {
                server.stop();
                return Err(io::Error::other("server never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// One GET on a fresh connection.
    pub fn get(&self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let mut s = connect(&self.addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        let req = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n");
        let r = round_trip(&mut s, &mut ReplyReader::default(), req.as_bytes())?;
        Ok((r.status, r.body))
    }

    /// Unlabelled samples of `/metrics`, plus histogram `_sum`/`_count`.
    pub fn metrics(&self) -> io::Result<HashMap<String, f64>> {
        let (_, body) = self.get("/metrics")?;
        let text = String::from_utf8_lossy(&body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                let name = it.next()?;
                let value = it.next()?.parse::<f64>().ok()?;
                (!name.contains('{')).then(|| (name.to_string(), value))
            })
            .collect())
    }

    /// `/v1/admin/status` as JSON.
    pub fn status(&self) -> io::Result<Json> {
        let (_, body) = self.get("/v1/admin/status")?;
        Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| io::Error::other(format!("{e:?}")))
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// utime + stime of the server process, in seconds.
    pub fn cpu_s(&self) -> io::Result<f64> {
        cpu_s_of(&self.proc_file("stat")?)
    }

    /// Peak resident set (VmHWM) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        vm_hwm_mb(&self.proc_file("status")?)
    }

    /// Kill the child and wait until it and the stderr reader have ended.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// utime + stime from a `/proc/<pid>/stat` line, in seconds.
pub fn cpu_s_of(stat: &str) -> io::Result<f64> {
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_S),
        _ => Err(io::Error::other("unparseable /proc stat")),
    }
}

/// VmHWM from a `/proc/<pid>/status` text, in MB.
pub fn vm_hwm_mb(status: &str) -> io::Result<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM"))
}

/// This process's CPU seconds and peak RSS (the in-process workload).
pub fn self_cpu_s() -> io::Result<f64> {
    cpu_s_of(&std::fs::read_to_string("/proc/self/stat")?)
}

pub fn self_peak_rss_mb() -> io::Result<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_parse() {
        let stat = "1234 (t2v serve) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(cpu_s_of(stat).unwrap(), 3.0);
        assert_eq!(
            vm_hwm_mb("VmPeak:\t 1 kB\nVmHWM:\t  2048 kB\n").unwrap(),
            2.0
        );
    }
}
