//! The load generator: HTTP/1.1 keep-alive clients over loopback. Closed
//! loop for `popular-hot` (one thread and one connection per client),
//! pipelined open loop for `rob-unique` (a writer and a reader thread
//! sharing the connections).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Accumulates bytes from a socket and cuts complete responses out of them
/// (`Content-Length` framing, which is all the service emits for
/// non-streamed routes).
#[derive(Default)]
pub struct ReplyReader {
    buf: Vec<u8>,
}

impl ReplyReader {
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if the buffer holds one.
    pub fn next_reply(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut len = None;
        for l in lines {
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                }
            }
        }
        let len = len.ok_or("response without Content-Length")?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply { status, body }))
    }
}

pub fn connect(addr: &str) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Send one request on a keep-alive connection and read its response.
pub fn round_trip(
    stream: &mut TcpStream,
    reader: &mut ReplyReader,
    bytes: &[u8],
) -> io::Result<Reply> {
    stream.write_all(bytes)?;
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match reader.next_reply() {
            Ok(Some(r)) => return Ok(r),
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        reader.push(&tmp[..n]);
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ClosedLog {
    /// Per completed request: (completion time since the phase start, latency), ns.
    pub samples: Vec<(u64, u64)>,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
}

/// Closed loop: send `requests[order[i % n]]`, wait for the answer, repeat
/// until `end`. A reply counts as ok only when it is a 200 whose body equals
/// `expected` for the same index.
pub fn closed_loop(
    addr: &str,
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    order: &[usize],
    start: Instant,
    end: Instant,
) -> ClosedLog {
    let mut log = ClosedLog::default();
    let Ok(mut stream) = connect(addr) else {
        log.failed += 1;
        log.sent += 1;
        return log;
    };
    let mut reader = ReplyReader::default();
    let mut i = 0usize;
    while Instant::now() < end {
        let idx = order[i % order.len()];
        i += 1;
        let t0 = Instant::now();
        log.sent += 1;
        match round_trip(&mut stream, &mut reader, &requests[idx]) {
            Ok(r) if r.status == 200 && r.body == expected[idx] => {
                let t1 = Instant::now();
                log.ok += 1;
                log.samples
                    .push(((t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as u64));
            }
            Ok(_) => log.failed += 1,
            Err(_) => {
                log.failed += 1;
                break;
            }
        }
    }
    log
}

/// One request of the open loop.
#[derive(Debug, Clone)]
pub struct OpenDone {
    /// Index into the schedule.
    pub idx: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// `None` when no response arrived.
    pub done_ns: Option<u64>,
    pub reply: Option<Reply>,
}

impl OpenDone {
    /// Latency from the due time, which charges a stall to every request
    /// that was due while it lasted.
    pub fn latency_ns(&self) -> Option<u64> {
        self.done_ns.map(|d| d.saturating_sub(self.due_ns))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Open loop: job `i` = `(due_ns, bytes)` is written on connection
/// `i % conns` when due (times from `epoch`), never waiting for earlier
/// answers; responses are matched to requests in order per connection.
/// Two threads: a writer that sleeps until each due time, and a reader that
/// polls every connection and stamps each response as it completes. Waits
/// at most `grace` after the last due time for outstanding answers.
pub fn open_loop(
    addr: &str,
    conns: usize,
    jobs: &[(u64, &[u8])],
    epoch: Instant,
    grace: Duration,
) -> io::Result<Vec<OpenDone>> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<io::Result<_>>()?;
    let writers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<_>>()?;
    let fifos: Vec<Mutex<VecDeque<usize>>> =
        (0..conns).map(|_| Mutex::new(VecDeque::new())).collect();
    let sent_ns: Vec<AtomicU64> = jobs.iter().map(|j| AtomicU64::new(j.0)).collect();
    let writer_done = AtomicBool::new(false);
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let deadline_ns = jobs.last().map_or(0, |j| j.0) + grace.as_nanos() as u64;

    let replies = std::thread::scope(|sc| {
        sc.spawn(|| {
            let mut writers = writers;
            for (i, (due, bytes)) in jobs.iter().enumerate() {
                let now = now_ns();
                if *due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let c = i % conns;
                fifos[c].lock().expect("fifo lock").push_back(i);
                sent_ns[i].store(now_ns(), Ordering::Relaxed);
                if writers[c].write_all(bytes).is_err() {
                    break;
                }
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        let reader = sc.spawn(|| {
            let mut streams = streams;
            let mut readers: Vec<ReplyReader> =
                (0..conns).map(|_| ReplyReader::default()).collect();
            let mut open = vec![true; conns];
            let mut got: Vec<(usize, u64, Reply)> = Vec::with_capacity(jobs.len());
            let mut tmp = vec![0u8; 64 * 1024];
            loop {
                let idle = fifos
                    .iter()
                    .all(|f| f.lock().expect("fifo lock").is_empty());
                if (writer_done.load(Ordering::SeqCst) && idle)
                    || now_ns() > deadline_ns
                    || !open.iter().any(|&o| o)
                {
                    return got;
                }
                let mut fds: Vec<PollFd> = streams
                    .iter()
                    .map(|s| PollFd {
                        fd: s.as_raw_fd(),
                        events: POLLIN,
                        revents: 0,
                    })
                    .collect();
                // SAFETY: `fds` is a live, exclusively borrowed array of
                // `fds.len()` pollfd structs for the duration of the call.
                let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, 20) };
                if ready <= 0 {
                    continue;
                }
                for (c, fd) in fds.iter().enumerate() {
                    if fd.revents == 0 || !open[c] {
                        continue;
                    }
                    // Readable (or closed): a blocking read returns at once.
                    let n = match streams[c].read(&mut tmp) {
                        Ok(0) | Err(_) => {
                            open[c] = false;
                            continue;
                        }
                        Ok(n) => n,
                    };
                    let done = now_ns();
                    readers[c].push(&tmp[..n]);
                    while let Ok(Some(r)) = readers[c].next_reply() {
                        let Some(i) = fifos[c].lock().expect("fifo lock").pop_front() else {
                            break;
                        };
                        got.push((i, done, r));
                    }
                }
            }
        });
        reader.join().expect("reader thread")
    });
    let mut out: Vec<OpenDone> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| OpenDone {
            idx: i,
            due_ns: j.0,
            sent_ns: sent_ns[i].load(Ordering::Relaxed),
            done_ns: None,
            reply: None,
        })
        .collect();
    for (i, done, r) in replies {
        out[i].done_ns = Some(done);
        out[i].reply = Some(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server answering each request with a fixed 200,
    /// stalling once for `stall` before answering request number `stall_at`.
    fn stalling_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut tmp = [0u8; 4096];
            let mut served = 0usize;
            loop {
                while let Some(end) = buf.windows(4).position(|w: &[u8]| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .unwrap();
                }
                match s.read(&mut tmp) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&tmp[..n]),
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(2, stall);
        let req = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        // Ten requests due every 10 ms; the third stalls the server 200 ms.
        let jobs: Vec<(u64, &[u8])> = (0..10).map(|i| (i as u64 * 10_000_000, &req[..])).collect();
        let done = open_loop(&addr, 1, &jobs, Instant::now(), Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert!(done
            .iter()
            .all(|d| d.reply.as_ref().is_some_and(|r| r.status == 200)));
        let lat: Vec<u64> = done.iter().map(|d| d.latency_ns().unwrap()).collect();
        // Requests 2..=9 were all due before the stall ended (at ~220 ms):
        // each waits out the rest of it, measured from its own due time.
        for (i, &l) in lat.iter().enumerate().skip(2) {
            let stall_left = 220_000_000u64.saturating_sub(i as u64 * 10_000_000);
            assert!(
                l + 5_000_000 >= stall_left,
                "request {i}: {l} ns < {stall_left} ns"
            );
        }
        // The generator kept its schedule through the stall: nothing was
        // held back until the stall ended (a loaded test host may add a
        // little lag, never the 200 ms).
        assert!(done
            .iter()
            .all(|d| d.sent_ns.saturating_sub(d.due_ns) < 100_000_000));
        assert!(lat[0] < 50_000_000);
    }

    #[test]
    fn reader_cuts_pipelined_responses() {
        let mut r = ReplyReader::default();
        r.push(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 503 Service Unavailable\r\ncontent-length: 1");
        let a = r.next_reply().unwrap().unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"abc"[..]));
        assert!(r.next_reply().unwrap().is_none());
        r.push(b"\r\n\r\nx");
        let b = r.next_reply().unwrap().unwrap();
        assert_eq!((b.status, b.body.as_slice()), (503, &b"x"[..]));
    }
}
