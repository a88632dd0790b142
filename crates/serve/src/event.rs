//! The epoll event-loop connection driver (`net=event`, the default).
//!
//! One loop thread owns every socket: it accepts, accumulates request
//! bytes into pooled buffers, runs the incremental parser
//! ([`crate::http::parse_request`]), and writes queued response segments
//! out with vectored (`writev`) writes. The loop's per-connection cost is
//! a state enum, a read buffer, and an output queue — which is how tens of
//! thousands of keep-alive sockets fit where thread-per-connection runs
//! out of stacks.
//!
//! Request logic runs on the loop only where it cannot wait. A translate
//! request (`POST /v1/translate`, `POST /v1/t/{tenant}/translate`) runs
//! its front half there — parse, validate, cache lookup — and a fresh
//! cache hit or a validation 4xx is answered on the spot, through the same
//! trace, metrics and response code as every other request
//! ([`crate::server::answer_on_loop`]). Everything that might block — a
//! cache miss, a stream, every other route, and any request while a fault
//! plan is armed — goes to a small dispatch thread pool that runs the rest
//! with the same code as the threaded driver (which is what keeps the two
//! drivers byte-identical). Translation CPU still belongs to the
//! [`crate::pool::WorkerPool`] beyond that.
//!
//! Per-connection state machine:
//!
//! ```text
//!                   ┌── hit or 4xx, answered on the loop ──────────────┐
//!                   │                                                  ▼
//! Reading ── parse complete ──▶ Dispatched ── response queued ──▶ Writing
//!    ▲                      (job on dispatch thread)                   │
//!    └────────── KeepAlive ◀── queue drained, keep-alive ◀─────────────┘
//! ```
//!
//! A drained keep-alive response moves straight on to the next buffered
//! (pipelined) request, in a loop rather than by recursion. At most
//! [`INLINE_BUDGET`] requests per connection are answered on the loop per
//! readiness event; past that the connection waits for write readiness,
//! which the level-triggered poller reports on the next turn, so one deep
//! pipeline cannot starve the other sockets. A panic in loop-side request
//! code is contained like a dispatch-thread panic: it counts in
//! `t2v_worker_panics_total` and closes only that connection, and the
//! loop's locks shrug off the poison it may leave.
//!
//! `Reading` and `KeepAlive` sockets are reaped after `conn_idle_ms`
//! (default: `keep_alive_secs`) without progress — which covers both idle
//! keep-alive peers and slow-loris drip-feeders. Shutdown drains: the
//! listener closes immediately, idle connections close, in-flight
//! requests finish their response (bounded by a drain budget), and only
//! then does the loop exit.
//!
//! Dispatch threads communicate readiness back through a shared ready
//! list plus a [`t2v_net::Waker`] (an eventfd) — response bytes are
//! produced into a per-connection [`ConnOut`] queue under a mutex the
//! loop holds only long enough to build `IoSlice`s. A queue past
//! [`OUT_HIGH_WATER`] blocks the *dispatch* thread (backpressure against
//! a slow peer), never the loop.

use crate::http::{self, BodySink, Parse};
use crate::server::{answer_on_loop, fd_exhausted, write_read_error, Deferred, OnLoop, Shared};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use t2v_net::{BufferPool, Event, Interest, Poller, Waker};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Writer-side backpressure threshold: a dispatch thread producing
/// response bytes faster than the peer drains them blocks once this many
/// bytes are queued on the connection.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Segments per `writev` call.
const MAX_IOVECS: usize = 16;

/// Dispatch-side flush granularity: response bytes ship to the loop in
/// segments of roughly this size instead of one final lump.
const SEG_TARGET: usize = 64 * 1024;

/// Read scratch size (one shared buffer, loop-local).
const READ_CHUNK: usize = 64 * 1024;

/// Stop draining a single readable socket into memory past this much
/// unparsed input; the level-triggered poller re-offers the rest.
const SOFT_IN_CAP: usize = 256 * 1024;

/// How long shutdown waits for in-flight requests before force-closing.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// How long the listener stays parked after EMFILE/ENFILE.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Requests one connection may have answered on the loop thread per
/// readiness event before the loop moves on to other sockets.
const INLINE_BUDGET: u32 = 64;

/// Lock a mutex the loop shares, ignoring poison: the data behind every
/// such lock stays consistent across a panic (plain queues and flags), and
/// a poisoned lock must not turn one panicked request into a dead loop.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Response segments: dispatch threads → loop
// ---------------------------------------------------------------------------

/// One queued run of response bytes. `Shared` is the zero-copy lane: a
/// cached body's `Arc` rides to `writev` without duplication.
enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Seg {
    fn as_slice(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(v) => v,
        }
    }
}

#[derive(Default)]
struct OutState {
    segs: VecDeque<Seg>,
    /// Bytes of the front segment already written to the socket.
    front_written: usize,
    /// Total queued-but-unwritten bytes (backpressure accounting).
    bytes: usize,
    /// Set exactly once, when the dispatch job finished: keep-alive?
    done: Option<bool>,
    /// The loop closed the connection; writers fail fast from here on.
    closed: bool,
}

impl OutState {
    fn enqueue(&mut self, seg: Seg) {
        self.bytes += seg.as_slice().len();
        self.segs.push_back(seg);
    }
}

/// The per-connection output queue. The loop and the connection's dispatch
/// thread share it; the condvar wakes a writer blocked on the high-water
/// mark (or on `closed`).
struct ConnOut {
    state: Mutex<OutState>,
    cv: Condvar,
}

impl ConnOut {
    fn new() -> Arc<ConnOut> {
        Arc::new(ConnOut {
            state: Mutex::new(OutState::default()),
            cv: Condvar::new(),
        })
    }
}

/// What dispatch threads share with the loop: the wakeup fd plus the list
/// of connections with fresh output. Wakes coalesce; duplicate tokens are
/// harmless (pumping is idempotent).
struct ReactorShared {
    waker: Waker,
    ready: Mutex<Vec<u64>>,
}

impl ReactorShared {
    fn notify(&self, token: u64) {
        lock(&self.ready).push(token);
        self.waker.wake();
    }
}

/// The [`BodySink`] a dispatch thread writes a response into: bytes
/// accumulate locally and ship to the loop as segments on flush (or when a
/// segment's worth has built up); shared cache-hit bodies ship as their
/// `Arc`. Dropped without [`ConnWriter::finish`] (a panicked job), it
/// reports `done = close` so the connection can never leak.
struct ConnWriter {
    out: Arc<ConnOut>,
    reactor: Arc<ReactorShared>,
    token: u64,
    buf: Vec<u8>,
    finished: bool,
}

impl ConnWriter {
    fn new(out: Arc<ConnOut>, reactor: Arc<ReactorShared>, token: u64) -> ConnWriter {
        ConnWriter {
            out,
            reactor,
            token,
            buf: Vec::new(),
            finished: false,
        }
    }

    /// Queue one segment, blocking while the connection is past the
    /// high-water mark. Errors once the loop has closed the connection.
    fn push(&self, seg: Seg) -> io::Result<()> {
        let len = seg.as_slice().len();
        if len == 0 {
            return Ok(());
        }
        let mut st = lock(&self.out.state);
        loop {
            if st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection closed",
                ));
            }
            if st.bytes < OUT_HIGH_WATER {
                break;
            }
            st = self.out.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.enqueue(seg);
        drop(st);
        self.reactor.notify(self.token);
        Ok(())
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let seg = Seg::Owned(std::mem::take(&mut self.buf));
        self.push(seg)
    }

    /// Seal the response: flush everything and publish the keep-alive
    /// verdict. A write failure (peer gone) demotes `keep` to close.
    fn finish(mut self, keep: bool) {
        let flushed = self.flush_buf().is_ok();
        self.seal(keep && flushed);
    }

    fn seal(&mut self, keep: bool) {
        if self.finished {
            return;
        }
        self.finished = true;
        {
            let mut st = lock(&self.out.state);
            st.done = Some(keep);
        }
        self.reactor.notify(self.token);
    }
}

impl Drop for ConnWriter {
    fn drop(&mut self) {
        // A job that never called `finish` (panic, dropped queue entry at
        // shutdown) still resolves the connection — as a close.
        self.seal(false);
    }
}

impl Write for ConnWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() >= SEG_TARGET {
            self.flush_buf()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_buf()
    }
}

impl BodySink for ConnWriter {
    fn write_shared(&mut self, body: &Arc<Vec<u8>>) -> io::Result<()> {
        self.flush_buf()?;
        self.push(Seg::Shared(Arc::clone(body)))
    }
}

/// The [`BodySink`] for a response answered on the loop thread. No
/// dispatch job owns the connection then, so segments go straight into its
/// queue — no high-water wait, no wake: the loop writes them out itself
/// right after.
struct LoopSink<'a> {
    out: &'a ConnOut,
    buf: Vec<u8>,
}

impl LoopSink<'_> {
    fn new(out: &ConnOut) -> LoopSink<'_> {
        LoopSink {
            out,
            buf: Vec::new(),
        }
    }

    fn flush_buf(&mut self) {
        if !self.buf.is_empty() {
            lock(&self.out.state).enqueue(Seg::Owned(std::mem::take(&mut self.buf)));
        }
    }

    /// Queue what is buffered and publish the keep-alive verdict.
    fn seal(mut self, keep: bool) {
        self.flush_buf();
        lock(&self.out.state).done = Some(keep);
    }
}

impl Write for LoopSink<'_> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_buf();
        Ok(())
    }
}

impl BodySink for LoopSink<'_> {
    fn write_shared(&mut self, body: &Arc<Vec<u8>>) -> io::Result<()> {
        self.flush_buf();
        lock(&self.out.state).enqueue(Seg::Shared(Arc::clone(body)));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Dispatch pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send>;

/// The request-execution pool behind the event loop. Deliberately *not*
/// the translation [`crate::pool::WorkerPool`]: endpoint code blocks on
/// worker-pool results, and running it inside that same pool would let
/// enough concurrent requests deadlock it. Sized from the pool's
/// in-system capacity (every admitted request can hold a dispatch thread
/// while it waits), bounded by config — never by connection count.
struct Dispatcher {
    inner: Arc<DispatchInner>,
    threads: Vec<JoinHandle<()>>,
}

struct DispatchInner {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl Dispatcher {
    fn spawn(threads: usize, metrics: Arc<crate::metrics::Metrics>) -> Dispatcher {
        let inner = Arc::new(DispatchInner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("t2v-dispatch-{i}"))
                    .spawn(move || dispatch_loop(&inner, &metrics))
                    .expect("spawn dispatch thread")
            })
            .collect();
        Dispatcher {
            inner,
            threads: handles,
        }
    }

    fn submit(&self, job: Job) {
        let mut q = lock(&self.inner.queue);
        q.push_back(job);
        drop(q);
        self.inner.cv.notify_one();
    }

    /// Stop accepting, drop undispatched jobs (their `ConnWriter`s resolve
    /// the connections as closed), finish running ones, join.
    fn shutdown(self) {
        self.inner.stop.store(true, Ordering::Release);
        lock(&self.inner.queue).clear();
        self.inner.cv.notify_all();
        for h in self.threads {
            let _ = h.join();
        }
    }
}

fn dispatch_loop(inner: &DispatchInner, metrics: &crate::metrics::Metrics) {
    loop {
        let job = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                q = inner.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Same containment as `pool::worker_loop`: a panicking request
        // must not take a dispatch thread down with it.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (first request, or a partial one).
    Reading,
    /// A parsed request is on (or queued for) a dispatch thread.
    Dispatched,
    /// The response is sealed; the loop is draining the output queue.
    Writing,
    /// Between requests on a keep-alive connection.
    KeepAlive,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    /// Unparsed request bytes (pooled; pipelined followers stay here).
    inbuf: Vec<u8>,
    out: Arc<ConnOut>,
    /// First-byte time of the request currently being read — the trace
    /// clock, matching the threaded driver's post-`fill_buf` stamp.
    t0: Option<Instant>,
    last_activity: Instant,
    /// `read()` returned 0: every buffered request byte has been drained and
    /// no more will come. Drives the truncation/close decisions — epoll's
    /// RDHUP flag alone does not, because it can arrive while request bytes
    /// are still sitting in the kernel buffer.
    peer_eof: bool,
    /// epoll reported EPOLLRDHUP. Only masks further RDHUP interest (the
    /// flag is level-triggered and would re-fire every tick).
    rdhup: bool,
    interest: Interest,
}

impl Conn {
    fn idle(&self) -> bool {
        matches!(self.state, ConnState::Reading | ConnState::KeepAlive)
    }
}

/// What a connection operation decided about the connection's future.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Next {
    Alive,
    Close,
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Handle to the running event loop. [`crate::server::Server`] owns one
/// when `net=event`.
pub(crate) struct EventDriver {
    reactor: Arc<ReactorShared>,
    handle: Option<JoinHandle<()>>,
}

impl EventDriver {
    pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> io::Result<EventDriver> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let reactor = Arc::new(ReactorShared {
            waker,
            ready: Mutex::new(Vec::new()),
        });
        let loop_reactor = Arc::clone(&reactor);
        let handle = std::thread::Builder::new()
            .name("t2v-event".to_string())
            .spawn(move || run_loop(&shared, listener, poller, &loop_reactor))?;
        Ok(EventDriver {
            reactor,
            handle: Some(handle),
        })
    }

    /// Wake the loop (the caller already raised the shutdown flag) and
    /// wait for the drain to finish.
    pub(crate) fn shutdown(mut self) {
        self.reactor.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Everything the per-connection helpers need besides the connection.
struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    poller: &'a Poller,
    dispatcher: &'a Dispatcher,
    reactor: &'a Arc<ReactorShared>,
    max_body: usize,
    draining: bool,
}

fn run_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    mut poller: Poller,
    reactor: &Arc<ReactorShared>,
) {
    let config = &shared.state.config;
    let idle_after = config.effective_conn_idle();
    let max_connections = config.max_connections;
    let max_body = config.max_body_bytes;
    // Every admitted request can park a dispatch thread on a worker-pool
    // result, so capacity mirrors the pool's in-system bound.
    let dispatch_threads = (config.effective_shards() * config.queue_capacity
        + config.effective_workers())
    .clamp(4, 128);
    let dispatcher = Dispatcher::spawn(dispatch_threads, Arc::clone(&shared.state.metrics));

    let mut pool = BufferPool::new(16 * 1024, 1024);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut listener_open = true;
    let mut accept_rearm: Option<Instant> = None;
    let mut drain_deadline: Option<Instant> = None;
    let mut last_stats: Option<Instant> = None;

    loop {
        let now = Instant::now();

        // -- shutdown entry: stop accepting, close idles, start the drain --
        if drain_deadline.is_none() && shared.shutdown.load(Ordering::Acquire) {
            drain_deadline = Some(now + DRAIN_BUDGET);
            if listener_open {
                let _ = poller.deregister(listener.as_raw_fd());
                listener_open = false;
            }
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.idle())
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                close_conn(&mut conns, &poller, &mut pool, shared, token, false);
            }
        }
        if let Some(deadline) = drain_deadline {
            if conns.is_empty() {
                break;
            }
            if now >= deadline {
                // Drain budget spent: force-close the stragglers.
                let all: Vec<u64> = conns.keys().copied().collect();
                for token in all {
                    close_conn(&mut conns, &poller, &mut pool, shared, token, false);
                }
                break;
            }
        }

        // -- re-arm a listener parked on fd exhaustion --
        if let Some(at) = accept_rearm {
            if listener_open && now >= at {
                accept_rearm = None;
                let _ = poller.modify(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
            }
        }

        // -- wait --
        let mut timeout = Duration::from_millis(250);
        if !conns.is_empty() {
            timeout = timeout.min((idle_after / 4).max(Duration::from_millis(10)));
        }
        if drain_deadline.is_some() {
            timeout = timeout.min(Duration::from_millis(25));
        }
        if let Some(at) = accept_rearm {
            timeout = timeout.min(at.saturating_duration_since(now));
        }
        events.clear();
        if poller.wait(&mut events, Some(timeout)).is_err() {
            // An unexpected epoll failure is unrecoverable for the loop;
            // dying quietly beats spinning.
            break;
        }

        let ctx = Ctx {
            shared,
            poller: &poller,
            dispatcher: &dispatcher,
            reactor,
            max_body,
            draining: drain_deadline.is_some(),
        };

        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if !listener_open || ctx.draining {
                        continue;
                    }
                    if accept_burst(
                        &ctx,
                        &listener,
                        &mut conns,
                        &mut pool,
                        &mut next_token,
                        max_connections,
                    ) {
                        // fd exhaustion: park the listener, re-arm later.
                        let _ = poller.modify(listener.as_raw_fd(), TOKEN_LISTENER, Interest::NONE);
                        accept_rearm = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                }
                TOKEN_WAKER => reactor.waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut next = Next::Alive;
                    if ev.hangup || ev.error {
                        // Both halves gone (or an fd error): nothing useful
                        // can be read or written any more.
                        next = Next::Close;
                    } else {
                        if ev.read_closed && !conn.rdhup {
                            conn.rdhup = true;
                            // Mask RDHUP: level-triggered, it would re-fire
                            // every tick until the connection resolves.
                            let want = conn.interest;
                            conn.interest = Interest::NONE; // force re-apply
                            set_interest(&ctx, conn, want);
                        }
                        let readable = ev.readable || ev.read_closed;
                        if readable {
                            next = on_readable(conn, &mut scratch);
                        }
                        if next == Next::Alive && (readable || ev.writable) {
                            next = pump(&ctx, conn);
                        }
                    }
                    if next == Next::Close {
                        close_conn(&mut conns, &poller, &mut pool, shared, token, false);
                    }
                }
            }
        }

        // -- connections whose dispatch jobs produced output or finished --
        let ready = std::mem::take(&mut *lock(&reactor.ready));
        for token in ready {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if pump(&ctx, conn) == Next::Close {
                close_conn(&mut conns, &poller, &mut pool, shared, token, false);
            }
        }

        // -- idle reaping: keep-alive peers gone quiet, slow-loris drips --
        if drain_deadline.is_none() {
            let now = Instant::now();
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) >= idle_after)
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                close_conn(&mut conns, &poller, &mut pool, shared, token, true);
            }
        }

        // -- connection-state census for /v1/admin/status, throttled so a
        //    busy loop is not recounting tens of thousands of entries on
        //    every wake --
        let stale =
            last_stats.is_none_or(|at| now.duration_since(at) >= Duration::from_millis(250));
        if stale {
            last_stats = Some(now);
            publish_event_stats(shared, &conns, &pool, drain_deadline.is_some());
        }
    }

    publish_event_stats(shared, &conns, &pool, true);
    drop(listener);
    dispatcher.shutdown();
}

/// Snapshot the loop's occupancy into [`Shared::event_stats`] — the status
/// endpoint reads these atomics instead of locking the connection table.
fn publish_event_stats(
    shared: &Shared,
    conns: &HashMap<u64, Conn>,
    pool: &BufferPool,
    draining: bool,
) {
    let (mut reading, mut dispatched, mut writing, mut keep_alive) = (0u64, 0u64, 0u64, 0u64);
    for c in conns.values() {
        match c.state {
            ConnState::Reading => reading += 1,
            ConnState::Dispatched => dispatched += 1,
            ConnState::Writing => writing += 1,
            ConnState::KeepAlive => keep_alive += 1,
        }
    }
    let stats = &shared.event_stats;
    stats.reading.store(reading, Ordering::Relaxed);
    stats.dispatched.store(dispatched, Ordering::Relaxed);
    stats.writing.store(writing, Ordering::Relaxed);
    stats.keep_alive.store(keep_alive, Ordering::Relaxed);
    stats
        .pool_buffers
        .store(pool.pooled() as u64, Ordering::Relaxed);
    stats.draining.store(draining as u64, Ordering::Relaxed);
}

/// Accept until the listener runs dry. Returns true when the listener
/// must be parked (fd exhaustion).
fn accept_burst(
    ctx: &Ctx<'_>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    pool: &mut BufferPool,
    next_token: &mut u64,
    max_connections: usize,
) -> bool {
    let metrics = &ctx.shared.state.metrics;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) => {
                metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                if fd_exhausted(&e) {
                    return true;
                }
                // Transient (ECONNABORTED and friends): keep accepting.
                continue;
            }
        };
        metrics.connections_total.fetch_add(1, Ordering::Relaxed);
        let active = metrics.connections_active.fetch_add(1, Ordering::AcqRel) + 1;
        if active as usize > max_connections {
            // Shed with canned bytes, same as the threaded acceptor.
            let mut s = stream;
            let _ = s.write_all(http::overload_response_bytes());
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if ctx
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        conns.insert(
            token,
            Conn {
                stream,
                token,
                state: ConnState::Reading,
                inbuf: pool.take(),
                out: ConnOut::new(),
                t0: None,
                last_activity: Instant::now(),
                peer_eof: false,
                rdhup: false,
                interest: Interest::READ,
            },
        );
    }
}

fn set_interest(ctx: &Ctx<'_>, conn: &mut Conn, want: Interest) {
    let want = if conn.rdhup { want.no_rdhup() } else { want };
    if want == conn.interest {
        return;
    }
    if ctx
        .poller
        .modify(conn.stream.as_raw_fd(), conn.token, want)
        .is_ok()
    {
        conn.interest = want;
    }
}

/// Drain the socket into the connection's input buffer. Parse progress is
/// [`pump`]'s job.
fn on_readable(conn: &mut Conn, scratch: &mut [u8]) -> Next {
    if !conn.idle() {
        // Interest is parked while a request executes; a stray readiness
        // report (or RDHUP delivery) changes nothing here.
        return Next::Alive;
    }
    while conn.inbuf.len() < SOFT_IN_CAP {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.inbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Next::Close,
        }
    }
    Next::Alive
}

/// What [`try_advance`] did with an idle connection's input.
enum Advance {
    /// A response is queued (answered on the loop, or a parse error): write it.
    Queued,
    /// Nothing to write yet: a request went to a dispatch thread, more
    /// bytes are needed, or the inline budget is spent.
    Parked,
    Close,
}

/// Parse progress on `Reading`/`KeepAlive` connections: answer a complete
/// request on the loop or dispatch it, answer a malformed one, map
/// peer-EOF onto the blocking reader's truncation semantics, or keep
/// waiting.
fn try_advance(ctx: &Ctx<'_>, conn: &mut Conn, budget: &mut u32) -> Advance {
    if *budget == 0 && !conn.inbuf.is_empty() {
        // Back to epoll; write readiness re-offers this connection on the
        // next turn, after every other ready socket has had its go.
        set_interest(ctx, conn, Interest::READ_WRITE);
        return Advance::Parked;
    }
    if !conn.inbuf.is_empty() && conn.t0.is_none() {
        // The trace clock starts at the first byte of each request —
        // the same stamp the threaded driver takes after `fill_buf`.
        conn.t0 = Some(Instant::now());
    }
    match http::parse_request(&conn.inbuf, ctx.max_body) {
        Parse::Complete(req, consumed) => {
            conn.inbuf.drain(..consumed);
            let t0 = conn.t0.take().unwrap_or_else(Instant::now);
            let read_dur = t0.elapsed();
            start_request(ctx, conn, *req, t0, read_dur, budget)
        }
        Parse::NeedHead if conn.peer_eof => {
            if conn.inbuf.is_empty() {
                // Clean EOF between requests — the threaded driver's
                // silent-close path.
                Advance::Close
            } else {
                // Truncated head: answer the exact 400 the blocking
                // reader produces at EOF, then close.
                queue_error_close(ctx, conn, &http::truncation_error(&conn.inbuf))
            }
        }
        // A short body at EOF is a transport error in the blocking
        // reader — no response, just a hangup.
        Parse::NeedBody if conn.peer_eof => Advance::Close,
        Parse::NeedHead | Parse::NeedBody => {
            conn.state = ConnState::Reading;
            set_interest(ctx, conn, Interest::READ);
            Advance::Parked
        }
        Parse::Err(err) => queue_error_close(ctx, conn, &err),
    }
}

/// Answer a parsed request on the loop when its front half can, else hand
/// it to a dispatch thread. Loop-side request code runs under the
/// dispatcher's panic containment: a panic counts as a worker panic and
/// closes this connection only.
fn start_request(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: http::Request,
    t0: Instant,
    read_dur: Duration,
    budget: &mut u32,
) -> Advance {
    let metrics = &ctx.shared.state.metrics;
    let started = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sink = LoopSink::new(&conn.out);
        match answer_on_loop(ctx.shared, req, t0, read_dur, &mut sink) {
            OnLoop::Answered(keep) => {
                sink.seal(keep);
                None
            }
            OnLoop::Deferred(deferred) => Some(deferred),
        }
    }));
    match started {
        Err(_) => {
            metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            Advance::Close
        }
        Ok(None) => {
            metrics.loop_answered.fetch_add(1, Ordering::Relaxed);
            *budget -= 1;
            conn.state = ConnState::Writing;
            Advance::Queued
        }
        Ok(Some(deferred)) => {
            dispatch(ctx, conn, deferred);
            Advance::Parked
        }
    }
}

/// Hand a request to a dispatch thread and park the socket until its
/// response comes back through the ready list.
fn dispatch(ctx: &Ctx<'_>, conn: &mut Conn, deferred: Box<Deferred>) {
    conn.state = ConnState::Dispatched;
    set_interest(ctx, conn, Interest::NONE);
    let writer = ConnWriter::new(Arc::clone(&conn.out), Arc::clone(ctx.reactor), conn.token);
    let shared = Arc::clone(ctx.shared);
    shared.dispatch_depth.fetch_add(1, Ordering::Relaxed);
    ctx.dispatcher.submit(Box::new(move || {
        shared.dispatch_depth.fetch_sub(1, Ordering::Relaxed);
        let mut writer = writer;
        let keep = deferred.run(&shared, &mut writer);
        writer.finish(keep);
    }));
}

/// Queue the error response for an unreadable request and seal the
/// connection for close — the loop-thread equivalent of
/// `write_read_error` + return.
fn queue_error_close(ctx: &Ctx<'_>, conn: &mut Conn, err: &http::ReadError) -> Advance {
    let mut sink = LoopSink::new(&conn.out);
    write_read_error(ctx.shared, err, &mut sink);
    sink.seal(false);
    conn.state = ConnState::Writing;
    Advance::Queued
}

/// Make every bit of progress the connection allows right now: start the
/// next buffered request, write queued output, and once a keep-alive
/// response has fully drained, move on to the pipelined follower. A loop,
/// not recursion, so a deep pipeline costs no stack; [`INLINE_BUDGET`]
/// bounds how many requests it answers per call.
fn pump(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    let mut budget = INLINE_BUDGET;
    loop {
        if conn.idle() {
            match try_advance(ctx, conn, &mut budget) {
                Advance::Queued => {}
                Advance::Parked => return Next::Alive,
                Advance::Close => return Next::Close,
            }
        }
        match flush(ctx, conn) {
            Flushed::Pending => return Next::Alive,
            Flushed::Close => return Next::Close,
            Flushed::Done(keep) => {
                if !keep || ctx.draining || ctx.shared.shutdown.load(Ordering::Acquire) {
                    return Next::Close;
                }
                conn.state = ConnState::KeepAlive;
                conn.t0 = None;
                conn.last_activity = Instant::now();
                set_interest(ctx, conn, Interest::READ);
            }
        }
    }
}

/// What [`flush`] left behind.
enum Flushed {
    /// More output is coming (the request is still executing) or the
    /// socket is full; interest is armed accordingly.
    Pending,
    /// The response is sealed and fully written; keep the connection?
    Done(bool),
    Close,
}

/// Push queued output at the socket with vectored writes.
fn flush(ctx: &Ctx<'_>, conn: &mut Conn) -> Flushed {
    loop {
        let mut st = lock(&conn.out.state);
        if st.segs.is_empty() {
            // Consumed, not read: the verdict belongs to exactly one
            // request — a follower on the same connection starts clean.
            let done = st.done.take();
            drop(st);
            return match done {
                Some(keep) => Flushed::Done(keep),
                None => {
                    // Still executing (a stream mid-relay, or the job has
                    // not finished); nothing to write right now.
                    if conn.state == ConnState::Dispatched {
                        set_interest(ctx, conn, Interest::NONE);
                    }
                    Flushed::Pending
                }
            };
        }
        if conn.state == ConnState::Dispatched && st.done.is_some() {
            conn.state = ConnState::Writing;
        }
        let written = {
            let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(st.segs.len().min(MAX_IOVECS));
            for (i, seg) in st.segs.iter().take(MAX_IOVECS).enumerate() {
                let bytes = seg.as_slice();
                iov.push(IoSlice::new(if i == 0 {
                    &bytes[st.front_written..]
                } else {
                    bytes
                }));
            }
            (&conn.stream).write_vectored(&iov)
        };
        match written {
            Ok(0) => return Flushed::Close,
            Ok(mut n) => {
                st.bytes -= n;
                while n > 0 {
                    let front_left = st.segs[0].as_slice().len() - st.front_written;
                    if n >= front_left {
                        n -= front_left;
                        st.segs.pop_front();
                        st.front_written = 0;
                    } else {
                        st.front_written += n;
                        n = 0;
                    }
                }
                drop(st);
                // Room freed below the high-water mark: unblock the writer.
                conn.out.cv.notify_all();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                drop(st);
                set_interest(ctx, conn, Interest::WRITE);
                return Flushed::Pending;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Flushed::Close,
        }
    }
}

/// Tear one connection down: out of epoll, out of the map, buffer back to
/// the pool, writers unblocked with an error, gauge decremented.
fn close_conn(
    conns: &mut HashMap<u64, Conn>,
    poller: &Poller,
    pool: &mut BufferPool,
    shared: &Arc<Shared>,
    token: u64,
    reaped: bool,
) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    {
        let mut st = lock(&conn.out.state);
        st.closed = true;
        st.segs.clear();
        st.bytes = 0;
    }
    conn.out.cv.notify_all();
    pool.put(conn.inbuf);
    let metrics = &shared.state.metrics;
    if reaped {
        metrics.conn_reaped.fetch_add(1, Ordering::Relaxed);
    }
    metrics.connections_active.fetch_sub(1, Ordering::AcqRel);
    // `conn.stream` drops here, closing the fd.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::server::{EventStats, ServerState};
    use crate::ServeConfig;
    use std::sync::atomic::AtomicU64;

    fn test_shared() -> Arc<Shared> {
        let corpus = t2v_corpus::generate(&t2v_corpus::CorpusConfig::tiny(7));
        let mut config = ServeConfig::default();
        config.set("backends", "gred").unwrap();
        let state = Arc::new(ServerState::from_corpus(&corpus, config).expect("state builds"));
        let pool = WorkerPool::new(1, 1, 4, Arc::clone(&state.metrics));
        Arc::new(Shared {
            state,
            pool,
            shutdown: AtomicBool::new(false),
            dispatch_depth: AtomicU64::new(0),
            obs: None,
            event_stats: EventStats::default(),
        })
    }

    #[test]
    fn a_poisoned_conn_out_lock_leaves_pump_and_close_working() {
        let shared = test_shared();
        let poller = Poller::new().unwrap();
        let reactor = Arc::new(ReactorShared {
            waker: Waker::new(&poller, TOKEN_WAKER).unwrap(),
            ready: Mutex::new(Vec::new()),
        });
        let dispatcher = Dispatcher::spawn(1, Arc::clone(&shared.state.metrics));
        let ctx = Ctx {
            shared: &shared,
            poller: &poller,
            dispatcher: &dispatcher,
            reactor: &reactor,
            max_body: 1 << 20,
            draining: false,
        };

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let token = FIRST_CONN_TOKEN;
        poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .unwrap();
        shared
            .state
            .metrics
            .connections_active
            .fetch_add(1, Ordering::AcqRel);
        let mut pool = BufferPool::new(1024, 4);
        let mut conns = HashMap::new();
        conns.insert(
            token,
            Conn {
                stream,
                token,
                state: ConnState::Dispatched,
                inbuf: pool.take(),
                out: ConnOut::new(),
                t0: None,
                last_activity: Instant::now(),
                peer_eof: false,
                rdhup: false,
                interest: Interest::READ,
            },
        );

        // A response is sealed, then a panic poisons the queue's mutex.
        let out = Arc::clone(&conns[&token].out);
        {
            let mut st = lock(&out.state);
            st.enqueue(Seg::Owned(b"first".to_vec()));
            st.done = Some(true);
        }
        let poisoner = Arc::clone(&out);
        let _ = std::thread::spawn(move || {
            let _held = poisoner.state.lock().unwrap();
            panic!("poison the connection's output queue");
        })
        .join();
        assert!(out.state.is_poisoned());

        // The loop still writes the response and parks for the next one.
        let conn = conns.get_mut(&token).unwrap();
        assert!(pump(&ctx, conn) == Next::Alive);
        assert!(conn.idle());
        let mut got = [0u8; 5];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"first");

        // And it still tears the connection down cleanly.
        close_conn(&mut conns, &poller, &mut pool, &shared, token, false);
        assert!(conns.is_empty());
        assert!(lock(&out.state).closed);
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(
            shared
                .state
                .metrics
                .connections_active
                .load(Ordering::Acquire),
            0
        );
        dispatcher.shutdown();
        shared.pool.shutdown();
    }
}
