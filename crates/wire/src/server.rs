//! The line-oriented TCP front-end over a [`VerifyService`].
//!
//! One **nonblocking readiness loop**, no external dependencies: a
//! single `icstar-wire-loop` thread multiplexes the listener and every
//! connection over `std::net` sockets in nonblocking mode. Each
//! connection is a small state machine — an incremental read buffer
//! reassembles lines across partial reads, pipelined commands are
//! answered strictly in order, and responses go out through a bounded
//! write queue. Every expensive operation — materializing structures,
//! checking formulas — already runs on the service's worker pool; the
//! loop only parses, enqueues, and routes completions. A `RESULT` for a
//! still-running job *parks* the connection; the worker pool announces
//! each finished job over a completion channel and the loop answers the
//! parked connection then, so nothing sleeps or polls on a timer while
//! a job runs. The protocol is documented in `docs/PROTOCOL.md` and
//! speaks the payload grammar of [`crate::text`].
//!
//! Hardening invariants of this module (each has a matching test or a
//! pointed comment below):
//!
//! * nothing read from a client is buffered beyond a fixed cap, and a
//!   newline-free flood hangs the connection up;
//! * a client that stops draining its socket gets a bounded write
//!   queue, then a disconnect — one slow reader can never grow server
//!   memory or stall the loop;
//! * the service-global job registry lock is never held across socket
//!   I/O — one stalled client can stall only its own connection;
//! * the loop re-checks the stop flag every tick and is woken through
//!   the completion channel, so shutdown always completes.
//!
//! The front-end reports into the wrapped service's telemetry registry
//! under `wire.*`: per-command counters (unknown verbs share one
//! bounded `wire.cmd.unknown` — client-chosen strings must never mint
//! metric names), raw socket bytes in/out, connection lifecycle
//! counts/gauge/lifetimes, a per-command handling-latency histogram,
//! and the loop's own health under `wire.loop.*` (ticks, wakeups,
//! parked `RESULT`s, queued response bytes, slow-reader disconnects).
//! The `METRICS` command exports the whole registry in Prometheus text
//! form (see `docs/PROTOCOL.md`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icstar_serve::{JobHandle, VerdictReport, VerifyService};
use icstar_telemetry::{
    to_text_tree, Counter, FlightRecorder, Gauge, Histogram, Registry, SpanEvent, SpanId, TraceId,
};

use crate::text::{parse_job, print_report};

/// Hard cap on a `SUBMIT` payload. Real jobs are hundreds of bytes to a
/// few kilobytes; a network-facing server must not buffer an unbounded
/// stream from one client. Oversized payloads are drained (up to the
/// terminator) and answered with `ERR payload too large`; a single
/// *line* exceeding the cap (no newline at all) hangs the connection up.
const MAX_PAYLOAD: usize = 1 << 20; // 1 MiB

/// Bounded write queue per connection. Responses accumulate here when a
/// client pipelines requests faster than it drains answers; a queue
/// past this cap means a slow (or absent) reader and the connection is
/// dropped — backpressure by disconnect, never by unbounded buffering
/// and never by blocking the loop.
const WRITE_QUEUE_MAX: usize = 4 << 20; // 4 MiB

/// How many bytes one connection may pull off its socket per loop tick.
/// Bounds per-tick work so one firehose client cannot starve the rest
/// of the loop; anything left stays in the kernel buffer for the next
/// tick.
const READ_CHUNK: usize = 64 << 10;

/// How many consecutive idle ticks the loop spin-yields before it
/// starts blocking on the completion channel. Spinning keeps the
/// response latency of an actively-conversing client in microseconds;
/// the subsequent blocking waits keep an idle server off the CPU.
const SPIN_TICKS: u32 = 128;

/// First blocking idle wait; doubles per idle round up to
/// [`IDLE_WAIT_MAX`] (with connections open the wait is capped at 1ms
/// so a command arriving mid-wait is still answered promptly).
const IDLE_WAIT_MIN: Duration = Duration::from_micros(50);

/// Longest blocking idle wait (reached only while no client is
/// connected; completions still wake the loop instantly).
const IDLE_WAIT_MAX: Duration = Duration::from_millis(5);

/// Longest blocking idle wait while connections are open: the ceiling
/// on how stale a readiness poll may go, i.e. the worst-case added
/// latency for a command that arrives while the loop is waiting.
const IDLE_WAIT_CONN_MAX: Duration = Duration::from_millis(1);

/// Sentinel "job id" sent over the completion channel to wake the loop
/// without meaning a completion (used by shutdown). Real ids are
/// monotonic from zero and never reach it.
const WAKE: u64 = u64::MAX;

/// How many *finished* jobs (reports / lost markers) the server retains
/// for late `RESULT`/`STATUS` queries. Beyond this, the oldest finished
/// jobs are evicted on submission (ids are monotonic, so "oldest" is
/// "smallest id"); an evicted id answers `ERR unknown job`. Running
/// jobs are never evicted.
const MAX_FINISHED_JOBS: usize = 4096;

/// When the registry exceeds [`MAX_FINISHED_JOBS`] but nothing was
/// evictable (everything still running), wait for this many further
/// submissions before scanning again — the scan polls every slot, and
/// re-running it per submission during a burst would be quadratic.
const EVICT_BACKOFF: usize = 256;

/// One submitted job as the server tracks it: in flight, finished (the
/// report is kept — behind an [`Arc`] so `RESULT` can serialize it
/// outside the registry lock), or lost.
enum JobSlot {
    Running(JobHandle),
    Done(Arc<VerdictReport>),
    Lost,
}

/// A registry entry: the job's slot plus the trace its spans were
/// recorded under. The trace id outlives the [`JobHandle`] (which is
/// consumed when the report arrives), so `TRACE <id>` works on finished
/// jobs too — for as long as the entry escapes eviction and the spans
/// remain in the flight recorder's ring.
struct JobEntry {
    trace: TraceId,
    slot: JobSlot,
}

/// The front-end's metric handles, registered once at bind time in the
/// wrapped service's registry.
struct WireMetrics {
    cmd_ping: Counter,
    cmd_quit: Counter,
    cmd_submit: Counter,
    cmd_status: Counter,
    cmd_result: Counter,
    cmd_stats: Counter,
    cmd_metrics: Counter,
    cmd_trace: Counter,
    cmd_health: Counter,
    /// All unrecognized verbs together: the metric namespace must stay
    /// bounded no matter what clients send.
    cmd_unknown: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    conns_opened: Counter,
    conns_closed: Counter,
    conns_active: Gauge,
    /// Connection lifetime, accept to hangup.
    conn_lifetime_ns: Histogram,
    /// Per-command handling latency: command line parsed to response
    /// enqueued — the server-side share of the client's round trip.
    /// For `RESULT` on a running job this includes the parked wait.
    cmd_ns: Histogram,
    /// Readiness-loop iterations.
    loop_ticks: Counter,
    /// Completion-channel messages drained (job completions + explicit
    /// wakes).
    loop_wakeups: Counter,
    /// Connections currently parked awaiting a `RESULT`.
    loop_parked: Gauge,
    /// Response bytes queued across all connections, sampled per tick.
    loop_write_queue: Gauge,
    /// Connections dropped for exceeding [`WRITE_QUEUE_MAX`].
    loop_slow_disconnects: Counter,
}

impl WireMetrics {
    fn register(registry: &Registry) -> Self {
        WireMetrics {
            cmd_ping: registry.counter("wire.cmd.ping"),
            cmd_quit: registry.counter("wire.cmd.quit"),
            cmd_submit: registry.counter("wire.cmd.submit"),
            cmd_status: registry.counter("wire.cmd.status"),
            cmd_result: registry.counter("wire.cmd.result"),
            cmd_stats: registry.counter("wire.cmd.stats"),
            cmd_metrics: registry.counter("wire.cmd.metrics"),
            cmd_trace: registry.counter("wire.cmd.trace"),
            cmd_health: registry.counter("wire.cmd.health"),
            cmd_unknown: registry.counter("wire.cmd.unknown"),
            bytes_read: registry.counter("wire.bytes.read"),
            bytes_written: registry.counter("wire.bytes.written"),
            conns_opened: registry.counter("wire.connections.opened"),
            conns_closed: registry.counter("wire.connections.closed"),
            conns_active: registry.gauge("wire.connections.active"),
            conn_lifetime_ns: registry.histogram("wire.conn.lifetime_ns"),
            cmd_ns: registry.histogram("wire.cmd.ns"),
            loop_ticks: registry.counter("wire.loop.ticks"),
            loop_wakeups: registry.counter("wire.loop.wakeups"),
            loop_parked: registry.gauge("wire.loop.parked_results"),
            loop_write_queue: registry.gauge("wire.loop.write_queue_bytes"),
            loop_slow_disconnects: registry.counter("wire.loop.slow_disconnects"),
        }
    }
}

struct Shared {
    service: VerifyService,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    metrics: WireMetrics,
    /// When the server was bound — the zero of `HEALTH`'s uptime.
    started: Instant,
    /// Registry size at which the next eviction scan runs (see
    /// [`EVICT_BACKOFF`]).
    evict_at: AtomicUsize,
    stop: AtomicBool,
}

/// A TCP front-end serving the wire protocol over a [`VerifyService`].
///
/// Binding spawns one event-loop thread that accepts connections and
/// multiplexes all of them (`SUBMIT` / `STATUS` / `RESULT` / `STATS` /
/// `TRACE` / `HEALTH` / `PING` / `QUIT`); clients may pipeline commands
/// and are answered strictly in order. Jobs submitted by *any*
/// connection share the service's worker pool and memoized structure
/// cache, and a job's report can be fetched from any connection — ids
/// are service-global.
///
/// Dropping (or [`WireServer::shutdown`]) stops accepting, disconnects
/// every connection, and joins the loop thread; the wrapped service
/// then drains its queue as usual.
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_serve::{VerifyJob, VerifyService};
/// use icstar_sym::mutex_template;
/// use icstar_wire::{WireClient, WireServer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = WireServer::bind("127.0.0.1:0", VerifyService::with_defaults())?;
/// let mut client = WireClient::connect(server.local_addr())?;
/// let id = client.submit(
///     &VerifyJob::new(mutex_template())
///         .at_size(100)
///         .formula("mutex", parse_state("AG !crit_ge2")?),
/// )?;
/// let report = client.result(id)?;
/// assert!(report.all_hold());
/// client.quit()?;
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Wakes the loop out of an idle wait (shutdown sends [`WAKE`]).
    notify: Sender<u64>,
    looper: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: impl ToSocketAddrs, service: VerifyService) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics = WireMetrics::register(service.telemetry());
        let (notify, completions) = mpsc::channel();
        // Workers announce every finished job here (strictly after its
        // outcome is observable through `JobHandle::try_wait`), so the
        // loop can answer parked `RESULT`s completion-driven instead of
        // polling on a timer.
        service.set_completion_notifier(notify.clone());
        let shared = Arc::new(Shared {
            service,
            jobs: Mutex::new(HashMap::new()),
            metrics,
            started: Instant::now(),
            evict_at: AtomicUsize::new(MAX_FINISHED_JOBS + 1),
            stop: AtomicBool::new(false),
        });
        let looper = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("icstar-wire-loop".into())
                .spawn(move || event_loop(listener, completions, &shared))
                .expect("spawning the event-loop thread")
        };
        Ok(WireServer {
            addr,
            shared,
            notify,
            looper: Some(looper),
        })
    }

    /// The bound address — connect [`crate::WireClient`]s here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time view of the wrapped service's counters (the same
    /// snapshot the `STATS` command serializes).
    pub fn stats(&self) -> icstar_serve::StatsSnapshot {
        self.shared.service.stats()
    }

    /// The full telemetry snapshot (what the `METRICS` command exports),
    /// covering the service's `serve.*`/`sym.*` metrics and this
    /// front-end's `wire.*` ones.
    pub fn telemetry_snapshot(&self) -> icstar_telemetry::TelemetrySnapshot {
        self.shared.service.telemetry_snapshot()
    }

    /// Stops accepting, disconnects all connections, and joins the loop
    /// thread. Equivalent to dropping, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the loop out of any idle wait; it observes the stop flag
        // at the top of its next tick.
        let _ = self.notify.send(WAKE);
        if let Some(looper) = self.looper.take() {
            let _ = looper.join();
        }
    }
}

/// What a connection's read side is currently assembling.
enum Mode {
    /// Between commands: the next line is a command line.
    Command,
    /// Inside a `SUBMIT` frame: lines accumulate until the `.`
    /// terminator. Carries the parsed (or rejected) `trace` argument
    /// and the command's start times, since the `cmd` metrics/span
    /// cover the whole frame.
    Payload {
        trace: Result<Option<TraceId>, &'static str>,
        payload: Vec<u8>,
        oversized: bool,
        started: Instant,
        start_ns: u64,
    },
}

/// A `RESULT` waiting for its job: the connection processes nothing
/// further (answers stay in order) until the completion channel or a
/// liveness poll upgrades the job's slot.
struct Parked {
    id: u64,
    started: Instant,
    start_ns: u64,
}

/// One connection's state machine: socket, reassembly buffer, bounded
/// write queue, framing mode, and its causal record (a `conn` root span
/// with one `cmd` child per command).
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Consumed prefix of `write_buf` (drained lazily to keep flushes
    /// amortized O(bytes)).
    written: usize,
    mode: Mode,
    parked: Option<Parked>,
    /// `QUIT` answered: flush remaining responses, then close. Input
    /// pipelined after `QUIT` is discarded.
    quitting: bool,
    /// Peer closed its write side: process what was buffered, flush,
    /// then close.
    eof: bool,
    opened: Instant,
    opened_ns: u64,
    trace: TraceId,
    root: SpanId,
    /// Chrome-trace lane: connection token truncated to `u32` so each
    /// connection's `cmd` spans render on their own lane.
    tid: u32,
}

impl Conn {
    fn enqueue(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    fn pending_out(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Writes as much queued output as the socket accepts right now.
    /// Returns whether any byte moved.
    fn flush(&mut self, bytes_written: &Counter) -> io::Result<bool> {
        let mut progress = false;
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    bytes_written.add(n as u64);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        } else if self.written > READ_CHUNK {
            self.write_buf.drain(..self.written);
            self.written = 0;
        }
        Ok(progress)
    }

    /// Pulls up to [`READ_CHUNK`] bytes into the reassembly buffer.
    /// Returns how many arrived; flags EOF when the peer closed.
    fn fill(&mut self, bytes_read: &Counter) -> io::Result<usize> {
        let mut total = 0;
        let mut chunk = [0u8; 16 << 10];
        while total < READ_CHUNK {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    bytes_read.add(n as u64);
                    total += n;
                    // A newline-free flood is already doomed — stop
                    // pulling more of it off the socket.
                    if self.read_buf.len() > MAX_PAYLOAD + 2 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }
}

/// The readiness loop: drains completion notifications, accepts new
/// connections, steps every connection's state machine, then waits —
/// spin-yielding while traffic is fresh, blocking on the completion
/// channel once idle. All socket I/O is nonblocking; the loop never
/// sleeps while any connection has progress to make.
fn event_loop(listener: TcpListener, completions: Receiver<u64>, shared: &Shared) {
    let recorder = shared.service.recorder().clone();
    let m = &shared.metrics;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut dead: Vec<u64> = Vec::new();
    let mut idle_streak: u32 = 0;
    let mut wait = IDLE_WAIT_MIN;
    loop {
        m.loop_ticks.inc();
        let mut work = false;
        // The completion ids themselves are not routed: parked
        // connections poll their slot each tick, the message only makes
        // that tick happen now. This also makes completions of jobs
        // with several parked waiters (or none) trivially correct.
        while completions.try_recv().is_ok() {
            m.loop_wakeups.inc();
            work = true;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    work = true;
                    if let Ok(conn) = open_conn(stream, next_token, shared, &recorder) {
                        conns.insert(next_token, conn);
                        next_token += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient accept errors (EMFILE, aborted handshake):
                // drop the attempt, retry next tick.
                Err(_) => break,
            }
        }
        let mut queued: u64 = 0;
        let mut parked: i64 = 0;
        for (&token, conn) in conns.iter_mut() {
            let (did, close) = step_conn(conn, shared, &recorder);
            work |= did;
            if close {
                dead.push(token);
            } else {
                queued += conn.pending_out() as u64;
                if conn.parked.is_some() {
                    parked += 1;
                }
            }
        }
        for token in dead.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                close_conn(conn, shared, &recorder);
            }
        }
        m.loop_write_queue.set(queued as i64);
        m.loop_parked.set(parked);
        if work {
            idle_streak = 0;
            wait = IDLE_WAIT_MIN;
            continue;
        }
        idle_streak += 1;
        if idle_streak <= SPIN_TICKS {
            // Fresh traffic: stay hot, but let workers (and the peer)
            // run — on a single core the loop must not monopolize.
            std::thread::yield_now();
            continue;
        }
        // Idle: block on the completion channel. A finished job wakes
        // the loop instantly; socket readiness is re-polled on timeout,
        // so the cap bounds the worst-case added command latency.
        let cap = if conns.is_empty() {
            IDLE_WAIT_MAX
        } else {
            IDLE_WAIT_CONN_MAX
        };
        match completions.recv_timeout(wait.min(cap)) {
            Ok(_) => {
                m.loop_wakeups.inc();
                idle_streak = 0;
                wait = IDLE_WAIT_MIN;
            }
            Err(RecvTimeoutError::Timeout) => wait = (wait * 2).min(cap),
            Err(RecvTimeoutError::Disconnected) => {
                // No sender left (server and service both tearing
                // down): fall back to plain sleeps until stop lands.
                std::thread::sleep(wait.min(cap));
                wait = (wait * 2).min(cap);
            }
        }
    }
    // Shutdown: parked clients get an explicit error (best-effort —
    // they are mid-`RESULT` and would otherwise see a bare hangup),
    // everyone else just gets the close.
    for (_, mut conn) in conns.drain() {
        if conn.parked.is_some() {
            conn.enqueue(b"ERR server shutting down\n");
        }
        let _ = conn.flush(&shared.metrics.bytes_written);
        close_conn(conn, shared, &recorder);
    }
}

/// Registers a freshly-accepted socket: nonblocking (the loop must
/// never stall in a syscall), NODELAY (responses are small and
/// latency-bound: without it, Nagle here + delayed ACK on the client
/// turns every answer into a ~40ms stall), plus lifecycle metrics and
/// the connection's trace root.
fn open_conn(
    stream: TcpStream,
    token: u64,
    shared: &Shared,
    recorder: &FlightRecorder,
) -> io::Result<Conn> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    let m = &shared.metrics;
    m.conns_opened.inc();
    m.conns_active.inc();
    Ok(Conn {
        stream,
        read_buf: Vec::new(),
        write_buf: Vec::new(),
        written: 0,
        mode: Mode::Command,
        parked: None,
        quitting: false,
        eof: false,
        opened: Instant::now(),
        opened_ns: recorder.now_ns(),
        trace: recorder.new_trace(),
        root: recorder.new_span_id(),
        tid: token as u32,
    })
}

/// Closes a connection however it ended (clean `QUIT`, hangup, flood,
/// slow reader, shutdown): lifecycle metrics plus the `conn` root span
/// that parents the connection's `cmd` spans.
fn close_conn(conn: Conn, shared: &Shared, recorder: &FlightRecorder) {
    let m = &shared.metrics;
    m.conn_lifetime_ns.record_duration(conn.opened.elapsed());
    m.conns_active.dec();
    m.conns_closed.inc();
    recorder.record(SpanEvent {
        trace: conn.trace,
        id: conn.root,
        parent: None,
        name: "conn".into(),
        start_ns: conn.opened_ns,
        dur_ns: recorder.now_ns().saturating_sub(conn.opened_ns),
        tid: conn.tid,
        attrs: Vec::new(),
    });
}

/// Advances one connection as far as it can go without blocking:
/// answer a parked `RESULT` if its job finished, flush queued output,
/// read fresh input, process complete lines in arrival order. Returns
/// `(made_progress, close_now)`.
fn step_conn(conn: &mut Conn, shared: &Shared, recorder: &FlightRecorder) -> (bool, bool) {
    let m = &shared.metrics;
    let mut work = false;
    if conn.parked.is_some() && poll_parked(conn, shared, recorder) {
        work = true;
    }
    match conn.flush(&m.bytes_written) {
        Ok(progress) => work |= progress,
        Err(_) => return (work, true),
    }
    if conn.pending_out() > WRITE_QUEUE_MAX {
        // Bounded queue exceeded: the client pipelined megabytes of
        // responses without draining any. Backpressure by disconnect.
        m.loop_slow_disconnects.inc();
        return (work, true);
    }
    if conn.quitting {
        return (work, conn.pending_out() == 0);
    }
    // While parked the socket is left unread: answers must stay in
    // order, and whatever the client pipelines meanwhile is bounded by
    // the kernel buffer, not server memory.
    if conn.parked.is_none() && !conn.eof {
        match conn.fill(&m.bytes_read) {
            Ok(n) => work |= n > 0,
            Err(_) => return (work, true),
        }
    }
    let mut pos = 0;
    while conn.parked.is_none() && !conn.quitting {
        let Some(nl) = conn.read_buf[pos..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let end = pos + nl + 1;
        let line = conn.read_buf[pos..end].to_vec();
        pos = end;
        match conn.mode {
            Mode::Command => handle_command(conn, &line, shared, recorder),
            Mode::Payload { .. } => handle_payload_line(conn, &line, shared, recorder),
        }
        work = true;
    }
    if pos > 0 {
        conn.read_buf.drain(..pos);
    }
    // Push responses produced this tick instead of waiting for the
    // next one: a full request/response exchange fits in one tick, and
    // the write-queue gauge reads post-flush.
    if conn.pending_out() > 0 {
        match conn.flush(&m.bytes_written) {
            Ok(progress) => work |= progress,
            Err(_) => return (work, true),
        }
    }
    if conn.read_buf.len() > MAX_PAYLOAD + 2 {
        // Newline-free flood: hang up rather than buffer it.
        return (work, true);
    }
    if conn.eof
        && conn.parked.is_none()
        && !conn.read_buf.contains(&b'\n')
        && conn.pending_out() == 0
    {
        return (work, true);
    }
    if conn.quitting && conn.pending_out() == 0 {
        return (work, true);
    }
    (work, false)
}

/// Records a command's latency histogram entry and its `cmd` span
/// (child of the connection root; client-chosen strings must not flow
/// into span attributes any more than into metric names — unknown
/// verbs share one label).
fn finish_cmd(
    conn: &Conn,
    shared: &Shared,
    recorder: &FlightRecorder,
    verb: &str,
    started: Instant,
    start_ns: u64,
) {
    shared.metrics.cmd_ns.record_duration(started.elapsed());
    recorder.record_span(
        conn.trace,
        Some(conn.root),
        "cmd",
        start_ns,
        recorder.now_ns().saturating_sub(start_ns),
        conn.tid,
        vec![("verb".into(), verb.into())],
    );
}

/// Dispatches one command line. Responses are enqueued (never written
/// directly — the loop flushes); `SUBMIT` switches the connection into
/// payload mode and `RESULT` on a running job parks it, both deferring
/// their `cmd` record to the moment the response is enqueued.
fn handle_command(conn: &mut Conn, raw: &[u8], shared: &Shared, recorder: &FlightRecorder) {
    let m = &shared.metrics;
    let line = String::from_utf8_lossy(raw);
    let cmd = line.trim();
    if cmd.is_empty() {
        return;
    }
    let (verb, arg) = match cmd.split_once(char::is_whitespace) {
        Some((v, a)) => (v, a.trim()),
        None => (cmd, ""),
    };
    let known = matches!(
        verb,
        "PING" | "QUIT" | "SUBMIT" | "STATUS" | "RESULT" | "STATS" | "METRICS" | "TRACE" | "HEALTH"
    );
    match verb {
        "PING" => &m.cmd_ping,
        "QUIT" => &m.cmd_quit,
        "SUBMIT" => &m.cmd_submit,
        "STATUS" => &m.cmd_status,
        "RESULT" => &m.cmd_result,
        "STATS" => &m.cmd_stats,
        "METRICS" => &m.cmd_metrics,
        "TRACE" => &m.cmd_trace,
        "HEALTH" => &m.cmd_health,
        _ => &m.cmd_unknown,
    }
    .inc();
    let started = Instant::now();
    let start_ns = recorder.now_ns();
    let label = if known { verb } else { "unknown" };
    match verb {
        "PING" => conn.enqueue(b"OK pong\n"),
        "QUIT" => {
            conn.enqueue(b"OK bye\n");
            conn.quitting = true;
        }
        "SUBMIT" => {
            // The payload is read before any argument error is
            // reported, so the connection stays in protocol sync
            // either way; the parse result rides along in the mode.
            let trace = match arg.split_once(char::is_whitespace) {
                None if arg.is_empty() => Ok(None),
                Some(("trace", hex)) => match TraceId::parse_hex(hex.trim()) {
                    Some(id) => Ok(Some(id)),
                    None => Err("bad trace id (want 1-16 hex digits)"),
                },
                _ => Err("usage: SUBMIT [trace <hex>]"),
            };
            conn.mode = Mode::Payload {
                trace,
                payload: Vec::new(),
                oversized: false,
                started,
                start_ns,
            };
            return; // recorded when the frame completes
        }
        "STATUS" => {
            let answer = status_line(shared, arg);
            conn.enqueue(answer.as_bytes());
        }
        "RESULT" => match result_lookup(shared, arg) {
            ResultAnswer::Line(answer) => conn.enqueue(answer.as_bytes()),
            ResultAnswer::Report(report) => enqueue_report(conn, &report),
            ResultAnswer::Park(id) => {
                conn.parked = Some(Parked {
                    id,
                    started,
                    start_ns,
                });
                return; // recorded when the job completes
            }
        },
        "STATS" => {
            let answer = stats_text(shared);
            conn.enqueue(answer.as_bytes());
        }
        "METRICS" => {
            let answer = metrics_text(shared);
            conn.enqueue(answer.as_bytes());
        }
        "TRACE" => {
            let answer = trace_text(shared, arg);
            conn.enqueue(answer.as_bytes());
        }
        "HEALTH" => {
            let answer = health_line(shared);
            conn.enqueue(answer.as_bytes());
        }
        _ => {
            let answer = format!("ERR unknown command {verb:?}\n");
            conn.enqueue(answer.as_bytes());
        }
    }
    finish_cmd(conn, shared, recorder, label, started, start_ns);
}

/// Accumulates one `SUBMIT` payload line (bytes, newline included) or,
/// on the `.` terminator, completes the frame.
fn handle_payload_line(conn: &mut Conn, raw: &[u8], shared: &Shared, recorder: &FlightRecorder) {
    if is_terminator(raw) {
        let mode = std::mem::replace(&mut conn.mode, Mode::Command);
        finish_submit(conn, mode, shared, recorder);
        return;
    }
    let Mode::Payload {
        payload, oversized, ..
    } = &mut conn.mode
    else {
        unreachable!("payload line outside payload mode");
    };
    if payload.len() + raw.len() > MAX_PAYLOAD {
        // Keep draining to the terminator so the connection stays in
        // protocol sync, but stop buffering.
        *oversized = true;
        payload.clear();
    }
    if !*oversized {
        payload.extend_from_slice(raw);
    }
}

/// Finishes a `SUBMIT` frame: answers the oversize/argument/parse
/// errors in the pinned order, or enqueues the job on the service and
/// registers its handle.
fn finish_submit(conn: &mut Conn, mode: Mode, shared: &Shared, recorder: &FlightRecorder) {
    let Mode::Payload {
        trace,
        payload,
        oversized,
        started,
        start_ns,
    } = mode
    else {
        unreachable!("finishing a submit outside payload mode");
    };
    let answer = if oversized {
        format!("ERR payload too large (limit {MAX_PAYLOAD} bytes)\n")
    } else {
        match trace {
            Err(e) => format!("ERR {e}\n"),
            Ok(trace) => match parse_job(&String::from_utf8_lossy(&payload)) {
                Ok(job) => {
                    let handle = shared.service.submit_traced(job, trace);
                    let id = handle.id;
                    let trace = handle.trace;
                    {
                        let mut jobs = shared.jobs.lock().expect("job registry poisoned");
                        jobs.insert(
                            id,
                            JobEntry {
                                trace,
                                slot: JobSlot::Running(handle),
                            },
                        );
                        maybe_evict(&mut jobs, shared);
                    }
                    // The answer keeps its pre-trace shape (`OK id <n>`):
                    // the job's trace is reachable via `TRACE <n>`, and
                    // clients that care pass their own id, so nothing
                    // new needs announcing.
                    format!("OK id {id}\n")
                }
                Err(e) => format!("ERR parse: {e}\n"),
            },
        }
    };
    conn.enqueue(answer.as_bytes());
    finish_cmd(conn, shared, recorder, "SUBMIT", started, start_ns);
}

/// Whether a payload line is the `.` frame terminator.
fn is_terminator(line: &[u8]) -> bool {
    let mut t = line;
    while let [rest @ .., b'\n' | b'\r'] = t {
        t = rest;
    }
    t == b"."
}

/// Bounds the registry: when it has grown past the watermark, evicts the
/// oldest *finished* jobs (smallest ids among `Done`/`Lost` slots, after
/// a liveness poll) down to [`MAX_FINISHED_JOBS`] finished entries.
/// Running jobs are kept unconditionally — dropping one would lose its
/// report — so during a submission burst the scan may free nothing; the
/// watermark then backs off by [`EVICT_BACKOFF`] so the O(len) scan is
/// amortized instead of running per submission.
fn maybe_evict(jobs: &mut HashMap<u64, JobEntry>, shared: &Shared) {
    if jobs.len() < shared.evict_at.load(Ordering::Relaxed) {
        return;
    }
    for entry in jobs.values_mut() {
        poll_slot(&mut entry.slot);
    }
    let mut finished: Vec<u64> = jobs
        .iter()
        .filter(|(_, e)| !matches!(e.slot, JobSlot::Running(_)))
        .map(|(&id, _)| id)
        .collect();
    if finished.len() > MAX_FINISHED_JOBS {
        finished.sort_unstable();
        for id in &finished[..finished.len() - MAX_FINISHED_JOBS] {
            jobs.remove(id);
        }
        shared
            .evict_at
            .store(jobs.len().max(MAX_FINISHED_JOBS) + 1, Ordering::Relaxed);
    } else {
        // Nothing evictable: back off before scanning again.
        shared
            .evict_at
            .store(jobs.len() + EVICT_BACKOFF, Ordering::Relaxed);
    }
}

fn parse_id(arg: &str) -> Option<u64> {
    arg.parse().ok()
}

/// Upgrades a `Running` slot in place if its job has since finished (or
/// its worker died). After this, the slot's variant *is* the answer.
fn poll_slot(slot: &mut JobSlot) {
    if let JobSlot::Running(handle) = slot {
        match handle.try_wait() {
            Ok(Some(report)) => *slot = JobSlot::Done(Arc::new(report)),
            Ok(None) => {}
            Err(_) => *slot = JobSlot::Lost,
        }
    }
}

/// Answers `STATUS <id>` without blocking: polls the handle once and
/// caches a finished report in the slot. The answer is built after
/// the registry lock is released.
fn status_line(shared: &Shared, arg: &str) -> String {
    let Some(id) = parse_id(arg) else {
        return "ERR usage: STATUS <id>\n".into();
    };
    let mut jobs = shared.jobs.lock().expect("job registry poisoned");
    match jobs.get_mut(&id) {
        None => format!("ERR unknown job {id}\n"),
        Some(entry) => {
            poll_slot(&mut entry.slot);
            match entry.slot {
                JobSlot::Done(_) => "OK done\n".into(),
                JobSlot::Lost => "OK lost\n".into(),
                JobSlot::Running(_) => "OK pending\n".into(),
            }
        }
    }
}

/// What one `RESULT <id>` lookup produced.
enum ResultAnswer {
    /// A one-line answer (usage / unknown / lost).
    Line(String),
    /// The finished report, serialized outside the registry lock.
    Report(Arc<VerdictReport>),
    /// Still running: park the connection until the completion channel
    /// (or a liveness poll) says otherwise.
    Park(u64),
}

/// Looks a `RESULT` target up exactly once — no sleeping, no polling
/// loop. The registry lock is held only to poll the slot and clone the
/// report's [`Arc`]; serialization runs outside it.
fn result_lookup(shared: &Shared, arg: &str) -> ResultAnswer {
    let Some(id) = parse_id(arg) else {
        return ResultAnswer::Line("ERR usage: RESULT <id>\n".into());
    };
    let mut jobs = shared.jobs.lock().expect("job registry poisoned");
    match jobs.get_mut(&id) {
        None => ResultAnswer::Line(format!("ERR unknown job {id}\n")),
        Some(entry) => {
            poll_slot(&mut entry.slot);
            match &entry.slot {
                JobSlot::Done(report) => ResultAnswer::Report(Arc::clone(report)),
                JobSlot::Lost => ResultAnswer::Line(format!("ERR job {id} lost\n")),
                JobSlot::Running(_) => ResultAnswer::Park(id),
            }
        }
    }
}

/// Serializes a finished report as the dot-terminated `RESULT` block.
fn enqueue_report(conn: &mut Conn, report: &VerdictReport) {
    conn.enqueue(b"OK report\n");
    conn.enqueue(print_report(report).as_bytes());
    conn.enqueue(b".\n");
}

/// Re-checks a parked `RESULT` against the registry. Ticks where
/// nothing completed cost one `try_wait` per parked connection; the
/// completion channel makes the interesting tick happen immediately,
/// and the per-tick poll doubles as the safety net (e.g. a completion
/// sent before this connection parked). Returns whether it answered.
fn poll_parked(conn: &mut Conn, shared: &Shared, recorder: &FlightRecorder) -> bool {
    let Some(parked) = &conn.parked else {
        return false;
    };
    let id = parked.id;
    enum Outcome {
        Report(Arc<VerdictReport>),
        Line(String),
    }
    let outcome = {
        let mut jobs = shared.jobs.lock().expect("job registry poisoned");
        match jobs.get_mut(&id) {
            // Finished and evicted while parked: indistinguishable from
            // never-submitted by design.
            None => Some(Outcome::Line(format!("ERR unknown job {id}\n"))),
            Some(entry) => {
                poll_slot(&mut entry.slot);
                match &entry.slot {
                    JobSlot::Done(report) => Some(Outcome::Report(Arc::clone(report))),
                    JobSlot::Lost => Some(Outcome::Line(format!("ERR job {id} lost\n"))),
                    JobSlot::Running(_) => None,
                }
            }
        }
    };
    let Some(outcome) = outcome else {
        return false;
    };
    let parked = conn.parked.take().expect("checked above");
    match outcome {
        Outcome::Report(report) => enqueue_report(conn, &report),
        Outcome::Line(line) => conn.enqueue(line.as_bytes()),
    }
    finish_cmd(
        conn,
        shared,
        recorder,
        "RESULT",
        parked.started,
        parked.start_ns,
    );
    true
}

/// Answers `STATS` with `key value` lines — the [`StatsSnapshot`] fields
/// plus the cache-occupancy pair the ROADMAP's eviction work needs.
///
/// [`StatsSnapshot`]: icstar_serve::StatsSnapshot
fn stats_text(shared: &Shared) -> String {
    let s = shared.service.stats();
    let mut out = String::new();
    let _ = writeln!(out, "OK stats");
    let _ = writeln!(out, "jobs_submitted {}", s.jobs_submitted);
    let _ = writeln!(out, "jobs_completed {}", s.jobs_completed);
    let _ = writeln!(out, "formulas_checked {}", s.formulas_checked);
    let _ = writeln!(out, "cache_hits {}", s.cache_hits);
    let _ = writeln!(out, "cache_misses {}", s.cache_misses);
    let _ = writeln!(out, "cached_structures {}", s.cached_structures);
    let _ = writeln!(out, "cached_abstract_states {}", s.cached_abstract_states);
    let _ = writeln!(out, "cache_evictions {}", s.cache_evictions);
    let _ = writeln!(out, "evicted_abstract_states {}", s.evicted_abstract_states);
    let _ = writeln!(out, "p50_total_ns {}", s.p50_total_ns);
    let _ = writeln!(out, "p99_total_ns {}", s.p99_total_ns);
    let _ = writeln!(out, ".");
    out
}

/// Answers `TRACE <id> [chrome]` with the job's recorded span tree:
/// by default an indented text rendering, with `chrome` a one-line
/// Chrome Trace Event Format JSON document (load it in Perfetto or
/// `chrome://tracing`). Either form is a dot-terminated block. A job
/// whose spans have been evicted from the flight recorder's bounded
/// ring answers with an empty block — the id is still known, the
/// evidence is gone.
fn trace_text(shared: &Shared, arg: &str) -> String {
    let (id, chrome) = match arg.split_once(char::is_whitespace) {
        None => (parse_id(arg), false),
        Some((id, "chrome")) => (parse_id(id), true),
        Some(_) => (None, false),
    };
    let Some(id) = id else {
        return "ERR usage: TRACE <id> [chrome]\n".into();
    };
    let trace = {
        let jobs = shared.jobs.lock().expect("job registry poisoned");
        jobs.get(&id).map(|entry| entry.trace)
    };
    let Some(trace) = trace else {
        return format!("ERR unknown job {id}\n");
    };
    let recorder = shared.service.recorder();
    let mut out = String::new();
    let _ = writeln!(out, "OK trace");
    if chrome {
        let _ = writeln!(out, "{}", recorder.chrome_trace(trace, "icstar-serve"));
    } else {
        // The tree renders one indented line per span, never a lone `.`.
        out.push_str(&to_text_tree(&recorder.spans_for(trace)));
    }
    let _ = writeln!(out, ".");
    out
}

/// Answers `HEALTH` with a single `OK health` line of `key=value`
/// pairs — a load-balancer-friendly probe. Every value is read from
/// the same atomics `STATS` and `METRICS` export, so the three views
/// can never disagree about a shared quantity.
fn health_line(shared: &Shared) -> String {
    let s = shared.service.stats();
    let telemetry = shared.service.telemetry();
    let recorder = shared.service.recorder();
    format!(
        "OK health uptime_ms={} queue_depth={} workers={} jobs_in_flight={} errors={} \
         traces_retained={} traces_dropped={} p50_total_ns={} p99_total_ns={}\n",
        shared.started.elapsed().as_millis(),
        telemetry.gauge("serve.queue.depth").get().max(0),
        shared.service.workers(),
        s.jobs_submitted - s.jobs_completed,
        telemetry.counter("serve.verdicts.errors").get(),
        recorder.len(),
        recorder.dropped(),
        s.p50_total_ns,
        s.p99_total_ns,
    )
}

/// Answers `METRICS` with the full telemetry registry in Prometheus
/// text exposition form, dot-terminated like every other block (no
/// exposition line is ever a lone `.`, so the framing is unambiguous).
fn metrics_text(shared: &Shared) -> String {
    let text = shared.service.telemetry_snapshot().to_prometheus();
    let mut out = String::with_capacity(text.len() + 16);
    out.push_str("OK metrics\n");
    out.push_str(&text);
    out.push_str(".\n");
    out
}
