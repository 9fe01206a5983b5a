//! A blocking client for the wire protocol.
//!
//! [`WireClient`] speaks the same line protocol as [`crate::WireServer`]
//! and converts payloads back to typed values (`u64` ids, [`WireReport`],
//! [`StatsSnapshot`]). It exists both as the convenient Rust-side API and
//! as the executable specification of the client side of the protocol —
//! the integration tests drive a real server exclusively through it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use icstar_serve::{StatsSnapshot, VerifyJob};
use icstar_telemetry::{parse_chrome_trace, SpanEvent, TelemetrySnapshot, TraceId};

use crate::error::WireError;
use crate::text::{parse_report, print_job, WireReport};

/// The parsed answer to a `HEALTH` probe: one coherent line of
/// liveness-relevant numbers, each read from the same atomics the
/// `STATS` and `METRICS` commands export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Milliseconds since the server was bound.
    pub uptime_ms: u64,
    /// Jobs submitted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Size of the service's worker pool.
    pub workers: u64,
    /// Jobs submitted whose report has not been sent yet (queued +
    /// being processed).
    pub jobs_in_flight: u64,
    /// Checks whose verdict was an error (`serve.verdicts.errors`).
    pub errors: u64,
    /// Span events currently held in the flight recorder's ring.
    pub traces_retained: u64,
    /// Span events evicted from the ring since start.
    pub traces_dropped: u64,
    /// Cutoff certificates issued (`serve.cutoff.certified`).
    pub cutoffs_certified: u64,
    /// Unbounded-tail verdicts answered from a cutoff certificate
    /// (`serve.cutoff.hits`).
    pub cutoff_answers: u64,
    /// Estimated median job latency in nanoseconds (see
    /// [`StatsSnapshot::p50_total_ns`]).
    pub p50_total_ns: u64,
    /// Estimated 99th-percentile job latency in nanoseconds.
    pub p99_total_ns: u64,
}

/// The non-blocking answer to a `STATUS` query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Still queued or being processed.
    Pending,
    /// Finished; `RESULT` will answer immediately.
    Done,
    /// The worker processing the job died; no report will come.
    Lost,
}

/// A blocking connection to a [`crate::WireServer`].
///
/// The convenience methods keep one request in flight at a time, but
/// the protocol itself allows **pipelining**: the server answers
/// commands strictly in the order they were sent, so a client may
/// write several commands before reading any response (see
/// [`WireClient::submit_pipelined`] and
/// [`WireClient::results_pipelined`], and the contract in
/// `docs/PROTOCOL.md`). Jobs and ids are shared server-wide, so
/// several clients can also cooperate on the same jobs.
///
/// # Examples
///
/// See [`crate::WireServer`] for an end-to-end example; the textual
/// escape hatch accepts raw protocol payloads:
///
/// ```
/// use icstar_serve::VerifyService;
/// use icstar_wire::{WireClient, WireServer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = WireServer::bind("127.0.0.1:0", VerifyService::with_defaults())?;
/// let mut client = WireClient::connect(server.local_addr())?;
/// let id = client.submit_text(
///     "job {
///        template { state a [a]; init a; edge a -> a; }
///        sizes 10;
///        check \"always a\": AG a_ge1;
///      }",
/// )?;
/// assert!(client.result(id)?.all_hold());
/// # Ok(())
/// # }
/// ```
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(WireClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn read_line(&mut self) -> Result<String, WireError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(WireError::Protocol("server closed the connection".into()));
        }
        Ok(line.trim_end().to_string())
    }

    /// Reads one `OK`-or-`ERR` line and returns what follows `OK `.
    fn read_ok(&mut self) -> Result<String, WireError> {
        let line = self.read_line()?;
        match line.strip_prefix("OK") {
            Some(rest) => Ok(rest.trim_start().to_string()),
            None => Err(WireError::Protocol(line)),
        }
    }

    /// Reads a dot-terminated block (the payload of `RESULT`/`STATS`).
    fn read_block(&mut self) -> Result<String, WireError> {
        let mut block = String::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(WireError::Protocol(
                    "server closed the connection mid-block".into(),
                ));
            }
            if line.trim_end() == "." {
                return Ok(block);
            }
            block.push_str(&line);
        }
    }

    /// Serializes and submits a job; returns the server-assigned id.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] if the server rejects
    /// the job (e.g. a parse error on a hand-built payload).
    pub fn submit(&mut self, job: &VerifyJob) -> Result<u64, WireError> {
        self.submit_text(&print_job(job))
    }

    /// Serializes and submits a job whose spans join `trace` — a trace
    /// id this client owns (trace-context propagation: the caller's
    /// spans and the job's server-side spans form one causal tree).
    /// Returns the server-assigned id; fetch the tree with
    /// [`WireClient::trace`] or [`WireClient::trace_chrome`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::submit`].
    pub fn submit_in_trace(&mut self, job: &VerifyJob, trace: TraceId) -> Result<u64, WireError> {
        let job_text = print_job(job);
        writeln!(self.writer, "SUBMIT trace {trace}")?;
        self.writer.write_all(job_text.as_bytes())?;
        if !job_text.ends_with('\n') {
            writeln!(self.writer)?;
        }
        writeln!(self.writer, ".")?;
        let rest = self.read_ok()?;
        match rest.strip_prefix("id ").map(str::parse) {
            Some(Ok(id)) => Ok(id),
            _ => Err(WireError::Protocol(format!("expected `OK id <n>`: {rest}"))),
        }
    }

    /// Submits a raw wire-format job payload (see `docs/PROTOCOL.md`).
    ///
    /// # Errors
    ///
    /// As [`WireClient::submit`]; malformed payloads surface as
    /// [`WireError::Protocol`] carrying the server's `ERR parse: ...`
    /// line.
    pub fn submit_text(&mut self, job_text: &str) -> Result<u64, WireError> {
        writeln!(self.writer, "SUBMIT")?;
        self.writer.write_all(job_text.as_bytes())?;
        if !job_text.ends_with('\n') {
            writeln!(self.writer)?;
        }
        writeln!(self.writer, ".")?;
        let rest = self.read_ok()?;
        match rest.strip_prefix("id ").map(str::parse) {
            Some(Ok(id)) => Ok(id),
            _ => Err(WireError::Protocol(format!("expected `OK id <n>`: {rest}"))),
        }
    }

    /// Submits several jobs down the pipe before reading any answer
    /// (request pipelining: one round trip's latency for the whole
    /// batch). Returns the server-assigned ids in submission order.
    ///
    /// # Errors
    ///
    /// As [`WireClient::submit`]; the first rejected job surfaces as
    /// [`WireError::Protocol`] (later answers stay unread, leaving the
    /// connection out of sync — treat the error as fatal for this
    /// connection).
    pub fn submit_pipelined(&mut self, jobs: &[VerifyJob]) -> Result<Vec<u64>, WireError> {
        for job in jobs {
            let job_text = print_job(job);
            writeln!(self.writer, "SUBMIT")?;
            self.writer.write_all(job_text.as_bytes())?;
            if !job_text.ends_with('\n') {
                writeln!(self.writer)?;
            }
            writeln!(self.writer, ".")?;
        }
        let mut ids = Vec::with_capacity(jobs.len());
        for _ in jobs {
            let rest = self.read_ok()?;
            match rest.strip_prefix("id ").map(str::parse) {
                Some(Ok(id)) => ids.push(id),
                _ => return Err(WireError::Protocol(format!("expected `OK id <n>`: {rest}"))),
            }
        }
        Ok(ids)
    }

    /// Fetches several reports with pipelined `RESULT` commands: all
    /// requests go out first, then the responses are read in order
    /// (the server blocks each `RESULT` until its job finishes, so
    /// this also waits for the batch to complete).
    ///
    /// # Errors
    ///
    /// As [`WireClient::result`]; the first failing id surfaces as an
    /// error and leaves later answers unread (treat as fatal for this
    /// connection).
    pub fn results_pipelined(&mut self, ids: &[u64]) -> Result<Vec<WireReport>, WireError> {
        for id in ids {
            writeln!(self.writer, "RESULT {id}")?;
        }
        let mut reports = Vec::with_capacity(ids.len());
        for _ in ids {
            let rest = self.read_ok()?;
            if rest != "report" {
                return Err(WireError::Protocol(format!("expected `OK report`: {rest}")));
            }
            let block = self.read_block()?;
            reports.push(parse_report(&block)?);
        }
        Ok(reports)
    }

    /// Asks whether a job has finished, without blocking.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] for unknown ids.
    pub fn status(&mut self, id: u64) -> Result<JobStatus, WireError> {
        writeln!(self.writer, "STATUS {id}")?;
        match self.read_ok()?.as_str() {
            "pending" => Ok(JobStatus::Pending),
            "done" => Ok(JobStatus::Done),
            "lost" => Ok(JobStatus::Lost),
            other => Err(WireError::Protocol(format!("unknown status {other:?}"))),
        }
    }

    /// Fetches a job's report, blocking until the job finishes. Reports
    /// stay fetchable: asking again returns the same report.
    ///
    /// # Errors
    ///
    /// Socket errors; [`WireError::Protocol`] for unknown or lost jobs;
    /// [`WireError::Parse`] if the report payload is malformed.
    pub fn result(&mut self, id: u64) -> Result<WireReport, WireError> {
        writeln!(self.writer, "RESULT {id}")?;
        let rest = self.read_ok()?;
        if rest != "report" {
            return Err(WireError::Protocol(format!("expected `OK report`: {rest}")));
        }
        let block = self.read_block()?;
        Ok(parse_report(&block)?)
    }

    /// Fetches the service counters (the `STATS` command).
    ///
    /// Unknown keys are ignored and missing keys default to zero, so
    /// clients and servers can evolve independently.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] on a malformed payload.
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        writeln!(self.writer, "STATS")?;
        let rest = self.read_ok()?;
        if rest != "stats" {
            return Err(WireError::Protocol(format!("expected `OK stats`: {rest}")));
        }
        let block = self.read_block()?;
        let mut s = StatsSnapshot::default();
        for line in block.lines() {
            let Some((key, value)) = line.split_once(' ') else {
                continue;
            };
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| WireError::Protocol(format!("non-numeric stats value in {line:?}")))?;
            match key {
                "jobs_submitted" => s.jobs_submitted = value,
                "jobs_completed" => s.jobs_completed = value,
                "formulas_checked" => s.formulas_checked = value,
                "cache_hits" => s.cache_hits = value,
                "cache_misses" => s.cache_misses = value,
                "cached_structures" => s.cached_structures = value,
                "cached_abstract_states" => s.cached_abstract_states = value,
                "cache_evictions" => s.cache_evictions = value,
                "evicted_abstract_states" => s.evicted_abstract_states = value,
                "cutoffs_certified" => s.cutoffs_certified = value,
                "cutoff_answers" => s.cutoff_answers = value,
                "p50_total_ns" => s.p50_total_ns = value,
                "p99_total_ns" => s.p99_total_ns = value,
                _ => {} // forward compatibility
            }
        }
        Ok(s)
    }

    /// Fetches a job's recorded span tree as the server's indented text
    /// rendering (the `TRACE <id>` command). An empty string means the
    /// job is known but its spans have been evicted from the server's
    /// bounded flight recorder.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] for unknown ids.
    pub fn trace(&mut self, id: u64) -> Result<String, WireError> {
        writeln!(self.writer, "TRACE {id}")?;
        let rest = self.read_ok()?;
        if rest != "trace" {
            return Err(WireError::Protocol(format!("expected `OK trace`: {rest}")));
        }
        self.read_block()
    }

    /// Fetches a job's recorded spans as parsed Chrome Trace Event
    /// Format events (the `TRACE <id> chrome` command) — the typed form
    /// of the JSON document the server would hand to Perfetto.
    ///
    /// # Errors
    ///
    /// Socket errors, [`WireError::Protocol`] for unknown ids or a
    /// malformed trace document.
    pub fn trace_chrome(&mut self, id: u64) -> Result<Vec<SpanEvent>, WireError> {
        writeln!(self.writer, "TRACE {id} chrome")?;
        let rest = self.read_ok()?;
        if rest != "trace" {
            return Err(WireError::Protocol(format!("expected `OK trace`: {rest}")));
        }
        let block = self.read_block()?;
        parse_chrome_trace(block.trim_end())
            .map_err(|e| WireError::Protocol(format!("bad chrome trace: {e}")))
    }

    /// Fetches the server's one-line `HEALTH` probe, parsed. Unknown
    /// keys are ignored and missing keys read zero, mirroring the
    /// `STATS` compatibility rule.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] on a malformed answer.
    pub fn health(&mut self) -> Result<HealthSnapshot, WireError> {
        writeln!(self.writer, "HEALTH")?;
        let rest = self.read_ok()?;
        let Some(rest) = rest.strip_prefix("health") else {
            return Err(WireError::Protocol(format!("expected `OK health`: {rest}")));
        };
        let mut h = HealthSnapshot::default();
        for pair in rest.split_whitespace() {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(WireError::Protocol(format!("bad health pair {pair:?}")));
            };
            let value: u64 = value
                .parse()
                .map_err(|_| WireError::Protocol(format!("non-numeric health value {pair:?}")))?;
            match key {
                "uptime_ms" => h.uptime_ms = value,
                "queue_depth" => h.queue_depth = value,
                "workers" => h.workers = value,
                "jobs_in_flight" => h.jobs_in_flight = value,
                "errors" => h.errors = value,
                "traces_retained" => h.traces_retained = value,
                "traces_dropped" => h.traces_dropped = value,
                "cutoffs_certified" => h.cutoffs_certified = value,
                "cutoff_answers" => h.cutoff_answers = value,
                "p50_total_ns" => h.p50_total_ns = value,
                "p99_total_ns" => h.p99_total_ns = value,
                _ => {} // forward compatibility
            }
        }
        Ok(h)
    }

    /// Fetches the server's full telemetry snapshot (the `METRICS`
    /// command): every registered counter, gauge, and histogram, parsed
    /// back from the Prometheus text exposition. Metric names come back
    /// in wire form (`icstar_serve_jobs_completed`, underscores for
    /// dots) — the exposition mangling is not inverted.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] on a malformed
    /// exposition.
    pub fn metrics(&mut self) -> Result<TelemetrySnapshot, WireError> {
        writeln!(self.writer, "METRICS")?;
        let rest = self.read_ok()?;
        if rest != "metrics" {
            return Err(WireError::Protocol(format!(
                "expected `OK metrics`: {rest}"
            )));
        }
        let block = self.read_block()?;
        TelemetrySnapshot::parse_prometheus(&block)
            .map_err(|e| WireError::Protocol(format!("bad metrics exposition: {e}")))
    }

    /// Round-trips a `PING`.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`WireError::Protocol`] on anything but pong.
    pub fn ping(&mut self) -> Result<(), WireError> {
        writeln!(self.writer, "PING")?;
        match self.read_ok()?.as_str() {
            "pong" => Ok(()),
            other => Err(WireError::Protocol(format!("expected pong: {other}"))),
        }
    }

    /// Says goodbye and closes the connection.
    ///
    /// # Errors
    ///
    /// Socket errors from the farewell exchange.
    pub fn quit(mut self) -> Result<(), WireError> {
        writeln!(self.writer, "QUIT")?;
        self.read_ok()?;
        Ok(())
    }
}
