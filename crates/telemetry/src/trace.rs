//! Per-job causal tracing: trace/span identifiers, an RAII
//! [`TraceScope`] that nests through a thread-local current-span stack,
//! and a bounded in-process [`FlightRecorder`] ring buffer with Chrome
//! Trace Event Format export ([`to_chrome_trace`] /
//! [`parse_chrome_trace`]) and an indented text rendering
//! ([`to_text_tree`]) for the wire `TRACE` command.
//!
//! Aggregate histograms (PR 6) answer "is p99 regressing?"; this module
//! answers "why was *this* job slow?". Every job gets a [`TraceId`],
//! spans form a parent/child tree, and the most recent
//! [`FlightRecorder::capacity`] spans stay resident in memory — no
//! allocation-per-event I/O, no background thread, no `rand`: both id
//! kinds come from plain atomic sequences.
//!
//! # Examples
//!
//! ```
//! use icstar_telemetry::FlightRecorder;
//!
//! let rec = FlightRecorder::with_capacity(64);
//! let trace;
//! {
//!     let mut job = rec.scope("job");
//!     trace = job.context().trace;
//!     {
//!         let mut lookup = rec.scope("cache_lookup"); // nests under `job`
//!         lookup.attr("outcome", "miss");
//!     }
//! }
//! let spans = rec.spans_for(trace);
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].name, "cache_lookup"); // inner scope finishes first
//! assert_eq!(spans[1].name, "job");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::Counter;
use crate::registry::Registry;

/// Default [`FlightRecorder`] ring capacity, in spans.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Identifies one causally-related tree of spans (one verification job,
/// one wire connection). Allocated from an atomic sequence — never
/// zero — or supplied by a client as up to 16 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

/// Identifies one span within the recorder. Allocated from an atomic
/// sequence; never zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

macro_rules! id_impls {
    ($ty:ident) => {
        impl $ty {
            /// Wraps a raw id. Zero is reserved ("no id") and rejected.
            pub fn from_u64(raw: u64) -> Option<Self> {
                (raw != 0).then_some($ty(raw))
            }

            /// The raw id value (always nonzero).
            pub fn as_u64(self) -> u64 {
                self.0
            }

            /// Parses the lowercase-hex wire form ([`Display`](fmt::Display)
            /// inverse): 1–16 hex digits, nonzero.
            pub fn parse_hex(s: &str) -> Option<Self> {
                if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                Self::from_u64(u64::from_str_radix(s, 16).ok()?)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:x}", self.0)
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($ty), "({:x})"), self.0)
            }
        }
    };
}

id_impls!(TraceId);
id_impls!(SpanId);

/// One finished span: a named interval within a trace, with optional
/// parent, worker index (`tid`), and `key=value` attributes.
///
/// Attribute keys `trace`, `span`, and `parent` are reserved (they
/// carry the ids in the Chrome export's `args` object).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id, unique within the recorder.
    pub id: SpanId,
    /// The enclosing span, if any (`None` for a trace's root).
    pub parent: Option<SpanId>,
    /// Span name — `job`, `queue_wait`, `build`, `explore`, ...
    pub name: String,
    /// Start offset in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Worker index, surfaced as the Chrome `tid` so per-worker lanes
    /// separate visually in Perfetto. Zero unless set.
    pub tid: u32,
    /// Ordered `key=value` attributes (e.g. `outcome=hit`).
    pub attrs: Vec<(String, String)>,
}

/// A copyable (trace, span) pair — enough to attach child spans from
/// another thread via [`FlightRecorder::scope_under`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace id.
    pub trace: TraceId,
    /// The span that children should name as their parent.
    pub span: SpanId,
}

thread_local! {
    /// The current-span stack: [`TraceScope`] pushes on creation and
    /// pops on drop, so plain `scope()` calls nest automatically.
    static CURRENT: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open [`TraceScope`] on this thread, if any.
pub fn current_context() -> Option<SpanContext> {
    CURRENT.with(|stack| stack.borrow().last().copied())
}

#[derive(Debug)]
struct RecorderInner {
    ring: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
    dropped: Counter,
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

/// A bounded in-process ring of recent [`SpanEvent`]s. Cheap-clone
/// handle (`Arc` inside); clones share the ring, the id sequences, and
/// the epoch. When full, the oldest span is evicted and counted — the
/// recorder never grows and never blocks writers on readers for longer
/// than one ring copy.
#[derive(Clone, Debug)]
pub struct FlightRecorder(Arc<RecorderInner>);

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder with the default capacity
    /// ([`DEFAULT_TRACE_CAPACITY`] spans).
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// A recorder retaining at most `capacity` spans (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder(Arc::new(RecorderInner {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
            dropped: Counter::detached(),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
        }))
    }

    /// Whether two handles share the same ring.
    pub fn same_as(&self, other: &FlightRecorder) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.0.ring.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total spans evicted to make room since construction.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.get()
    }

    /// Allocates a fresh trace id.
    pub fn new_trace(&self) -> TraceId {
        TraceId(self.0.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates a fresh span id.
    pub fn new_span_id(&self) -> SpanId {
        SpanId(self.0.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Nanoseconds elapsed since the recorder's epoch — the time base
    /// every [`SpanEvent::start_ns`] is expressed in.
    pub fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Appends a finished span, evicting (and counting) the oldest if
    /// the ring is full.
    pub fn record(&self, event: SpanEvent) {
        let mut ring = self.0.ring.lock().unwrap();
        while ring.len() >= self.0.capacity {
            ring.pop_front();
            // Relaxed atomic inc: cheap enough to keep under the lock,
            // which makes `retained + dropped == recorded` exact.
            self.0.dropped.inc();
        }
        ring.push_back(event);
    }

    /// Records a span with explicit timing and returns its allocated
    /// id. For retroactive spans whose interval is only known after the
    /// fact (`job` roots, `queue_wait`), where an RAII scope can't
    /// bracket the work.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: impl Into<String>,
        start_ns: u64,
        dur_ns: u64,
        tid: u32,
        attrs: Vec<(String, String)>,
    ) -> SpanId {
        let id = self.new_span_id();
        self.record(SpanEvent {
            trace,
            id,
            parent,
            name: name.into(),
            start_ns,
            dur_ns,
            tid,
            attrs,
        });
        id
    }

    /// The most recent `limit` spans, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<SpanEvent> {
        let ring = self.0.ring.lock().unwrap();
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// All retained spans of `trace`, in completion order, leaving them
    /// in the ring (so `TRACE` is repeatable).
    pub fn spans_for(&self, trace: TraceId) -> Vec<SpanEvent> {
        let ring = self.0.ring.lock().unwrap();
        ring.iter().filter(|e| e.trace == trace).cloned().collect()
    }

    /// Removes and returns all retained spans of `trace`, in completion
    /// order. One coherent cut: spans recorded concurrently with the
    /// drain either come out whole or stay for the next drain.
    pub fn drain_trace(&self, trace: TraceId) -> Vec<SpanEvent> {
        let mut ring = self.0.ring.lock().unwrap();
        let mut drained = Vec::new();
        ring.retain(|e| {
            if e.trace == trace {
                drained.push(e.clone());
                false
            } else {
                true
            }
        });
        drained
    }

    /// Publishes the recorder into `registry`:
    /// `telemetry.trace.dropped` (adopted counter — same atomic, so
    /// every snapshot agrees) and `telemetry.trace.retained` (gauge,
    /// refreshed to the current occupancy on each call).
    pub fn publish_metrics(&self, registry: &Registry) {
        registry.adopt_counter("telemetry.trace.dropped", &self.0.dropped);
        registry
            .gauge("telemetry.trace.retained")
            .set(self.len().min(i64::MAX as usize) as i64);
    }

    /// Opens a span nested under the innermost open scope on this
    /// thread — or a fresh trace root if none is open.
    pub fn scope(&self, name: impl Into<String>) -> TraceScope {
        match current_context() {
            Some(parent) => self.open(parent.trace, Some(parent.span), name),
            None => self.open(self.new_trace(), None, name),
        }
    }

    /// Opens a span under an explicit parent context — the cross-thread
    /// form, also used wherever a callee is handed its parent (a
    /// build's phases attach under the `build` span this way).
    pub fn scope_under(&self, parent: SpanContext, name: impl Into<String>) -> TraceScope {
        self.open(parent.trace, Some(parent.span), name)
    }

    fn open(&self, trace: TraceId, parent: Option<SpanId>, name: impl Into<String>) -> TraceScope {
        let ctx = SpanContext {
            trace,
            span: self.new_span_id(),
        };
        CURRENT.with(|stack| stack.borrow_mut().push(ctx));
        TraceScope {
            recorder: self.clone(),
            ctx,
            parent,
            name: name.into(),
            start: Instant::now(),
            start_ns: self.now_ns(),
            tid: 0,
            attrs: Vec::new(),
            finished: false,
        }
    }

    /// The spans of `trace` rendered as Chrome trace-event JSON — see
    /// [`to_chrome_trace`].
    pub fn chrome_trace(&self, trace: TraceId, service: &str) -> String {
        to_chrome_trace(&self.spans_for(trace), service)
    }
}

/// RAII span: opened via [`FlightRecorder::scope`] (and variants),
/// recorded into the ring on drop. While open it sits on the
/// thread-local stack, so nested `scope()` calls parent under it
/// automatically.
#[derive(Debug)]
pub struct TraceScope {
    recorder: FlightRecorder,
    ctx: SpanContext,
    parent: Option<SpanId>,
    name: String,
    start: Instant,
    start_ns: u64,
    tid: u32,
    attrs: Vec<(String, String)>,
    finished: bool,
}

impl TraceScope {
    /// This span's (trace, span) pair — hand it to another thread to
    /// attach children via [`FlightRecorder::scope_under`].
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Attaches a `key=value` attribute. Keys `trace`, `span`, and
    /// `parent` are reserved for the Chrome export.
    pub fn attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        debug_assert!(
            !matches!(key.as_str(), "trace" | "span" | "parent"),
            "attribute key {key:?} is reserved"
        );
        self.attrs.push((key, value.into()));
    }

    /// Sets the worker index surfaced as the Chrome `tid`.
    pub fn set_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Abandons the span: pops the nesting stack, records nothing.
    pub fn cancel(mut self) {
        self.finished = true;
        self.unwind();
    }

    fn unwind(&self) {
        CURRENT.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Scopes drop in LIFO order, so ours is on top; if a caller
            // held scopes across an unusual control flow, removing by
            // id keeps the stack consistent anyway.
            if let Some(pos) = stack.iter().rposition(|c| c.span == self.ctx.span) {
                stack.remove(pos);
            }
        });
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.unwind();
        let dur_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.recorder.record(SpanEvent {
            trace: self.ctx.trace,
            id: self.ctx.span,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_ns: self.start_ns,
            dur_ns,
            tid: self.tid,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

// ---- Chrome Trace Event Format ----

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nanoseconds as the Chrome `ts`/`dur` microsecond value, with a
/// 3-digit fraction so the export is lossless: `1234567` → `1234.567`.
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders spans as Chrome Trace Event Format JSON — one line, openable
/// directly in Perfetto or `chrome://tracing`. Every span becomes a
/// `ph:"X"` complete event (`ts`/`dur` in microseconds with a
/// nanosecond-exact fraction), `pid` is the service (named by a
/// `process_name` metadata event), `tid` is the span's worker index,
/// and `args` carries the trace/span/parent ids in hex plus the span's
/// attributes. [`parse_chrome_trace`] inverts it exactly.
pub fn to_chrome_trace(spans: &[SpanEvent], service: &str) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str(
        "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"name\":\"process_name\",\"args\":{\"name\":",
    );
    push_json_str(&mut out, service);
    out.push_str("}}");
    for span in spans {
        out.push_str(",{\"ph\":\"X\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", span.tid);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &span.name);
        out.push_str(",\"ts\":");
        push_us(&mut out, span.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, span.dur_ns);
        let _ = write!(
            out,
            ",\"args\":{{\"trace\":\"{}\",\"span\":\"{}\"",
            span.trace, span.id
        );
        if let Some(parent) = span.parent {
            let _ = write!(out, ",\"parent\":\"{parent}\"");
        }
        for (k, v) in &span.attrs {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            push_json_str(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Parses [`to_chrome_trace`] output back into spans (the metadata
/// event is consumed, not returned) —
/// `parse_chrome_trace(&to_chrome_trace(&t, s)) == Ok(t)` for every
/// span list, pinned by a proptest.
pub fn parse_chrome_trace(json: &str) -> Result<Vec<SpanEvent>, String> {
    let mut p = ChromeCursor::new(json);
    p.literal("{\"traceEvents\":[")?;
    // Metadata event: fixed shape, service name ignored here.
    p.literal("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":")?;
    p.string()?;
    p.literal("}}")?;
    let mut spans = Vec::new();
    while p.eat(',') {
        p.literal("{\"ph\":\"X\",\"pid\":1,\"tid\":")?;
        let tid = u32::try_from(p.integer()?).map_err(|_| "tid out of range".to_owned())?;
        p.literal(",\"name\":")?;
        let name = p.string()?;
        p.literal(",\"ts\":")?;
        let start_ns = p.us_value()?;
        p.literal(",\"dur\":")?;
        let dur_ns = p.us_value()?;
        p.literal(",\"args\":{\"trace\":")?;
        let trace = p
            .hex_id()
            .and_then(|raw| TraceId::from_u64(raw).ok_or_else(|| "zero trace id".to_owned()))?;
        p.literal(",\"span\":")?;
        let id = p
            .hex_id()
            .and_then(|raw| SpanId::from_u64(raw).ok_or_else(|| "zero span id".to_owned()))?;
        let mut parent = None;
        let mut attrs = Vec::new();
        let mut first = true;
        while p.eat(',') {
            let key = p.string()?;
            p.literal(":")?;
            if first && key == "parent" {
                parent =
                    Some(p.hex_id().and_then(|raw| {
                        SpanId::from_u64(raw).ok_or_else(|| "zero parent".into())
                    })?);
            } else {
                attrs.push((key, p.string()?));
            }
            first = false;
        }
        p.literal("}}")?;
        spans.push(SpanEvent {
            trace,
            id,
            parent,
            name,
            start_ns,
            dur_ns,
            tid,
            attrs,
        });
    }
    p.literal("]}")?;
    p.end()?;
    Ok(spans)
}

/// A strict cursor over the exact grammar [`to_chrome_trace`] emits —
/// the same hand-rolled style as the telemetry snapshot's JSON parser,
/// plus string escapes (span names and attribute values are arbitrary).
struct ChromeCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ChromeCursor<'a> {
    fn new(text: &'a str) -> Self {
        ChromeCursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn literal(&mut self, want: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(want.as_bytes()) {
            self.pos += want.len();
            Ok(())
        } else {
            Err(format!("expected {want:?} at byte {}", self.pos))
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.bytes.get(self.pos) == Some(&(c as u8)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat('"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut s = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..])
                .map_err(|_| "invalid utf-8".to_owned())?;
            let mut chars = rest.char_indices();
            match chars.next() {
                None => return Err("unterminated string".to_owned()),
                Some((_, '"')) => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some((_, '\\')) => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some((i, c)) => {
                    s.push(c);
                    self.pos += i + c.len_utf8();
                }
            }
        }
    }

    fn integer(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected an integer at byte {start}"))
    }

    /// A `<µs>.<3-digit ns fraction>` value, returned in nanoseconds.
    fn us_value(&mut self) -> Result<u64, String> {
        let whole = self.integer()?;
        self.literal(".")?;
        let start = self.pos;
        let frac = self.integer()?;
        if self.pos - start != 3 {
            return Err(format!("want a 3-digit fraction at byte {start}"));
        }
        whole
            .checked_mul(1000)
            .and_then(|ns| ns.checked_add(frac))
            .ok_or_else(|| "timestamp out of u64 nanoseconds".to_owned())
    }

    /// A quoted 1–16 digit lowercase hex id.
    fn hex_id(&mut self) -> Result<u64, String> {
        let s = self.string()?;
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("bad hex id {s:?}"));
        }
        u64::from_str_radix(&s, 16).map_err(|e| e.to_string())
    }

    fn end(&mut self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing input at byte {}", self.pos))
        }
    }
}

// ---- Text tree ----

/// Renders spans as an indented tree, two spaces per depth level:
///
/// ```text
/// job 1234567ns n=100000
///   queue_wait 2345ns
///   cache_lookup 4100ns outcome=miss
///   build 901234ns
///     explore 450000ns
/// ```
///
/// Siblings sort by start time (ties by span id). Spans whose parent
/// was evicted from the ring render as roots, so a partially-evicted
/// trace still shows everything that remains. The text form is lossy
/// (no ids, no start offsets) — the Chrome form is the full-fidelity
/// export.
pub fn to_text_tree(spans: &[SpanEvent]) -> String {
    let present: std::collections::HashSet<SpanId> = spans.iter().map(|e| e.id).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, spans[i].id.as_u64()));
    let mut out = String::new();
    let mut emitted = vec![false; spans.len()];
    for &root in &order {
        let is_root = match spans[root].parent {
            None => true,
            Some(p) => !present.contains(&p),
        };
        if is_root {
            emit_subtree(spans, &order, root, 0, &mut emitted, &mut out);
        }
    }
    // Defensive: parent cycles can only come from hand-built events,
    // but a renderer must not drop spans silently even then.
    for &i in &order {
        if !emitted[i] {
            emit_subtree(spans, &order, i, 0, &mut emitted, &mut out);
        }
    }
    out
}

fn emit_subtree(
    spans: &[SpanEvent],
    order: &[usize],
    idx: usize,
    depth: usize,
    emitted: &mut [bool],
    out: &mut String,
) {
    if emitted[idx] {
        return;
    }
    emitted[idx] = true;
    let span = &spans[idx];
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(out, "{} {}ns", span.name, span.dur_ns);
    for (k, v) in &span.attrs {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    for &child in order {
        if spans[child].parent == Some(span.id) {
            emit_subtree(spans, order, child, depth + 1, emitted, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(trace: u64, id: u64, parent: Option<u64>, name: &str, start: u64) -> SpanEvent {
        SpanEvent {
            trace: TraceId::from_u64(trace).unwrap(),
            id: SpanId::from_u64(id).unwrap(),
            parent: parent.map(|p| SpanId::from_u64(p).unwrap()),
            name: name.into(),
            start_ns: start,
            dur_ns: 100,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn ids_are_sequential_and_nonzero() {
        let rec = FlightRecorder::new();
        let a = rec.new_trace();
        let b = rec.new_trace();
        assert_ne!(a, b);
        assert!(a.as_u64() >= 1);
        assert_eq!(TraceId::from_u64(0), None);
        assert_eq!(TraceId::parse_hex("0"), None);
        assert_eq!(TraceId::parse_hex("ff").unwrap().as_u64(), 255);
        assert_eq!(
            TraceId::parse_hex("deadbeefcafebabe").unwrap().to_string(),
            "deadbeefcafebabe"
        );
        assert_eq!(TraceId::parse_hex("12345678123456789"), None); // 17 digits
        assert_eq!(TraceId::parse_hex("xyz"), None);
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let rec = FlightRecorder::with_capacity(3);
        let t = rec.new_trace();
        for i in 1..=5u64 {
            rec.record_span(t, None, format!("s{i}"), i, 1, 0, Vec::new());
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let names: Vec<_> = rec.spans_for(t).into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["s3", "s4", "s5"]);
    }

    #[test]
    fn drain_removes_only_the_requested_trace() {
        let rec = FlightRecorder::with_capacity(8);
        let a = rec.new_trace();
        let b = rec.new_trace();
        rec.record_span(a, None, "a1", 0, 1, 0, Vec::new());
        rec.record_span(b, None, "b1", 0, 1, 0, Vec::new());
        rec.record_span(a, None, "a2", 0, 1, 0, Vec::new());
        let drained = rec.drain_trace(a);
        assert_eq!(drained.len(), 2);
        assert_eq!(rec.len(), 1);
        assert!(rec.drain_trace(a).is_empty());
        assert_eq!(rec.spans_for(b).len(), 1);
    }

    #[test]
    fn recent_returns_the_tail_in_order() {
        let rec = FlightRecorder::with_capacity(8);
        let t = rec.new_trace();
        for i in 1..=5u64 {
            rec.record_span(t, None, format!("s{i}"), i, 1, 0, Vec::new());
        }
        let names: Vec<_> = rec.recent(2).into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["s4", "s5"]);
        assert_eq!(rec.recent(100).len(), 5);
    }

    #[test]
    fn scopes_nest_through_the_thread_local_stack() {
        let rec = FlightRecorder::new();
        let trace;
        {
            let outer = rec.scope("outer");
            trace = outer.context().trace;
            let middle = rec.scope("middle");
            assert_eq!(current_context(), Some(middle.context()));
            drop(rec.scope("inner"));
        }
        assert_eq!(current_context(), None);
        let spans = rec.spans_for(trace);
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|e| e.name == n).unwrap().clone();
        assert_eq!(by_name("outer").parent, None);
        assert_eq!(by_name("middle").parent, Some(by_name("outer").id));
        assert_eq!(by_name("inner").parent, Some(by_name("middle").id));
    }

    #[test]
    fn scope_under_attaches_across_threads() {
        let rec = FlightRecorder::new();
        let parent = rec.scope("build");
        let ctx = parent.context();
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            let mut shard = rec2.scope_under(ctx, "shard[0]");
            shard.set_tid(7);
        })
        .join()
        .unwrap();
        drop(parent);
        let spans = rec.spans_for(ctx.trace);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "shard[0]");
        assert_eq!(spans[0].parent, Some(ctx.span));
        assert_eq!(spans[0].tid, 7);
    }

    #[test]
    fn cancel_records_nothing_and_pops_the_stack() {
        let rec = FlightRecorder::new();
        let scope = rec.scope("doomed");
        scope.cancel();
        assert_eq!(current_context(), None);
        assert!(rec.is_empty());
    }

    #[test]
    fn publish_metrics_exposes_dropped_and_retained() {
        let rec = FlightRecorder::with_capacity(1);
        let r = Registry::new();
        let t = rec.new_trace();
        rec.record_span(t, None, "a", 0, 1, 0, Vec::new());
        rec.record_span(t, None, "b", 0, 1, 0, Vec::new());
        rec.publish_metrics(&r);
        let snap = r.snapshot();
        assert_eq!(snap.counter("telemetry.trace.dropped"), Some(1));
        assert_eq!(snap.gauge("telemetry.trace.retained"), Some(1));
    }

    #[test]
    fn chrome_trace_round_trips_a_realistic_tree() {
        let rec = FlightRecorder::new();
        let t = rec.new_trace();
        let root = rec.record_span(
            t,
            None,
            "job",
            10,
            1_000_000,
            0,
            vec![("n".into(), "8".into())],
        );
        rec.record_span(t, Some(root), "queue_wait", 10, 2_345, 0, Vec::new());
        rec.record_span(
            t,
            Some(root),
            "cache_lookup",
            3_000,
            999,
            0,
            vec![("outcome".into(), "miss".into())],
        );
        let spans = rec.spans_for(t);
        let json = to_chrome_trace(&spans, "icstar-serve");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ts\":0.010"));
        assert_eq!(parse_chrome_trace(&json).unwrap(), spans);
    }

    #[test]
    fn chrome_trace_escapes_awkward_strings() {
        let mut e = event(1, 2, None, "we\"ird\\name\n", 0);
        e.attrs.push(("k".into(), "tab\there \u{1}".into()));
        let json = to_chrome_trace(std::slice::from_ref(&e), "svc\"quoted");
        assert_eq!(parse_chrome_trace(&json).unwrap(), vec![e]);
    }

    #[test]
    fn chrome_trace_of_nothing_round_trips() {
        let json = to_chrome_trace(&[], "icstar");
        assert_eq!(parse_chrome_trace(&json).unwrap(), Vec::<SpanEvent>::new());
    }

    #[test]
    fn chrome_parser_rejects_garbage() {
        for bad in [
            "",
            "{\"traceEvents\":[]}", // missing metadata event
            "not json at all",
            "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"name\":\"process_name\",\"args\":{\"name\":\"x\"}}]} trailing",
        ] {
            assert!(parse_chrome_trace(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn text_tree_indents_and_sorts_by_start() {
        let spans = vec![
            event(1, 10, None, "job", 0),
            event(1, 12, Some(10), "build", 50),
            event(1, 11, Some(10), "queue_wait", 10),
            event(1, 13, Some(12), "shard[1]", 60),
            event(1, 14, Some(12), "shard[0]", 55),
        ];
        assert_eq!(
            to_text_tree(&spans),
            "job 100ns\n  queue_wait 100ns\n  build 100ns\n    shard[0] 100ns\n    shard[1] 100ns\n"
        );
    }

    #[test]
    fn text_tree_promotes_orphans_to_roots() {
        let spans = vec![event(1, 5, Some(4), "build", 0)]; // parent 4 evicted
        assert_eq!(to_text_tree(&spans), "build 100ns\n");
    }

    #[test]
    fn text_tree_shows_attrs() {
        let mut e = event(1, 2, None, "cache_lookup", 0);
        e.attrs.push(("outcome".into(), "hit".into()));
        assert_eq!(to_text_tree(&[e]), "cache_lookup 100ns outcome=hit\n");
    }
}
