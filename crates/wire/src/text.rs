//! The textual wire format: printers and parsers for templates, guards,
//! counting specs, jobs, and verdict reports.
//!
//! The format is line-friendly, dependency-free, and **round-tripping**:
//! for every payload type, `parse(print(x)) == x` (verified by unit tests
//! here and property tests over random templates and formulas in the
//! integration suite). The full grammar lives in `docs/PROTOCOL.md`; the
//! shape at a glance:
//!
//! ```text
//! job {
//!   template {
//!     state idle [idle];
//!     state try [try];
//!     state crit [crit];
//!     init idle;
//!     edge idle -> try;
//!     edge try -> crit when #crit <= 0;
//!     edge crit -> idle;
//!   }
//!   sizes 100 1000;
//!   check "mutual exclusion": AG !crit_ge2;
//! }
//! ```
//!
//! `sizes` may end with an *unbounded* range `lo..*`
//! (`sizes 100 1000 5..*;`), asking for the verdict at **every**
//! `n ≥ lo` ([`icstar_serve::VerifyJob::all_from`]). No proven cutoff
//! exists yet, so the server answers the range with one `error`
//! verdict per formula at `n = lo`. A verdict may carry a trailing
//! `cutoff <c>` clause (`verdict "mutex" @ 2 = holds cutoff 2;`),
//! meaning the same verdict holds at every size `≥ c`. The clause is
//! parse-only: no server of this version emits it, and older
//! transcripts that carry it still read back. Both are extensions in
//! the format's usual style: absent clauses mean the old behavior.
//!
//! Guards compare occupancy with `<=`, `>=`, `==`, or `in lo..hi`
//! (inclusive interval); `bcast` clauses declare broadcast moves — one
//! copy steps `source -> target` while every other copy follows the
//! bracketed response map (unlisted states stay put):
//!
//! ```text
//! bcast done0 -> work1 [done0 -> work1] when @work0 == 0;
//! ```
//!
//! `fair` clauses declare weak-fairness groups of moves — each
//! `src -> tgt` pair selects every edge and broadcast taking that move,
//! and a verdict checked under fairness carries a trailing `fair`
//! marker (`verdict "drain" @ 100 = holds fair;`):
//!
//! ```text
//! fair exit idle -> done, try -> crit;
//! ```
//!
//! Formulas reuse the `icstar_logic` grammar verbatim (everything between
//! `:` and `;` is handed to [`icstar_logic::parse_state`], with wire-level
//! `//` comments blanked out first). Names are identifiers or
//! double-quoted strings (`\"` `\\` `\n` `\r` escapes), so arbitrary
//! state/proposition names survive the trip. Comments run from `//` to
//! end of line.
//!
//! One precondition on templates: edges and state guards refer to states
//! *by name*, so the round-trip guarantee holds for templates whose state
//! names are distinct — the parser rejects duplicates, which the
//! programmatic builders technically accept (where names would be
//! ambiguous, no faithful textual form exists).

use std::fmt::Write as _;

use icstar_logic::parse_state;
use icstar_serve::{VerdictReport, VerifyJob};
use icstar_sym::{CountingSpec, Guard, GuardedBuilder, GuardedTemplate};

use crate::error::WireParseError;

// ---------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------

/// Prints a name as a bare identifier when possible, quoted otherwise.
fn fmt_name(out: &mut String, name: &str) {
    if is_ident(name) {
        out.push_str(name);
    } else {
        fmt_string(out, name);
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Always-quoted form, for formula names and error payloads. Newlines
/// and carriage returns are escaped: quoted strings must never span
/// lines, or they would collide with the protocol's line/dot framing
/// (a name containing `"\n.\n"` would otherwise truncate a `SUBMIT`
/// payload).
fn fmt_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_template(out: &mut String, t: &GuardedTemplate, depth: usize) {
    indent(out, depth);
    out.push_str("template {\n");
    for q in 0..t.num_states() as u32 {
        indent(out, depth + 1);
        out.push_str("state ");
        fmt_name(out, t.state_name(q));
        out.push_str(" [");
        for (i, p) in t.labels(q).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            fmt_name(out, p);
        }
        out.push_str("];\n");
    }
    indent(out, depth + 1);
    out.push_str("init ");
    fmt_name(out, t.state_name(t.initial()));
    out.push_str(";\n");
    for q in 0..t.num_states() as u32 {
        for (k, &q2) in t.successors(q).iter().enumerate() {
            indent(out, depth + 1);
            out.push_str("edge ");
            fmt_name(out, t.state_name(q));
            out.push_str(" -> ");
            fmt_name(out, t.state_name(q2));
            let guards = t.guards(q, k);
            for (i, g) in guards.iter().enumerate() {
                out.push_str(if i == 0 { " when " } else { ", " });
                write_guard(out, g, t);
            }
            out.push_str(";\n");
        }
    }
    for bc in t.broadcasts() {
        indent(out, depth + 1);
        out.push_str("bcast ");
        fmt_name(out, t.state_name(bc.source()));
        out.push_str(" -> ");
        fmt_name(out, t.state_name(bc.target()));
        // Only non-identity response entries are textual; the parser
        // identity-completes the map, so the round trip is exact.
        let moved: Vec<(u32, u32)> = bc
            .response()
            .iter()
            .enumerate()
            .filter(|&(q, &to)| q as u32 != to)
            .map(|(q, &to)| (q as u32, to))
            .collect();
        if !moved.is_empty() {
            out.push_str(" [");
            for (i, (q, to)) in moved.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_name(out, t.state_name(*q));
                out.push_str(" -> ");
                fmt_name(out, t.state_name(*to));
            }
            out.push(']');
        }
        for (i, g) in bc.guards().iter().enumerate() {
            out.push_str(if i == 0 { " when " } else { ", " });
            write_guard(out, g, t);
        }
        out.push_str(";\n");
    }
    for d in t.fairness() {
        indent(out, depth + 1);
        out.push_str("fair ");
        fmt_name(out, d.name());
        out.push(' ');
        for (i, &(src, tgt)) in d.moves().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            fmt_name(out, t.state_name(src));
            out.push_str(" -> ");
            fmt_name(out, t.state_name(tgt));
        }
        out.push_str(";\n");
    }
    indent(out, depth);
    out.push_str("}\n");
}

fn write_guard(out: &mut String, g: &Guard, t: &GuardedTemplate) {
    match g {
        Guard::AtMost(p, b) => {
            out.push('#');
            fmt_name(out, p);
            let _ = write!(out, " <= {b}");
        }
        Guard::AtLeast(p, b) => {
            out.push('#');
            fmt_name(out, p);
            let _ = write!(out, " >= {b}");
        }
        Guard::Equals(p, b) => {
            out.push('#');
            fmt_name(out, p);
            let _ = write!(out, " == {b}");
        }
        Guard::InRange(p, lo, hi) => {
            out.push('#');
            fmt_name(out, p);
            let _ = write!(out, " in {lo}..{hi}");
        }
        Guard::StateAtMost(q, b) => {
            out.push('@');
            fmt_name(out, t.state_name(*q));
            let _ = write!(out, " <= {b}");
        }
        Guard::StateAtLeast(q, b) => {
            out.push('@');
            fmt_name(out, t.state_name(*q));
            let _ = write!(out, " >= {b}");
        }
        Guard::StateEquals(q, b) => {
            out.push('@');
            fmt_name(out, t.state_name(*q));
            let _ = write!(out, " == {b}");
        }
        Guard::StateInRange(q, lo, hi) => {
            out.push('@');
            fmt_name(out, t.state_name(*q));
            let _ = write!(out, " in {lo}..{hi}");
        }
    }
}

fn write_spec(out: &mut String, spec: &CountingSpec, depth: usize) {
    indent(out, depth);
    out.push_str("spec {\n");
    for (p, k) in spec.at_least_entries() {
        indent(out, depth + 1);
        out.push_str("atleast ");
        fmt_name(out, p);
        let _ = write!(out, " {k}");
        out.push_str(";\n");
    }
    for p in spec.zero_props() {
        indent(out, depth + 1);
        out.push_str("zero ");
        fmt_name(out, p);
        out.push_str(";\n");
    }
    for p in spec.exactly_one_props() {
        indent(out, depth + 1);
        out.push_str("one ");
        fmt_name(out, p);
        out.push_str(";\n");
    }
    indent(out, depth);
    out.push_str("}\n");
}

/// Renders a template in the wire format.
///
/// `parse_template(&print_template(t)) == *t` whenever `t`'s state
/// names are distinct (edges and state guards are textual *by name*;
/// the parser rejects duplicate names as ambiguous).
///
/// # Examples
///
/// ```
/// use icstar_sym::mutex_template;
/// use icstar_wire::{parse_template, print_template};
///
/// let t = mutex_template();
/// assert_eq!(parse_template(&print_template(&t))?, t);
/// # Ok::<(), icstar_wire::WireParseError>(())
/// ```
pub fn print_template(t: &GuardedTemplate) -> String {
    let mut out = String::new();
    write_template(&mut out, t, 0);
    out
}

/// Renders a counting spec in the wire format.
pub fn print_spec(spec: &CountingSpec) -> String {
    let mut out = String::new();
    write_spec(&mut out, spec, 0);
    out
}

/// Renders a full job — template, optional spec, sizes, checks — in the
/// wire format accepted by the `SUBMIT` command.
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_serve::VerifyJob;
/// use icstar_sym::mutex_template;
/// use icstar_wire::{parse_job, print_job};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = VerifyJob::new(mutex_template())
///     .at_sizes([100, 1_000])
///     .formula("mutex", parse_state("AG !crit_ge2")?);
/// assert_eq!(parse_job(&print_job(&job))?, job);
/// # Ok(())
/// # }
/// ```
pub fn print_job(job: &VerifyJob) -> String {
    let mut out = String::new();
    out.push_str("job {\n");
    write_template(&mut out, &job.template, 1);
    if let Some(spec) = &job.spec {
        write_spec(&mut out, spec, 1);
    }
    indent(&mut out, 1);
    out.push_str("sizes");
    for n in &job.sizes {
        let _ = write!(out, " {n}");
    }
    if let Some(lo) = job.all_from {
        let _ = write!(out, " {lo}..*");
    }
    out.push_str(";\n");
    for (name, f) in &job.formulas {
        indent(&mut out, 1);
        out.push_str("check ");
        fmt_string(&mut out, name);
        let _ = write!(out, ": {f}");
        out.push_str(";\n");
    }
    out.push_str("}\n");
    out
}

/// Renders a service report in the wire format streamed by the `RESULT`
/// command. Check errors are carried as their display text (see
/// [`WireReport`] for the round-trip story).
pub fn print_report(report: &VerdictReport) -> String {
    print_wire_report(&WireReport::from(report))
}

/// Renders an already-wire-shaped report.
pub fn print_wire_report(report: &WireReport) -> String {
    let mut out = String::new();
    let _ = write!(out, "report {} {{", report.job_id);
    out.push('\n');
    for v in &report.verdicts {
        indent(&mut out, 1);
        out.push_str("verdict ");
        fmt_string(&mut out, &v.name);
        let _ = write!(out, " @ {} = ", v.n);
        match &v.outcome {
            Ok(true) => out.push_str("holds"),
            Ok(false) => out.push_str("fails"),
            Err(msg) => {
                out.push_str("error ");
                fmt_string(&mut out, msg);
            }
        }
        // The representative width is printed only when the check
        // actually tracked copies; `k 0` (counter backend) is the
        // parser's default, keeping old transcripts valid. Same story
        // for the `fair` marker: printed only when the check ranged
        // over weakly fair paths, absent (= false) otherwise.
        if v.rep_width > 0 {
            let _ = write!(out, " k {}", v.rep_width);
        }
        if v.fair {
            out.push_str(" fair");
        }
        // A cutoff clause round-trips when present; absent (= directly
        // checked) is again the parser's default.
        if let Some(cv) = v.cutoff {
            let _ = write!(out, " cutoff {cv}");
        }
        out.push_str(";\n");
    }
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------
// Wire-level report types
// ---------------------------------------------------------------------

/// One verdict as it crosses the wire.
///
/// The engine-side [`icstar_serve::JobVerdict`] carries a structured
/// [`icstar_sym::SymError`]; the wire carries its display text instead
/// (clients should not need the engine's error taxonomy to read a
/// report). `parse(print(r))` is the identity on [`WireReport`]s, and
/// equals `WireReport::from(&r)` for a service [`VerdictReport`] `r`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireVerdict {
    /// The formula's name, as submitted.
    pub name: String,
    /// The family size this verdict is for.
    pub n: u32,
    /// Whether the formula holds, or the check error's display text.
    pub outcome: Result<bool, String>,
    /// Distinguished copies the representative construction tracked for
    /// this check (`verdict … = holds k 2;` on the wire); `0` — omitted
    /// when printing — for counter-structure checks and errors.
    pub rep_width: u32,
    /// Whether the check's path quantifiers ranged over weakly fair
    /// paths only (`verdict … = holds fair;` on the wire); `false` —
    /// omitted when printing — for unconstrained templates and errors.
    pub fair: bool,
    /// A cutoff backing this verdict (`verdict … = holds cutoff 2;` on
    /// the wire): the same truth value holds at every family size `≥ c`.
    /// Parse-only: no server of this version emits it, so a report from
    /// the service always reads `None` — omitted when printing. Older
    /// transcripts that carry the clause still round-trip.
    pub cutoff: Option<u32>,
}

/// A [`VerdictReport`] in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireReport {
    /// The id assigned at submission.
    pub job_id: u64,
    /// The verdicts, in the order the service produced them (size-major).
    pub verdicts: Vec<WireVerdict>,
}

impl WireReport {
    /// Whether every formula was checked successfully and holds.
    pub fn all_hold(&self) -> bool {
        self.verdicts.iter().all(|v| v.outcome == Ok(true))
    }

    /// The verdicts for one family size.
    pub fn at_size(&self, n: u32) -> impl Iterator<Item = &WireVerdict> {
        self.verdicts.iter().filter(move |v| v.n == n)
    }
}

impl From<&VerdictReport> for WireReport {
    fn from(r: &VerdictReport) -> Self {
        WireReport {
            job_id: r.job_id,
            verdicts: r
                .verdicts
                .iter()
                .map(|v| WireVerdict {
                    name: v.name.clone(),
                    n: v.n,
                    outcome: v.result.as_ref().map(|b| *b).map_err(|e| e.to_string()),
                    rep_width: v.rep_width,
                    fair: v.fair,
                    cutoff: None,
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A byte cursor over wire-format input. Hand-rolled like the
/// `icstar_logic` parser: no dependencies, precise offsets.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> WireParseError {
        WireParseError::new(self.pos, message)
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Skips whitespace and `//` line comments.
    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if let Some(stripped) = self.rest().strip_prefix("//") {
                let line_len = stripped.find('\n').map_or(stripped.len(), |i| i + 1);
                self.pos += 2 + line_len;
            } else {
                return;
            }
        }
    }

    fn at_eof(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.src.len()
    }

    fn expect_eof(&mut self) -> Result<(), WireParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    /// Consumes an exact punctuation token (`{`, `;`, `->`, …).
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), WireParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{tok}`")))
        }
    }

    /// Consumes a keyword — an exact word at an identifier boundary (so
    /// `one` does not match the prefix of `ones`).
    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if let Some(after) = self.rest().strip_prefix(word) {
            let boundary = !after.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
            if boundary {
                self.pos += word.len();
                return true;
            }
        }
        false
    }

    fn expect_word(&mut self, word: &str) -> Result<(), WireParseError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    /// An identifier or a quoted string.
    fn name(&mut self) -> Result<String, WireParseError> {
        self.skip_ws();
        match self.rest().chars().next() {
            Some('"') => self.string(),
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                let rest = self.rest();
                let len = rest
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .unwrap_or(rest.len());
                let ident = &rest[..len];
                self.pos += len;
                Ok(ident.to_string())
            }
            _ => Err(self.error("expected a name (identifier or quoted string)")),
        }
    }

    /// A double-quoted string with `\"`, `\\`, `\n`, `\r` escapes.
    fn string(&mut self) -> Result<String, WireParseError> {
        self.skip_ws();
        if !self.rest().starts_with('"') {
            return Err(self.error("expected a quoted string"));
        }
        self.pos += 1;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, e @ ('"' | '\\'))) => out.push(e),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    _ => {
                        self.pos += i;
                        return Err(self.error("invalid escape (only \\\" \\\\ \\n \\r exist)"));
                    }
                },
                '\n' | '\r' => {
                    self.pos += i;
                    return Err(self.error(
                        "raw newline inside a quoted string (write \\n; strings must not \
                         span lines, the framing is line-oriented)",
                    ));
                }
                _ => out.push(c),
            }
        }
        self.pos = self.src.len();
        Err(self.error("unterminated string"))
    }

    fn int(&mut self) -> Result<u32, WireParseError> {
        self.skip_ws();
        let rest = self.rest();
        let len = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.error("expected an integer"));
        }
        let n: u32 = rest[..len]
            .parse()
            .map_err(|_| self.error("integer does not fit in u32"))?;
        self.pos += len;
        Ok(n)
    }

    fn peek_int(&mut self) -> bool {
        self.skip_ws();
        self.rest().starts_with(|c: char| c.is_ascii_digit())
    }

    /// The formula text of a `check` item: everything up to (not
    /// including) the terminating `;`, honoring the wire format's `//`
    /// comments — comment spans are blanked to spaces (one per byte) so
    /// the embedded `icstar_logic` parser sees them as whitespace, a `;`
    /// inside a comment does not terminate the formula, and formula
    /// error offsets stay byte-aligned with the document. Returns the
    /// start offset of the captured text alongside it; the caller
    /// consumes the `;`.
    fn formula_until_semi(&mut self) -> Result<(usize, String), WireParseError> {
        self.skip_ws();
        let start = self.pos;
        let rest = self.rest();
        let mut out = String::new();
        let mut iter = rest.char_indices().peekable();
        while let Some((i, ch)) = iter.next() {
            if ch == ';' {
                self.pos = start + i;
                return Ok((start, out));
            }
            if ch == '/' && rest[i..].starts_with("//") {
                let line_end = rest[i..].find('\n').map_or(rest.len(), |j| i + j);
                for _ in i..line_end {
                    out.push(' ');
                }
                while iter.next_if(|&(j, _)| j < line_end).is_some() {}
                continue;
            }
            out.push(ch);
        }
        self.pos = self.src.len();
        Err(self.error("expected `;` after this point"))
    }
}

// ---- guards -------------------------------------------------------

enum RawComparison {
    AtMost(u32),
    AtLeast(u32),
    Equals(u32),
    InRange(u32, u32),
}

/// A guard whose state operand (if any) is still a name.
struct RawGuard {
    /// `true` for `@state` guards, `false` for `#prop` guards.
    on_state: bool,
    name: String,
    /// Offset of `name`, for error reporting during state resolution.
    name_at: usize,
    cmp: RawComparison,
}

fn guard(c: &mut Cursor<'_>) -> Result<RawGuard, WireParseError> {
    let on_state = if c.eat("#") {
        false
    } else if c.eat("@") {
        true
    } else {
        return Err(c.error("expected a guard (`#prop` or `@state`)"));
    };
    c.skip_ws();
    let name_at = c.pos;
    let name = c.name()?;
    let cmp = if c.eat("<=") {
        RawComparison::AtMost(c.int()?)
    } else if c.eat(">=") {
        RawComparison::AtLeast(c.int()?)
    } else if c.eat("==") {
        RawComparison::Equals(c.int()?)
    } else if c.eat_word("in") {
        let at = c.pos;
        let lo = c.int()?;
        c.expect("..")?;
        let hi = c.int()?;
        if lo > hi {
            return Err(WireParseError::new(
                at,
                format!("empty interval {lo}..{hi}"),
            ));
        }
        RawComparison::InRange(lo, hi)
    } else {
        return Err(c.error("expected `<=`, `>=`, `==`, or `in lo..hi`"));
    };
    Ok(RawGuard {
        on_state,
        name,
        name_at,
        cmp,
    })
}

/// Resolves a raw guard against the declared state names.
fn resolve_guard(raw: RawGuard, names: &[String]) -> Result<Guard, WireParseError> {
    if raw.on_state {
        let q = resolve_state(raw.name_at, &raw.name, names)?;
        Ok(match raw.cmp {
            RawComparison::AtMost(b) => Guard::state_at_most(q, b),
            RawComparison::AtLeast(b) => Guard::state_at_least(q, b),
            RawComparison::Equals(b) => Guard::state_equals(q, b),
            RawComparison::InRange(lo, hi) => Guard::state_in_range(q, lo, hi),
        })
    } else {
        Ok(match raw.cmp {
            RawComparison::AtMost(b) => Guard::at_most(raw.name, b),
            RawComparison::AtLeast(b) => Guard::at_least(raw.name, b),
            RawComparison::Equals(b) => Guard::equals(raw.name, b),
            RawComparison::InRange(lo, hi) => Guard::in_range(raw.name, lo, hi),
        })
    }
}

fn resolve_state(at: usize, n: &str, names: &[String]) -> Result<u32, WireParseError> {
    names
        .iter()
        .position(|x| x == n)
        .map(|i| i as u32)
        .ok_or_else(|| WireParseError::new(at, format!("unknown state {n:?}")))
}

/// Parses an optional `when guard, guard, ...` clause.
fn when_clause(c: &mut Cursor<'_>, names: &[String]) -> Result<Vec<Guard>, WireParseError> {
    let mut guards = Vec::new();
    if c.eat_word("when") {
        loop {
            guards.push(resolve_guard(guard(c)?, names)?);
            if !c.eat(",") {
                break;
            }
        }
    }
    Ok(guards)
}

// ---- template ------------------------------------------------------

fn template(c: &mut Cursor<'_>) -> Result<GuardedTemplate, WireParseError> {
    c.expect_word("template")?;
    c.expect("{")?;

    // States first: the namespace every edge and guard resolves against.
    let mut b = GuardedBuilder::new();
    let mut names: Vec<String> = Vec::new();
    while c.eat_word("state") {
        let start = c.pos;
        let name = c.name()?;
        if names.contains(&name) {
            return Err(WireParseError::new(
                start,
                format!("duplicate state name {name:?}"),
            ));
        }
        c.expect("[")?;
        let mut labels = Vec::new();
        if !c.eat("]") {
            loop {
                labels.push(c.name()?);
                if !c.eat(",") {
                    break;
                }
            }
            c.expect("]")?;
        }
        c.expect(";")?;
        b.state(name.clone(), labels);
        names.push(name);
    }
    if names.is_empty() {
        return Err(c.error("a template needs at least one `state`"));
    }

    c.expect_word("init")?;
    let at = c.pos;
    let init_name = c.name()?;
    let init = resolve_state(at, &init_name, &names)?;
    c.expect(";")?;

    let mut has_edge = vec![false; names.len()];
    // Moves realized by an edge or a broadcast, for validating `fair`
    // clauses (which may appear anywhere among the moves they name).
    let mut realized: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    // Parsed `fair` clauses — group name plus (source position, src,
    // tgt) moves — validated against `realized` after the loop.
    type FairClause = (String, Vec<(usize, u32, u32)>);
    let mut fair_decls: Vec<FairClause> = Vec::new();
    loop {
        if c.eat_word("edge") {
            let at = c.pos;
            let from_name = c.name()?;
            let from = resolve_state(at, &from_name, &names)?;
            c.expect("->")?;
            let at = c.pos;
            let to_name = c.name()?;
            let to = resolve_state(at, &to_name, &names)?;
            let guards = when_clause(c, &names)?;
            c.expect(";")?;
            has_edge[from as usize] = true;
            realized.insert((from, to));
            b.edge_guarded(from, to, guards);
        } else if c.eat_word("bcast") {
            let at = c.pos;
            let source_name = c.name()?;
            let source = resolve_state(at, &source_name, &names)?;
            c.expect("->")?;
            let at = c.pos;
            let target_name = c.name()?;
            let target = resolve_state(at, &target_name, &names)?;
            let mut responses: Vec<(u32, u32)> = Vec::new();
            if c.eat("[") && !c.eat("]") {
                loop {
                    let at = c.pos;
                    let q_name = c.name()?;
                    let q = resolve_state(at, &q_name, &names)?;
                    if responses.iter().any(|&(seen, _)| seen == q) {
                        return Err(WireParseError::new(
                            at,
                            format!("duplicate response for state {q_name:?}"),
                        ));
                    }
                    c.expect("->")?;
                    let at = c.pos;
                    let to_name = c.name()?;
                    let to = resolve_state(at, &to_name, &names)?;
                    responses.push((q, to));
                    if !c.eat(",") {
                        break;
                    }
                }
                c.expect("]")?;
            }
            let guards = when_clause(c, &names)?;
            c.expect(";")?;
            realized.insert((source, target));
            b.broadcast_guarded(source, target, guards, responses);
        } else if c.eat_word("fair") {
            let fname = c.name()?;
            let mut moves: Vec<(usize, u32, u32)> = Vec::new();
            loop {
                let at = c.pos;
                let src_name = c.name()?;
                let src = resolve_state(at, &src_name, &names)?;
                c.expect("->")?;
                let at2 = c.pos;
                let tgt_name = c.name()?;
                let tgt = resolve_state(at2, &tgt_name, &names)?;
                moves.push((at, src, tgt));
                if !c.eat(",") {
                    break;
                }
            }
            c.expect(";")?;
            fair_decls.push((fname, moves));
        } else {
            break;
        }
    }
    for (fname, moves) in fair_decls {
        let mut resolved: Vec<(u32, u32)> = Vec::new();
        for (at, src, tgt) in moves {
            if !realized.contains(&(src, tgt)) {
                return Err(WireParseError::new(
                    at,
                    format!(
                        "fairness group {fname:?} names the move {:?} -> {:?}, \
                         which no edge or bcast realizes",
                        names[src as usize], names[tgt as usize]
                    ),
                ));
            }
            resolved.push((src, tgt));
        }
        b.fair(fname, resolved);
    }
    if let Some(q) = has_edge.iter().position(|e| !e) {
        return Err(c.error(format!(
            "state {:?} has no outgoing edge (the transition relation must be total; \
             broadcast-only states are not accepted — give them a spin self-edge)",
            names[q]
        )));
    }
    c.expect("}")?;
    // All builder invariants were checked above, so this cannot panic.
    Ok(b.build(init))
}

// ---- spec ----------------------------------------------------------

fn spec(c: &mut Cursor<'_>) -> Result<CountingSpec, WireParseError> {
    c.expect_word("spec")?;
    c.expect("{")?;
    let mut s = CountingSpec::new();
    loop {
        if c.eat_word("atleast") {
            let p = c.name()?;
            let at = c.pos;
            let k = c.int()?;
            if k == 0 {
                return Err(WireParseError::new(at, "`atleast` thresholds start at 1"));
            }
            s = s.with_at_least(p, k);
        } else if c.eat_word("zero") {
            s = s.with_zero(c.name()?);
        } else if c.eat_word("one") {
            s = s.with_exactly_one(c.name()?);
        } else {
            break;
        }
        c.expect(";")?;
    }
    c.expect("}")?;
    Ok(s)
}

// ---- job -----------------------------------------------------------

fn job(c: &mut Cursor<'_>) -> Result<VerifyJob, WireParseError> {
    c.expect_word("job")?;
    c.expect("{")?;
    let t = template(c)?;
    let mut j = VerifyJob::new(t);
    c.skip_ws();
    if c.rest().starts_with("spec") {
        j = j.with_spec(spec(c)?);
    }
    c.expect_word("sizes")?;
    while c.peek_int() {
        let n = c.int()?;
        // `lo..*` — the unbounded range — must come last: everything
        // after it is already covered.
        if c.eat("..") {
            c.expect("*")?;
            j = j.all_sizes_from(n);
            break;
        }
        j = j.at_size(n);
    }
    c.expect(";")?;
    while c.eat_word("check") {
        let name = c.string()?;
        c.expect(":")?;
        let (at, text) = c.formula_until_semi()?;
        let f = parse_state(&text).map_err(|e| {
            WireParseError::new(at + e.offset, format!("in formula: {}", e.message))
        })?;
        c.expect(";")?;
        j = j.formula(name, f);
    }
    c.expect("}")?;
    Ok(j)
}

// ---- report --------------------------------------------------------

fn report(c: &mut Cursor<'_>) -> Result<WireReport, WireParseError> {
    c.expect_word("report")?;
    let job_id = {
        c.skip_ws();
        let rest = c.rest();
        let len = rest
            .find(|ch: char| !ch.is_ascii_digit())
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(c.error("expected the job id"));
        }
        let id: u64 = rest[..len]
            .parse()
            .map_err(|_| c.error("job id does not fit in u64"))?;
        c.pos += len;
        id
    };
    c.expect("{")?;
    let mut verdicts = Vec::new();
    while c.eat_word("verdict") {
        let name = c.string()?;
        c.expect("@")?;
        let n = c.int()?;
        c.expect("=")?;
        let outcome = if c.eat_word("holds") {
            Ok(true)
        } else if c.eat_word("fails") {
            Ok(false)
        } else if c.eat_word("error") {
            Err(c.string()?)
        } else {
            return Err(c.error("expected `holds`, `fails`, or `error \"...\"`"));
        };
        // Optional representative width; absent (older servers, counter
        // checks) means 0. Then the optional `fair` marker; absent
        // (older servers, unconstrained templates) means false.
        let rep_width = if c.eat_word("k") { c.int()? } else { 0 };
        let fair = c.eat_word("fair");
        // Optional cutoff clause (parse-only: this version never emits
        // it); absent means none.
        let cutoff = if c.eat_word("cutoff") {
            Some(c.int()?)
        } else {
            None
        };
        c.expect(";")?;
        verdicts.push(WireVerdict {
            name,
            n,
            outcome,
            rep_width,
            fair,
            cutoff,
        });
    }
    c.expect("}")?;
    Ok(WireReport { job_id, verdicts })
}

// ---- public wrappers ----------------------------------------------

/// Parses a template.
///
/// # Errors
///
/// [`WireParseError`] on malformed input, duplicate or unknown state
/// names, non-total templates, or trailing input.
pub fn parse_template(src: &str) -> Result<GuardedTemplate, WireParseError> {
    let mut c = Cursor::new(src);
    let t = template(&mut c)?;
    c.expect_eof()?;
    Ok(t)
}

/// Parses a counting spec.
///
/// # Errors
///
/// [`WireParseError`] on malformed input or trailing input.
pub fn parse_spec(src: &str) -> Result<CountingSpec, WireParseError> {
    let mut c = Cursor::new(src);
    let s = spec(&mut c)?;
    c.expect_eof()?;
    Ok(s)
}

/// Parses a job (the `SUBMIT` payload).
///
/// # Errors
///
/// [`WireParseError`] on malformed input, including formula errors from
/// [`icstar_logic::parse_state`] (offsets point into the job text).
pub fn parse_job(src: &str) -> Result<VerifyJob, WireParseError> {
    let mut c = Cursor::new(src);
    let j = job(&mut c)?;
    c.expect_eof()?;
    Ok(j)
}

/// Parses a report (the `RESULT` payload).
///
/// # Errors
///
/// [`WireParseError`] on malformed input or trailing input.
pub fn parse_report(src: &str) -> Result<WireReport, WireParseError> {
    let mut c = Cursor::new(src);
    let r = report(&mut c)?;
    c.expect_eof()?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_serve::JobVerdict;
    use icstar_sym::{mutex_template, ring_station_template, SymError};

    #[test]
    fn template_round_trips() {
        for t in [
            mutex_template(),
            ring_station_template(3, 1),
            ring_station_template(5, 2),
        ] {
            let text = print_template(&t);
            assert_eq!(parse_template(&text).unwrap(), t, "{text}");
        }
    }

    #[test]
    fn mutex_prints_canonically() {
        let text = print_template(&mutex_template());
        assert_eq!(
            text,
            "template {\n  state idle [idle];\n  state try [try];\n  state crit [crit];\n  \
             init idle;\n  edge idle -> try;\n  edge try -> crit when #crit <= 0;\n  \
             edge crit -> idle;\n}\n"
        );
    }

    #[test]
    fn quoted_names_round_trip() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a state", ["with \"quotes\"", "and\\slash"]);
        b.edge_guarded(a, a, [Guard::at_most("with \"quotes\"", 1)]);
        let t = b.build(a);
        assert_eq!(parse_template(&print_template(&t)).unwrap(), t);
    }

    #[test]
    fn state_guards_resolve_by_name() {
        let t = ring_station_template(4, 2);
        let text = print_template(&t);
        assert!(text.contains("when @s1 <= 1"), "{text}");
        assert_eq!(parse_template(&text).unwrap(), t);
    }

    #[test]
    fn equality_and_interval_guards_round_trip() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["p"]);
        let c = b.state("c", ["q"]);
        b.edge_guarded(a, c, [Guard::equals("p", 2), Guard::in_range("q", 1, 3)]);
        b.edge_guarded(
            c,
            a,
            [Guard::state_equals(a, 0), Guard::state_in_range(c, 0, 5)],
        );
        let t = b.build(a);
        let text = print_template(&t);
        assert!(text.contains("when #p == 2, #q in 1..3"), "{text}");
        assert!(text.contains("when @a == 0, @c in 0..5"), "{text}");
        assert_eq!(parse_template(&text).unwrap(), t);
    }

    #[test]
    fn broadcast_templates_round_trip() {
        for t in [
            icstar_sym::barrier_template(),
            icstar_sym::msi_template(),
            icstar_sym::wakeup_template(),
        ] {
            let text = print_template(&t);
            assert_eq!(parse_template(&text).unwrap(), t, "{text}");
        }
        // An identity-response broadcast prints without brackets and
        // still round-trips.
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, c);
        b.edge(c, a);
        b.broadcast(a, c, []);
        let t = b.build(a);
        let text = print_template(&t);
        assert!(text.contains("bcast a -> c;"), "{text}");
        assert_eq!(parse_template(&text).unwrap(), t);
    }

    #[test]
    fn broadcast_with_quoted_names_round_trips() {
        let mut b = GuardedBuilder::new();
        let a = b.state("a state", ["p"]);
        let c = b.state("c", ["q"]);
        b.edge(a, c);
        b.edge(c, c);
        b.broadcast_guarded(a, c, [Guard::in_range("p", 0, 1)], [(c, a)]);
        let t = b.build(a);
        let text = print_template(&t);
        assert!(text.contains("bcast \"a state\" -> c [c -> \"a state\"] when #p in 0..1;"));
        assert_eq!(parse_template(&text).unwrap(), t);
    }

    #[test]
    fn fair_templates_round_trip() {
        // Plain-edge group, broadcast group, multi-move group, and a
        // quoted group name all survive print → parse.
        let mut b = GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let done = b.state("done", ["done"]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        b.broadcast(done, idle, [(idle, idle)]);
        b.fair("exit", [(idle, done)]);
        b.fair("reset round", [(done, idle), (idle, done)]);
        let t = b.build(idle);
        let text = print_template(&t);
        assert!(text.contains("fair exit idle -> done;"), "{text}");
        assert!(
            text.contains("fair \"reset round\" done -> idle, idle -> done;"),
            "{text}"
        );
        assert_eq!(parse_template(&text).unwrap(), t);
        // A fair clause may precede the moves it names.
        let early = "template { state a [a]; state b [b]; init a; \
                     fair go a -> b; edge a -> b; edge b -> b; }";
        let t = parse_template(early).unwrap();
        assert_eq!(t.fairness().len(), 1);
        assert_eq!(t.fairness()[0].moves(), &[(0, 1)]);
    }

    #[test]
    fn fair_clause_errors_name_the_problem() {
        let cases = [
            (
                "template { state a [a]; state b [b]; init a; \
                 edge a -> b; edge b -> b; fair go b -> a; }",
                "no edge or bcast realizes",
            ),
            (
                "template { state a [a]; init a; edge a -> a; fair go zzz -> a; }",
                "unknown state",
            ),
            (
                "template { state a [a]; init a; edge a -> a; fair go; }",
                "expected a name",
            ),
        ];
        for (src, needle) in cases {
            let err = parse_template(src).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{src}: got {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn empty_response_brackets_parse_as_identity() {
        let src = "template { state a [a]; state b [b]; init a; \
                   edge a -> b; edge b -> a; bcast a -> b []; }";
        let t = parse_template(src).unwrap();
        assert!(t.broadcasts()[0].is_identity_response());
        // The canonical print drops the empty brackets.
        assert!(print_template(&t).contains("bcast a -> b;"));
    }

    #[test]
    fn spec_round_trips() {
        let t = mutex_template();
        for s in [
            CountingSpec::new(),
            CountingSpec::standard(&t),
            CountingSpec::exhaustive(&t, 3),
            CountingSpec::new().with_zero("p").with_at_least("q", 7),
        ] {
            assert_eq!(parse_spec(&print_spec(&s)).unwrap(), s);
        }
    }

    #[test]
    fn job_round_trips_with_and_without_spec() {
        let base = VerifyJob::new(mutex_template())
            .at_sizes([5, 50, 500])
            .formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .formula(
                "access",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            );
        assert_eq!(parse_job(&print_job(&base)).unwrap(), base);
        let with_spec = base.with_spec(CountingSpec::standard(&mutex_template()));
        assert_eq!(parse_job(&print_job(&with_spec)).unwrap(), with_spec);
    }

    #[test]
    fn empty_sizes_and_formulas_round_trip() {
        let job = VerifyJob::new(mutex_template());
        assert_eq!(parse_job(&print_job(&job)).unwrap(), job);
    }

    #[test]
    fn report_round_trips_including_errors() {
        let report = VerdictReport {
            job_id: 42,
            verdicts: vec![
                JobVerdict {
                    name: "mutex".into(),
                    n: 100,
                    result: Ok(true),
                    rep_width: 0,
                    fair: false,
                },
                JobVerdict {
                    name: "two in crit".into(),
                    n: 100,
                    result: Ok(false),
                    rep_width: 2,
                    fair: true,
                },
                JobVerdict {
                    name: "bogus".into(),
                    n: 3,
                    result: Err(SymError::UnknownAtom("bogus_ge1".into())),
                    rep_width: 0,
                    fair: false,
                },
            ],
        };
        let wire = WireReport::from(&report);
        let parsed = parse_report(&print_report(&report)).unwrap();
        assert_eq!(parsed, wire);
        assert_eq!(parsed.job_id, 42);
        assert!(!parsed.all_hold());
        assert_eq!(parsed.at_size(100).count(), 2);
        // The error text survives verbatim, quotes included.
        assert!(parsed.verdicts[2]
            .outcome
            .as_ref()
            .unwrap_err()
            .contains("\"bogus_ge1\""));
    }

    #[test]
    fn report_width_and_fair_round_trip_and_default_off() {
        // `k 2` and the `fair` marker survive print → parse; verdicts
        // without the clauses (older servers' transcripts) read back as
        // width 0, unconstrained.
        let report = WireReport {
            job_id: 9,
            verdicts: vec![
                WireVerdict {
                    name: "pairs".into(),
                    n: 100_000,
                    outcome: Ok(true),
                    rep_width: 2,
                    fair: true,
                    cutoff: None,
                },
                WireVerdict {
                    name: "drain".into(),
                    n: 100_000,
                    outcome: Ok(true),
                    rep_width: 0,
                    fair: true,
                    cutoff: None,
                },
                WireVerdict {
                    name: "mutex".into(),
                    n: 100_000,
                    outcome: Ok(true),
                    rep_width: 0,
                    fair: false,
                    cutoff: None,
                },
            ],
        };
        let text = print_wire_report(&report);
        assert!(text.contains("= holds k 2 fair;"), "{text}");
        assert!(text.contains("\"drain\" @ 100000 = holds fair;"), "{text}");
        assert!(text.contains("\"mutex\" @ 100000 = holds;"), "{text}");
        assert_eq!(parse_report(&text).unwrap(), report);

        let legacy = "report 7 {\n  verdict \"m\" @ 10 = fails;\n}\n";
        let parsed = parse_report(legacy).unwrap();
        assert_eq!(parsed.verdicts[0].rep_width, 0);
        assert!(!parsed.verdicts[0].fair);
        assert_eq!(parsed.verdicts[0].outcome, Ok(false));
    }

    #[test]
    fn unbounded_jobs_round_trip() {
        // Range alone, and explicit sizes followed by the range.
        let all = VerifyJob::new(mutex_template())
            .all_sizes_from(1)
            .formula("mutex", parse_state("AG !crit_ge2").unwrap());
        let text = print_job(&all);
        assert!(text.contains("sizes 1..*;"), "{text}");
        assert_eq!(parse_job(&text).unwrap(), all);

        let mixed = VerifyJob::new(mutex_template())
            .at_sizes([5, 50])
            .all_sizes_from(3)
            .formula("mutex", parse_state("AG !crit_ge2").unwrap());
        let text = print_job(&mixed);
        assert!(text.contains("sizes 5 50 3..*;"), "{text}");
        assert_eq!(parse_job(&text).unwrap(), mixed);

        // The range is terminal: a size after it is trailing garbage.
        let err = parse_job("job { template { state a [a]; init a; edge a -> a; } sizes 1..* 9; }")
            .unwrap_err();
        assert!(err.message.contains("expected `;`"), "{err}");
        // `..` demands the `*` (finite ranges are spelled explicitly).
        let err = parse_job("job { template { state a [a]; init a; edge a -> a; } sizes 1..9; }")
            .unwrap_err();
        assert!(err.message.contains("expected `*`"), "{err}");
    }

    #[test]
    fn cutoff_clause_round_trips_and_defaults_off() {
        let report = WireReport {
            job_id: 3,
            verdicts: vec![
                WireVerdict {
                    name: "mutex".into(),
                    n: 2,
                    outcome: Ok(true),
                    rep_width: 0,
                    fair: false,
                    cutoff: Some(2),
                },
                WireVerdict {
                    name: "access".into(),
                    n: 2,
                    outcome: Ok(true),
                    rep_width: 1,
                    fair: false,
                    cutoff: Some(2),
                },
            ],
        };
        let text = print_wire_report(&report);
        assert!(text.contains("\"mutex\" @ 2 = holds cutoff 2;"), "{text}");
        assert!(
            text.contains("\"access\" @ 2 = holds k 1 cutoff 2;"),
            "{text}"
        );
        assert_eq!(parse_report(&text).unwrap(), report);
        // Pre-cutoff transcripts read back with no cutoff.
        let legacy = "report 7 {\n  verdict \"m\" @ 10 = holds k 2 fair;\n}\n";
        assert_eq!(parse_report(legacy).unwrap().verdicts[0].cutoff, None);
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = r#"
            // the paper's test-and-set mutex
            template {
              state idle [idle]; state try [try];
              state crit [crit]; // labels mirror names
              init idle;
              edge idle -> try; edge try -> crit when #crit <= 0;
              edge crit -> idle;
            }
        "#;
        assert_eq!(parse_template(src).unwrap(), mutex_template());
    }

    #[test]
    fn parse_errors_name_the_problem() {
        let cases = [
            ("template { init a; }", "at least one"),
            (
                "template { state a [a]; state a [b]; init a; edge a -> a; }",
                "duplicate state",
            ),
            (
                "template { state a [a]; init b; edge a -> a; }",
                "unknown state",
            ),
            (
                "template { state a [a]; state b []; init a; edge a -> b; edge b -> a; edge a -> a when @zzz <= 1; }",
                "unknown state",
            ),
            (
                "template { state a [a]; state b []; init a; edge a -> b; }",
                "no outgoing edge",
            ),
            (
                "template { state a [a]; init a; edge a -> a when #x = 1; }",
                "expected `<=`, `>=`, `==`, or `in lo..hi`",
            ),
            (
                "template { state a [a]; init a; edge a -> a when #x in 3..1; }",
                "empty interval",
            ),
            (
                "template { state a [a]; state b []; init a; edge a -> a; edge b -> b; \
                 bcast a -> b [b -> a, b -> b]; }",
                "duplicate response",
            ),
            (
                "template { state a [a]; init a; edge a -> a; bcast a -> a [zzz -> a]; }",
                "unknown state",
            ),
            (
                "template { state a [a]; state b []; init a; edge a -> a; bcast b -> a; }",
                "no outgoing edge",
            ),
        ];
        for (src, needle) in cases {
            let err = parse_template(src).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{src}: got {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn comments_inside_formula_text_are_blanked() {
        // A `;` inside a comment must not terminate the formula, and the
        // comment itself must not reach the formula parser.
        let src = "job { template { state a [a]; init a; edge a -> a; } sizes 2;\n\
                   check \"m\": AG // note: always holds; even at n = 0\n\
                   a_ge1 // trailing\n;\n}";
        let job = parse_job(src).unwrap();
        assert_eq!(job.formulas.len(), 1);
        assert_eq!(job.formulas[0].1, parse_state("AG a_ge1").unwrap());
    }

    #[test]
    fn formula_errors_carry_job_offsets() {
        let src =
            "job { template { state a [a]; init a; edge a -> a; } sizes 3; check \"bad\": AG (; }";
        let err = parse_job(src).unwrap_err();
        assert!(err.message.contains("in formula"), "{err}");
        // The offset points into the job text, at or after the formula.
        assert!(err.offset >= src.find("AG").unwrap(), "{err}");
    }

    #[test]
    fn newlines_in_names_cannot_break_the_framing() {
        // A hostile formula name that would embed a lone "." line in the
        // SUBMIT payload must be escaped away by the printer...
        let job = VerifyJob::new(mutex_template())
            .at_size(3)
            .formula("evil\n.\nname", parse_state("AG !crit_ge2").unwrap());
        let text = print_job(&job);
        assert!(
            !text.lines().any(|l| l.trim_end() == "."),
            "no payload line may equal the frame terminator: {text}"
        );
        assert!(text.contains(r#""evil\n.\nname""#));
        assert_eq!(parse_job(&text).unwrap(), job);
        // ...and raw (unescaped) newlines inside strings are rejected.
        let err = parse_spec("spec { zero \"a\nb\"; }").unwrap_err();
        assert!(err.message.contains("raw newline"), "{err}");
        // Same story on the report side (verdict names/error text).
        let report = WireReport {
            job_id: 1,
            verdicts: vec![WireVerdict {
                name: "x".into(),
                n: 2,
                outcome: Err("boom\r\n.\r\nboom".into()),
                rep_width: 0,
                fair: false,
                cutoff: None,
            }],
        };
        let text = print_wire_report(&report);
        assert!(!text.lines().any(|l| l.trim_end() == "."), "{text}");
        assert_eq!(parse_report(&text).unwrap(), report);
    }

    #[test]
    fn spec_rejects_zero_threshold() {
        let err = parse_spec("spec { atleast p 0; }").unwrap_err();
        assert!(err.message.contains("start at 1"));
    }

    #[test]
    fn trailing_input_rejected() {
        let mut text = print_template(&mutex_template());
        text.push_str("junk");
        assert!(parse_template(&text)
            .unwrap_err()
            .message
            .contains("trailing"));
    }
}
