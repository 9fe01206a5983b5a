//! On-the-fly exploration of the counter-abstracted state space.
//!
//! [`CounterSystem`] is the abstract transition system itself: initial
//! occupancy vector and successor generation, never materializing more
//! than the reachable frontier. [`CounterSystem::kripke`] runs a BFS and
//! freezes the reachable abstract graph as an ordinary
//! [`icstar_kripke::Kripke`] labeled with the counting atoms of a
//! [`CountingSpec`] — after which the stock `icstar_mc` checkers run on it
//! unchanged.
//!
//! An abstract transition either moves *one* copy along one (enabled)
//! local transition, mirroring the interleaving semantics of
//! [`icstar_nets::interleave`], or fires a **broadcast move**
//! ([`icstar_sym::Broadcast`](crate::Broadcast)): one initiating copy
//! steps while every other copy simultaneously follows the response map —
//! on occupancy vectors a single O(|S|) rewrite. Abstract states with no enabled
//! move (possible only under guards, or at `n = 0`) receive a stuttering
//! self-loop so the transition relation stays total, as the paper
//! requires.

use std::fmt::Write as _;
use std::time::Instant;

use icstar_kripke::Kripke;
use icstar_telemetry::{FlightRecorder, Registry, SpanContext, TraceScope};

use crate::build::{self, StateTable};
use crate::counter::{respond_into, CounterPacking, CounterState};
use crate::labels::{CountingSpec, LabelTable};
use crate::template::{Broadcast, GuardedTemplate};

/// The counter abstraction of `n` identical copies of a template: an
/// on-the-fly abstract transition system.
///
/// # Examples
///
/// ```
/// use icstar_sym::{CounterSystem, mutex_template};
///
/// let sys = CounterSystem::new(mutex_template(), 1000);
/// let init = sys.initial();
/// assert_eq!(init.count(0), 1000);
/// // One abstract move: some copy goes idle -> try.
/// let succs = sys.successors(&init);
/// assert_eq!(succs.len(), 1);
/// assert_eq!(succs[0].counts(), &[999, 1, 0]);
/// ```
#[derive(Clone, Debug)]
pub struct CounterSystem {
    template: GuardedTemplate,
    n: u32,
    packing: CounterPacking,
    telemetry: Registry,
    trace: Option<(FlightRecorder, SpanContext, u32)>,
}

impl CounterSystem {
    /// The abstraction of `n` copies of `template`. `n = 0` is the empty
    /// composition: a single stuttering state.
    ///
    /// Exploration metrics (`sym.explore.*`) go to
    /// [`Registry::global`]; use [`CounterSystem::with_telemetry`] to
    /// redirect them.
    pub fn new(template: GuardedTemplate, n: u32) -> Self {
        let packing = CounterPacking::new(template.num_states(), n);
        CounterSystem {
            template,
            n,
            packing,
            telemetry: Registry::global().clone(),
            trace: None,
        }
    }

    /// Redirects this system's exploration metrics to `registry` —
    /// services publish into their own registry, tests isolate counts.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }

    /// Attaches a causal-trace parent: every materialization then records
    /// its phases as spans under `parent` in `recorder`, on Chrome lane
    /// `tid` — `explore` (the BFS, labels included) and `freeze` (atom
    /// interning and the CSR freeze), plus `fairness` when
    /// [`crate::fairness::counter_graph`] compiles a fair template's
    /// requirements. Without this, exploration records no spans — only
    /// the aggregate `sym.explore.*` metrics.
    #[must_use]
    pub fn with_trace(mut self, recorder: FlightRecorder, parent: SpanContext, tid: u32) -> Self {
        self.trace = Some((recorder, parent, tid));
        self
    }

    /// Opens the span of one build phase under the attached trace parent,
    /// if any; it records when dropped.
    pub(crate) fn phase(&self, name: &str) -> Option<TraceScope> {
        self.trace.as_ref().map(|(recorder, parent, tid)| {
            let mut span = recorder.scope_under(*parent, name);
            span.set_tid(*tid);
            span
        })
    }

    /// The template being composed.
    pub fn template(&self) -> &GuardedTemplate {
        &self.template
    }

    /// The number of composed copies `n`.
    pub fn size(&self) -> u32 {
        self.n
    }

    /// The packed-key layout for this system's counter vectors.
    pub fn packing(&self) -> &CounterPacking {
        &self.packing
    }

    /// The initial abstract state: all `n` copies in the template's
    /// initial local state.
    pub fn initial(&self) -> CounterState {
        CounterState::all_in(self.template.num_states(), self.template.initial(), self.n)
    }

    /// The distinct abstract successors of `state`, in deterministic
    /// order. Always non-empty: a state with no enabled move yields a
    /// stuttering `[state]`.
    ///
    /// Two single-copy moves yield the same occupancy vector only if they
    /// share the same `(from, to)` local-state pair (distinct sources
    /// change distinct entries) — except self-moves `q → q`, which all
    /// collapse onto `state` itself. Broadcast moves follow the
    /// single-copy moves: each enabled broadcast is one O(|S|)
    /// whole-vector rewrite ([`CounterState::broadcast`]) — an abstract
    /// transition costs the same whether it synchronizes zero copies or a
    /// million. Its result can coincide with an earlier one (e.g. an
    /// identity response map *is* a single move); each successor is kept
    /// at its first occurrence.
    pub fn successors(&self, state: &CounterState) -> Vec<CounterState> {
        let mut out: Vec<CounterState> = Vec::new();
        self.each_move(state.counts(), &mut Vec::new(), |succ, _, _| {
            if !out.iter().any(|s| s.counts() == succ) {
                out.push(CounterState::new(succ.to_vec()));
            }
        });
        if out.is_empty() {
            out.push(state.clone());
        }
        out
    }

    /// The move semantics behind [`CounterSystem::successors`], both
    /// builders and the fairness compiler: calls `emit(next, (src, tgt),
    /// broadcast)` for every enabled move of the occupancy vector `cur`,
    /// in canonical order — each enabled local transition `src → tgt` of
    /// an occupied state, then each enabled broadcast, whose initiator
    /// takes `src → tgt`. Several moves may lead to the same vector;
    /// callers keep the first. Emits nothing when no move is enabled, and
    /// the caller then stutters. `next` is scratch space.
    pub(crate) fn each_move<'s>(
        &'s self,
        cur: &[u32],
        next: &mut Vec<u32>,
        mut emit: impl FnMut(&[u32], (u32, u32), Option<&'s Broadcast>),
    ) {
        let t = &self.template;
        for q in 0..cur.len() as u32 {
            if cur[q as usize] == 0 {
                continue;
            }
            for (k, &q2) in t.base().successors(q).iter().enumerate() {
                if t.enabled_at(cur, q, k) {
                    next.clear();
                    next.extend_from_slice(cur);
                    next[q as usize] -= 1;
                    next[q2 as usize] += 1;
                    emit(next, (q, q2), None);
                }
            }
        }
        for b in t.broadcasts() {
            if cur[b.source() as usize] == 0 || !b.enabled_at(cur) {
                continue;
            }
            let mv = (b.source(), b.target());
            respond_into(cur, b.response(), Some(mv), next);
            emit(next, mv, Some(b));
        }
    }

    /// A readable name for an abstract state: non-empty local states with
    /// their occupancy, e.g. `idle^2|crit^1`.
    pub fn state_name(&self, state: &CounterState) -> String {
        let mut name = String::new();
        self.write_name(state.counts(), &mut name);
        name
    }

    /// Appends [`CounterSystem::state_name`] of the occupancy vector
    /// `counts` to `name`.
    pub(crate) fn write_name(&self, counts: &[u32], name: &mut String) {
        let start = name.len();
        for (q, &c) in counts.iter().enumerate() {
            if c > 0 {
                if name.len() > start {
                    name.push('|');
                }
                let _ = write!(name, "{}^{}", self.template.base().state_name(q as u32), c);
            }
        }
        if name.len() == start {
            name.push_str("empty");
        }
    }

    /// Materializes the reachable abstract graph as a [`Kripke`] labeled
    /// with the counting atoms of `spec`.
    ///
    /// The result has at most `binom(n + |Q| - 1, |Q| - 1)` states —
    /// polynomial in `n` for a fixed template — instead of the `|Q|^n`
    /// states of the explicit composition.
    pub fn kripke(&self, spec: &CountingSpec) -> Kripke {
        self.build(spec).0
    }

    /// [`CounterSystem::kripke`] plus the occupancy vector of every
    /// state, indexed by [`StateId`](icstar_kripke::StateId) (position
    /// `i` is the vector of state `i`).
    pub fn kripke_with_states(&self, spec: &CountingSpec) -> (Kripke, Vec<CounterState>) {
        let (kripke, table) = self.build(spec);
        let states = table
            .states()
            .map(|counts| CounterState::new(counts.to_vec()))
            .collect();
        (kripke, states)
    }

    /// The BFS builder: explores from the initial vector, labeling each
    /// state from a [`LabelTable`] when it is discovered and writing its
    /// successor row as it is expanded, then freezes. A state's id is its
    /// discovery position, so the structure comes out byte-identical to a
    /// [`KripkeBuilder`](icstar_kripke::KripkeBuilder) fed the same BFS.
    pub(crate) fn build(&self, spec: &CountingSpec) -> (Kripke, StateTable) {
        let started = Instant::now();
        let explore = self.phase("explore");
        let (universe, labels) = LabelTable::compile(spec, &self.template);
        let mut next = Vec::new();
        let (rows, table, frontier_peak) = build::explore(
            self.packing,
            universe,
            self.initial().counts(),
            |v, label| {
                labels.push_labels(v, label);
                let mut name = String::new();
                self.write_name(v, &mut name);
                name
            },
            |cur, emit| self.each_move(cur, &mut next, |succ, _, _| emit(succ)),
        );
        // Exploration telemetry is flushed once after the sweep: the hot
        // loop itself touches no atomics. `states` vs `arrivals` (edges)
        // gives the dedup ratio, `build_ns` over `states` states/sec.
        let t = &self.telemetry;
        t.counter("sym.explore.builds").inc();
        t.counter("sym.explore.states").add(table.len() as u64);
        t.counter("sym.explore.arrivals")
            .add(rows.num_edges() as u64);
        t.histogram("sym.explore.build_ns")
            .record_duration(started.elapsed());
        t.gauge("sym.explore.frontier_peak")
            .set_max(frontier_peak as i64);
        drop(explore);
        let _freeze = self.phase("freeze");
        (rows.freeze(), table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::at_least_atom;
    use crate::template::{mutex_template, GuardedTemplate};
    use icstar_nets::fig41_template;

    #[test]
    fn free_two_state_template_has_linear_abstract_space() {
        // Explicit: 2^n states. Abstract: n + 1 occupancy vectors.
        let t = GuardedTemplate::free(fig41_template());
        for n in 0..=6u32 {
            let sys = CounterSystem::new(t.clone(), n);
            let k = sys.kripke(&CountingSpec::standard(&t));
            assert_eq!(k.num_states() as u32, n + 1, "n = {n}");
            k.validate().unwrap();
        }
    }

    #[test]
    fn mutex_guard_bounds_critical_occupancy() {
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 5);
        let spec = CountingSpec::standard(&t);
        let k = sys.kripke(&spec);
        k.validate().unwrap();
        // The guard keeps #crit <= 1 in every reachable abstract state, so
        // the `crit_ge2` atom never appears.
        let crit2 = at_least_atom("crit", 2);
        assert!(k.states().all(|s| !k.satisfies_atom(s, &crit2)));
        // Reachable: (#try, #crit) with #crit <= 1 — 2n + 1 states.
        assert_eq!(k.num_states(), 11);
    }

    #[test]
    fn n_zero_is_a_single_stuttering_state() {
        let t = mutex_template();
        let sys = CounterSystem::new(t, 0);
        let init = sys.initial();
        assert_eq!(init.total(), 0);
        assert_eq!(sys.successors(&init), vec![init.clone()]);
        let k = sys.kripke(&CountingSpec::standard(sys.template()));
        assert_eq!(k.num_states(), 1);
        k.validate().unwrap();
        assert_eq!(sys.state_name(&init), "empty");
    }

    #[test]
    fn successors_deduplicate_equal_moves() {
        // Two parallel local transitions a -> b produce one abstract move.
        let mut b = crate::template::GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let bb = b.state("b", ["b"]);
        b.edge(a, bb);
        b.edge(a, bb);
        b.edge(bb, bb);
        let t = b.build(a);
        let sys = CounterSystem::new(t, 3);
        assert_eq!(sys.successors(&sys.initial()).len(), 1);
    }

    #[test]
    fn broadcast_successors_rewrite_the_whole_vector() {
        let t = crate::workloads::barrier_template();
        let sys = CounterSystem::new(t, 5);
        // Everyone at the phase-0 barrier: the only moves are the spin
        // self-loop and the release broadcast flipping all 5 copies.
        let at_bar = CounterState::new(vec![0, 5, 0, 0]);
        let succs = sys.successors(&at_bar);
        assert_eq!(succs.len(), 2);
        assert_eq!(succs[0], at_bar, "spin");
        assert_eq!(succs[1].counts(), &[0, 0, 5, 0], "synchronized release");
        // One copy still working: the broadcast is guard-blocked.
        let working = CounterState::new(vec![1, 4, 0, 0]);
        assert!(sys.successors(&working).iter().all(|s| s.count(2) == 0));
    }

    #[test]
    fn identity_broadcast_deduplicates_against_single_moves() {
        // A broadcast whose response map is the identity is abstractly
        // the same edge as the plain move it shadows.
        let mut b = crate::template::GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let c = b.state("c", ["c"]);
        b.edge(a, c);
        b.edge(c, c);
        b.broadcast(a, c, []);
        let t = b.build(a);
        let sys = CounterSystem::new(t, 3);
        assert_eq!(sys.successors(&sys.initial()).len(), 1);
    }

    #[test]
    fn exploration_publishes_metrics() {
        let registry = icstar_telemetry::Registry::new();
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 5).with_telemetry(registry.clone());
        let spec = CountingSpec::standard(&t);
        let k = sys.kripke(&spec);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sym.explore.builds"), Some(1));
        assert_eq!(
            snap.counter("sym.explore.states"),
            Some(k.num_states() as u64)
        );
        // Arrivals count every generated successor: exactly the edge
        // count of the materialized graph, and >= distinct states since
        // duplicates are what deduplication removes.
        assert_eq!(
            snap.counter("sym.explore.arrivals"),
            Some(k.num_transitions() as u64)
        );
        assert!(snap.counter("sym.explore.arrivals") >= snap.counter("sym.explore.states"));
        assert!(snap.gauge("sym.explore.frontier_peak").unwrap() > 0);
        assert_eq!(snap.histogram("sym.explore.build_ns").unwrap().count, 1);
    }

    #[test]
    fn traced_exploration_records_its_phases_under_the_parent() {
        // A plain build has two phases; a fair template's counter graph
        // adds the fairness compilation.
        let plain = mutex_template();
        let fair = mutex_template().with_fairness("enter", [(1, 2)]);
        for (t, phases) in [
            (plain, &["explore", "freeze"][..]),
            (fair, &["explore", "freeze", "fairness"][..]),
        ] {
            let recorder = icstar_telemetry::FlightRecorder::with_capacity(64);
            let build = recorder.scope("build");
            let parent = build.context();
            let sys = CounterSystem::new(t.clone(), 25).with_trace(recorder.clone(), parent, 3);
            crate::fairness::counter_graph(&sys, &CountingSpec::standard(&t));
            drop(build);
            let spans = recorder.spans_for(parent.trace);
            let children: Vec<_> = spans
                .iter()
                .filter(|e| e.parent == Some(parent.span))
                .collect();
            let names: Vec<&str> = children.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(names, phases);
            assert!(children.iter().all(|e| e.tid == 3), "on the builder's lane");
        }
    }

    #[test]
    fn state_names_show_occupancy() {
        let t = mutex_template();
        let sys = CounterSystem::new(t, 4);
        let s = CounterState::new(vec![3, 0, 1]);
        assert_eq!(sys.state_name(&s), "idle^3|crit^1");
    }

    #[test]
    fn guard_deadlock_is_stutter_completed() {
        // One state whose only transition is guarded impossibly.
        let mut b = crate::template::GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        b.edge_guarded(a, a, [crate::template::Guard::at_least("a", 99)]);
        let t = b.build(a);
        let sys = CounterSystem::new(t, 2);
        let init = sys.initial();
        assert_eq!(sys.successors(&init), vec![init.clone()]);
        let k = sys.kripke(&CountingSpec::standard(sys.template()));
        assert_eq!(k.num_states(), 1);
        k.validate().unwrap();
    }
}
