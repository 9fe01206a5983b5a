//! The CTL fixpoint primitives of the Clarke–Emerson–Sistla labeling
//! algorithm — the "temporal logic model checking algorithm" the paper
//! invokes for its case study (Clarke, Emerson & Sistla 1986).
//!
//! Each primitive maps state sets to state sets over a fixed structure:
//!
//! * [`pre_exists`] — `EX`: states with *some* successor in the set;
//! * [`pre_all`] — `AX`: states with *all* successors in the set;
//! * [`eu`] — `E[f U g]` as a least fixpoint, by a backward worklist;
//! * [`er`] — `E[f R g]` as a greatest fixpoint, by successor counting;
//! * [`eg`] — `EG f`, which is `E[false R f]`.
//!
//! Every primitive runs in time linear in `|S| + |R|`: each state enters
//! a worklist at most once and each transition is looked at a bounded
//! number of times, however deep the fixpoint.
//!
//! The kernels read the structure in its stored layout. The transition
//! relation and its reverse are compressed-sparse-row arrays
//! ([`Kripke::succ_csr`], [`Kripke::pred_csr`]): the row of state `s` is
//! `edges[heads[s]..heads[s + 1]]`, one contiguous slice per state. A
//! state set is a [`BitSet`] whose word `i / 64` holds state `i` at bit
//! `i % 64` ([`BitSet::words`]); the kernels test and set those bits in
//! place, and start their scans from whole words (`er` visits only the
//! words of `g ∧ ¬f`).
//!
//! The crate's one strongly-connected-component routine lives here too:
//! `tarjan`, an iterative Tarjan over a CSR graph restricted to the
//! nodes a filter keeps, shared by fair `EG` ([`crate::fair::eg_fair`])
//! and the Büchi product ([`crate::product`]).

use icstar_kripke::bits::BitSet;
use icstar_kripke::Kripke;

/// Whether state `i` is in the set with words `words`.
#[inline]
pub(crate) fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// Adds state `i` to the set with words `words`.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Removes state `i` from the set with words `words`, returning whether
/// it was there.
#[inline]
fn take_bit(words: &mut [u64], i: usize) -> bool {
    let (w, mask) = (&mut words[i / 64], 1u64 << (i % 64));
    let was = *w & mask != 0;
    *w &= !mask;
    was
}

/// The row of `s` in the CSR arrays `(heads, edges)`.
#[inline]
pub(crate) fn row<'a, E>(heads: &[u32], edges: &'a [E], s: usize) -> &'a [E] {
    &edges[heads[s] as usize..heads[s + 1] as usize]
}

/// States with at least one successor in `set` (the `EX` modality).
pub fn pre_exists(m: &Kripke, set: &BitSet) -> BitSet {
    let (heads, preds) = m.pred_csr();
    let mut out = BitSet::new(m.num_states());
    let words = out.words_mut();
    for t in set.iter() {
        for p in row(heads, preds, t) {
            set_bit(words, p.idx());
        }
    }
    out
}

/// States all of whose successors are in `set` (the `AX` modality).
///
/// Since the transition relation is total, this is `¬EX¬set`.
pub fn pre_all(m: &Kripke, set: &BitSet) -> BitSet {
    let mut complement = set.clone();
    complement.complement();
    let mut out = pre_exists(m, &complement);
    out.complement();
    out
}

/// `E[f U g]`: states from which some path reaches a `g`-state passing
/// only through `f`-states. Least fixpoint `μZ. g ∨ (f ∧ EX Z)`,
/// computed with a backward worklist.
pub fn eu(m: &Kripke, f: &BitSet, g: &BitSet) -> BitSet {
    let (heads, preds) = m.pred_csr();
    // The `f`-states not reached yet; a predecessor joins iff it is one.
    let mut open = f.clone();
    open.difference_with(g);
    let open_words = open.words_mut();
    // Depth-first from one `g`-state at a time, so the worklist holds
    // one search, not all of `g`.
    let mut work: Vec<u32> = Vec::new();
    for s in g.iter() {
        work.push(s as u32);
        while let Some(t) = work.pop() {
            for p in row(heads, preds, t as usize) {
                if take_bit(open_words, p.idx()) {
                    work.push(p.0);
                }
            }
        }
    }
    // Z = g ∨ (f ∧ ¬open).
    let mut out = f.clone();
    out.difference_with(&open);
    out.union_with(g);
    out
}

/// `EG f`: states with some path staying in `f` forever. Greatest
/// fixpoint `νZ. f ∧ EX Z`, which is [`er`] with an empty release set,
/// so it is linear in `|S| + |R|`.
pub fn eg(m: &Kripke, f: &BitSet) -> BitSet {
    er(m, &empty_set(m), f)
}

/// `E[f R g]`: some path satisfies `f R g` (i.e. `g` holds up to and
/// including the first `f`-state, or forever). Greatest fixpoint
/// `νZ. g ∧ (f ∨ EX Z)`.
///
/// Computed in time linear in `|S| + |R|` by successor counting: `Z`
/// starts as `g`, and every `g ∧ ¬f` state keeps the number of its
/// successors still in `Z`. A state whose count drops to zero leaves `Z`
/// and decrements the counts of its `g ∧ ¬f` predecessors in turn; the
/// `g ∧ f` states never leave. Each state departs at most once, so each
/// predecessor edge is walked at most once.
pub fn er(m: &Kripke, f: &BitSet, g: &BitSet) -> BitSet {
    let (succ_heads, succs) = m.succ_csr();
    let (pred_heads, preds) = m.pred_csr();
    let g_words = g.words();
    // The states of `Z` that may still leave it: `Z ∧ ¬f`, from `g ∧ ¬f`.
    let mut open = g.clone();
    open.difference_with(f);
    let open_words = open.words_mut();
    let mut count = vec![0u32; m.num_states()];
    let mut gone: Vec<u32> = Vec::new();
    for w in 0..open_words.len() {
        let mut word = open_words[w];
        while word != 0 {
            let s = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            let live = row(succ_heads, succs, s)
                .iter()
                .filter(|t| has_bit(g_words, t.idx()))
                .count() as u32;
            count[s] = live;
            if live == 0 {
                take_bit(open_words, s);
                gone.push(s as u32);
            }
        }
    }
    while let Some(t) = gone.pop() {
        for p in row(pred_heads, preds, t as usize) {
            if has_bit(open_words, p.idx()) {
                count[p.idx()] -= 1;
                if count[p.idx()] == 0 {
                    take_bit(open_words, p.idx());
                    gone.push(p.0);
                }
            }
        }
    }
    // Z = (g ∧ f) ∨ open.
    let mut z = g.clone();
    z.intersect_with(f);
    z.union_with(&open);
    z
}

/// All states, as a set (`true`).
pub fn full_set(m: &Kripke) -> BitSet {
    let mut s = BitSet::new(m.num_states());
    s.complement();
    s
}

/// No states (`false`).
pub fn empty_set(m: &Kripke) -> BitSet {
    BitSet::new(m.num_states())
}

/// Strongly connected components of the CSR graph `(heads, edges)` on
/// nodes `0..heads.len() - 1`, restricted to the nodes `keep` admits
/// (edges to other nodes are ignored), by an iterative Tarjan that
/// explores from each of `roots` in turn; every root must be kept.
///
/// Returns each node's component id, or `u32::MAX` for nodes no root
/// reaches, and per component whether it is non-trivial: whether some
/// kept edge stays inside it (it has two nodes or more, or a
/// self-loop). Ids come out in reverse topological order.
///
/// This is Pearce's space-saving form of Tarjan's algorithm: one `u32`
/// per node (`rindex`) serves as visit index, low link and, once the
/// node's component is complete, component number, so no on-stack flag
/// is kept. Indices count up from 1 and are reused when a component
/// completes; component numbers count down from `n`, so a finished node
/// always reads larger than an open one and never lowers a low link.
pub(crate) fn tarjan<E: Copy + Into<u32>>(
    heads: &[u32],
    edges: &[E],
    keep: impl Fn(u32) -> bool,
    roots: impl IntoIterator<Item = u32>,
) -> (Vec<u32>, Vec<bool>) {
    /// A node on the DFS path.
    struct Frame {
        node: u32,
        /// The position of its next edge.
        next: u32,
        /// Whether no edge has reached below its index yet, so that it
        /// is the root of its component.
        root: bool,
        self_loop: bool,
    }
    let n = heads.len() - 1;
    // 0: not visited.
    let mut rindex = vec![0u32; n];
    // Visited nodes, off the DFS path, whose component is still open.
    let mut open: Vec<u32> = Vec::new();
    let mut call: Vec<Frame> = Vec::new();
    let mut nontrivial: Vec<bool> = Vec::new();
    let (mut index, mut next_comp) = (1u32, n as u32);
    let enter = |v: u32, index: &mut u32, rindex: &mut [u32]| {
        rindex[v as usize] = *index;
        *index += 1;
        Frame {
            node: v,
            next: heads[v as usize],
            root: true,
            self_loop: false,
        }
    };
    for root in roots {
        if rindex[root as usize] != 0 {
            continue;
        }
        call.push(enter(root, &mut index, &mut rindex));
        while let Some(frame) = call.last_mut() {
            let v = frame.node as usize;
            let rest = &edges[frame.next as usize..heads[v + 1] as usize];
            let (mut low, mut child) = (rindex[v], None);
            for (k, &w) in rest.iter().enumerate() {
                let w: u32 = w.into();
                if !keep(w) {
                    continue;
                }
                let rw = rindex[w as usize];
                if rw == 0 {
                    child = Some((w, k as u32));
                    break;
                }
                frame.self_loop |= w as usize == v;
                if rw < low {
                    low = rw;
                    frame.root = false;
                }
            }
            rindex[v] = low;
            if let Some((w, k)) = child {
                frame.next += k + 1;
                call.push(enter(w, &mut index, &mut rindex));
                continue;
            }
            let done = call.pop().expect("the frame just read");
            if done.root {
                let mut members = 1;
                while let Some(&w) = open.last() {
                    if rindex[w as usize] < low {
                        break;
                    }
                    open.pop();
                    rindex[w as usize] = next_comp;
                    members += 1;
                }
                index -= members;
                rindex[v] = next_comp;
                next_comp -= 1;
                nontrivial.push(members > 1 || done.self_loop);
            } else {
                open.push(v as u32);
            }
            if let Some(parent) = call.last_mut() {
                let p = parent.node as usize;
                if rindex[v] < rindex[p] {
                    rindex[p] = rindex[v];
                    parent.root = false;
                }
            }
        }
    }
    // Component numbers n, n - 1, ... become ids 0, 1, ...
    for r in &mut rindex {
        *r = if *r == 0 { u32::MAX } else { n as u32 - *r };
    }
    (rindex, nontrivial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair::{eg_fair, FairReq, TransFairness};
    use crate::Checker;
    use icstar_kripke::gen::{random_kripke, RandomConfig};
    use icstar_kripke::{Atom, KripkeBuilder, StateId};
    use icstar_logic::parse_state;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The textbook `EG`: iterate `Z := f ∧ EX Z` from `f` until stable.
    /// Quadratic on chains; kept as the oracle for [`eg`].
    fn eg_fixpoint(m: &Kripke, f: &BitSet) -> BitSet {
        let mut z = f.clone();
        loop {
            let mut next = pre_exists(m, &z);
            next.intersect_with(f);
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// The textbook `ER`: iterate `Z := g ∧ (f ∨ EX Z)` from `g` until
    /// stable. Kept as the oracle for [`er`].
    fn er_fixpoint(m: &Kripke, f: &BitSet, g: &BitSet) -> BitSet {
        let mut z = g.clone();
        loop {
            let mut next = pre_exists(m, &z);
            next.union_with(f);
            next.intersect_with(g);
            if next == z {
                return z;
            }
            z = next;
        }
    }

    /// s0(p) -> s1(p) -> s2(q) -> s2 ; s1 -> s0, s0 -> s3(r) -> s3
    fn diamond() -> (Kripke, BitSet, BitSet, BitSet) {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [Atom::plain("p")]);
        let s1 = b.state_labeled("s1", [Atom::plain("p")]);
        let s2 = b.state_labeled("s2", [Atom::plain("q")]);
        let s3 = b.state_labeled("s3", [Atom::plain("r")]);
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s2, s2);
        b.edge(s1, s0);
        b.edge(s0, s3);
        b.edge(s3, s3);
        let m = b.build(s0).unwrap();
        let mk = |atoms: &[u32]| {
            BitSet::from_iter_with_capacity(m.num_states(), atoms.iter().map(|&x| x as usize))
        };
        let p = mk(&[0, 1]);
        let q = mk(&[2]);
        let r = mk(&[3]);
        (m, p, q, r)
    }

    #[test]
    fn pre_exists_basic() {
        let (m, _, q, _) = diamond();
        let ex_q = pre_exists(&m, &q);
        // predecessors of s2: s1 and s2 itself.
        assert_eq!(ex_q.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn pre_all_uses_totality() {
        let (m, p, ..) = diamond();
        // AX p: all successors labeled p. s0 -> {s1,s3}: no. s1 -> {s2,s0}: no.
        // s2 -> {s2}: no. s3 -> {s3}: no.
        let ax_p = pre_all(&m, &p);
        assert!(ax_p.is_empty());
        // AX (q|r|p on successors of s2) — s2's only successor is s2 (q).
        let (m, _, q, _) = diamond();
        let ax_q = pre_all(&m, &q);
        assert_eq!(ax_q.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn eu_reaches_through_f() {
        let (m, p, q, _) = diamond();
        // E[p U q]: s2 trivially; s1 (step to s2); s0 (s0->s1->s2).
        let r = eu(&m, &p, &q);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn eu_blocked_without_f() {
        let (m, _, q, _) = diamond();
        let none = empty_set(&m);
        let r = eu(&m, &none, &q);
        // only the q-states themselves.
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn eg_needs_a_cycle() {
        let (m, p, q, r) = diamond();
        // EG p: s0 <-> s1 cycle stays in p.
        let egp = eg(&m, &p);
        assert_eq!(egp.iter().collect::<Vec<_>>(), vec![0, 1]);
        // EG q: s2 self-loop.
        assert_eq!(eg(&m, &q).iter().collect::<Vec<_>>(), vec![2]);
        // EG r: s3 self-loop.
        assert_eq!(eg(&m, &r).iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn er_release_semantics() {
        let (m, p, q, _) = diamond();
        // E[q R p]: p must hold up to and including the first q-state, or
        // forever. s0,s1 can loop in p forever -> in. s2 is q but not p:
        // q R p requires p at least initially unless... νZ. p ∧ (q ∨ EX Z):
        // s2 not in p -> out. s3 not in p -> out.
        let rel = er(&m, &q, &p);
        assert_eq!(rel.iter().collect::<Vec<_>>(), vec![0, 1]);
        // E[p R q] at s2: q holds forever on s2^ω and p∧q never needed?
        // νZ. q ∧ (p ∨ EX Z): s2: q ∧ (no p, but EX Z with Z={s2}) -> stays.
        let rel2 = er(&m, &p, &q);
        assert_eq!(rel2.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn full_and_empty() {
        let (m, ..) = diamond();
        assert_eq!(full_set(&m).len(), 4);
        assert!(empty_set(&m).is_empty());
    }

    /// A requirement released in every state: every path is fair, but
    /// fair `EG` still takes the SCC route instead of the fixpoint.
    fn all_released(m: &Kripke) -> TransFairness {
        TransFairness::new([FairReq::new(full_set(m), [])])
    }

    /// Plain and trivially-fair checking agree on `formulas`.
    fn assert_routes_agree(m: &Kripke, formulas: &[&str], context: &str) {
        let fair = all_released(m);
        let mut plain = Checker::new(m);
        let mut scc = Checker::with_fairness(m, &fair);
        for src in formulas {
            let f = parse_state(src).unwrap();
            assert_eq!(
                *plain.sat(&f).unwrap(),
                *scc.sat(&f).unwrap(),
                "{src} ({context})"
            );
        }
    }

    #[test]
    fn eg_scc_agrees_with_fixpoint() {
        let (m, ..) = diamond();
        assert_routes_agree(
            &m,
            &[
                "EG p",
                "EG q",
                "EG r",
                "EG true",
                "EG false",
                "EG (p | q)",
                "AF q",
                "AG AF (q | r)",
            ],
            "diamond",
        );
    }

    #[test]
    fn eg_scc_agrees_on_random_structures() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let m = random_kripke(
                &mut rng,
                &RandomConfig {
                    states: 3 + trial % 6,
                    ..RandomConfig::default()
                },
            );
            // Random subset as f, straight through the set-level SCC route.
            let mut f = BitSet::new(m.num_states());
            for s in m.states() {
                if !(s.0 as usize + trial).is_multiple_of(3) {
                    f.insert(s.idx());
                }
            }
            assert_eq!(
                eg(&m, &f),
                eg_fair(&m, &f, &all_released(&m)),
                "trial {trial}"
            );
            assert_routes_agree(
                &m,
                &["EG p", "EG !q", "EG (p | q)", "AF (p & q)", "AG AF p"],
                &format!("trial {trial}"),
            );
        }
    }

    /// A uniformly random subset of `m`'s states.
    fn random_subset(rng: &mut StdRng, m: &Kripke) -> BitSet {
        let density = rng.random_range(0u32..5) as f64 / 4.0;
        BitSet::from_iter_with_capacity(
            m.num_states(),
            m.states()
                .map(|s| s.idx())
                .filter(|_| rng.random_bool(density)),
        )
    }

    #[test]
    fn pre_exists_matches_its_definition_on_random_structures() {
        let mut rng = StdRng::seed_from_u64(0x9e_e715);
        for trial in 0..400 {
            let m = random_kripke(
                &mut rng,
                &RandomConfig {
                    states: 1 + trial % 70,
                    mean_out_degree: 1.0 + (trial % 4) as f64,
                    ..RandomConfig::default()
                },
            );
            let set = random_subset(&mut rng, &m);
            let by_definition = BitSet::from_iter_with_capacity(
                m.num_states(),
                (m.states())
                    .filter(|&s| m.successors(s).iter().any(|t| set.contains(t.idx())))
                    .map(|s| s.idx()),
            );
            assert_eq!(pre_exists(&m, &set), by_definition, "trial {trial}");
        }
    }

    #[test]
    fn counting_eg_er_match_the_fixpoints_on_random_structures() {
        let mut rng = StdRng::seed_from_u64(0x1f_eeed);
        let mut self_loops = 0;
        for trial in 0..400 {
            let m = random_kripke(
                &mut rng,
                &RandomConfig {
                    states: 1 + trial % 12,
                    mean_out_degree: 1.0 + (trial % 4) as f64,
                    ..RandomConfig::default()
                },
            );
            self_loops += m.states().filter(|&s| m.has_edge(s, s)).count();
            let (f, g) = (random_subset(&mut rng, &m), random_subset(&mut rng, &m));
            assert_eq!(eg(&m, &g), eg_fixpoint(&m, &g), "EG, trial {trial}");
            assert_eq!(er(&m, &f, &g), er_fixpoint(&m, &f, &g), "ER, trial {trial}");
            for edge in [empty_set(&m), full_set(&m)] {
                assert_eq!(er(&m, &edge, &g), er_fixpoint(&m, &edge, &g));
                assert_eq!(er(&m, &f, &edge), er_fixpoint(&m, &f, &edge));
            }
        }
        assert!(self_loops > 100, "only {self_loops} self-loops generated");
    }

    /// The counter structure of `n` copies of the mutex template
    /// `idle -> try -[crit = 0]-> crit -> idle`: state `(t, c)` has `t`
    /// copies trying and `c ≤ 1` in the critical section. Its long
    /// idle-to-try chains are what make the iterated fixpoints quadratic.
    fn mutex_counters(n: u32) -> Kripke {
        let mut b = KripkeBuilder::new();
        // (n, 1) would be the last id and is over-full, so it is skipped.
        let id = |t: u32, c: u32| StateId(2 * t + c);
        let legal = |t: u32, c: u32| t + c <= n;
        for t in 0..=n {
            for c in (0..2).filter(|&c| legal(t, c)) {
                let crit = if c == 1 { "crit_ge1" } else { "crit_eq0" };
                assert_eq!(
                    b.state_labeled(format!("t{t}c{c}"), [Atom::plain(crit)]),
                    id(t, c)
                );
            }
        }
        for t in 0..=n {
            for c in (0..2).filter(|&c| legal(t, c)) {
                if legal(t + 1, c) {
                    b.edge(id(t, c), id(t + 1, c)); // idle -> try
                }
                if c == 0 && t > 0 {
                    b.edge(id(t, 0), id(t - 1, 1)); // try -> crit
                }
                if c == 1 {
                    b.edge(id(t, 1), id(t, 0)); // crit -> idle
                }
            }
        }
        b.build(id(0, 0)).unwrap()
    }

    #[test]
    fn mutex_liveness_matches_the_fixpoint_oracle() {
        let m = mutex_counters(1_000);
        let mut chk = Checker::new(&m);
        for atom in ["crit_ge1", "crit_eq0"] {
            let f = parse_state(&format!("AG AF {atom}")).unwrap();
            // AF a = ¬EG ¬a and AG b = ¬E[true U ¬b], through the oracle.
            let mut not_a = (*chk.sat(&parse_state(atom).unwrap()).unwrap()).clone();
            not_a.complement();
            let not_af = eg_fixpoint(&m, &not_a);
            assert_eq!(eg(&m, &not_a), not_af, "EG !{atom}");
            let mut ag_af = eu(&m, &full_set(&m), &not_af);
            ag_af.complement();
            assert_eq!(*chk.sat(&f).unwrap(), ag_af, "AG AF {atom}");
            assert!(chk.holds(&f).unwrap(), "AG AF {atom}");
        }
    }

    /// `adj` as CSR arrays.
    fn csr(adj: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let mut heads = vec![0];
        for row in adj {
            heads.push(heads.last().unwrap() + row.len() as u32);
        }
        (heads, adj.concat())
    }

    #[test]
    fn tarjan_on_simple_graph() {
        // 0 -> 1 -> 2 -> 0 (one SCC), 3 -> 0 (own SCC)
        let (heads, edges) = csr(&[vec![1], vec![2], vec![0], vec![0]]);
        let (comp, nontrivial) = tarjan(&heads, &edges, |_| true, 0..4);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[3], comp[0]);
        assert!(nontrivial[comp[0] as usize] && !nontrivial[comp[3] as usize]);
        assert_eq!(nontrivial.len(), 2);
    }

    #[test]
    fn tarjan_self_loop_and_isolated() {
        let (heads, edges) = csr(&[vec![0], vec![]]);
        let (comp, nontrivial) = tarjan(&heads, &edges, |_| true, 0..2);
        assert_ne!(comp[0], comp[1]);
        assert_eq!(nontrivial, vec![true, false]);
    }

    #[test]
    fn tarjan_leaves_unreached_nodes_unassigned() {
        // Rooted at 1 only: 1 -> 2 -> 1 is reached, 0 is not.
        let (heads, edges) = csr(&[vec![1], vec![2], vec![1]]);
        let (comp, nontrivial) = tarjan(&heads, &edges, |_| true, [1]);
        assert_eq!(comp[0], u32::MAX);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(nontrivial, vec![true]);
    }

    #[test]
    fn tarjan_ignores_edges_to_dropped_nodes() {
        // 0 -> 1 -> 2 -> 0 is one SCC, but without node 2 it falls apart
        // into {0} and {1}, and 2 stays unassigned.
        let (heads, edges) = csr(&[vec![1], vec![2], vec![0]]);
        let (comp, nontrivial) = tarjan(&heads, &edges, |v| v != 2, [0, 1]);
        assert_ne!(comp[0], comp[1]);
        assert_eq!(comp[2], u32::MAX);
        assert_eq!(nontrivial, vec![false, false]);
        // Reverse topological order: 1 is finished before 0.
        assert!(comp[1] < comp[0]);
    }

    #[test]
    fn tarjan_matches_mutual_reachability_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x5cc);
        for trial in 0..300 {
            let n = 1 + trial % 15;
            let adj: Vec<Vec<u32>> = (0..n)
                .map(|_| (0..n as u32).filter(|_| rng.random_bool(0.2)).collect())
                .collect();
            let kept: Vec<bool> = (0..n).map(|_| rng.random_bool(0.8)).collect();
            let roots: Vec<u32> = (0..n as u32).filter(|&u| kept[u as usize]).collect();
            // reach[u][v]: a path of one step or more through kept nodes.
            let mut reach = vec![vec![false; n]; n];
            for u in roots.iter().map(|&u| u as usize) {
                for &v in &adj[u] {
                    reach[u][v as usize] = kept[v as usize];
                }
            }
            for k in 0..n {
                for u in 0..n {
                    for v in 0..n {
                        reach[u][v] |= reach[u][k] && reach[k][v];
                    }
                }
            }
            let (heads, edges) = csr(&adj);
            let (comp, nontrivial) = tarjan(&heads, &edges, |v| kept[v as usize], roots);
            for u in 0..n {
                if !kept[u] {
                    assert_eq!(comp[u], u32::MAX, "trial {trial}");
                    continue;
                }
                assert_eq!(nontrivial[comp[u] as usize], reach[u][u], "trial {trial}");
                for v in (0..n).filter(|&v| kept[v]) {
                    let same = u == v || reach[u][v] && reach[v][u];
                    assert_eq!(comp[u] == comp[v], same, "trial {trial}: {u}, {v}");
                    // Reverse topological order.
                    if reach[u][v] && !same {
                        assert!(comp[u] > comp[v], "trial {trial}: {u} -> {v}");
                    }
                }
            }
        }
    }
}
