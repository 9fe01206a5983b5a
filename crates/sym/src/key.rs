//! The identity of a workload: its canonical bytes.
//!
//! The service layer shares one materialized structure among every
//! caller of the same family, so it needs one answer to "same workload".
//! [`WorkloadKey`] is that answer: an injective byte encoding of a
//! template and its counting spec. Equal keys mean equal workloads and
//! distinct workloads never share a key, so the structure cache, the
//! disk spill files and the certificate store key on it exactly, with no
//! hash buckets and no second structural compare. The bytes are
//! deterministic across processes and runs, so they are also what spill
//! files store and compare on restore.

use std::sync::Arc;

use crate::labels::CountingSpec;
use crate::template::{Guard, GuardedTemplate};

/// The canonical encoding of one (template, spec) workload. Cheap to
/// clone (a shared byte slice); hashing and equality run over the bytes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadKey(Arc<[u8]>);

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Tag, then operands. Tags are append-only: a new guard kind takes the
/// next unused tag (0–7 are taken), so no two guards ever encode alike.
fn put_guard(out: &mut Vec<u8>, g: &Guard) {
    let (tag, prop, state, bounds): (u8, Option<&str>, Option<u32>, &[u32]) = match g {
        Guard::AtMost(p, k) => (0, Some(p), None, &[*k]),
        Guard::AtLeast(p, k) => (1, Some(p), None, &[*k]),
        Guard::StateAtMost(q, k) => (2, None, Some(*q), &[*k]),
        Guard::StateAtLeast(q, k) => (3, None, Some(*q), &[*k]),
        Guard::Equals(p, k) => (4, Some(p), None, &[*k]),
        Guard::InRange(p, lo, hi) => (5, Some(p), None, &[*lo, *hi]),
        Guard::StateEquals(q, k) => (6, None, Some(*q), &[*k]),
        Guard::StateInRange(q, lo, hi) => (7, None, Some(*q), &[*lo, *hi]),
    };
    out.push(tag);
    if let Some(p) = prop {
        put_str(out, p);
    }
    if let Some(q) = state {
        put_u32(out, q);
    }
    for &b in bounds {
        put_u32(out, b);
    }
}

fn put_guards(out: &mut Vec<u8>, guards: &[Guard]) {
    put_u32(out, guards.len() as u32);
    for g in guards {
        put_guard(out, g);
    }
}

impl WorkloadKey {
    /// The key of `template` labeled by `spec`. Every field of the
    /// template — states, names, labels, guarded edges, broadcasts with
    /// their response maps, fairness declarations — and of the spec is
    /// written with length prefixes, so the encoding is injective.
    pub fn of(template: &GuardedTemplate, spec: &CountingSpec) -> Self {
        // Room for a typical workload (a few hundred bytes), so the
        // encoding does not regrow its buffer: it runs once per job.
        let mut out = Vec::with_capacity(512);
        let n = template.num_states() as u32;
        put_u32(&mut out, n);
        put_u32(&mut out, template.initial());
        for q in 0..n {
            put_str(&mut out, template.state_name(q));
            let labels = template.labels(q);
            put_u32(&mut out, labels.len() as u32);
            for l in labels {
                put_str(&mut out, l);
            }
            let succs = template.successors(q);
            put_u32(&mut out, succs.len() as u32);
            for (k, &s) in succs.iter().enumerate() {
                put_u32(&mut out, s);
                put_guards(&mut out, template.guards(q, k));
            }
        }
        let broadcasts = template.broadcasts();
        put_u32(&mut out, broadcasts.len() as u32);
        for b in broadcasts {
            put_u32(&mut out, b.source());
            put_u32(&mut out, b.target());
            put_guards(&mut out, b.guards());
            put_u32(&mut out, b.response().len() as u32);
            for &r in b.response() {
                put_u32(&mut out, r);
            }
        }
        let fairness = template.fairness();
        put_u32(&mut out, fairness.len() as u32);
        for f in fairness {
            put_str(&mut out, f.name());
            put_u32(&mut out, f.moves().len() as u32);
            for &(a, b) in f.moves() {
                put_u32(&mut out, a);
                put_u32(&mut out, b);
            }
        }
        put_u32(&mut out, spec.at_least_entries().count() as u32);
        for (p, k) in spec.at_least_entries() {
            put_str(&mut out, p);
            put_u32(&mut out, k);
        }
        put_u32(&mut out, spec.zero_props().count() as u32);
        for p in spec.zero_props() {
            put_str(&mut out, p);
        }
        put_u32(&mut out, spec.exactly_one_props().count() as u32);
        for p in spec.exactly_one_props() {
            put_str(&mut out, p);
        }
        WorkloadKey(out.into())
    }

    /// The canonical bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arb::{random_guarded_template, RandomGuardedConfig};
    use crate::template::GuardedBuilder;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// One state's name, labels, and guarded successors.
    type StateParts = (String, Vec<String>, Vec<(u32, Vec<Guard>)>);

    /// A template taken apart into builder inputs, so one field can be
    /// changed before building it again.
    #[derive(Clone)]
    struct Parts {
        states: Vec<StateParts>,
        /// Source, target, guards and full response map.
        broadcasts: Vec<(u32, u32, Vec<Guard>, Vec<u32>)>,
        fairness: Vec<(String, Vec<(u32, u32)>)>,
        initial: u32,
    }

    fn parts(t: &GuardedTemplate) -> Parts {
        let states = (0..t.num_states() as u32)
            .map(|q| {
                let succs = (t.successors(q).iter().enumerate())
                    .map(|(k, &s)| (s, t.guards(q, k).to_vec()))
                    .collect();
                (t.state_name(q).to_string(), t.labels(q).to_vec(), succs)
            })
            .collect();
        let broadcasts = (t.broadcasts().iter())
            .map(|b| {
                (
                    b.source(),
                    b.target(),
                    b.guards().to_vec(),
                    b.response().to_vec(),
                )
            })
            .collect();
        let fairness = (t.fairness().iter())
            .map(|f| (f.name().to_string(), f.moves().to_vec()))
            .collect();
        Parts {
            states,
            broadcasts,
            fairness,
            initial: t.initial(),
        }
    }

    fn build(p: &Parts) -> GuardedTemplate {
        let mut b = GuardedBuilder::new();
        for (name, labels, _) in &p.states {
            b.state(name.clone(), labels.clone());
        }
        for (q, (_, _, succs)) in p.states.iter().enumerate() {
            for (s, guards) in succs {
                b.edge_guarded(q as u32, *s, guards.clone());
            }
        }
        for (source, target, guards, response) in &p.broadcasts {
            let response = (response.iter().enumerate()).map(|(q, &r)| (q as u32, r));
            b.broadcast_guarded(*source, *target, guards.clone(), response);
        }
        for (name, moves) in &p.fairness {
            b.fair(name.clone(), moves.clone());
        }
        b.build(p.initial)
    }

    /// The first guard on an edge or a broadcast, if any.
    fn first_guard(p: &mut Parts) -> Option<&mut Guard> {
        let edges = p.states.iter_mut().flat_map(|(_, _, s)| s.iter_mut());
        let edge_guards = edges.flat_map(|(_, g)| g.iter_mut());
        let bcast_guards = p.broadcasts.iter_mut().flat_map(|b| b.2.iter_mut());
        edge_guards.chain(bcast_guards).next()
    }

    /// The same guard with its last bound raised by one.
    fn raise_bound(g: &Guard) -> Guard {
        match g.clone() {
            Guard::AtMost(p, k) => Guard::AtMost(p, k + 1),
            Guard::AtLeast(p, k) => Guard::AtLeast(p, k + 1),
            Guard::Equals(p, k) => Guard::Equals(p, k + 1),
            Guard::InRange(p, lo, hi) => Guard::InRange(p, lo, hi + 1),
            Guard::StateAtMost(q, k) => Guard::StateAtMost(q, k + 1),
            Guard::StateAtLeast(q, k) => Guard::StateAtLeast(q, k + 1),
            Guard::StateEquals(q, k) => Guard::StateEquals(q, k + 1),
            Guard::StateInRange(q, lo, hi) => Guard::StateInRange(q, lo, hi + 1),
        }
    }

    /// A guard of another kind over the same proposition or state. The
    /// one-bound kinds rotate, so every pair of them is some guard's
    /// mutation.
    fn other_kind(g: &Guard) -> Guard {
        match g.clone() {
            Guard::AtMost(p, k) => Guard::AtLeast(p, k),
            Guard::AtLeast(p, k) => Guard::Equals(p, k),
            Guard::Equals(p, k) | Guard::InRange(p, k, _) => Guard::AtMost(p, k),
            Guard::StateAtMost(q, k) => Guard::StateAtLeast(q, k),
            Guard::StateAtLeast(q, k) => Guard::StateEquals(q, k),
            Guard::StateEquals(q, k) | Guard::StateInRange(q, k, _) => Guard::StateAtMost(q, k),
        }
    }

    /// Changes exactly one field of the workload — `which` picks a guard
    /// bound, a guard kind, a broadcast response entry, a fairness move,
    /// a label, or a spec threshold — or `None` when the workload has no
    /// such field.
    fn mutant(
        t: &GuardedTemplate,
        spec: &CountingSpec,
        which: u32,
    ) -> Option<(GuardedTemplate, CountingSpec)> {
        let mut p = parts(t);
        match which {
            0 => {
                let g = first_guard(&mut p)?;
                *g = raise_bound(g);
            }
            1 => {
                let g = first_guard(&mut p)?;
                *g = other_kind(g);
            }
            2 => {
                let states = t.num_states() as u32;
                let response = &mut p.broadcasts.first_mut().filter(|_| states > 1)?.3;
                response[0] = (response[0] + 1) % states;
            }
            3 => {
                let mut realized = (p.states.iter().enumerate())
                    .flat_map(|(q, (_, _, s))| s.iter().map(move |(to, _)| (q as u32, *to)))
                    .chain(p.broadcasts.iter().map(|b| (b.0, b.1)));
                let moves = &p.fairness.first()?.1;
                let fresh = realized.find(|m| !moves.contains(m))?;
                p.fairness[0].1[0] = fresh;
            }
            4 => {
                let labels = &mut p.states[0].1;
                match labels.first_mut() {
                    Some(l) => l.push('\''),
                    None => labels.push("r".into()),
                }
            }
            _ => {
                let mut entries: Vec<(&str, u32)> = spec.at_least_entries().collect();
                let last = entries.last_mut()?;
                last.1 += 1;
                let mut s = CountingSpec::new();
                for (prop, k) in entries {
                    s = s.with_at_least(prop, k);
                }
                let zero = spec.zero_props().fold(s, CountingSpec::with_zero);
                let s = spec
                    .exactly_one_props()
                    .fold(zero, CountingSpec::with_exactly_one);
                return Some((t.clone(), s));
            }
        }
        Some((build(&p), spec.clone()))
    }

    #[test]
    fn workload_key_equality_is_structural_equality() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let cfg = RandomGuardedConfig {
            max_fairness: 2,
            ..RandomGuardedConfig::default()
        };
        let workload = |rng: &mut StdRng| {
            let t = random_guarded_template(rng, &cfg);
            let spec = if rng.random_bool(0.5) {
                CountingSpec::standard(&t)
            } else {
                CountingSpec::exhaustive(&t, 3)
            };
            (t, spec)
        };
        let agree = |a: &(GuardedTemplate, CountingSpec), b: &(GuardedTemplate, CountingSpec)| {
            let keys_equal = WorkloadKey::of(&a.0, &a.1) == WorkloadKey::of(&b.0, &b.1);
            assert_eq!(keys_equal, a == b, "key and equality disagree");
            a == b
        };
        let mut mutants = [0u32; 6];
        for _ in 0..300 {
            let a = workload(&mut rng);
            let b = workload(&mut rng);
            agree(&a, &b);
            // A rebuilt copy is equal and keys equally.
            assert!(agree(&a, &(build(&parts(&a.0)), a.1.clone())));
            for which in 0..6 {
                if let Some(m) = mutant(&a.0, &a.1, which) {
                    assert!(!agree(&a, &m), "mutant {which} left the workload equal");
                    mutants[which as usize] += 1;
                }
            }
        }
        assert!(
            mutants.iter().all(|&count| count > 0),
            "every mutation kind must be exercised: {mutants:?}"
        );
    }
}
