//! Counter abstraction at scale: mutual exclusion for 10,000 processes.
//!
//! The explicit composition of n copies of the 3-state mutex template has
//! 3^n global states — at n = 10,000 that is a number with 4,771 digits.
//! The counter abstraction is exact (a strong bisimulation quotient under
//! the full symmetric group) and has O(n) reachable abstract states here,
//! so the stock model checkers verify the family directly at the target
//! size.
//!
//! Run with: `cargo run --release --example counter_abstraction`

use std::time::Instant;

use icstar::{FamilyVerifier, SymEngine};
use icstar_logic::parse_state;
use icstar_sym::mutex_template;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u32 = 10_000;
    println!("== Counter abstraction: test-and-set mutex, n = {n} ==\n");

    // 1. Audit the abstraction mechanically at a small size: the counter
    //    and representative structures must correspond (Section 3 sense)
    //    to the explicit interleaved composition.
    let engine = SymEngine::new(mutex_template());
    let t = Instant::now();
    engine.cross_check(3)?;
    println!(
        "bisimulation audit vs explicit 3-process composition: ok ({:?})\n",
        t.elapsed()
    );

    // 2. The collapse, measured: abstract states vs |S|^n.
    println!(
        "{:>8} {:>16} {:>24} {:>12}",
        "n", "abstract states", "explicit states (3^n)", "build time"
    );
    for size in [10u32, 100, 1_000, 10_000] {
        let t = Instant::now();
        let k = engine.counter_graph(size).kripke;
        let digits = (size as f64 * 3f64.log10()).ceil() as u64;
        println!(
            "{:>8} {:>16} {:>21}... {:>12?}",
            size,
            k.num_states(),
            format!("~10^{digits}"),
            t.elapsed()
        );
    }

    // 3. Verify the family at n = 10,000 through the FamilyVerifier's
    //    counter-abstraction backend.
    let start = Instant::now();
    let mut verifier = FamilyVerifier::counter_abstracted(mutex_template());
    verifier.add_formula(
        "mutual exclusion:      AG #crit <= 1",
        parse_state("AG !crit_ge2")?,
    )?;
    verifier.add_formula(
        "non-blocking:          AG (#try >= 1 -> EF #crit >= 1)",
        parse_state("AG (try_ge1 -> EF crit_ge1)")?,
    )?;
    verifier.add_formula(
        "theta invariant:       AG (#crit >= 1 -> exactly one crit)",
        parse_state("AG (crit_ge1 -> one(crit))")?,
    )?;
    verifier.add_formula(
        "access possibility:    forall i. AG (try[i] -> EF crit[i])",
        parse_state("forall i. AG(try[i] -> EF crit[i])")?,
    )?;
    verifier.add_formula(
        "exclusion per process: forall i. AG (crit[i] -> !crit_ge2)",
        parse_state("forall i. AG(crit[i] -> !crit_ge2)")?,
    )?;
    let verdicts = verifier.verify_at(n)?;
    let elapsed = start.elapsed();

    println!("\nverdicts at n = {n}:");
    for v in &verdicts {
        println!("  [{}] {}", if v.holds { "ok" } else { "FAIL" }, v.name);
    }
    println!("\ntotal verification time at n = {n}: {elapsed:?}");

    assert!(verdicts.iter().all(|v| v.holds), "a property failed");
    assert!(
        elapsed.as_secs() < 5,
        "verification took {elapsed:?}, expected under 5s"
    );
    Ok(())
}
