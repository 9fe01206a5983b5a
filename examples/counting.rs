//! Fig. 4.1: why indexed CTL* must be restricted — unrestricted nesting
//! counts processes.
//!
//! Run with `cargo run --example counting`.

use icstar::{check_restricted, quantifier_depth, IndexedChecker};
use icstar_nets::{counting_formula, fig41_template, interleave};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let t = fig41_template();

    println!("== The counting formulas f_k = ⋁i (a_i ∧ EF(b_i ∧ f_{{k-1}})) ==");
    for k in 1..=3 {
        let f = counting_formula(k);
        println!("  f_{k} = {f}");
        println!(
            "      quantifier depth {}, restriction check: {:?}",
            quantifier_depth(&f),
            check_restricted(&f)
                .err()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "ok".into())
        );
    }

    println!("\n== f_k counts: truth of f_k on the n-process free product ==");
    print!("{:>6}", "n\\k");
    for k in 1..=5 {
        print!("{k:>7}");
    }
    println!();
    for n in 1..=5u32 {
        let m = interleave(&t, n);
        let mut chk = IndexedChecker::new(&m);
        print!("{n:>6}");
        for k in 1..=5usize {
            let holds = chk.holds(&counting_formula(k))?;
            print!("{:>7}", if holds { "true" } else { "false" });
        }
        println!();
    }
    println!("  (f_k holds iff n >= k: a closed formula that measures the system size!)");

    println!("\n== Section 6 conjecture: depth-k formulas cannot distinguish n > k ==");
    for k in 1..=3usize {
        let f = counting_formula(k);
        let sizes: Vec<u32> = (k as u32 + 1..=k as u32 + 3).collect();
        let values = (sizes.iter())
            .map(|&n| IndexedChecker::new(&interleave(&t, n)).holds(&f))
            .collect::<Result<Vec<bool>, _>>()?;
        let consistent = values.windows(2).all(|w| w[0] == w[1]);
        println!("  f_{k}: sizes {sizes:?} all agree: {consistent} (values {values:?})");
    }
    Ok(())
}
