//! The workload gallery of `docs/WORKLOADS.md` as data: every family's
//! plain and weakly fair variant, its formula rows, and the verdict each
//! row is expected to have.
//!
//! The expected verdicts are *not* computed by the engine under test.
//! They are the gallery's claims: every safety and indexed row holds,
//! every liveness row holds on the fair variant, and a liveness row
//! listed as a flip fails on the plain original. The tests at the bottom
//! check this table against the explicit composition
//! (`check_fair_explicit`) and the abstraction oracle
//! (`verify_counter_abstraction`) at n ≤ 4.

use icstar_logic::{parse_state, StateFormula};
use icstar_nets::fig41_template;
use icstar_sym::{
    barrier_template, msi_template, mutex_template, ring_station_template, wakeup_template,
    GuardedTemplate,
};

/// What a formula row exercises; selects the `mc.check_ms.*` bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A counting-atom safety row (no index quantifier).
    Safety,
    /// A depth-1 or depth-2 indexed row (`forall i. …`).
    Indexed,
    /// A liveness row (`AF` / `AG AF`, counting or indexed).
    Liveness,
}

/// One gallery family: its plain template, its weakly fair variant, and
/// the formula rows of each gallery column.
pub struct Family {
    pub name: &'static str,
    pub plain: GuardedTemplate,
    pub fair: GuardedTemplate,
    pub safety: &'static [&'static str],
    pub depth1: &'static str,
    pub depth2: &'static str,
    pub liveness: &'static [&'static str],
    /// Liveness rows that fail on the plain original.
    pub flips: &'static [&'static str],
}

impl Family {
    pub fn template(&self, fair: bool) -> &GuardedTemplate {
        if fair {
            &self.fair
        } else {
            &self.plain
        }
    }

    /// The gallery's verdict for `src` on the chosen variant.
    pub fn expected(&self, fair: bool, src: &str) -> bool {
        fair || !self.flips.contains(&src)
    }
}

/// Indices into [`families`] (the station ring is 2).
pub const FIG41: usize = 0;
pub const MUTEX: usize = 1;
pub const BARRIER: usize = 3;
pub const MSI: usize = 4;
pub const WAKEUP: usize = 5;

/// The six gallery families, in the order of the constants above.
pub fn families() -> Vec<Family> {
    let fig41 = GuardedTemplate::free(fig41_template());
    let mutex = mutex_template();
    let ring = ring_station_template(4, 1);
    let barrier = barrier_template();
    let msi = msi_template();
    let wakeup = wakeup_template();
    vec![
        Family {
            name: "fig41",
            fair: fig41.clone().with_fairness("fall", [(0, 1)]),
            plain: fig41,
            safety: &["EF a_eq0", "AG (b_ge1 -> AG b_ge1)"],
            depth1: "forall i. AG (a[i] -> EF b[i])",
            depth2: "forall i. exists j. EF (b[i] & a[j])",
            liveness: &["AF a_eq0", "AG AF b_ge1", "forall i. AF b[i]"],
            flips: &["AF a_eq0", "forall i. AF b[i]"],
        },
        Family {
            name: "mutex",
            fair: mutex.clone().with_fairness("enter", [(1, 2)]),
            plain: mutex,
            safety: &["AG !crit_ge2"],
            depth1: "forall i. AG (try[i] -> EF crit[i])",
            depth2: "forall i. exists j. AG (crit[i] -> !crit[j])",
            liveness: &["AG AF crit_ge1", "AG AF crit_eq0"],
            flips: &[],
        },
        Family {
            name: "ring-station",
            fair: ring
                .clone()
                .with_fairness("advance", [(0, 1), (1, 2), (2, 3), (3, 0)]),
            plain: ring,
            safety: &["AG !s1_ge2", "AG !s2_ge2", "AG !s3_ge2"],
            depth1: "forall i. EF s3[i]",
            depth2: "forall i. exists j. EF (s1[i] & s0[j])",
            liveness: &["AG AF s3_ge1", "AG AF s0_ge1"],
            flips: &[],
        },
        Family {
            name: "barrier",
            fair: barrier
                .clone()
                .with_fairness("arrive", [(0, 1), (2, 3)])
                .with_fairness("release", [(1, 2), (3, 0)]),
            plain: barrier,
            safety: &[
                "AG (phase1_ge1 -> phase0_eq0)",
                "AG (phase0_ge1 -> phase1_eq0)",
            ],
            depth1: "forall i. AG (phase0[i] -> EF phase1[i])",
            depth2: "forall i. forall j. AG !(phase0[i] & phase1[j])",
            liveness: &[
                "AG AF phase1_ge1",
                "AG AF phase0_ge1",
                "forall i. AG AF phase1[i]",
            ],
            flips: &[
                "AG AF phase1_ge1",
                "AG AF phase0_ge1",
                "forall i. AG AF phase1[i]",
            ],
        },
        Family {
            name: "msi",
            fair: msi.clone().with_fairness("writeback", [(2, 0)]),
            plain: msi,
            safety: &[
                "AG !modified_ge2",
                "AG (modified_ge1 -> shared_eq0)",
                "AG (modified_ge1 -> one(modified))",
            ],
            depth1: "forall i. AG (invalid[i] -> EF modified[i])",
            depth2: "forall i. exists j. AG (modified[i] -> !modified[j])",
            liveness: &["AG AF modified_eq0"],
            flips: &["AG AF modified_eq0"],
        },
        Family {
            name: "wakeup",
            fair: wakeup.clone().with_fairness("wake", [(0, 1)]),
            plain: wakeup,
            safety: &[
                "AG ((awake_ge1 | working_ge1) -> asleep_eq0)",
                "AG EF asleep_ge1",
            ],
            depth1: "forall i. AG (asleep[i] -> EF working[i])",
            depth2: "forall i. forall j. AG !(asleep[i] & awake[j])",
            liveness: &["AF asleep_eq0", "AG AF asleep_eq0"],
            flips: &["AF asleep_eq0", "AG AF asleep_eq0"],
        },
    ]
}

/// The index-quantifier nesting depth of a gallery row: 0, 1 or 2.
pub fn depth(src: &str) -> u32 {
    src.matches("forall ").count() as u32 + src.matches("exists ").count() as u32
}

/// Parses a gallery row; the rows are constants, so failure is a bug.
pub fn formula(src: &str) -> StateFormula {
    parse_state(src).unwrap_or_else(|e| panic!("gallery row {src:?} does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_sym::{check_fair_explicit, verify_counter_abstraction, CountingSpec};

    /// Every row of every variant, with the class it is filed under.
    fn rows(f: &Family) -> Vec<&'static str> {
        let mut all: Vec<&'static str> = f.safety.to_vec();
        all.extend([f.depth1, f.depth2]);
        all.extend(f.liveness.iter().copied());
        all
    }

    #[test]
    fn expected_verdicts_match_the_explicit_composition() {
        // The reference the benchmark audits every wire verdict against,
        // checked on the explicit n-copy interleaving (fairness spelled
        // out copy by copy, quantifiers expanded over concrete copies),
        // which shares nothing with the counter abstraction. Depth-2 rows
        // need two distinct copies, so sizes start at 2.
        for f in families() {
            for fair in [false, true] {
                let t = f.template(fair);
                let spec = CountingSpec::standard(t);
                for n in 2..=4u32 {
                    for src in rows(&f) {
                        let got = check_fair_explicit(t, n, &spec, &formula(src))
                            .unwrap_or_else(|e| panic!("{} {src}: {e}", f.name));
                        assert_eq!(
                            got,
                            f.expected(fair, src),
                            "{} (fair = {fair}) {src} at n = {n}",
                            f.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn abstraction_corresponds_to_the_explicit_composition() {
        // The structural half of the oracle: the counter and width-1/2
        // representative structures correspond to the explicit
        // composition, so verdicts checked on them are the explicit ones.
        for f in families() {
            let spec = CountingSpec::standard(&f.plain);
            for n in 1..=4u32 {
                verify_counter_abstraction(&f.plain, n, &spec)
                    .unwrap_or_else(|e| panic!("{} at n = {n}: {e}", f.name));
            }
        }
    }

    #[test]
    fn rows_parse_and_depths_are_as_filed() {
        for f in families() {
            for src in f.safety {
                assert_eq!(depth(src), 0, "{src}");
                formula(src);
            }
            assert_eq!(depth(f.depth1), 1);
            assert_eq!(depth(f.depth2), 2);
            for src in f.liveness.iter().chain(f.flips) {
                assert!(depth(src) <= 1, "{src}");
                assert!(f.liveness.contains(src) || !f.flips.contains(src));
                formula(src);
            }
            assert!(f.fair.is_fair() && !f.plain.is_fair(), "{}", f.name);
        }
    }
}
