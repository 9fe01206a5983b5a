//! Jobs and reports: what callers submit and what they get back.

use icstar_logic::StateFormula;
use icstar_sym::{CountingSpec, GuardedTemplate, SymError};

/// One unit of work for the verification service: a guarded template, the
/// family sizes to check it at, and a batch of formulas to check at every
/// size.
///
/// Jobs are self-contained (they own their template), so any number of
/// callers can submit overlapping workloads; the service deduplicates the
/// expensive part — materialized counter graphs — structurally, through
/// a cache keyed on the workload's canonical bytes
/// ([`WorkloadKey`](icstar_sym::WorkloadKey)).
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_serve::VerifyJob;
/// use icstar_sym::mutex_template;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = VerifyJob::new(mutex_template())
///     .at_sizes([100, 1_000])
///     .formula("mutex", parse_state("AG !crit_ge2")?);
/// assert_eq!(job.sizes, vec![100, 1_000]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyJob {
    /// The symmetric family's template.
    pub template: GuardedTemplate,
    /// The counting-atom labeling; `None` means
    /// [`CountingSpec::standard`] for the template.
    pub spec: Option<CountingSpec>,
    /// The family sizes to check at, in order.
    pub sizes: Vec<u32>,
    /// An *unbounded* size request: `Some(lo)` asks for the verdict of
    /// every formula at **every** `n ≥ lo`. No proven cutoff exists yet,
    /// so the service answers it with one [`SymError::NoProvenCutoff`]
    /// verdict per formula at `n = lo`, after the explicit `sizes`.
    /// Bounded sizes listed in `sizes` are checked directly.
    pub all_from: Option<u32>,
    /// `(name, formula)` pairs, each checked at every size.
    pub formulas: Vec<(String, StateFormula)>,
}

impl VerifyJob {
    /// A job for `template` with no sizes or formulas yet.
    pub fn new(template: GuardedTemplate) -> Self {
        VerifyJob {
            template,
            spec: None,
            sizes: Vec::new(),
            all_from: None,
            formulas: Vec::new(),
        }
    }

    /// Replaces the default ([`CountingSpec::standard`]) labeling.
    pub fn with_spec(mut self, spec: CountingSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Adds one family size.
    pub fn at_size(mut self, n: u32) -> Self {
        self.sizes.push(n);
        self
    }

    /// Adds several family sizes.
    pub fn at_sizes(mut self, ns: impl IntoIterator<Item = u32>) -> Self {
        self.sizes.extend(ns);
        self
    }

    /// Requests verdicts for **all** sizes `n ≥ lo` (see
    /// [`VerifyJob::all_from`]).
    pub fn all_sizes_from(mut self, lo: u32) -> Self {
        self.all_from = Some(lo);
        self
    }

    /// Adds one named formula.
    pub fn formula(mut self, name: impl Into<String>, f: StateFormula) -> Self {
        self.formulas.push((name.into(), f));
        self
    }

    /// Adds many named formulas at once.
    pub fn formulas_from(
        mut self,
        formulas: impl IntoIterator<Item = (String, StateFormula)>,
    ) -> Self {
        self.formulas.extend(formulas);
        self
    }
}

/// The verdict of one formula at one family size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobVerdict {
    /// The formula's name, as submitted.
    pub name: String,
    /// The family size this verdict is for.
    pub n: u32,
    /// Whether the formula holds — or why it could not be checked.
    pub result: Result<bool, SymError>,
    /// Distinguished copies the representative construction tracked for
    /// this check (the formula's quantifier nesting depth, capped at
    /// `n`); `0` when the counter structure answered it, or on error.
    pub rep_width: u32,
    /// Whether the check's path quantifiers ranged over *weakly fair*
    /// paths only — true exactly when the job's template declares
    /// fairness constraints
    /// ([`GuardedTemplate::is_fair`]) and the check
    /// succeeded; `false` on error.
    pub fair: bool,
}

/// Everything the service has to say about one finished [`VerifyJob`]:
/// one [`JobVerdict`] per `(size, formula)` pair, in size-major order
/// (all formulas at `sizes[0]`, then all at `sizes[1]`, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictReport {
    /// The id assigned at submission (also on the matching
    /// [`JobHandle`](crate::JobHandle)).
    pub job_id: u64,
    /// The verdicts, size-major.
    pub verdicts: Vec<JobVerdict>,
}

impl VerdictReport {
    /// Whether every formula was checked successfully and holds.
    pub fn all_hold(&self) -> bool {
        self.verdicts.iter().all(|v| v.result == Ok(true))
    }

    /// The verdicts for one family size.
    pub fn at_size(&self, n: u32) -> impl Iterator<Item = &JobVerdict> {
        self.verdicts.iter().filter(move |v| v.n == n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_logic::parse_state;
    use icstar_sym::mutex_template;

    #[test]
    fn builder_accumulates() {
        let job = VerifyJob::new(mutex_template())
            .at_size(5)
            .at_sizes([10, 20])
            .formula("a", parse_state("AG !crit_ge2").unwrap())
            .formula("b", parse_state("EF try_ge1").unwrap());
        assert_eq!(job.sizes, vec![5, 10, 20]);
        assert_eq!(job.formulas.len(), 2);
        assert!(job.spec.is_none());
    }

    #[test]
    fn report_helpers() {
        let report = VerdictReport {
            job_id: 7,
            verdicts: vec![
                JobVerdict {
                    name: "a".into(),
                    n: 2,
                    result: Ok(true),
                    rep_width: 0,
                    fair: false,
                },
                JobVerdict {
                    name: "a".into(),
                    n: 3,
                    result: Ok(false),
                    rep_width: 1,
                    fair: true,
                },
            ],
        };
        assert!(!report.all_hold());
        assert_eq!(report.at_size(3).count(), 1);
        assert_eq!(report.at_size(9).count(), 0);
    }
}
