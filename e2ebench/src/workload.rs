//! Seeded job streams. Every job is generated as wire text before any
//! timing starts; the server only ever sees that text.

use icstar_logic::StateFormula;
use icstar_serve::VerifyJob;
use icstar_wire::{parse_job, print_job};

use crate::gallery::{self, depth, families, Class, Family};

/// One formula of a job, with the verdict the gallery expects for it.
#[derive(Clone)]
pub struct Check {
    pub name: String,
    pub src: &'static str,
    pub formula: StateFormula,
    pub class: Class,
    /// Representative width the service routes it through (0: counter).
    pub width: u32,
    pub expected: bool,
}

/// One `SUBMIT` payload: one family variant at one size.
#[derive(Clone)]
pub struct Job {
    pub family: usize,
    pub fair: bool,
    pub n: u32,
    pub text: String,
    /// The same job parsed back from `text`, for in-process replays.
    pub job: VerifyJob,
    pub checks: Vec<Check>,
}

impl Job {
    fn new(fams: &[Family], family: usize, fair: bool, n: u32, rows: &[&'static str]) -> Job {
        let fam = &fams[family];
        let mut job = VerifyJob::new(fam.template(fair).clone()).at_size(n);
        let mut checks = Vec::with_capacity(rows.len());
        for (i, &src) in rows.iter().enumerate() {
            let name = format!("f{i}");
            let formula = gallery::formula(src);
            let d = depth(src);
            let class = if fam.liveness.contains(&src) {
                Class::Liveness
            } else if d > 0 {
                Class::Indexed
            } else {
                Class::Safety
            };
            job = job.formula(name.clone(), formula.clone());
            checks.push(Check {
                name,
                src,
                formula,
                class,
                width: d.min(n),
                expected: fam.expected(fair, src),
            });
        }
        let text = print_job(&job);
        let job = parse_job(&text).expect("printed jobs parse back");
        Job {
            family,
            fair,
            n,
            text,
            job,
            checks,
        }
    }

    /// The structures the service fetches for this job, as widths
    /// (0 is the counter structure): the counter when any formula is
    /// quantifier-free, plus one representative per distinct width.
    pub fn lookups(&self) -> Vec<u32> {
        let mut widths: Vec<u32> = self.checks.iter().map(|c| c.width).collect();
        widths.sort_unstable();
        widths.dedup();
        widths
    }

    /// The cache key of one of this job's lookups.
    pub fn key(&self, width: u32) -> (usize, bool, u32, u32) {
        (self.family, self.fair, self.n, width)
    }
}

/// SplitMix64: a small, fixed generator so a seed means the same
/// stream on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1C57_A7B0_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A size in stratum `s` of `strata` equal log-width strata of
/// `[lo, hi]`, at relative position `u ∈ [0, 1)` inside the stratum.
fn stratified(lo: f64, hi: f64, s: usize, strata: usize, u: f64) -> u32 {
    let span = (hi / lo).ln();
    (lo * (span * (s as f64 + u) / strata as f64).exp()).round() as u32
}

/// Which arena job the k-th timed request sends.
enum Order {
    /// Job k, once each: no request repeats a structure.
    Sequential,
    /// Seeded permutations of the arena, one after another, so every
    /// prefix of the stream is close to balanced over the arena.
    Cycles(Vec<Vec<u32>>),
}

pub struct Workload {
    pub name: &'static str,
    pub families: Vec<Family>,
    /// Submitted during set-up, before the first timed request.
    pub setup: Vec<Job>,
    /// The jobs timed requests draw from.
    pub arena: Vec<Job>,
    order: Order,
    /// Whether every timed lookup is a cache miss (else every one hits).
    pub cold: bool,
}

impl Workload {
    /// The k-th timed job, `None` once a sequential stream runs out.
    pub fn job(&self, k: usize) -> Option<&Job> {
        match &self.order {
            Order::Sequential => self.arena.get(k),
            Order::Cycles(perms) => {
                let len = self.arena.len();
                let perm = &perms[(k / len) % perms.len()];
                Some(&self.arena[perm[k % len] as usize])
            }
        }
    }

    /// Stream positions per balanced cycle (each arena job once), or
    /// `None` for a sequential stream.
    pub fn cycle_len(&self) -> Option<usize> {
        match self.order {
            Order::Sequential => None,
            Order::Cycles(_) => Some(self.arena.len()),
        }
    }
}

pub const NAMES: [&str; 3] = ["cold-build", "liveness-check", "warm-serve"];

/// Builds the named workload from `seed`; `seconds` sizes the
/// sequential stream of `cold-build`.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let fams = families();
    let wl = match name {
        "cold-build" => cold_build(&fams, &mut rng, seconds),
        "liveness-check" => liveness_check(&fams, &mut rng),
        "warm-serve" => warm_serve(&fams, &mut rng),
        _ => return None,
    };
    let (setup, arena, order, cold) = wl;
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name).expect("known name"),
        families: fams,
        setup,
        arena,
        order,
        cold,
    })
}

type Parts = (Vec<Job>, Vec<Job>, Order, bool);

/// Largest size at which `cold-build` jobs also check the indexed rows.
pub const COLD_INDEXED_MAX: u32 = 10_000;

/// Fresh (family, n) pairs only, n log-uniform in [10³, 10⁵]. The range
/// is cut into 64 log-strata; a block of the stream visits them in
/// bit-reversed order (0, 32, 16, 48, …) and draws every family once per
/// stratum, in a fixed order. So any prefix of the stream spreads evenly
/// over families and sizes, and two seeds differ only by where in its
/// narrow stratum (a factor of 1.075) each size falls: they load the same
/// cost profile.
fn cold_build(fams: &[Family], rng: &mut Rng, seconds: u64) -> Parts {
    use gallery::{BARRIER, FIG41, MSI, MUTEX, WAKEUP};
    const STRATA: usize = 64;
    let pool = [FIG41, MUTEX, BARRIER, MSI, WAKEUP];
    let rows = |fam: &Family, n: u32| -> Vec<&'static str> {
        let mut rows = fam.safety.to_vec();
        if n <= COLD_INDEXED_MAX {
            rows.extend([fam.depth1, fam.depth2]);
        }
        rows
    };
    // Sizes below the timed range, so set-up shares no cache key with
    // the timed stream but runs every build and check path once, on
    // structures large enough that the builds, not the server's start,
    // set the set-up time.
    let setup = pool
        .iter()
        .enumerate()
        .map(|(i, &f)| Job::new(fams, f, false, 500 + i as u32, &rows(&fams[f], 500)))
        .collect();
    // Far more than a run completes at a few jobs per second.
    let want = 500 + 50 * seconds as usize;
    let mut seen = std::collections::HashSet::new();
    let mut arena = Vec::with_capacity(want);
    while arena.len() < want {
        for round in 0..STRATA {
            let s = (round as u32).reverse_bits() as usize >> (32 - STRATA.trailing_zeros());
            // A fixed family order, rotated each round: which jobs run
            // side by side on the two connections does not hang on the
            // seed.
            let mut families = pool;
            families.rotate_left(round % pool.len());
            for f in families {
                let n = loop {
                    let n = stratified(1e3, 1e5, s, STRATA, rng.unit());
                    if seen.insert((f, n)) {
                        break n;
                    }
                };
                arena.push(Job::new(fams, f, false, n, &rows(&fams[f], n)));
            }
        }
    }
    (setup, arena, Order::Sequential, true)
}

/// Four sizes per row in [lo, hi]: one per log-quartile, each within
/// the middle 4% of its quartile, so two seeds give different
/// structures of near-identical cost (on `liveness-check` the plain
/// mutex row's unfair check grows with n², and it sets the throughput).
fn row_sizes(rng: &mut Rng, lo: f64, hi: f64) -> [u32; 4] {
    std::array::from_fn(|s| stratified(lo, hi, s, 4, 0.48 + 0.04 * rng.unit()))
}

fn cycles(rng: &mut Rng, len: usize) -> Order {
    Order::Cycles(
        (0..64)
            .map(|_| {
                let mut p: Vec<u32> = (0..len as u32).collect();
                rng.shuffle(&mut p);
                p
            })
            .collect(),
    )
}

/// The twelve liveness rows (six fair variants, six plain originals)
/// at four sizes each in [2·10³, 10⁴]. Set-up builds the 48 structures
/// (plus the width-1 representatives the indexed rows need) with cheap
/// safety jobs; each timed job checks one row's liveness formulas at
/// one of its sizes.
fn liveness_check(fams: &[Family], rng: &mut Rng) -> Parts {
    let mut setup = Vec::new();
    let mut arena = Vec::new();
    for (f, fam) in fams.iter().enumerate() {
        for fair in [true, false] {
            let needs_rep = fam.liveness.iter().any(|src| depth(src) > 0);
            for n in row_sizes(rng, 2e3, 1e4) {
                let mut warm = vec![fam.safety[0]];
                if needs_rep {
                    warm.push(fam.depth1);
                }
                setup.push(Job::new(fams, f, fair, n, &warm));
                arena.push(Job::new(fams, f, fair, n, fam.liveness));
            }
        }
    }
    let order = cycles(rng, arena.len());
    (setup, arena, order, false)
}

/// A fixed pool of small jobs: all six families, plain and fair, at
/// four sizes each in [10, 500] (as [`row_sizes`] draws them), each job
/// checking the family's safety, liveness, depth-1 and depth-2 rows.
/// Set-up submits the pool once; the timed stream replays it.
fn warm_serve(fams: &[Family], rng: &mut Rng) -> Parts {
    let mut pool = Vec::new();
    for (f, fam) in fams.iter().enumerate() {
        let mut rows = fam.safety.to_vec();
        rows.extend(fam.liveness.iter().copied());
        rows.extend([fam.depth1, fam.depth2]);
        for fair in [false, true] {
            for n in row_sizes(rng, 10.0, 500.0) {
                pool.push(Job::new(fams, f, fair, n, &rows));
            }
        }
    }
    let setup = pool.clone();
    let order = cycles(rng, pool.len());
    (setup, pool, order, false)
}
