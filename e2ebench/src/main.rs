//! End-to-end `SUBMIT → RESULT` benchmark of the icstar wire server.
//!
//! ```text
//! e2ebench --workload <cold-build|liveness-check|warm-serve> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Starts an in-process `WireServer` on loopback, drives the seeded job
//! stream as a closed loop over two connections, audits every verdict
//! against the gallery, reconciles the server's own ledger with what the
//! generator predicts, and prints every metric with its unit. The last
//! line of standard output is one JSON object. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced mode of `layers.rs`
//! and reports the per-layer split. See README.md.

mod client;
mod drive;
mod gallery;
mod layers;
mod workload;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::AtomicUsize;
use std::time::Duration;

use icstar_serve::ServeConfig;

use drive::{Ledger, LoopOut};
use workload::Workload;

/// Set-ups per untraced run, `setup_s` being their median: at least
/// `SETUP_MIN`, and more while they total under `SETUP_TOTAL_S`, up to
/// `SETUP_MAX`, so short set-ups are timed often enough to be steady.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 40;
const SETUP_TOTAL_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: name, value, unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The outcome of one run, printed as the final JSON line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload::build(&args.workload, args.seed, args.seconds) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {} connections {} cores {}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        drive::CONNECTIONS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = if args.trace {
        layers::run(&wl, args.seconds as f64)
    } else {
        run(&wl, args.seconds as f64)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!("{}", to_json(&outcome));
}

/// The untraced run: the end-to-end metrics.
fn run(wl: &Workload, seconds: f64) -> Result<Outcome, String> {
    let (mut srv, took) = drive::start(wl)?;
    let before = Ledger::read(&mut srv.control)?;
    let cpu_before = cpu_seconds()?;
    let out = drive::tcp_loop(wl, &mut srv.conns, &AtomicUsize::new(0), seconds, false);
    let cpu = cpu_seconds()? - cpu_before;
    let after = Ledger::read(&mut srv.control)?;
    let peak_rss = peak_rss_mb()?;
    drop(srv);
    // More set-ups, each on a fresh server once the previous one is shut
    // down, only to time them; they run after the peak is read so their
    // allocations cannot raise it.
    let mut setups = vec![took.as_secs_f64()];
    while setups.len() < SETUP_MIN
        || (setups.len() < SETUP_MAX && setups.iter().sum::<f64>() < SETUP_TOTAL_S)
    {
        setups.push(drive::start(wl)?.1.as_secs_f64());
    }

    let mut checks = check_window(wl, &out, &before, &after);
    let attempted = out.samples.len() as u64;
    let failed = out.samples.iter().filter(|s| s.error.is_some()).count() as u64;
    for s in out.samples.iter().filter(|s| s.error.is_some()).take(5) {
        checks.push(format!("job {}: {}", s.k, s.error.as_deref().unwrap_or("")));
    }
    input_properties(wl, &out, &after);
    let mut lat: Vec<f64> = out.samples.iter().map(|s| ms(s.latency)).collect();
    lat.sort_by(f64::total_cmp);
    let (p90, cycles) = p90_ms(wl, &out.samples, &lat);
    let above_p90 = lat.iter().filter(|&&l| l > p90).count();
    println!(
        "samples {} window_s {:.3} whole_run_p90_ms {:.4} p90_over_cycles {cycles} above_p90 {above_p90}{} setups_s {:.4?}",
        lat.len(),
        out.window.as_secs_f64(),
        quantile(&lat, 0.9),
        if above_p90 < 10 {
            " (fewer than 10: p90 is not resolved, run longer)"
        } else {
            ""
        },
        setups,
    );
    for c in &checks {
        println!("CHECK FAILED: {c}");
    }
    let done = (attempted - failed) as f64;
    let metrics = vec![
        ("latency_p50_ms".into(), quantile(&lat, 0.5), "ms"),
        ("latency_p90_ms".into(), p90, "ms"),
        ("jobs_per_s".into(), done / out.window.as_secs_f64(), "1/s"),
        (
            "cpu_ms_per_job".into(),
            1e3 * cpu / attempted.max(1) as f64,
            "ms",
        ),
        ("ok_ratio".into(), done / attempted.max(1) as f64, "ratio"),
        ("peak_rss_mb".into(), peak_rss, "MB"),
        ("setup_s".into(), median(&setups), "s"),
    ];
    Ok(Outcome {
        correct: checks.is_empty() && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

/// The self-checks every run makes on its timed window: the stream did
/// not run dry and the server's ledger matches the generator.
pub fn check_window(wl: &Workload, out: &LoopOut, before: &Ledger, after: &Ledger) -> Vec<String> {
    let mut checks = Vec::new();
    if out.exhausted {
        checks.push("the job stream ran out before the deadline".into());
    }
    let jobs: Vec<_> = out
        .samples
        .iter()
        .map(|s| wl.job(s.k).expect("sampled jobs exist"))
        .collect();
    checks.extend(drive::reconcile(wl, &jobs, before, after));
    checks
}

/// Prints the input properties of the jobs a window ran: the share at
/// or above the sharded-exploration threshold, the share of cache keys
/// and of (structure, formula) checks seen before (set-up included), and
/// the abstract states the server materialized for the workload.
pub fn input_properties(wl: &Workload, out: &LoopOut, after: &Ledger) {
    let threshold = ServeConfig::default().sharded_threshold;
    let mut keys = HashSet::new();
    let mut checks = HashSet::new();
    for j in &wl.setup {
        keys.extend(j.lookups().iter().map(|&w| j.key(w)));
        checks.extend(j.checks.iter().map(|c| (j.key(c.width), c.src)));
    }
    let (mut big, mut lookups, mut key_repeats, mut formulas, mut check_repeats) = (0, 0, 0, 0, 0);
    for s in &out.samples {
        let j = wl.job(s.k).expect("sampled jobs exist");
        big += usize::from(j.n >= threshold);
        for w in j.lookups() {
            lookups += 1;
            key_repeats += usize::from(!keys.insert(j.key(w)));
        }
        for c in &j.checks {
            formulas += 1;
            check_repeats += usize::from(!checks.insert((j.key(c.width), c.src)));
        }
    }
    let share = |a: usize, b: usize| a as f64 / b.max(1) as f64;
    println!(
        "input: jobs {} at_or_above_sharded_threshold({threshold}) {:.4} repeated_cache_keys {:.4} \
         repeated_structure_formula {:.4} abstract_states_materialized {}",
        out.samples.len(),
        share(big, out.samples.len()),
        share(key_repeats, lookups),
        share(check_repeats, formulas),
        after.stats.cached_abstract_states + after.stats.evicted_abstract_states,
    );
}

/// `latency_p90_ms` and the number of cycles it is the median over (0:
/// the whole run's p90). On a workload replayed in balanced cycles it is
/// the median, over the run's complete cycles, of each cycle's p90. Each
/// cycle holds every arena job once, so its p90 interpolates between the
/// same two jobs every time and follows the host's speed one for one.
/// The whole run's p90 falls in the lower tail of one job type, which a
/// faster or slower host moves about twice as far as the jobs' medians.
/// `sorted` holds the whole run's latencies in order.
fn p90_ms(wl: &Workload, samples: &[drive::Sample], sorted: &[f64]) -> (f64, usize) {
    // Samples are sorted by stream position; the last cycle is cut by
    // the deadline.
    let per_cycle: Vec<f64> = match wl.cycle_len() {
        None => Vec::new(),
        Some(len) => samples
            .chunk_by(|a, b| a.k / len == b.k / len)
            .filter(|c| c.len() == len)
            .map(|c| {
                let mut lat: Vec<f64> = c.iter().map(|s| ms(s.latency)).collect();
                lat.sort_by(f64::total_cmp);
                quantile(&lat, 0.9)
            })
            .collect(),
    };
    if per_cycle.is_empty() {
        return (quantile(sorted, 0.9), 0);
    }
    (median(&per_cycle), per_cycle.len())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of sorted values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (clock ticks of 1/100 s).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn to_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    s.push_str("}}");
    s
}
