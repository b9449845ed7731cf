//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <solve_multiroot|session_amend|serve_small>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run sets the workload up several times (reporting the median
//! set-up time), then drives the public API in a closed loop for
//! `--seconds`, checking every output outside the timed region. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced ops for `--seconds` and reports the
//! per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! process exits non-zero when any op failed or any check did not hold.
//! `--smoke` runs a few ops only (the benchmark's own tests use it).
//! See `README.md` beside this crate for the workloads and metrics.

mod check;
mod layers;
mod multiroot;
mod serve;
mod session;
mod spans;
mod stats;

use layers::{Metrics, PER_LAYER};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;
/// Fewest measured ops in a non-smoke phase, whatever `--seconds` says.
const MIN_SAMPLES: u64 = 200;
/// Ops per phase in smoke mode.
const SMOKE_OPS: u64 = 4;
/// Hard cap on one run's wall time.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const WORKLOADS: &[&str] = &["solve_multiroot", "session_amend", "serve_small"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds {s} outside (0, 120]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
        }
        Ok(Opts {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

/// When a measured phase stops: at its deadline, but never before
/// `min_ops` and never after `max_ops` ops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    end: Instant,
    min_ops: u64,
    max_ops: u64,
}

impl Budget {
    pub fn new(seconds: f64, smoke: bool) -> Budget {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        if smoke {
            Budget { end, min_ops: SMOKE_OPS, max_ops: SMOKE_OPS }
        } else {
            Budget { end, min_ops: MIN_SAMPLES, max_ops: u64::MAX }
        }
    }

    /// Whether another op should start after `done` ops.
    pub fn more(&self, done: u64) -> bool {
        done < self.max_ops && (done < self.min_ops || Instant::now() < self.end)
    }
}

/// The ops of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    latencies_ms: Vec<f64>,
    /// Closed-loop callers that ran the ops concurrently (0 counts as 1).
    callers: usize,
    /// Summed active slots of the checked outputs.
    slots: u64,
    failures: Vec<String>,
}

impl Phase {
    /// Record one op on input `input` that took `dt`.
    pub fn record(&mut self, input: u64, dt: Duration, checked: Result<usize, String>) {
        self.attempted += 1;
        self.latencies_ms.push(dt.as_secs_f64() * 1e3);
        match checked {
            Ok(slots) => self.slots += slots as u64,
            Err(e) => {
                self.failed += 1;
                self.note(format!("input {input}: {e}"));
            }
        }
    }

    /// A failure outside any single op (counted as one failed op).
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(msg);
    }

    fn note(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }

    pub fn set_callers(&mut self, callers: usize) {
        self.callers = callers;
    }

    /// Completed ops per second of time spent inside ops: each caller is
    /// taken as busy for its share of the summed latencies, so input
    /// generation and checks between ops are left out.
    pub fn ops_per_s(&self) -> f64 {
        let callers = self.callers.max(1) as f64;
        stats::ratio(self.completed() as f64 * callers, self.busy_s())
    }

    /// Fold `other`'s ops, outputs and failures into this phase.
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.slots += other.slots;
        for f in other.failures {
            self.note(f);
        }
    }
}

/// What a workload run hands back for reporting.
pub struct Report {
    pub setup_s: Vec<f64>,
    /// Every op of the run, traced ones included.
    pub phase: Phase,
    /// Per-layer metrics, from the traced ops.
    pub layers: Option<Metrics>,
}

impl Report {
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let phase = &self.phase;
        let lat = &phase.latencies_ms;
        vec![
            ("setup_s", stats::median(&self.setup_s).unwrap_or(0.0), "s"),
            ("ops_per_s", phase.ops_per_s(), "1/s"),
            ("latency_p50_ms", stats::percentile(lat, 50.0).unwrap_or(0.0), "ms"),
            ("latency_p95_ms", stats::percentile(lat, 95.0).unwrap_or(0.0), "ms"),
            (
                "active_slots_mean",
                stats::ratio(phase.slots as f64, phase.completed() as f64),
                "slots",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// Seed of input `i` of a workload's input stream `stream`.
pub fn input_seed(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ i)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small seeded generator for sampling and shuffling.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform-enough draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Abort the run: a set-up that cannot proceed.
pub fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

fn run(opts: &Opts) -> Report {
    match opts.workload.as_str() {
        "solve_multiroot" => multiroot::run(opts),
        "session_amend" => session::run(opts),
        "serve_small" => serve::run(opts),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// The result line and whether the run is correct.
fn result_line(report: &Report) -> (String, bool) {
    let metrics: Vec<(&str, f64, &str)> = match &report.layers {
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.0.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
        None => report.end_to_end(),
    };
    let phase = &report.phase;
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = phase.failed == 0 && phase.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    let line = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        phase.attempted,
        phase.failed,
        body.join(", ")
    );
    (line, correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
             [--smoke]",
            WORKLOADS.join("|")
        );
        std::process::exit(2)
    });
    // A run that overstays its limit (a hung connection, a stuck solve)
    // ends here instead of hanging its caller.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("perfbench: run exceeded {}s, aborting", RUN_LIMIT.as_secs());
        std::process::exit(3)
    });

    let report = run(&opts);
    let phase = &report.phase;
    eprintln!(
        "perfbench: {} seed {} trace {}: {} ops attempted, {} failed (failed_share {}), {} cores",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        phase.attempted,
        phase.failed,
        stats::ratio(phase.failed as f64, phase.attempted as f64),
        cores()
    );
    for f in &phase.failures {
        eprintln!("perfbench: failure: {f}");
    }
    let (line, correct) = result_line(&report);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Report {
        let opts = Opts { workload: workload.into(), seed: 7, seconds: 0.05, trace, smoke: true };
        run(&opts)
    }

    fn assert_smoke(workload: &str) {
        let untraced = smoke(workload, false);
        let (line, correct) = result_line(&untraced);
        assert!(correct, "{workload}: {line}");
        assert_eq!(untraced.phase.attempted, SMOKE_OPS);
        for (name, v, _) in untraced.end_to_end() {
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }

        let traced = smoke(workload, true);
        assert_eq!(traced.phase.failed, 0, "{workload}: {:?}", traced.phase.failures);
        let layers = traced.layers.expect("traced run reports layers");
        for (name, _) in PER_LAYER {
            let v = layers.0[*name];
            assert!(v.is_finite(), "{workload}: {name} = {v}");
        }
        let share = layers.0["unattributed_share"];
        assert!((0.0..=1.0).contains(&share), "{workload}: unattributed_share {share}");
    }

    #[test]
    fn smoke_solve_multiroot() {
        assert_smoke("solve_multiroot");
    }

    #[test]
    fn smoke_session_amend() {
        assert_smoke("session_amend");
    }

    #[test]
    fn smoke_serve_small() {
        assert_smoke("serve_small");
    }

    #[test]
    fn parse_requires_every_run_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            Opts::parse(&args("--workload serve_small --seed 3 --seconds 10 --trace 1")).unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 10.0 && !ok.smoke);
        assert!(Opts::parse(&args("--workload serve_small --seed 3 --seconds 10")).is_err());
        assert!(Opts::parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(
            Opts::parse(&args("--workload serve_small --seed 3 --seconds 10 --trace 2")).is_err()
        );
    }

    #[test]
    fn inputs_are_seeded() {
        assert_eq!(input_seed(1, 0, 5), input_seed(1, 0, 5));
        assert_ne!(input_seed(1, 0, 5), input_seed(2, 0, 5));
        assert_ne!(input_seed(1, 0, 5), input_seed(1, 1, 5));
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        assert_eq!((a.next_u64(), a.below(10)), (b.next_u64(), b.below(10)));
    }
}
