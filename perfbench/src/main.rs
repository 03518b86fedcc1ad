//! Closed-loop benchmark of the CA-CQR2 workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <factor-1d|factor-ca|service-mix|stream-window> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is driven from one submitting thread through the public
//! API, with inputs generated from `--seed` before the timed window. With
//! `--trace 0` the run prints the end-to-end metrics, their times in
//! host-normalised seconds (see `clock`); with `--trace 1` it
//! prints the per-layer metrics, timed by this benchmark around its own
//! calls into each layer. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod clock;
mod factor;
mod layers;
mod service;
mod stats;
mod stream;

use clock::Timeline;
use stats::Metrics;
use std::time::Instant;

/// Kernel and service thread budget every run is pinned to.
pub const THREADS: usize = 2;

/// The parsed command line.
#[derive(Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Factor1d,
    FactorCa,
    ServiceMix,
    StreamWindow,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        Ok(match s {
            "factor-1d" => Workload::Factor1d,
            "factor-ca" => Workload::FactorCa,
            "service-mix" => Workload::ServiceMix,
            "stream-window" => Workload::StreamWindow,
            other => return Err(format!("unknown workload {other:?}")),
        })
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Makes the run independent of the caller's environment: refuses fault
/// injection, drops every other `CACQR_*` variable and pins the kernel
/// thread budget. Must run before the first library call, because the
/// library reads these variables once per process.
fn hermetic_env() -> Result<(), String> {
    if std::env::var_os("CACQR_FAULTS").is_some() {
        return Err("CACQR_FAULTS is set; refusing to benchmark with fault injection".into());
    }
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("CACQR_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    std::env::set_var("CACQR_THREADS", THREADS.to_string());
    Ok(())
}

/// Failure tally of a run: operations attempted, operations that returned
/// `Err`, and operations whose output failed the benchmark's own check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub wrong: u64,
    /// Exact-count mismatches; any one fails the run.
    pub violations: Vec<String>,
    messages: Vec<String>,
}

impl Tally {
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.errors += 1;
        self.note(format!("error: {what}"));
    }

    pub fn wrong(&mut self, what: impl std::fmt::Display) {
        self.wrong += 1;
        self.note(format!("wrong: {what}"));
    }

    pub fn violation(&mut self, what: impl std::fmt::Display) {
        self.violations.push(what.to_string());
    }

    /// Records the outcome of one checked operation.
    pub fn checked(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.wrong(e);
        }
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// What a workload hands back to the reporter.
pub struct Outcome {
    /// Seconds of each repeated set-up.
    pub setups: Vec<f64>,
    /// The timed operations of the untraced loop.
    pub timeline: Timeline,
    /// Wall-clock seconds the timed window was open.
    pub window: f64,
    /// When the first timed operation started.
    pub started: Instant,
    /// Tail percentile the workload reports at its run length.
    pub tail_level: f64,
    /// `VmHWM` read by the workload at a fixed point of its run, if it
    /// reads one; otherwise it is read at the end of the run.
    pub rss_mb: Option<f64>,
    pub tally: Tally,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

/// Runs `setup` at least three times and until three seconds have passed (at
/// most 200 times): `setup_s` is the median of these, in host-normalised
/// seconds. Returns each set-up's normalised seconds and the last set-up's
/// result; earlier results are dropped.
pub fn repeat_setup<T>(scaling: clock::Scaling, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut reference = clock::Reference::default();
    let mut times = Vec::new();
    let (start, ticks) = (Instant::now(), clock::Ticks::now());
    loop {
        let (made, seconds) = clock::normalised(&mut reference, scaling, &mut setup);
        times.push(seconds);
        if times.len() >= 200 || (times.len() >= 3 && start.elapsed().as_secs_f64() >= 3.0) {
            // Steal over all set-ups: one set-up spans too few clock ticks.
            let steal = ticks.zip(clock::Ticks::now()).map_or(0.0, |(a, b)| a.steal_share(b));
            return (times.iter().map(|t| t * (1.0 - steal)).collect(), made);
        }
    }
}

fn end_to_end(out: &Outcome, process_start: Instant) -> Metrics {
    let mut m = Metrics::default();
    let n = out.timeline.len();
    let norm = out.timeline.normalised();
    m.put_median("setup_s", &out.setups, 1.0, "s");
    m.put("ops_per_s", n as f64 / norm.window, "1/s", n);
    m.put_median("latency_p50_ms", &norm.latencies, 1e3, "ms");
    let tail = stats::tail(&norm.latencies, out.tail_level);
    m.put("latency_tail_ms", tail.value * 1e3, "ms", n);
    println!(
        "# timings are host-normalised: scaled by the reference at {:.3}x its quiet time (median over ops; \
         1 where the workload is scaled by steal only) and by {:.2}% stolen busy CPU time",
        norm.slowdown,
        norm.steal * 100.0
    );
    println!(
        "# latency_tail_ms is p{} of {n} samples ({} beyond it)",
        tail.level * 100.0,
        tail.beyond
    );
    let ladder = |v: &[f64]| -> String {
        [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 1.0]
            .iter()
            .map(|&q| format!("p{} {:.4}", q * 100.0, stats::quantile(v, q) * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("# latency percentiles (ms, normalised): {}", ladder(&norm.latencies));
    println!(
        "# latency percentiles (ms, wall clock): {}",
        ladder(&out.timeline.latencies)
    );
    println!(
        "# wall clock: {:.3} ops/s over {:.3} s",
        n as f64 / out.window,
        out.window
    );
    let attempted = out.tally.attempted.max(1) as f64;
    let error_rate = out.tally.failed() as f64 / attempted;
    println!(
        "# error_rate = {error_rate} ({} of {} ops)",
        out.tally.failed(),
        out.tally.attempted
    );
    m.put("success_rate", 1.0 - error_rate, "ratio", out.tally.attempted as usize);
    m.put("peak_rss_mb", out.rss_mb.unwrap_or_else(peak_rss_mb), "MB", 1);
    let started = out.started.duration_since(process_start).as_secs_f64();
    println!("# first timed op began {started:.3} s after process start");
    m
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

fn print_result(correct: bool, tally: &Tally, metrics: &Metrics) {
    for m in &metrics.0 {
        println!("# {} = {} {} (n = {})", m.name, m.value, m.unit, m.samples);
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed(),
        body.join(", ")
    );
}

fn main() {
    let process_start = Instant::now();
    let args = match hermetic_env().and_then(|()| parse_args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = layers::Host::probe();
    host.print();
    let out = match args.workload {
        Workload::Factor1d => factor::run(factor::FACTOR_1D, args, &host),
        Workload::FactorCa => factor::run(factor::FACTOR_CA, args, &host),
        Workload::ServiceMix => service::run(args, &host),
        Workload::StreamWindow => stream::run(args, &host),
    };
    for v in &out.tally.violations {
        println!("# VIOLATION: {v}");
    }
    for msg in &out.tally.messages {
        println!("# {msg}");
    }
    // A run that never reached its timed window has nothing to report.
    let ran = !out.timeline.is_empty();
    let correct = ran && out.tally.failed() == 0 && out.tally.violations.is_empty();
    let metrics = match (args.trace, ran) {
        (true, _) => out.layers,
        (false, true) => end_to_end(&out, process_start),
        (false, false) => Metrics::default(),
    };
    print_result(correct, &out.tally, &metrics);
}
