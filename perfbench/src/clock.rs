//! Host-normalised time.
//!
//! On a shared host, co-tenants slow whole stretches of a run, by up to
//! 1.7× for seconds at a time on the 2-vCPU hosts the benchmark was tuned
//! on, and a run-to-run spread that wide hides any change to the program.
//! So the benchmark times a fixed reference computation of its own between
//! operations and reports end-to-end durations in host-normalised seconds:
//! wall-clock seconds scaled by `REFERENCE_SECONDS / r`, where `r` is the
//! median of the reference samples nearest the operation. The reference is
//! the benchmark's code, not the program's, and runs while no operation is
//! in flight, so only the host moves it (and threads the program might
//! leave running between operations, which it does not today).
//!
//! The reference is too short to see the other kind of interference: the
//! hypervisor descheduling a vCPU for milliseconds at a time ("steal",
//! 0–20% of busy time per run on those hosts). That is read from the
//! kernel's own count in `/proc/stat` at every reference sample, and each
//! duration is further scaled by `1 − s`, with `s` the stolen share of
//! busy CPU time across the `STEAL_NEAREST` samples around it.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The reference's time on an uncontended host of the kind the benchmark
/// was tuned on (a 2-vCPU Xeon VM): normalised figures read as wall-clock
/// figures on that host when nothing else runs on it.
pub const REFERENCE_SECONDS: f64 = 60e-6;
/// Reference samples whose median normalises one operation.
const NEAREST: usize = 9;
/// Samples spanned by the steal share that normalises one operation: more
/// than `NEAREST`, because `/proc/stat` counts in 10 ms ticks.
const STEAL_NEAREST: usize = 33;
/// Window-clock seconds between reference samples, at least.
const SAMPLE_EVERY: f64 = 0.01;
/// Order of the reference's matrix product.
const N: usize = 64;

/// The reference: a 64×64 matrix product in plain loops (~0.5 MFLOP, in
/// L1), compiled with the benchmark.
pub struct Reference {
    a: Vec<f64>,
    c: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            a: (0..N * N).map(|i| (i % 7) as f64 * 0.125).collect(),
            c: vec![0.0; N * N],
        }
    }
}

impl Reference {
    /// Runs the reference twice and returns the seconds of the second run:
    /// the first brings its operands back into cache.
    pub fn sample(&mut self) -> f64 {
        self.product();
        let t = Instant::now();
        self.product();
        t.elapsed().as_secs_f64()
    }

    fn product(&mut self) {
        let a = black_box(&self.a);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for (c, &b) in self.c[i * N..(i + 1) * N].iter_mut().zip(&a[k * N..(k + 1) * N]) {
                    *c += aik * b;
                }
            }
        }
        black_box(&mut self.c);
    }

    /// Median of three samples: the host's speed right now, in seconds.
    pub fn now(&mut self) -> f64 {
        median(&[self.sample(), self.sample(), self.sample()])
    }
}

/// What a workload's durations are scaled by.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub enum Scaling {
    /// The reference and steal: for short, cache-resident operations,
    /// which co-tenants slow the way they slow the reference.
    #[default]
    ReferenceAndSteal,
    /// Steal only: for long operations on large operands, which the
    /// cache-resident reference does not track.
    Steal,
}

/// Runs `f` and returns its result and its seconds, scaled by the
/// reference's speed right before and after where `scaling` asks for it
/// (steal is left to the caller).
pub fn normalised<T>(reference: &mut Reference, scaling: Scaling, f: impl FnOnce() -> T) -> (T, f64) {
    if scaling == Scaling::Steal {
        let t = Instant::now();
        let made = f();
        return (made, t.elapsed().as_secs_f64());
    }
    let before = reference.now();
    let t = Instant::now();
    let made = f();
    let seconds = t.elapsed().as_secs_f64();
    let r = 0.5 * (before + reference.now());
    (made, seconds * REFERENCE_SECONDS / r)
}

/// The operations of a timed window in completion order, with the
/// reference samples taken between them.
#[derive(Default)]
pub struct Timeline {
    /// Wall-clock seconds of each operation, client side.
    pub latencies: Vec<f64>,
    /// Window-clock time at which each operation completed (the clock
    /// stops while results are checked).
    pub ends: Vec<f64>,
    /// Reference samples: operations completed when taken, and seconds.
    samples: Vec<Sample>,
    reference: Reference,
    scaling: Scaling,
}

/// One reference sample: operations completed when it was taken, the
/// reference's seconds, and the host's CPU ticks.
#[derive(Clone, Copy)]
struct Sample {
    ops: usize,
    seconds: f64,
    ticks: Option<Ticks>,
}

/// The host's CPU-time counters, summed over its CPUs, in clock ticks.
#[derive(Clone, Copy, Default)]
pub struct Ticks {
    steal: u64,
    busy: u64,
}

impl Ticks {
    /// Reads `/proc/stat`; `None` where it is not available.
    pub fn now() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal ...
        let at = |k: usize| fields.get(k).copied().unwrap_or(0);
        Some(Ticks {
            steal: at(7),
            busy: at(0) + at(1) + at(2) + at(5) + at(6) + at(7),
        })
    }

    /// Share of busy CPU time the hypervisor took away between `self` and
    /// `later`.
    pub fn steal_share(self, later: Ticks) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        if busy == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / busy as f64
        }
    }
}

/// A timeline in host-normalised seconds.
pub struct Normalised {
    pub latencies: Vec<f64>,
    /// From the window's start to the last completion.
    pub window: f64,
    /// Median over operations of `r / REFERENCE_SECONDS`: how much slower
    /// than uncontended the host ran.
    pub slowdown: f64,
    /// Share of busy CPU time stolen by the hypervisor over the window.
    pub steal: f64,
}

impl Timeline {
    pub fn new(scaling: Scaling) -> Timeline {
        Timeline {
            scaling,
            ..Timeline::default()
        }
    }

    pub fn push(&mut self, latency: f64, end: f64) {
        self.latencies.push(latency);
        self.ends.push(end);
    }

    pub fn len(&self) -> usize {
        self.latencies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.latencies.is_empty()
    }

    /// Takes a reading (the reference, if the scaling uses it, and the CPU
    /// ticks) if none was taken in the last `SAMPLE_EVERY` seconds of the
    /// window. Call only between operations, with none in flight.
    pub fn between_ops(&mut self) {
        let now = self.ends.last().copied().unwrap_or(0.0);
        let due = self
            .samples
            .last()
            .is_none_or(|s| s.ops < self.len() && now - self.end_at(s.ops) >= SAMPLE_EVERY);
        if due {
            let seconds = match self.scaling {
                Scaling::ReferenceAndSteal => self.reference.now(),
                Scaling::Steal => REFERENCE_SECONDS,
            };
            self.samples.push(Sample {
                ops: self.len(),
                seconds,
                ticks: Ticks::now(),
            });
        }
    }

    fn end_at(&self, ops: usize) -> f64 {
        if ops == 0 {
            0.0
        } else {
            self.ends[ops - 1]
        }
    }

    /// Scales every operation by `REFERENCE_SECONDS / r`, with `r` the
    /// median of the `NEAREST` reference samples around it, and by `1 − s`,
    /// with `s` the steal share across the `STEAL_NEAREST` samples around
    /// it.
    pub fn normalised(&self) -> Normalised {
        let s = &self.samples;
        let span = |c: usize, width: usize| {
            let lo = c.saturating_sub(width / 2);
            let hi = (lo + width).min(s.len());
            (hi.saturating_sub(width), hi)
        };
        let stolen = |lo: usize, hi: usize| match (s[lo].ticks, s[hi - 1].ticks) {
            (Some(a), Some(b)) => a.steal_share(b),
            _ => 0.0,
        };
        // Reference time and steal share around each sample.
        let around: Vec<(f64, f64)> = (0..s.len())
            .map(|c| {
                let (lo, hi) = span(c, NEAREST);
                let r = median(&s[lo..hi].iter().map(|x| x.seconds).collect::<Vec<_>>());
                let (lo, hi) = span(c, STEAL_NEAREST);
                (r, stolen(lo, hi))
            })
            .collect();
        let mut out = Normalised {
            latencies: Vec::with_capacity(self.len()),
            window: 0.0,
            slowdown: 1.0,
            steal: if s.is_empty() { 0.0 } else { stolen(0, s.len()) },
        };
        let mut factors = Vec::with_capacity(self.len());
        let mut c = 0;
        let mut prev_end = 0.0;
        for (i, (&latency, &end)) in self.latencies.iter().zip(&self.ends).enumerate() {
            // The last sample taken before operation `i` started.
            while c + 1 < s.len() && s[c + 1].ops <= i {
                c += 1;
            }
            let (r, steal) = around.get(c).copied().unwrap_or((REFERENCE_SECONDS, 0.0));
            let scale = REFERENCE_SECONDS / r * (1.0 - steal);
            out.latencies.push(latency * scale);
            out.window += (end - prev_end) * scale;
            prev_end = end;
            factors.push(r / REFERENCE_SECONDS);
        }
        if !factors.is_empty() {
            out.slowdown = median(&factors);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(samples: &[(usize, f64)], ops: usize) -> Timeline {
        let mut t = Timeline::default();
        for k in 1..=ops {
            t.push(0.5, k as f64 * 0.5);
        }
        t.samples = samples
            .iter()
            .map(|&(ops, seconds)| Sample {
                ops,
                seconds,
                ticks: None,
            })
            .collect();
        t
    }

    #[test]
    fn a_steady_host_scales_every_operation_alike() {
        let t = timeline(&[(0, 2.0 * REFERENCE_SECONDS), (2, 2.0 * REFERENCE_SECONDS)], 4);
        let n = t.normalised();
        assert_eq!(n.latencies, vec![0.25; 4]);
        assert_eq!((n.window, n.slowdown), (1.0, 2.0));
    }

    #[test]
    fn each_operation_takes_the_median_of_its_nearest_samples() {
        let r = REFERENCE_SECONDS;
        let samples: Vec<(usize, f64)> = (0..20).map(|k| (k, if k < 10 { r } else { 2.0 * r })).collect();
        let n = timeline(&samples, 20).normalised();
        assert_eq!(n.latencies[0], 0.5);
        assert_eq!(n.latencies[19], 0.25);
    }

    #[test]
    fn stolen_time_is_taken_out() {
        let mut t = timeline(&[(0, REFERENCE_SECONDS), (2, REFERENCE_SECONDS)], 4);
        t.samples[0].ticks = Some(Ticks { steal: 10, busy: 100 });
        t.samples[1].ticks = Some(Ticks { steal: 30, busy: 200 });
        let n = t.normalised();
        assert_eq!((n.latencies[0], n.steal), (0.4, 0.2));
    }

    #[test]
    fn an_unsampled_timeline_is_left_as_measured() {
        let n = timeline(&[], 3).normalised();
        assert_eq!((n.latencies, n.window), (vec![0.5; 3], 1.5));
    }

    #[test]
    fn samples_are_taken_between_operations_at_most_every_interval() {
        let mut t = Timeline::default();
        t.between_ops();
        t.between_ops();
        t.push(0.001, 0.001);
        t.between_ops();
        t.push(0.02, 0.021);
        t.between_ops();
        assert_eq!(t.samples.iter().map(|s| s.ops).collect::<Vec<_>>(), vec![0, 2]);
    }
}
