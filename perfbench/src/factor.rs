//! `factor-1d` and `factor-ca`: repeated `QrPlan::factor` calls on one warm
//! plan, from one thread, on well-conditioned inputs.

use crate::clock::{Scaling, Timeline};
use crate::layers::{self, Host, Shape};
use crate::stats::{median, Metrics};
use crate::{check, repeat_setup, Args, Outcome, Tally};
use cacqr::{Algorithm, QrPlan};
use dense::Matrix;
use std::sync::Arc;
use std::time::Instant;

/// A factor workload: its shape and the tail percentile it reports.
#[derive(Clone, Copy)]
pub struct FactorWorkload {
    pub shape: Shape,
    pub tail_level: f64,
}

/// 1D-CQR2, 8192×128 on P = 2: the facade's diagnostics and the kernels
/// dominate; collectives move 4 messages per rank.
pub const FACTOR_1D: FactorWorkload = FactorWorkload {
    shape: Shape::one_d(8192, 128, 2),
    tail_level: 0.8,
};

/// CA-CQR2, 1024×256 on the 2×2×2 grid (P = 8): CFR3D, MM3D and the
/// subcube collectives carry the SPMD region.
pub const FACTOR_CA: FactorWorkload = FactorWorkload {
    shape: Shape {
        m: 1024,
        n: 256,
        algorithm: Algorithm::CaCqr2,
        c: 2,
        d: 2,
    },
    tail_level: 0.8,
};

/// Durations are scaled by steal only. The reference did not steady these
/// workloads: over sets of ten runs it widened factor-1d's spread from 6%
/// to 11% and left factor-ca's spread (6–14%) and its shift between sets
/// (13%) as they were without it.
const SCALING: Scaling = Scaling::Steal;

/// Distinct inputs the loop draws from.
const INPUTS: usize = 4;

/// Per-loop results.
struct Loop {
    timeline: Timeline,
    regions: Vec<f64>,
    window: f64,
}

/// Factors seeded picks from `inputs` until `seconds` of factor time have
/// passed, checking every result outside the timed window.
fn factor_loop(
    plan: &QrPlan,
    inputs: &[Matrix],
    counts: check::Counts,
    seconds: f64,
    seed: u64,
    tally: &mut Tally,
) -> Loop {
    let mut rng = dense::random::SeededRng::seed_from_u64(seed);
    let mut out = Loop {
        timeline: Timeline::new(SCALING),
        regions: Vec::new(),
        window: 0.0,
    };
    while out.window < seconds {
        out.timeline.between_ops();
        let a = &inputs[(rng.next_u64() % inputs.len() as u64) as usize];
        let t = Instant::now();
        let result = plan.factor(a);
        let dt = t.elapsed().as_secs_f64();
        out.window += dt;
        out.timeline.push(dt, out.window);
        tally.attempted += 1;
        match result {
            Ok(report) => {
                out.regions.push(report.wall_seconds);
                let got = check::Counts::of(&report.ledgers);
                if got != counts {
                    tally.violation(format!("ledger counts {got:?} differ from the set-up's {counts:?}"));
                }
                tally.checked(check::factors(a, &report.q, &report.r));
            }
            Err(e) => tally.error(e),
        }
    }
    out
}

pub fn run(w: FactorWorkload, args: Args, host: &Host) -> Outcome {
    let s = w.shape;
    let mut tally = Tally::default();
    let inputs: Vec<Matrix> = (0..INPUTS as u64)
        .map(|i| dense::random::well_conditioned(s.m, s.n, args.seed.wrapping_mul(1000).wrapping_add(i)))
        .collect();
    // Exact counts against the cost model, once per run, before set-up.
    let counts = match check::exact_counts(&inputs[0], s.algorithm, s.grid()) {
        Ok(c) => c,
        Err(e) => {
            tally.violation(e);
            check::Counts::of(&[])
        }
    };
    let (setups, plan) = repeat_setup(SCALING, || {
        let plan = s.plan();
        if let Err(e) = plan.warm_up(&inputs[0]) {
            tally.error(e);
        }
        plan
    });
    let allocs = plan.workspace().heap_allocations();
    let started = Instant::now();
    let loop_seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = factor_loop(&plan, &inputs, counts, loop_seconds, args.seed, &mut tally);
    let steady = plan.workspace().heap_allocations() - allocs;
    if steady != 0 {
        tally.violation(format!("{steady} arena allocations after warm_up"));
    }
    let mut layers = Metrics::default();
    if args.trace {
        let traced = factor_loop(&plan, &inputs, counts, loop_seconds, args.seed ^ 1, &mut tally);
        let rate = |l: &Loop| l.timeline.len() as f64 / l.window;
        layers.put(
            "trace.overhead_share",
            1.0 - rate(&traced) / rate(&untraced),
            "ratio",
            traced.timeline.len(),
        );
        host.put(&mut layers);
        layers.put("plan.arena_allocs_steady", steady as f64, "count", 1);
        layers.put("coll.words_max", counts.words_max as f64, "words", 1);
        layers.put("coll.msgs_max", counts.msgs_max as f64, "count", 1);
        layers::plan_layer(&s, &plan, &inputs[0], 5, &mut layers, &mut tally);
        let region = (!traced.regions.is_empty()).then(|| median(&traced.regions));
        layers::algo_layer(&s, &inputs[0], 5, host, region, &mut layers, &mut tally);
        layers::kern_layer(&s, args.seed, &mut layers);
        layers::escalation_layer(args.seed, &mut layers, &mut tally);
        let shared = Arc::new(inputs[0].clone());
        layers::service_probe(&s, &shared, 4, &mut layers, &mut tally);
        layers::stream_probe(&plan, &inputs[1], args.seed, 16, &mut layers, &mut tally);
    }
    Outcome {
        setups,
        timeline: untraced.timeline,
        window: untraced.window,
        started,
        tail_level: w.tail_level,
        rss_mb: None,
        tally,
        layers,
    }
}
