//! `stream-window`: a sliding-window least-squares problem on one
//! `StreamingQr`. One op appends 32 new rows, downdates the 32 oldest and
//! solves.

use crate::clock::{Scaling, Timeline};
use crate::layers::{self, Host, Shape, StreamTimes};
use crate::stats::Metrics;
use crate::{check, repeat_setup, Args, Outcome, Tally};
use cacqr::{QrPlan, StreamingQr};
use dense::{Matrix, Trans};
use std::sync::Arc;
use std::time::Instant;

const SHAPE: Shape = Shape::one_d(4096, 64, 1);
/// Rows appended and downdated per step.
const K: usize = 32;
/// Rows in the cyclic row pool the window slides over.
const POOL: usize = 4 * 4096;
/// Condition number of the row pool; high enough that drift-triggered
/// refreshes happen.
const KAPPA: f64 = 1e4;
/// Steps run during set-up so that arenas, history capacity and both
/// refresh paths are warm.
const WARM_STEPS: usize = 64;
/// Every this many steps the solution is checked against Householder.
const CHECK_EVERY: usize = 64;
/// Steps over which `stream.refreshes` is counted (exact for a seed).
const REFRESH_STEPS: usize = 1000;
/// Tail percentile: about 1% of steps pay a refresh through the plan, so
/// p99.5 sits inside those steps and away from the boundary at p99.
const TAIL_LEVEL: f64 = 0.995;

/// Seed of the fixed `n × n` mixing matrix with condition number `KAPPA`.
const MIXING_SEED: u64 = 0x5eed;

/// The seeded row pool and the rows' right-hand sides `b = A·x + noise`.
/// Global row `g` is pool row `g mod POOL`. The rows are `A = G·M` with
/// `G` seeded Gaussian and `M` one fixed matrix of condition `KAPPA`, so
/// every window has condition ≈ `KAPPA` whatever the seed, and the
/// drift-triggered refresh rate does not depend on the seed.
struct Rows {
    a: Matrix,
    b: Matrix,
}

impl Rows {
    fn new(seed: u64) -> Rows {
        let base = seed.wrapping_mul(1000);
        let mixing = dense::random::matrix_with_condition(SHAPE.n, SHAPE.n, KAPPA, MIXING_SEED);
        let g = dense::random::gaussian_matrix(POOL, SHAPE.n, base);
        let a = dense::matmul(g.as_ref(), Trans::No, mixing.as_ref(), Trans::No);
        let x = dense::random::gaussian_matrix(SHAPE.n, 1, base + 1);
        let mut b = dense::matmul(a.as_ref(), Trans::No, x.as_ref(), Trans::No);
        let noise = dense::random::gaussian_matrix(POOL, 1, base + 2);
        for i in 0..POOL {
            b.set(i, 0, b.get(i, 0) + 1e-3 * noise.get(i, 0));
        }
        Rows { a, b }
    }

    /// The `K` rows starting at global row `g` (a multiple of `K`).
    fn chunk(&self, g: usize) -> (dense::MatRef<'_>, dense::MatRef<'_>) {
        let at = g % POOL;
        (self.a.view(at, 0, K, SHAPE.n), self.b.view(at, 0, K, 1))
    }

    /// The window of `SHAPE.m` rows starting at global row `g`.
    fn window(&self, g: usize) -> (Matrix, Matrix) {
        let mut a = Matrix::zeros(SHAPE.m, SHAPE.n);
        let mut b = Matrix::zeros(SHAPE.m, 1);
        for c in 0..SHAPE.m / K {
            let (ca, cb) = self.chunk(g + c * K);
            a.view_mut(c * K, 0, K, SHAPE.n).copy_from(ca);
            b.view_mut(c * K, 0, K, 1).copy_from(cb);
        }
        (a, b)
    }
}

/// A live stream and the global row its window starts at.
struct Window {
    st: StreamingQr,
    start: usize,
}

impl Window {
    /// One step: append the next `K` rows, downdate the oldest `K`, solve.
    /// Returns the three call times and the solution.
    fn step(&mut self, rows: &Rows, tally: &mut Tally) -> ([f64; 3], Option<Matrix>) {
        let (na, nb) = rows.chunk(self.start + SHAPE.m);
        let (oa, ob) = rows.chunk(self.start);
        let t = Instant::now();
        let appended = self.st.append_rows_with(na, nb);
        let t1 = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let removed = self.st.downdate_rows_with(oa, ob);
        let t2 = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let solved = self.st.solve();
        let t3 = t.elapsed().as_secs_f64();
        self.start += K;
        for status in [appended, removed] {
            match status {
                Ok(s) if s.refresh_failed => tally.wrong("drift-triggered refresh failed"),
                Ok(_) => {}
                Err(e) => tally.error(e),
            }
        }
        let x = match solved {
            Ok(x) => Some(x),
            Err(e) => {
                tally.error(e);
                None
            }
        };
        ([t1, t2, t3], x)
    }
}

/// Builds the plan, opens the stream on the first window and warms it.
fn setup(rows: &Rows, tally: &mut Tally) -> Option<(QrPlan, Window)> {
    let plan = SHAPE.plan();
    let (a, b) = rows.window(0);
    let st = match plan.stream_with_rhs(&a, &b) {
        Ok(st) => st,
        Err(e) => {
            tally.error(e);
            return None;
        }
    };
    let mut w = Window { st, start: 0 };
    for s in 0..WARM_STEPS {
        let (na, nb) = rows.chunk(w.start + SHAPE.m);
        let (oa, ob) = rows.chunk(w.start);
        // Both refresh paths: the sequential one above the plan's height
        // and the plan's own at exactly its height.
        let warm = w.st.append_rows_with(na, nb).map(|_| ());
        let warm = warm.and_then(|()| if s < 2 { w.st.refresh() } else { Ok(()) });
        let warm = warm.and_then(|()| w.st.downdate_rows_with(oa, ob).map(|_| ()));
        let warm = warm.and_then(|()| if s < 2 { w.st.refresh() } else { Ok(()) });
        let warm = warm.and_then(|()| w.st.solve().map(|_| ()));
        w.start += K;
        if let Err(e) = warm {
            tally.error(e);
            return None;
        }
    }
    Some((plan, w))
}

struct Loop {
    timeline: Timeline,
    times: StreamTimes,
    window: f64,
    /// Refreshes over the first `REFRESH_STEPS` steps, if reached.
    refreshes: Option<usize>,
}

fn step_loop(w: &mut Window, rows: &Rows, seconds: f64, tally: &mut Tally) -> Loop {
    let mut out = Loop {
        timeline: Timeline::new(Scaling::ReferenceAndSteal),
        times: StreamTimes::default(),
        window: 0.0,
        refreshes: None,
    };
    let first = w.st.refreshes();
    while out.window < seconds {
        out.timeline.between_ops();
        let [t1, t2, t3] = {
            let (t, x) = w.step(rows, tally);
            tally.attempted += 1;
            if let Some(x) = x {
                let finite = x.rows() == SHAPE.n && x.cols() == 1 && x.data().iter().all(|v| v.is_finite());
                if !finite {
                    tally.wrong("stream solve returned a malformed solution");
                } else if out.timeline.len().is_multiple_of(CHECK_EVERY) {
                    let (a, b) = rows.window(w.start);
                    tally.checked(check::solution(&a, &b, &x, KAPPA));
                }
            }
            t
        };
        let dt = t1 + t2 + t3;
        out.window += dt;
        out.timeline.push(dt, out.window);
        out.times.append.push(t1);
        out.times.downdate.push(t2);
        out.times.solve.push(t3);
        if out.timeline.len() == REFRESH_STEPS {
            out.refreshes = Some(w.st.refreshes() - first);
        }
    }
    out.times.total = out.window;
    out.times.refreshes = w.st.refreshes() - first;
    out
}

pub fn run(args: Args, host: &Host) -> Outcome {
    let mut tally = Tally::default();
    let rows = Rows::new(args.seed);
    let (a0, _) = rows.window(0);
    let counts = match check::exact_counts(&a0, SHAPE.algorithm, SHAPE.grid()) {
        Ok(c) => c,
        Err(e) => {
            tally.violation(e);
            check::Counts::of(&[])
        }
    };
    let (setups, live) = repeat_setup(Scaling::ReferenceAndSteal, || setup(&rows, &mut tally));
    let Some((plan, mut w)) = live else {
        return Outcome {
            setups,
            timeline: Timeline::new(Scaling::ReferenceAndSteal),
            window: 0.0,
            started: Instant::now(),
            tail_level: TAIL_LEVEL,
            rss_mb: None,
            tally,
            layers: Metrics::default(),
        };
    };
    let allocs = plan.workspace().heap_allocations();
    let started = Instant::now();
    let loop_seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = step_loop(&mut w, &rows, loop_seconds, &mut tally);
    let steady = plan.workspace().heap_allocations() - allocs;
    if steady != 0 {
        tally.violation(format!("{steady} arena allocations after warm-up"));
    }
    let mut layers = Metrics::default();
    if args.trace {
        let traced = step_loop(&mut w, &rows, loop_seconds, &mut tally);
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
        let refreshes = untraced.refreshes.unwrap_or_else(|| {
            println!("# fewer than {REFRESH_STEPS} steps ran; stream.refreshes counts them all");
            w.st.refreshes()
        });
        println!("# stream.refreshes is counted over the first {REFRESH_STEPS} timed steps");
        layers::stream_metrics(&mut w.st, &traced.times, refreshes, 5, &mut layers, &mut tally);
        let (a, _) = rows.window(w.start);
        layers::plan_layer(&SHAPE, &plan, &a, 9, &mut layers, &mut tally);
        let region = layers.get("plan.region_ms").map(|v| v / 1e3);
        layers::algo_layer(&SHAPE, &a, 9, host, region, &mut layers, &mut tally);
        layers::kern_layer(&SHAPE, args.seed, &mut layers);
        layers::escalation_layer(args.seed, &mut layers, &mut tally);
        layers::service_probe(&SHAPE, &Arc::new(a), 8, &mut layers, &mut tally);
    }
    Outcome {
        setups,
        timeline: untraced.timeline,
        window: untraced.window,
        started,
        tail_level: TAIL_LEVEL,
        rss_mb: None,
        tally,
        layers,
    }
}
