//! `service-mix`: one `QrService` with two workers, fed by one thread that
//! keeps four jobs in flight. A seeded mix of small 1D-CQR2 specs, with
//! every 64th job an ill-conditioned input sent with escalation enabled.

use crate::clock::{Scaling, Timeline};
use crate::layers::{self, Host, Shape, ESCALATION_KAPPA, ESCALATION_SHAPE};
use crate::stats::Metrics;
use crate::{check, repeat_setup, Args, Outcome, Tally};
use cacqr::{JobHandle, QrService, RetryPolicy, SubmitOptions};
use dense::Matrix;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The spec mix: shape and cumulative share of jobs.
const MIX: [(Shape, f64); 4] = [
    (Shape::one_d(16, 4, 1), 0.50),
    (Shape::one_d(64, 8, 1), 0.80),
    (Shape::one_d(256, 16, 1), 0.97),
    (Shape::one_d(512, 32, 1), 1.00),
];
/// Every this many jobs, one is the κ = 1e9 input under escalation.
const ESCALATE_EVERY: u64 = 64;
const IN_FLIGHT: usize = 4;
/// Distinct inputs per spec (and ill-conditioned inputs).
const INPUTS: usize = 8;
/// Q and R elements buffered for checking before the window pauses.
const CHECK_BUFFER: usize = 1 << 18;
/// Tail percentile: p95, because on a shared host p99 of 0.2 ms jobs moves
/// with the hypervisor's scheduling more than with the program.
const TAIL_LEVEL: f64 = 0.95;
/// Jobs after which `peak_rss_mb` is read, once every spec and the
/// escalation ladder have run. The process's high-water mark keeps
/// climbing with jobs completed, in uneven steps (1.5–2.7 MB per 10,000
/// jobs), so a value read later would follow the run's throughput and
/// luck; the climb is printed after the run instead.
const RSS_JOBS: usize = 1_000;

/// One job's identity: which spec (or the escalation input) and which
/// input.
#[derive(Clone, Copy)]
struct Job {
    spec: Option<usize>,
    input: usize,
}

struct Inputs {
    mix: Vec<Vec<Arc<Matrix>>>,
    ill: Vec<Arc<Matrix>>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let base = seed.wrapping_mul(1000);
        Inputs {
            mix: MIX
                .iter()
                .enumerate()
                .map(|(k, (s, _))| {
                    (0..INPUTS as u64)
                        .map(|i| Arc::new(dense::random::well_conditioned(s.m, s.n, base + 100 * k as u64 + i)))
                        .collect()
                })
                .collect(),
            ill: (0..INPUTS as u64)
                .map(|i| {
                    let s = ESCALATION_SHAPE;
                    Arc::new(dense::random::matrix_with_condition(
                        s.m,
                        s.n,
                        ESCALATION_KAPPA,
                        base + 900 + i,
                    ))
                })
                .collect(),
        }
    }

    fn get(&self, job: Job) -> &Arc<Matrix> {
        match job.spec {
            Some(k) => &self.mix[k][job.input],
            None => &self.ill[job.input],
        }
    }
}

/// The seeded job sequence.
struct Jobs {
    rng: dense::random::SeededRng,
    issued: u64,
}

impl Jobs {
    fn next(&mut self) -> Job {
        self.issued += 1;
        let input = (self.rng.next_u64() % INPUTS as u64) as usize;
        if self.issued.is_multiple_of(ESCALATE_EVERY) {
            return Job { spec: None, input };
        }
        let u = self.rng.uniform();
        let spec = MIX.iter().position(|&(_, cum)| u < cum).unwrap_or(MIX.len() - 1);
        Job {
            spec: Some(spec),
            input,
        }
    }
}

fn submit(service: &QrService, inputs: &Inputs, job: Job) -> Result<JobHandle, cacqr::ServiceError> {
    let a = Arc::clone(inputs.get(job));
    match job.spec {
        Some(k) => service.submit(&MIX[k].0.spec(), a),
        None => service.submit_with(
            &ESCALATION_SHAPE.spec(),
            a,
            SubmitOptions::new().retry(RetryPolicy::escalate()),
        ),
    }
}

/// Starts the pool and preloads and warms every spec's plan, including the
/// escalation ladder.
fn setup(inputs: &Inputs, tally: &mut Tally) -> QrService {
    let service = layers::service();
    for (k, (shape, _)) in MIX.iter().enumerate() {
        match service.plan(&shape.spec()) {
            Ok(plan) => {
                if let Err(e) = plan.warm_up(&inputs.mix[k][0]) {
                    tally.error(e);
                }
                if shape.m == ESCALATION_SHAPE.m && shape.n == ESCALATION_SHAPE.n {
                    for a in &inputs.ill {
                        if let Err(e) = plan.factor_with_policy(a, RetryPolicy::escalate()) {
                            tally.error(e);
                        }
                    }
                }
            }
            Err(e) => tally.error(e),
        }
    }
    service
}

/// Expected ledger counts per spec (every non-escalated job must match).
fn expected_counts(inputs: &Inputs, tally: &mut Tally) -> Vec<check::Counts> {
    MIX.iter()
        .enumerate()
        .map(|(k, (s, _))| {
            check::exact_counts(&inputs.mix[k][0], s.algorithm, s.grid()).unwrap_or_else(|e| {
                tally.violation(e);
                check::Counts::of(&[])
            })
        })
        .collect()
}

/// Results waiting for their check, with the elements they hold.
#[derive(Default)]
struct Pending {
    done: Vec<(Job, cacqr::QrReport)>,
    elements: usize,
}

impl Pending {
    fn push(&mut self, job: Job, report: cacqr::QrReport) {
        self.elements += report.q.data().len() + report.r.data().len();
        self.done.push((job, report));
    }

    /// Checks every buffered result (outside the timed window).
    fn check(&mut self, inputs: &Inputs, counts: &[check::Counts], stats: &mut JobStats, tally: &mut Tally) {
        for (job, report) in self.done.drain(..) {
            tally.checked(check::factors(inputs.get(job), &report.q, &report.r));
            match (job.spec, &report.escalation) {
                (Some(k), _) => {
                    let got = check::Counts::of(&report.ledgers);
                    if got != counts[k] {
                        tally.violation(format!(
                            "{}x{} job ledgers {got:?} != {:?}",
                            MIX[k].0.m, MIX[k].0.n, counts[k]
                        ));
                    }
                }
                (None, Some(esc)) => {
                    stats.retries += esc.attempts.len() as u64 - 1;
                    stats.escalations += u64::from(esc.escalated());
                }
                (None, None) => tally.wrong("escalation job returned no escalation record"),
            }
        }
        self.elements = 0;
    }
}

/// Client-side counts of the escalation path, compared with the service's
/// own counters after the run.
#[derive(Default)]
struct JobStats {
    retries: u64,
    escalations: u64,
}

struct Loop {
    timeline: Timeline,
    window: f64,
    /// `VmHWM` once `RSS_JOBS` jobs have completed, if they did.
    rss_mb: Option<f64>,
}

/// The closed loop: keeps `IN_FLIGHT` jobs submitted, waits for the oldest,
/// and submits the next. Latency is client side, from `submit` until the
/// client holds the result. Results are checked in batches with the clock
/// paused after draining the pipeline.
fn job_loop(
    service: &QrService,
    inputs: &Inputs,
    counts: &[check::Counts],
    seconds: f64,
    seed: u64,
    stats: &mut JobStats,
    tally: &mut Tally,
) -> Loop {
    let mut jobs = Jobs {
        rng: dense::random::SeededRng::seed_from_u64(seed),
        issued: 0,
    };
    let mut out = Loop {
        timeline: Timeline::new(Scaling::ReferenceAndSteal),
        window: 0.0,
        rss_mb: None,
    };
    let mut pending = Pending::default();
    let mut flight: VecDeque<(Job, Instant, JobHandle)> = VecDeque::new();
    let mut open = Instant::now();
    let mut closing = false;
    loop {
        while !closing && flight.len() < IN_FLIGHT && pending.elements < CHECK_BUFFER {
            let job = jobs.next();
            let t = Instant::now();
            tally.attempted += 1;
            match submit(service, inputs, job) {
                Ok(handle) => flight.push_back((job, t, handle)),
                Err(e) => tally.error(e),
            }
        }
        let Some((job, t, handle)) = flight.pop_front() else {
            // Pipeline drained: pause the clock, sample the reference and
            // check the buffer.
            out.window += open.elapsed().as_secs_f64();
            out.timeline.between_ops();
            pending.check(inputs, counts, stats, tally);
            if closing || out.window >= seconds {
                return out;
            }
            open = Instant::now();
            continue;
        };
        let result = handle.wait();
        out.timeline
            .push(t.elapsed().as_secs_f64(), out.window + open.elapsed().as_secs_f64());
        if out.timeline.len() == RSS_JOBS {
            out.rss_mb = Some(crate::peak_rss_mb());
        }
        match result {
            Ok(report) => pending.push(job, report),
            Err(e) => tally.error(e),
        }
        if out.window + open.elapsed().as_secs_f64() >= seconds {
            closing = true;
        }
    }
}

pub fn run(args: Args, host: &Host) -> Outcome {
    let mut tally = Tally::default();
    let inputs = Inputs::new(args.seed);
    let counts = expected_counts(&inputs, &mut tally);
    let (setups, service) = repeat_setup(Scaling::ReferenceAndSteal, || setup(&inputs, &mut tally));
    let plans: Vec<_> = MIX.iter().filter_map(|(s, _)| service.plan(&s.spec()).ok()).collect();
    let allocs = |plans: &[Arc<cacqr::QrPlan>]| plans.iter().map(|p| p.workspace().heap_allocations()).sum::<usize>();
    let before = allocs(&plans);
    let stats0 = service.stats();
    let mut job_stats = JobStats::default();
    let started = Instant::now();
    let loop_seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let untraced = job_loop(
        &service,
        &inputs,
        &counts,
        loop_seconds,
        args.seed,
        &mut job_stats,
        &mut tally,
    );
    if let Some(at) = untraced.rss_mb {
        let (end, jobs) = (crate::peak_rss_mb(), untraced.timeline.len());
        println!(
            "# VmHWM {at:.2} MB after {RSS_JOBS} jobs, {end:.2} MB after {jobs}: {:.3} MB more per 10,000 jobs",
            (end - at) / (jobs - RSS_JOBS).max(1) as f64 * 1e4
        );
    }
    let mut layers = Metrics::default();
    if args.trace {
        let traced = job_loop(
            &service,
            &inputs,
            &counts,
            loop_seconds,
            args.seed ^ 1,
            &mut job_stats,
            &mut tally,
        );
        let rate = |l: &Loop| l.timeline.len() as f64 / l.window;
        layers.put(
            "trace.overhead_share",
            1.0 - rate(&traced) / rate(&untraced),
            "ratio",
            traced.timeline.len(),
        );
    }
    let stats = service.stats();
    let (retries, escalations) = (stats.retries - stats0.retries, stats.escalations - stats0.escalations);
    if (retries, escalations) != (job_stats.retries, job_stats.escalations) {
        tally.violation(format!(
            "service counted {retries} retries / {escalations} escalations, its reports {} / {}",
            job_stats.retries, job_stats.escalations
        ));
    }
    let steady = allocs(&plans) - before;
    let arenas: usize = plans.iter().map(|p| p.workspace().arenas()).sum();
    println!("# arena allocations across the timed window: {steady}; arenas in the pools: {arenas}");
    if args.trace {
        host.put(&mut layers);
        layers.put("plan.arena_allocs_steady", steady as f64, "count", 1);
        let rep = ESCALATION_SHAPE;
        layers.put("coll.words_max", counts[2].words_max as f64, "words", 1);
        layers.put("coll.msgs_max", counts[2].msgs_max as f64, "count", 1);
        let a = &inputs.mix[2][0];
        layers::service_layer(
            &service,
            &MIX[0].0,
            &inputs.mix[0][0],
            2000,
            stats,
            &mut layers,
            &mut tally,
        );
        let plan = rep.plan();
        if let Err(e) = plan.warm_up(a) {
            tally.error(e);
        }
        layers::plan_layer(&rep, &plan, a, 64, &mut layers, &mut tally);
        layers::algo_layer(
            &rep,
            a,
            64,
            host,
            layers.get("plan.region_ms").map(|v| v / 1e3),
            &mut layers,
            &mut tally,
        );
        layers::kern_layer(&rep, args.seed, &mut layers);
        layers::escalation_layer(args.seed, &mut layers, &mut tally);
        layers::stream_probe(&plan, a, args.seed, 4, &mut layers, &mut tally);
    }
    service.shutdown();
    Outcome {
        setups,
        rss_mb: untraced.rss_mb,
        timeline: untraced.timeline,
        window: untraced.window,
        started,
        tail_level: TAIL_LEVEL,
        tally,
        layers,
    }
}
