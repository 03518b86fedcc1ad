//! Per-layer measurements for traced runs. There are no spans inside the
//! program: every number here is the benchmark timing its own calls into a
//! layer's public functions, at the workload's shapes.

use crate::stats::{max, median, Metrics};
use crate::{check, Tally, THREADS};
use cacqr::cfr3d::cfr3d;
use cacqr::service::ServiceStats;
use cacqr::validate::{run_cacqr2_global, run_cqr2_1d_global};
use cacqr::{Algorithm, CfrParams, JobSpec, QrPlan, QrPlanBuilder, QrService, RetryPolicy};
use dense::{BackendKind, Matrix, Trans, WorkspacePool};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd_pooled, Comm, Machine, Rank, RuntimeKind, SimConfig};
use std::sync::Arc;
use std::time::Instant;

/// The kernel backend every plan, spec and probe is pinned to.
pub const BACKEND: BackendKind = BackendKind::Blocked;
/// The SPMD runtime every plan and service is pinned to: the simulator,
/// because spinning shared-memory ranks on a small host would measure the
/// scheduler.
pub const RUNTIME: RuntimeKind = RuntimeKind::Simulated;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One factorization shape: `m × n` on a `c × d × c` grid.
#[derive(Clone, Copy)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub algorithm: Algorithm,
    pub c: usize,
    pub d: usize,
}

impl Shape {
    pub const fn one_d(m: usize, n: usize, p: usize) -> Shape {
        Shape {
            m,
            n,
            algorithm: Algorithm::Cqr2_1d,
            c: 1,
            d: p,
        }
    }

    pub fn grid(&self) -> GridShape {
        GridShape::new(self.c, self.d).expect("workload grids are valid")
    }

    pub fn p(&self) -> usize {
        self.c * self.c * self.d
    }

    /// Rows of the local block of `A` on one rank.
    pub fn local_rows(&self) -> usize {
        self.m / self.d
    }

    /// Columns of the local block of `A` on one rank.
    pub fn local_cols(&self) -> usize {
        self.n / self.c
    }

    fn params(&self) -> CfrParams {
        CfrParams::default_for(self.n, self.c).with_backend(BACKEND)
    }

    /// A plan builder with the runtime and backend pinned.
    pub fn builder(&self) -> QrPlanBuilder {
        QrPlan::new(self.m, self.n)
            .algorithm(self.algorithm)
            .grid(self.grid())
            .runtime(RUNTIME)
            .backend(BACKEND)
    }

    pub fn plan(&self) -> QrPlan {
        self.builder().build().expect("workload shapes are valid plans")
    }

    pub fn spec(&self) -> JobSpec {
        JobSpec::new(self.m, self.n)
            .algorithm(self.algorithm)
            .grid(self.grid())
            .backend(BACKEND)
    }
}

/// Builds the service every workload uses, with its width, runtime and
/// backend pinned.
pub fn service() -> QrService {
    QrService::builder()
        .workers(THREADS)
        .machine(Machine::zero())
        .runtime(RUNTIME)
        .backend(BACKEND)
        .build()
}

/// Host calibration, measured in every run and printed beside the results
/// so that runs from different hosts are never compared.
pub struct Host {
    pub nproc: usize,
    pub probe: dense::ProbeReport,
    pub shm: simgrid::ShmProbe,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            probe: dense::default_probe(BACKEND),
            shm: simgrid::probe_shm_alpha_beta(),
        }
    }

    pub fn print(&self) {
        println!(
            "# host: nproc {}, gemm probe {:.3} GFLOP/s, shm alpha {:.3} us, shm beta {:.4} ns/word, threads {}",
            self.nproc,
            self.probe.gflops(),
            self.shm.alpha * 1e6,
            self.shm.beta * 1e9,
            THREADS
        );
    }

    /// The α-β-γ machine this host measures as.
    pub fn machine(&self) -> Machine {
        Machine {
            alpha: self.shm.alpha,
            beta: self.shm.beta,
            gamma: self.probe.seconds_per_flop,
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put("host.nproc", self.nproc as f64, "count", 1);
        m.put("kern.probe_gflops", self.probe.gflops(), "GFLOP/s", self.probe.reps);
        m.put("host.shm_alpha_us", self.shm.alpha * 1e6, "us", 1);
        m.put("host.shm_beta_ns", self.shm.beta * 1e9, "ns/word", 1);
    }
}

/// Seconds per call of `f`: calls are batched until one sample lasts at
/// least a millisecond, and the median of nine samples is kept.
pub fn time_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut batch = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if secs(t) >= 1e-3 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            secs(t) / batch as f64
        })
        .collect();
    median(&samples)
}

/// `plan.*`: the facade's split into SPMD region, Q/R assembly, facade
/// overhead and diagnostics, from `reps` warm factorizations of `a`.
pub fn plan_layer(shape: &Shape, plan: &QrPlan, a: &Matrix, reps: usize, m: &mut Metrics, tally: &mut Tally) {
    let (mut factor, mut region, mut diag) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let report = plan.factor(a);
        let dt = secs(t);
        match report {
            Ok(report) => {
                factor.push(dt);
                region.push(report.wall_seconds);
                let t = Instant::now();
                let verdict = check::factors(a, &report.q, &report.r);
                diag.push(secs(t));
                tally.checked(verdict);
            }
            Err(e) => tally.error(e),
        }
    }
    let pool = WorkspacePool::new();
    let cfg = SimConfig::default().on_runtime(RUNTIME);
    let mut global = Vec::new();
    for i in 0..=reps {
        let t = Instant::now();
        let run = match shape.algorithm {
            Algorithm::Cqr2_1d => run_cqr2_1d_global(a, shape.p(), BACKEND, cfg, &pool),
            _ => run_cacqr2_global(a, shape.grid(), shape.params(), cfg, &pool),
        };
        let dt = secs(t);
        match run {
            Ok(_) if i > 0 => global.push(dt),
            Ok(_) => {}
            Err(e) => tally.error(e),
        }
    }
    if factor.is_empty() || global.is_empty() {
        return;
    }
    let (f, g, r, dg) = (median(&factor), median(&global), median(&region), median(&diag));
    m.put_median("plan.factor_ms", &factor, 1e3, "ms");
    m.put_median("plan.global_ms", &global, 1e3, "ms");
    m.put_median("plan.region_ms", &region, 1e3, "ms");
    m.put("plan.facade_ms", (f - g) * 1e3, "ms", factor.len());
    m.put("plan.assembly_ms", (g - r) * 1e3, "ms", global.len());
    m.put("plan.diag_ms", dg * 1e3, "ms", diag.len());
    m.put("plan.e2e_over_region", f / r, "ratio", factor.len());
    let diag_flops = dense::flops::gemm(shape.n, shape.n, shape.m) + dense::flops::gemm(shape.m, shape.n, shape.n);
    m.put("kern.diag_gflops", diag_flops / dg / 1e9, "GFLOP/s", diag.len());
    m.put(
        "plan.arena_bytes",
        (plan.workspace().parked_capacity() * std::mem::size_of::<f64>()) as f64,
        "bytes",
        1,
    );
}

/// The κ = 1e9 input the escalation ladder is measured on.
pub const ESCALATION_SHAPE: Shape = Shape::one_d(256, 16, 1);
pub const ESCALATION_KAPPA: f64 = 1e9;

/// `plan.escalated_ms`: median `factor_with_policy(escalate)` on the
/// κ = 1e9 256×16 input.
pub fn escalation_layer(seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let s = ESCALATION_SHAPE;
    let a = dense::random::matrix_with_condition(s.m, s.n, ESCALATION_KAPPA, seed);
    let plan = s.plan();
    let mut times = Vec::new();
    for i in 0..24 {
        let t = Instant::now();
        let report = plan.factor_with_policy(&a, RetryPolicy::escalate());
        let dt = secs(t);
        match report {
            Ok(report) => {
                tally.checked(check::factors(&a, &report.q, &report.r));
                if i >= 3 {
                    times.push(dt);
                }
            }
            Err(e) => tally.error(e),
        }
    }
    if !times.is_empty() {
        m.put_median("plan.escalated_ms", &times, 1e3, "ms");
    }
}

/// Collectives timed separately in the traced region.
const COLLECTIVES: [&str; 4] = ["allreduce", "bcast", "reduce", "allgather"];
const ALLREDUCE: usize = 0;
const BCAST: usize = 1;
const REDUCE: usize = 2;
const ALLGATHER: usize = 3;

/// One rank's timings in one repetition of the traced region.
#[derive(Clone, Copy, Default)]
struct RankTimes {
    pass: [f64; 2],
    gram: f64,
    reduce: f64,
    chol: f64,
    qform: f64,
    /// Per collective: (wait at the barrier before it, the op itself).
    coll: [(f64, f64); 4],
    /// Wait + op time of the collectives that belong to the passes' lines
    /// (not the stand-alone probes).
    coll_in_pass: f64,
}

/// Times `op` on `comm`, after a barrier when `split`: returns (barrier
/// wait, op).
fn timed_collective(rank: &mut Rank, comm: &Comm, split: bool, op: impl FnOnce(&mut Rank)) -> (f64, f64) {
    let t = Instant::now();
    if split {
        comm.barrier(rank);
    }
    let wait = secs(t);
    let t = Instant::now();
    op(rank);
    (wait, secs(t))
}

impl RankTimes {
    fn collective(&mut self, which: usize, (wait, xfer): (f64, f64), in_pass: bool) -> f64 {
        self.coll[which].0 += wait;
        self.coll[which].1 += xfer;
        if in_pass {
            self.coll_in_pass += wait + xfer;
        }
        wait + xfer
    }

    /// Adds one run of a pass's lines: the phase times of a run without
    /// barriers, or the collective wait/op split of a run with them.
    fn merge_lines(&mut self, lines: RankTimes, split: bool) {
        if split {
            for (mine, theirs) in self.coll.iter_mut().zip(lines.coll) {
                mine.0 += theirs.0;
                mine.1 += theirs.1;
            }
            self.coll_in_pass += lines.coll_in_pass;
        } else {
            self.gram += lines.gram;
            self.reduce += lines.reduce;
            self.chol += lines.chol;
            self.qform += lines.qform;
        }
    }
}

/// The lines of one 1D-CQR pass (paper Tables III–IV) on local rows `x`.
fn one_d_lines(
    rank: &mut Rank,
    world: &Comm,
    x: &Matrix,
    ws: &mut dense::Workspace,
    split: bool,
    t: &mut RankTimes,
) -> Result<(), String> {
    let be = BACKEND.get();
    let (lr, n) = (x.rows(), x.cols());
    let s = Instant::now();
    let mut g = ws.take_matrix_stale(n, n);
    be.syrk_into(x.as_ref(), g.as_mut());
    t.gram += secs(s);
    let mut z = g.into_vec();
    t.reduce += t.collective(
        ALLREDUCE,
        timed_collective(rank, world, split, |r| world.allreduce(r, &mut z)),
        true,
    );
    let z = Matrix::from_vec(n, n, z);
    let s = Instant::now();
    let factored = dense::cholinv_with(z.as_ref(), be);
    t.chol += secs(s);
    ws.recycle(z);
    let (_, y) = factored.map_err(|e| e.to_string())?;
    let s = Instant::now();
    let mut q = ws.take_matrix_stale(lr, n);
    be.gemm(1.0, x.as_ref(), Trans::No, y.as_ref(), Trans::Yes, 0.0, q.as_mut());
    t.qform += secs(s);
    ws.recycle(q);
    Ok(())
}

fn one_d_rank(rank: &mut Rank, a: &Matrix, p: usize, pool: &WorkspacePool) -> Result<RankTimes, String> {
    let world = rank.world();
    let mut ws = pool.checkout_at(rank.id());
    let al = DistMatrix::local_from_global(a, p, 1, rank.id(), 0, &mut ws);
    let mut t = RankTimes::default();
    let s = Instant::now();
    let (q1, _) = cacqr::cqr1d(rank, &world, &al, BACKEND, &mut ws).map_err(|e| e.to_string())?;
    t.pass[0] = secs(s);
    let s = Instant::now();
    let (q2, _) = cacqr::cqr1d(rank, &world, &q1, BACKEND, &mut ws).map_err(|e| e.to_string())?;
    t.pass[1] = secs(s);
    for split in [false, true] {
        for x in [&al, &q1] {
            let mut lines = RankTimes::default();
            one_d_lines(rank, &world, x, &mut ws, split, &mut lines)?;
            t.merge_lines(lines, split);
        }
    }
    // 1D-CQR2 has no broadcast, reduce or allgather; probe each on the
    // world communicator at the Gram size.
    let n = a.cols();
    let mut buf = ws.take_vec(n * n);
    t.collective(
        BCAST,
        timed_collective(rank, &world, true, |r| world.bcast(r, 0, &mut buf)),
        false,
    );
    t.collective(
        REDUCE,
        timed_collective(rank, &world, true, |r| world.reduce(r, 0, &mut buf)),
        false,
    );
    let local = &buf[..n * n / p];
    let mut gathered = Vec::new();
    t.collective(
        ALLGATHER,
        timed_collective(rank, &world, true, |r| gathered = world.allgather(r, local)),
        false,
    );
    rank.recycle_comm(gathered);
    ws.recycle_vec(buf);
    for piece in [al, q1, q2] {
        ws.recycle(piece);
    }
    Ok(t)
}

/// The lines of one CA-CQR pass (paper Tables V–VI, Algorithm 8) on the
/// local block `al`.
fn ca_lines(
    rank: &mut Rank,
    comms: &TunableComms,
    al: &Matrix,
    shape: &Shape,
    ws: &mut dense::Workspace,
    split: bool,
    t: &mut RankTimes,
) -> Result<(), String> {
    let (c, n, params) = (shape.c, shape.n, shape.params());
    let (_, y, z) = comms.coords;
    let (lr, lc) = (al.rows(), al.cols());
    // Lines 1–2: row broadcast of A, local Gram contribution.
    let s = Instant::now();
    let mut wbuf = ws.take_vec(lr * lc);
    wbuf.copy_from_slice(al.data());
    t.collective(
        BCAST,
        timed_collective(rank, &comms.row, split, |r| comms.row.bcast(r, z, &mut wbuf)),
        true,
    );
    let w = Matrix::from_vec(lr, lc, wbuf);
    let mut xm = ws.take_matrix_stale(lc, lc);
    BACKEND
        .get()
        .gemm(1.0, w.as_ref(), Trans::Yes, al.as_ref(), Trans::No, 0.0, xm.as_mut());
    ws.recycle(w);
    t.gram += secs(s);
    // Lines 3–5: y-group reduce, cross-group allreduce, depth broadcast.
    let s = Instant::now();
    let mut xbuf = xm.into_vec();
    t.collective(
        REDUCE,
        timed_collective(rank, &comms.ygroup, split, |r| comms.ygroup.reduce(r, z, &mut xbuf)),
        true,
    );
    if y % c != z {
        xbuf.iter_mut().for_each(|v| *v = 0.0);
    }
    t.collective(
        ALLREDUCE,
        timed_collective(rank, &comms.ystride, split, |r| comms.ystride.allreduce(r, &mut xbuf)),
        true,
    );
    t.collective(
        BCAST,
        timed_collective(rank, &comms.depth, split, |r| comms.depth.bcast(r, y % c, &mut xbuf)),
        true,
    );
    let zl = Matrix::from_vec(lc, lc, xbuf);
    t.reduce += secs(s);
    // Lines 6–7: CFR3D on the subcube.
    let s = Instant::now();
    let factored = cfr3d(rank, &comms.subcube, &zl, n, &params, ws);
    t.chol += secs(s);
    ws.recycle(zl);
    let (l, inv) = factored.map_err(|e| e.to_string())?;
    // Line 8: Q = A·R⁻¹ through MM3D.
    let s = Instant::now();
    let q = inv.apply_rinv(rank, &comms.subcube, al, params.backend, ws);
    t.qform += secs(s);
    ws.recycle(q);
    ws.recycle(l);
    inv.recycle_into(ws);
    Ok(())
}

fn ca_rank(rank: &mut Rank, a: &Matrix, shape: &Shape, pool: &WorkspacePool) -> Result<RankTimes, String> {
    let comms = TunableComms::build(rank, shape.grid());
    let (x, y, _) = comms.coords;
    let mut ws = pool.checkout_at(rank.id());
    let al = DistMatrix::local_from_global(a, shape.d, shape.c, y, x, &mut ws);
    let params = shape.params();
    let mut t = RankTimes::default();
    let s = Instant::now();
    let one = cacqr::cacqr::ca_cqr(rank, &comms, &al, shape.n, &params, &mut ws).map_err(|e| e.to_string())?;
    t.pass[0] = secs(s);
    let s = Instant::now();
    let two = cacqr::cacqr::ca_cqr(rank, &comms, &one.q_local, shape.n, &params, &mut ws).map_err(|e| e.to_string())?;
    t.pass[1] = secs(s);
    for split in [false, true] {
        for x in [&al, &one.q_local] {
            let mut lines = RankTimes::default();
            ca_lines(rank, &comms, x, shape, &mut ws, split, &mut lines)?;
            t.merge_lines(lines, split);
        }
    }
    // CFR3D's base-case allgather over the subcube slice, probed alone.
    let lb = params.base_size / shape.c;
    let buf = ws.take_vec(lb * lb);
    let slice = &comms.subcube.slice;
    let mut gathered = Vec::new();
    t.collective(
        ALLGATHER,
        timed_collective(rank, slice, true, |r| gathered = slice.allgather(r, &buf)),
        false,
    );
    rank.recycle_comm(gathered);
    ws.recycle_vec(buf);
    for out in [one, two] {
        ws.recycle(out.q_local);
        ws.recycle(out.l_local);
        out.inv.recycle_into(&mut ws);
    }
    ws.recycle(al);
    Ok(t)
}

/// `algo.*` and `coll.*` timings: a benchmark-built SPMD region at the
/// workload's shape and grid that times both CQR passes through their
/// public calls, then the paper's per-pass lines one by one (the phases),
/// then the lines again with a barrier before every collective (the
/// collectives' wait/op split). Each figure is the maximum over ranks, then
/// the median over `reps` repetitions.
pub fn algo_layer(
    shape: &Shape,
    a: &Matrix,
    reps: usize,
    host: &Host,
    region_s: Option<f64>,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let pool = WorkspacePool::new();
    let cfg = SimConfig::default().on_runtime(RUNTIME);
    let mut runs: Vec<Vec<RankTimes>> = Vec::new();
    for i in 0..=reps {
        let report = run_spmd_pooled(shape.p(), cfg, &pool, |rank| match shape.algorithm {
            Algorithm::Cqr2_1d => one_d_rank(rank, a, shape.p(), &pool),
            _ => ca_rank(rank, a, shape, &pool),
        });
        let ranks: Result<Vec<RankTimes>, String> = report.results.into_iter().collect();
        match ranks {
            Ok(ranks) if i > 0 => runs.push(ranks),
            Ok(_) => {}
            Err(e) => {
                tally.error(e);
                return;
            }
        }
    }
    // Median over repetitions of the maximum over ranks.
    let stat = |f: &dyn Fn(&RankTimes) -> f64| -> f64 {
        median(
            &runs
                .iter()
                .map(|ranks| max(&ranks.iter().map(f).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        )
    };
    let n = runs.len();
    let pass1 = stat(&|t| t.pass[0]);
    let pass2 = stat(&|t| t.pass[1]);
    let phases = [
        ("algo.gram_ms", stat(&|t| t.gram)),
        ("algo.reduce_ms", stat(&|t| t.reduce)),
        ("algo.chol_ms", stat(&|t| t.chol)),
        ("algo.qform_ms", stat(&|t| t.qform)),
    ];
    m.put("algo.pass1_ms", pass1 * 1e3, "ms", n);
    m.put("algo.pass2_ms", pass2 * 1e3, "ms", n);
    for (name, v) in phases {
        m.put(name, v * 1e3, "ms", n);
    }
    // Attribution sums rank time: on an oversubscribed host a rank's wall
    // time includes its peers' work, so per-phase maxima over ranks
    // overcount, while every rank's phases against its own passes balance.
    let unattributed: Vec<f64> = runs
        .iter()
        .map(|ranks| {
            let phases: f64 = ranks.iter().map(|t| t.gram + t.reduce + t.chol + t.qform).sum();
            let passes: f64 = ranks.iter().map(|t| t.pass[0] + t.pass[1]).sum();
            1.0 - phases / passes
        })
        .collect();
    m.put("algo.unattributed_share", median(&unattributed), "ratio", n);
    for (i, name) in COLLECTIVES.iter().enumerate() {
        m.put(&format!("coll.{name}.wait_us"), stat(&|t| t.coll[i].0) * 1e6, "us", n);
        m.put(&format!("coll.{name}.xfer_us"), stat(&|t| t.coll[i].1) * 1e6, "us", n);
    }
    m.put("coll.share", stat(&|t| t.coll_in_pass) / (pass1 + pass2), "ratio", n);
    let predicted = check::model(shape.m, shape.n, shape.algorithm, shape.grid()).time(&host.machine());
    if let Some(region) = region_s {
        m.put("algo.model_ratio", region / predicted, "ratio", 1);
    }
}

/// `kern.*`: each node-local kernel timed at the workload's local block
/// shapes, with flops by the `dense::flops` conventions.
pub fn kern_layer(shape: &Shape, seed: u64, m: &mut Metrics) {
    let be = BACKEND.get();
    let (lr, n) = (shape.local_rows(), shape.n);
    // 1D-CQR forms the Gram matrix of its whole local panel; CA-CQR of its
    // (m/d) × (n/c) block.
    let gram_cols = shape.local_cols();
    let panel = dense::random::gaussian_matrix(lr, gram_cols, seed ^ 0x51);
    let mut g = Matrix::zeros(gram_cols, gram_cols);
    let s = time_per_call(|| be.syrk_into(panel.as_ref(), g.as_mut()));
    m.put(
        "kern.syrk_gflops",
        dense::flops::syrk(lr, gram_cols) / s / 1e9,
        "GFLOP/s",
        9,
    );
    // Q formation: the local (m/d) × (n/c) · (n/c) × (n/c) product.
    let k = gram_cols;
    let b = dense::random::gaussian_matrix(k, k, seed ^ 0x52);
    let mut q = Matrix::zeros(lr, k);
    let s = time_per_call(|| be.gemm(1.0, panel.as_ref(), Trans::No, b.as_ref(), Trans::Yes, 0.0, q.as_mut()));
    m.put("kern.gemm_gflops", dense::flops::gemm(lr, k, k) / s / 1e9, "GFLOP/s", 9);
    // CholInv of the redundant n × n Gram (1D) or of CFR3D's base case (CA).
    let nb = shape.params().base_size.min(n);
    let spd = {
        let x = dense::random::well_conditioned(2 * nb, nb, seed ^ 0x53);
        dense::matmul(x.as_ref(), Trans::Yes, x.as_ref(), Trans::No)
    };
    let s = time_per_call(|| {
        std::hint::black_box(dense::cholinv_with(spd.as_ref(), be).expect("SPD input"));
    });
    m.put("kern.cholinv_gflops", dense::flops::cholinv(nb) / s / 1e9, "GFLOP/s", 9);
    // Householder QR at the escalation ladder's terminal-rung block: a
    // plan's single-column PGEQRF grid with the largest power-of-two row
    // count that keeps every rank at least n rows tall.
    let cap = shape.p().min((shape.m / n).max(1)).max(1);
    let pr = 1usize << (usize::BITS - 1 - cap.leading_zeros());
    let hh = dense::random::gaussian_matrix(shape.m / pr, n, seed ^ 0x54);
    let s = time_per_call(|| {
        std::hint::black_box(dense::householder::householder_qr_with(&hh, be));
    });
    m.put(
        "kern.householder_gflops",
        dense::flops::householder_qr_flops(shape.m / pr, n) / s / 1e9,
        "GFLOP/s",
        9,
    );
    update_kernels(seed, m);
}

/// `kern.{append,downdate}_gflops`: the rank-k update kernels at n = 64,
/// k = 32, each append undone by the matching downdate.
fn update_kernels(seed: u64, m: &mut Metrics) {
    const N: usize = 64;
    const K: usize = 32;
    let be = BACKEND.get();
    let base = dense::random::well_conditioned(4 * N, N, seed ^ 0x61);
    let (_, r0) = dense::householder::qr(&base);
    let rows = dense::random::gaussian_matrix(K, N, seed ^ 0x62);
    let mut ws = dense::Workspace::new();
    let mut r = r0.clone();
    let (mut append, mut downdate) = (Vec::new(), Vec::new());
    for i in 0..41 {
        // Restart from the seed factor so rounding never accumulates.
        r.copy_from(r0.as_ref());
        let t = Instant::now();
        dense::rank_k_append(r.as_mut(), rows.as_ref(), be, &mut ws).expect("append onto a well-conditioned factor");
        let ta = secs(t);
        let t = Instant::now();
        dense::rank_k_downdate(r.as_mut(), rows.as_ref(), &mut ws).expect("downdate of the rows just appended");
        let td = secs(t);
        if i > 0 {
            append.push(ta);
            downdate.push(td);
        }
    }
    let (a, d) = (median(&append), median(&downdate));
    m.put(
        "kern.append_gflops",
        dense::flops::rank_k_append(N, K) / a / 1e9,
        "GFLOP/s",
        append.len(),
    );
    m.put(
        "kern.downdate_gflops",
        dense::flops::rank_k_downdate(N, K) / d / 1e9,
        "GFLOP/s",
        downdate.len(),
    );
}

/// `service.*`: warm plan lookup, and dispatch cost as submit→wait with one
/// job in flight minus a direct `QrPlan::factor` on the same spec and
/// input. `stats` is the snapshot that attributes the workload's own jobs
/// (queue wait and execution means, retry and escalation counters).
pub fn service_layer(
    service: &QrService,
    shape: &Shape,
    a: &Arc<Matrix>,
    reps: usize,
    stats: ServiceStats,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let spec = shape.spec();
    let plan = match service.plan(&spec) {
        Ok(plan) => plan,
        Err(e) => return tally.error(e),
    };
    let lookup = time_per_call(|| {
        std::hint::black_box(service.plan(&spec).expect("cached spec"));
    });
    m.put("service.plan_lookup_ns", lookup * 1e9, "ns", 9);
    let (mut submitted, mut calls, mut direct) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..=reps {
        let t = Instant::now();
        let report = service.submit(&spec, Arc::clone(a)).and_then(|h| {
            if i > 0 {
                calls.push(secs(t));
            }
            h.wait()
        });
        let dt = secs(t);
        match report {
            Ok(report) => {
                tally.checked(check::factors(a, &report.q, &report.r));
                if i > 0 {
                    submitted.push(dt);
                }
            }
            Err(e) => tally.error(e),
        }
        let t = Instant::now();
        let report = plan.factor(a);
        let dt = secs(t);
        match report {
            Ok(_) if i > 0 => direct.push(dt),
            Ok(_) => {}
            Err(e) => tally.error(e),
        }
    }
    if !submitted.is_empty() && !direct.is_empty() {
        let dispatch = median(&submitted) - median(&direct);
        m.put("service.dispatch_us", dispatch * 1e6, "us", submitted.len());
        m.put_median("service.submit_call_us", &calls, 1e6, "us");
    }
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    println!(
        "# service stats (power-of-two buckets): queue_wait p50 {:.3} us, execution p50 {:.3} us",
        us(stats.queue_wait.p50),
        us(stats.execution.p50)
    );
    let jobs = stats.execution.count as usize;
    m.put("service.queue_wait_mean_us", us(stats.queue_wait.mean), "us", jobs);
    m.put("service.execution_mean_us", us(stats.execution.mean), "us", jobs);
    m.put("service.retries", stats.retries as f64, "count", jobs);
    m.put("service.escalations", stats.escalations as f64, "count", jobs);
}

/// Runs `jobs` jobs of `shape` through a fresh service, one in flight, so
/// workloads that bypass the service still report its layer at their
/// shape.
pub fn service_probe(shape: &Shape, a: &Arc<Matrix>, jobs: usize, m: &mut Metrics, tally: &mut Tally) {
    let service = service();
    if let Err(e) = service
        .plan(&shape.spec())
        .and_then(|p| p.warm_up(a).map_err(Into::into))
    {
        return tally.error(e);
    }
    for _ in 0..jobs {
        match service.submit(&shape.spec(), Arc::clone(a)).and_then(|h| h.wait()) {
            Ok(report) => tally.checked(check::factors(a, &report.q, &report.r)),
            Err(e) => tally.error(e),
        }
    }
    let stats = service.stats();
    service_layer(&service, shape, a, jobs, stats, m, tally);
    service.shutdown();
}

/// Per-step stream timings gathered by a loop.
#[derive(Default)]
pub struct StreamTimes {
    pub append: Vec<f64>,
    pub downdate: Vec<f64>,
    pub solve: Vec<f64>,
    /// Seconds of every step (append + downdate + solve).
    pub total: f64,
    /// Refreshes the stream ran during these steps.
    pub refreshes: usize,
}

/// `stream.*` from a loop's step timings, a refresh count exact for the
/// seed, and the median of `reps` explicit refreshes.
pub fn stream_metrics(
    st: &mut cacqr::StreamingQr,
    times: &StreamTimes,
    refreshes: usize,
    reps: usize,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    m.put_median("stream.append_us", &times.append, 1e6, "us");
    m.put_median("stream.downdate_us", &times.downdate, 1e6, "us");
    m.put_median("stream.solve_us", &times.solve, 1e6, "us");
    m.put("stream.refreshes", refreshes as f64, "count", times.append.len());
    let mut refresh = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        match st.refresh() {
            Ok(()) => refresh.push(secs(t)),
            Err(e) => tally.error(e),
        }
    }
    if !refresh.is_empty() {
        let r = median(&refresh);
        m.put("stream.refresh_ms", r * 1e3, "ms", refresh.len());
        m.put(
            "stream.refresh_share",
            times.refreshes as f64 * r / times.total,
            "ratio",
            times.append.len(),
        );
    }
}

/// Opens a least-squares stream on `plan` with `a` as its window and slides
/// it by 32 rows for `steps` steps, so workloads that bypass the stream
/// still report its layer at their shape.
pub fn stream_probe(plan: &QrPlan, a: &Matrix, seed: u64, steps: usize, m: &mut Metrics, tally: &mut Tally) {
    const K: usize = 32;
    let (rows, n) = (a.rows(), a.cols());
    let steps = steps.min(rows / K);
    let b = dense::random::gaussian_matrix(rows, 1, seed ^ 0x71);
    let fresh = dense::random::gaussian_matrix(steps * K, n, seed ^ 0x72);
    let fresh_b = dense::random::gaussian_matrix(steps * K, 1, seed ^ 0x73);
    let mut st = match plan.stream_with_rhs(a, &b) {
        Ok(st) => st,
        Err(e) => return tally.error(e),
    };
    let before = st.refreshes();
    let mut times = StreamTimes::default();
    for s in 0..steps {
        let t = Instant::now();
        let appended = st.append_rows_with(fresh.view(s * K, 0, K, n), fresh_b.view(s * K, 0, K, 1));
        times.append.push(secs(t));
        let t = Instant::now();
        let removed = st.downdate_rows_with(a.view(s * K, 0, K, n), b.view(s * K, 0, K, 1));
        times.downdate.push(secs(t));
        let t = Instant::now();
        let solved = st.solve();
        times.solve.push(secs(t));
        for r in [appended.map(|_| ()), removed.map(|_| ()), solved.map(|_| ())] {
            if let Err(e) = r {
                tally.error(e);
            }
        }
    }
    times.total = times.append.iter().chain(&times.downdate).chain(&times.solve).sum();
    times.refreshes = st.refreshes() - before;
    stream_metrics(&mut st, &times, times.refreshes, 3, m, tally);
}
