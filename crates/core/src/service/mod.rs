//! `QrService`: a thread-safe, plan-caching batch factorization engine.
//!
//! The paper's premise is amortization: CholeskyQR2's setup (grid wiring,
//! parameter validation, schedule resolution) is paid once and reused over
//! many tall-skinny panels. [`QrPlan`] gives one
//! matrix that amortization; this module scales it to a *serving workload*
//! in the TSQR tradition (Demmel et al.), where batched tall-skinny
//! factorizations arrive concurrently from many callers — and where the
//! panels are small enough that dispatch and data movement, not flops,
//! decide throughput:
//!
//! 1. **Sharded plan cache** — a keyed map `JobSpec → Arc<QrPlan>` split
//!    into independent `RwLock` shards selected by a deterministic hash of
//!    the spec. Repeat shapes never rebuild or revalidate; concurrent
//!    lookups of *different* keys don't contend on one lock; and
//!    [`QrService::plan`] returns pointer-equal `Arc`s for equal keys.
//! 2. **Work-stealing worker pool** — a fixed set of `std` threads fed by
//!    a bounded injector ([`QrService::submit`] blocks when full, providing
//!    backpressure; [`QrService::try_submit`] refuses instead) plus
//!    per-worker deques: a job that fans out (see
//!    [`factor_many`](QrService::factor_many)) splits onto its worker's own
//!    deque, idle workers steal the splits, and the schedule never changes
//!    results. Each job resolves to a [`JobHandle`]; [`JobHandle::wait`]
//!    delivers the [`QrReport`] or a typed [`ServiceError`]. A job costs
//!    its factorization: the report carries the O(n²) κ₁ certificate
//!    ([`QrReport::condition_estimate`]), and the O(mn²) diagnostics run
//!    only when the caller asks the report for them.
//! 3. **Zero-copy submission** — jobs carry a [`JobInput`]: an owned
//!    [`Matrix`] or a shared `Arc<Matrix>` ([`QrService::submit_ref`]), so
//!    a caller fanning one operand out — or keeping its own copy — never
//!    pays a data clone at the submission boundary.
//! 4. **Thread-budget coordination** — the pool registers its workers with
//!    [`dense::PoolReservation`], so block-level kernel parallelism shrinks
//!    to its fair share of `CACQR_THREADS` while the pool is alive, and
//!    *sleeping* workers return their share to busy siblings
//!    ([`dense::pool_worker_idle`]): pool width × kernel width never
//!    oversubscribes the budget, and a lone straggler job still gets the
//!    whole budget.
//! 5. **Stateful stream jobs** — [`QrService::stream_open`] (or
//!    [`QrService::stream_open_with_rhs`], which also carries the
//!    least-squares right-hand-side track) registers a live
//!    [`StreamingQr`] under a string key;
//!    [`QrService::append_rows`] / [`QrService::downdate_rows`] (and
//!    their `_with` right-hand-side variants) / [`QrService::solve`] /
//!    [`QrService::snapshot`] then enqueue incremental operations against
//!    it through the *same* injector and worker pool as batch jobs.
//!    Per key, operations execute strictly in submission order (a sequence
//!    turnstile serializes them across workers, and stream operations only
//!    travel through the FIFO injector — never a stealable deque — so
//!    queue order equals sequence order); across keys — and against
//!    batch factorizations — everything runs concurrently, sharing one
//!    plan cache, thread budget, and warm arena footprint.
//! 6. **SLO telemetry** — every completed job deposits queue-wait,
//!    execution, and end-to-end latencies into lock-free histograms;
//!    [`QrService::stats`] snapshots them as [`ServiceStats`] with
//!    p50/p99 and sustained jobs-per-second, the quantities the perf gate
//!    tracks in `bench/baseline.json`.
//!
//! Determinism is preserved end to end: a given `(plan, matrix)` pair
//! produces bitwise-identical factors whether it runs on the caller's
//! thread, one worker, or is stolen across a saturated pool — the kernels'
//! accumulation order is schedule-independent, and
//! [`factor_batch`](QrService::factor_batch) /
//! [`factor_many`](QrService::factor_many) return reports in submission
//! order. The same holds per stream: a given `(initial, update sequence)`
//! pair produces bitwise-identical factors regardless of pool width or
//! contention, because the turnstile makes the applied order *be* the
//! submission order.
//!
//! # Example
//!
//! ```
//! use cacqr::service::{JobSpec, QrService};
//! use pargrid::GridShape;
//!
//! let service = QrService::builder().workers(2).build();
//! let spec = JobSpec::new(64, 16).grid(GridShape::new(2, 2)?);
//! let batch: Vec<_> = (0..4)
//!     .map(|seed| dense::random::well_conditioned(64, 16, seed))
//!     .collect();
//! let reports = service.factor_many(&spec, batch)?;
//! assert_eq!(reports.len(), 4);
//! // Every report is certified; diagnostics cost O(mn²) and are opt-in.
//! assert!(reports.iter().all(|r| r.condition_estimate < 1e3));
//! assert!(reports.iter().all(|r| r.orthogonality_error() < 1e-12));
//! // Repeat shapes hit the cache: the same Arc<QrPlan>, not a rebuild.
//! assert!(std::sync::Arc::ptr_eq(&service.plan(&spec)?, &service.plan(&spec)?));
//! // Telemetry: four panels completed, latencies recorded.
//! assert_eq!(service.stats().completed, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
mod queue;
mod stats;

pub use error::ServiceError;
pub use stats::{LatencySummary, ServiceStats};

use crate::driver::{Algorithm, PlanError, QrPlan, QrReport, RetryPolicy};
use crate::stream::{StreamSnapshot, StreamStatus, StreamingQr};
use baseline::BlockCyclic;
use dense::{BackendKind, Matrix, PoolReservation};
use pargrid::GridShape;
use queue::{PushError, StealQueue};
use simgrid::{Machine, RuntimeKind};
use stats::Recorder;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A hashable description of *what* to factor: the plan-cache key.
///
/// Mirrors the [`QrPlanBuilder`](crate::driver::QrPlanBuilder) knobs that
/// affect the schedule — shape, [`Algorithm`], grid or block-cyclic layout,
/// kernel backend, CFR3D base size and inverse depth — but not the machine
/// model, which is a property of the whole service. Two jobs with equal
/// specs share one cached [`QrPlan`]; the same derived `Hash` that keys the
/// cache map also picks the cache *shard* (via a fixed FNV-1a, so shard
/// assignment is stable across runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[must_use = "a JobSpec does nothing until submitted to a QrService"]
pub struct JobSpec {
    m: usize,
    n: usize,
    algorithm: Algorithm,
    grid: Option<GridShape>,
    block_cyclic: Option<BlockCyclic>,
    backend: Option<BackendKind>,
    base_size: Option<usize>,
    inverse_depth: usize,
    retry: RetryPolicy,
}

impl JobSpec {
    /// Starts a spec for factoring `m × n` matrices with the defaults of
    /// [`QrPlan::new`]: algorithm [`Algorithm::CaCqr2`], the service's
    /// backend, the paper's base size, `inverse_depth = 0`.
    pub fn new(m: usize, n: usize) -> JobSpec {
        JobSpec {
            m,
            n,
            algorithm: Algorithm::CaCqr2,
            grid: None,
            block_cyclic: None,
            backend: None,
            base_size: None,
            inverse_depth: 0,
            retry: RetryPolicy::none(),
        }
    }

    /// Chooses the QR variant.
    pub fn algorithm(mut self, algorithm: Algorithm) -> JobSpec {
        self.algorithm = algorithm;
        self
    }

    /// Sets the `c × d × c` processor grid (CA family and 1D-CQR2).
    pub fn grid(mut self, grid: GridShape) -> JobSpec {
        self.grid = Some(grid);
        self
    }

    /// Sets the 2D block-cyclic layout ([`Algorithm::Pgeqrf`]).
    pub fn block_cyclic(mut self, block_cyclic: BlockCyclic) -> JobSpec {
        self.block_cyclic = Some(block_cyclic);
        self
    }

    /// Pins the kernel backend (default: the service's backend).
    pub fn backend(mut self, backend: BackendKind) -> JobSpec {
        self.backend = Some(backend);
        self
    }

    /// Overrides the CFR3D base-case size `n₀` (CA family).
    pub fn base_size(mut self, base_size: usize) -> JobSpec {
        self.base_size = Some(base_size);
        self
    }

    /// Sets the paper's `InverseDepth` knob (CA family).
    pub fn inverse_depth(mut self, inverse_depth: usize) -> JobSpec {
        self.inverse_depth = inverse_depth;
        self
    }

    /// Sets the default [`RetryPolicy`] of this spec's plan: every job
    /// factored through it escalates on Cholesky breakdown or a failed
    /// condition gate (see [`QrPlan::factor_with_policy`]). Part of the
    /// cache key — specs differing only in policy cache separate plans.
    /// Per-job overrides via [`SubmitOptions::retry`] don't need this.
    pub fn retry(mut self, retry: RetryPolicy) -> JobSpec {
        self.retry = retry;
        self
    }

    /// Row count of matrices this spec factors.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Column count of matrices this spec factors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Builds the validated plan this spec describes, under the given
    /// simulated machine model; an unset backend resolves to
    /// `default_backend`. Services do this internally (and cache the
    /// result); tuner callers use it to build plans straight from
    /// [`TunerCandidate`](crate::tuner::TunerCandidate) specs.
    pub fn build_plan(&self, machine: Machine, default_backend: BackendKind) -> Result<QrPlan, PlanError> {
        self.build_plan_on(machine, default_backend, RuntimeKind::from_env())
    }

    /// [`JobSpec::build_plan`] with an explicit execution backend instead of
    /// the process-wide default — how a service (or tuner) pins all its
    /// plans to one runtime.
    pub fn build_plan_on(
        &self,
        machine: Machine,
        default_backend: BackendKind,
        runtime: RuntimeKind,
    ) -> Result<QrPlan, PlanError> {
        let mut b = QrPlan::new(self.m, self.n)
            .algorithm(self.algorithm)
            .machine(machine)
            .runtime(runtime)
            .backend(self.backend.unwrap_or(default_backend))
            .inverse_depth(self.inverse_depth)
            .retry(self.retry);
        if let Some(grid) = self.grid {
            b = b.grid(grid);
        }
        if let Some(bc) = self.block_cyclic {
            b = b.block_cyclic(bc);
        }
        if let Some(base) = self.base_size {
            b = b.base_size(base);
        }
        b.build()
    }
}

/// A job's operand: owned outright, or shared behind an `Arc` so submission
/// copies a pointer instead of the matrix.
///
/// Built implicitly — [`QrService::submit`] takes `impl Into<JobInput>`, so
/// existing `submit(&spec, matrix)` callers compile unchanged while
/// `submit(&spec, arc)` (or the [`QrService::submit_ref`] convenience)
/// shares the operand zero-copy.
pub enum JobInput {
    /// The job owns its operand (moved in; freed when the job completes).
    Owned(Matrix),
    /// The operand is shared; the caller keeps its `Arc` and the service
    /// clones only the pointer.
    Shared(Arc<Matrix>),
}

impl JobInput {
    /// The operand, however it is held.
    pub fn matrix(&self) -> &Matrix {
        match self {
            JobInput::Owned(m) => m,
            JobInput::Shared(m) => m,
        }
    }
}

impl From<Matrix> for JobInput {
    fn from(m: Matrix) -> JobInput {
        JobInput::Owned(m)
    }
}

impl From<Arc<Matrix>> for JobInput {
    fn from(m: Arc<Matrix>) -> JobInput {
        JobInput::Shared(m)
    }
}

impl From<&Arc<Matrix>> for JobInput {
    fn from(m: &Arc<Matrix>) -> JobInput {
        JobInput::Shared(Arc::clone(m))
    }
}

/// Per-submission quality-of-service knobs, taken by
/// [`QrService::submit_with`] and [`QrService::stream_submit`].
///
/// The default (`SubmitOptions::new()`) is exactly the plain `submit`
/// behavior: no deadline, no cancellation pressure, the plan's own retry
/// policy.
#[derive(Clone, Copy, Debug, Default)]
#[must_use = "options do nothing until passed to a submission"]
pub struct SubmitOptions {
    deadline: Option<Duration>,
    retry: Option<RetryPolicy>,
}

impl SubmitOptions {
    /// No deadline, no retry override.
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Gives the job `budget` from submission to *start of execution*.
    /// Deadlines are enforced lazily at dequeue: a worker that pops an
    /// expired job fulfills its handle with
    /// [`ServiceError::DeadlineExceeded`] without executing it. A job
    /// already running when its budget lapses runs to completion —
    /// kernels are never interrupted mid-factorization. Submissions with
    /// a deadline also pass admission control: when the pool's observed
    /// p99 queue wait already exceeds `budget`, the submission is shed
    /// with [`ServiceError::Overloaded`] instead of queued.
    pub fn deadline(mut self, budget: Duration) -> SubmitOptions {
        self.deadline = Some(budget);
        self
    }

    /// Overrides the plan's [`RetryPolicy`] for this job only — e.g.
    /// enabling escalation for one suspect input without re-keying the
    /// plan cache.
    pub fn retry(mut self, retry: RetryPolicy) -> SubmitOptions {
        self.retry = Some(retry);
        self
    }
}

/// A queued job's expiry: the absolute instant plus the original budget
/// (kept so the typed error can report what the caller asked for).
#[derive(Clone, Copy)]
struct Deadline {
    at: Instant,
    budget: Duration,
}

impl Deadline {
    fn from_budget(budget: Option<Duration>, now: Instant) -> Option<Deadline> {
        budget.map(|budget| Deadline {
            at: now + budget,
            budget,
        })
    }
}

/// One queued factorization: the resolved plan, the input, the slot the
/// worker fulfills, the submission timestamp for latency accounting, and
/// the job's cancellation/deadline/retry state.
struct Job {
    plan: Arc<QrPlan>,
    input: JobInput,
    slot: Arc<Slot<QrReport>>,
    enqueued: Instant,
    deadline: Option<Deadline>,
    cancel: Arc<AtomicBool>,
    retry: Option<RetryPolicy>,
}

/// Checks a job's cancellation flag and deadline at dequeue time,
/// returning the typed error to fulfill instead of executing — or `None`
/// when the job should run. Shared by batch and stream jobs.
fn dequeue_reject(
    shared: &Shared,
    cancel: &AtomicBool,
    deadline: Option<Deadline>,
    enqueued: Instant,
) -> Option<ServiceError> {
    if cancel.load(Ordering::Relaxed) {
        shared.stats.cancelled_one();
        return Some(ServiceError::Cancelled);
    }
    if let Some(d) = deadline {
        let now = Instant::now();
        if now >= d.at {
            shared.stats.expired_one();
            return Some(ServiceError::DeadlineExceeded {
                waited: now.duration_since(enqueued),
                budget: d.budget,
            });
        }
    }
    None
}

/// One unit of queued work. Batch jobs and stream operations enter through
/// the bounded injector (sharing backpressure); `Many` chunks are the
/// *internal* splits of an admitted [`QrService::factor_many`] batch and
/// travel through the stealable per-worker deques.
enum Work {
    Factor(Job),
    Stream(StreamJob),
    Many(ManyChunk),
}

/// An admitted `factor_many` batch: one dispatch covering many panels.
/// Workers split index ranges onto their local deques; each completed
/// panel decrements `remaining`, and the worker that retires the last
/// panel fulfills the slot with all results in submission order.
struct ManyBatch {
    plan: Arc<QrPlan>,
    inputs: Vec<JobInput>,
    /// Largest range a worker factors without splitting further. Sized at
    /// submission so the batch shatters into a few chunks per worker —
    /// enough to steal, not so many that deque traffic dominates.
    leaf: usize,
    results: Mutex<Vec<Option<Result<QrReport, ServiceError>>>>,
    remaining: AtomicUsize,
    slot: Arc<Slot<Vec<Result<QrReport, ServiceError>>>>,
    enqueued: Instant,
}

/// A contiguous index range `[lo, hi)` of a [`ManyBatch`].
struct ManyChunk {
    batch: Arc<ManyBatch>,
    lo: usize,
    hi: usize,
}

/// Completion slot shared between a worker and a handle.
struct Slot<T> {
    result: Mutex<Option<Result<T, ServiceError>>>,
    done: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Arc<Slot<T>> {
        Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fulfill(&self, outcome: Result<T, ServiceError>) {
        let mut g = self.result.lock().unwrap_or_else(|e| e.into_inner());
        *g = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<T, ServiceError> {
        let mut g = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = g.take() {
                return outcome;
            }
            g = self.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Waits at most `budget`; `None` means the job is still pending (the
    /// result stays in the slot, so a later wait still redeems it).
    fn wait_timeout(&self, budget: Duration) -> Option<Result<T, ServiceError>> {
        let deadline = Instant::now() + budget;
        let mut g = self.result.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = g.take() {
                return Some(outcome);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, _) = self.done.wait_timeout(g, remaining).unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    fn is_finished(&self) -> bool {
        self.result.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }
}

/// Handle to one submitted job; redeem it with [`JobHandle::wait`] or poll
/// it with [`JobHandle::wait_timeout`].
#[must_use = "a submitted job's outcome is only observable through its handle"]
pub struct JobHandle {
    slot: Arc<Slot<QrReport>>,
    cancel: Arc<AtomicBool>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl JobHandle {
    /// Blocks until the job completes, returning its report or error.
    pub fn wait(self) -> Result<QrReport, ServiceError> {
        self.slot.wait()
    }

    /// Blocks at most `budget`. `Some` delivers the job's outcome exactly
    /// like [`wait`](JobHandle::wait); `None` means the job is still
    /// pending — the handle stays redeemable, so the caller can poll
    /// again, block with `wait`, or [`cancel`](JobHandle::cancel). Never
    /// blocks past the budget, even against a wedged pool.
    pub fn wait_timeout(&self, budget: Duration) -> Option<Result<QrReport, ServiceError>> {
        self.slot.wait_timeout(budget)
    }

    /// Requests cancellation. Lazy, like deadlines: if the job is still
    /// queued when a worker pops it, the handle resolves to
    /// [`ServiceError::Cancelled`] without executing; a job already
    /// running (or already finished) is unaffected and delivers its real
    /// outcome. Idempotent, callable from any thread holding the handle.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the job has already completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.slot.is_finished()
    }
}

/// One stream operation, submitted through [`QrService::stream_submit`]
/// (directly, or via the [`QrService::append_rows`] family of
/// conveniences, which construct these).
#[derive(Debug)]
#[must_use = "a StreamOp does nothing until submitted to a QrService"]
pub enum StreamOp {
    /// Append a block of rows to the stream's factor.
    Append(Matrix),
    /// Append rows together with their right-hand-side rows (streams
    /// opened with [`QrService::stream_open_with_rhs`]).
    AppendWith(Matrix, Matrix),
    /// Retire the stream's oldest rows (which must match `Matrix`).
    Downdate(Matrix),
    /// Retire rows together with their right-hand-side rows.
    DowndateWith(Matrix, Matrix),
    /// Answer the least-squares solve over the rows live at this
    /// operation's turnstile slot.
    Solve,
    /// Materialize a full [`StreamSnapshot`].
    Snapshot,
}

/// What a completed stream job produced: appends and downdates report the
/// stream's [`StreamStatus`]; solve jobs deliver the least-squares
/// solution; snapshot jobs deliver the full [`StreamSnapshot`].
#[derive(Clone, Debug)]
pub enum StreamOutcome {
    /// An append or downdate was applied.
    Update(StreamStatus),
    /// A least-squares solve was answered: the `n × nrhs` solution of
    /// `min ‖Ax − b‖` over the rows live at the solve's turnstile slot.
    Solution(Matrix),
    /// A snapshot was materialized.
    Snapshot(StreamSnapshot),
}

impl StreamOutcome {
    /// The update status, when this outcome came from an append/downdate.
    pub fn status(&self) -> Option<StreamStatus> {
        match self {
            StreamOutcome::Update(s) => Some(*s),
            StreamOutcome::Solution(_) | StreamOutcome::Snapshot(_) => None,
        }
    }

    /// The solution, when this outcome came from a solve job.
    pub fn into_solution(self) -> Option<Matrix> {
        match self {
            StreamOutcome::Solution(x) => Some(x),
            StreamOutcome::Update(_) | StreamOutcome::Snapshot(_) => None,
        }
    }

    /// The snapshot, when this outcome came from a snapshot job.
    pub fn into_snapshot(self) -> Option<StreamSnapshot> {
        match self {
            StreamOutcome::Snapshot(s) => Some(s),
            StreamOutcome::Update(_) | StreamOutcome::Solution(_) => None,
        }
    }
}

/// The mutable half of a registered stream: the live factor plus the
/// turnstile counter of operations already applied to it.
struct StreamState {
    applied: u64,
    qr: StreamingQr,
}

/// A registered live stream. `state`/`turn` form the execution turnstile
/// (workers apply operations strictly by sequence number); `submit` issues
/// those sequence numbers, and is held across the queue push so that
/// per-stream queue order always equals sequence order — the invariant
/// that keeps a worker holding a later operation from waiting on one still
/// *behind* it in the injector (which would deadlock a width-1 pool).
/// Stream operations never enter the stealable local deques: only the
/// FIFO injector preserves that invariant, and stealing a stream op could
/// otherwise run it ahead of its turn holder.
struct StreamEntry {
    state: Mutex<StreamState>,
    turn: Condvar,
    submit: Mutex<u64>,
}

/// One queued stream operation with its turnstile ticket.
struct StreamJob {
    entry: Arc<StreamEntry>,
    op: StreamOp,
    seq: u64,
    slot: Arc<Slot<StreamOutcome>>,
    enqueued: Instant,
    deadline: Option<Deadline>,
    cancel: Arc<AtomicBool>,
}

/// Handle to one submitted stream operation; redeem it with
/// [`StreamHandle::wait`] or poll it with [`StreamHandle::wait_timeout`].
#[must_use = "a submitted stream operation's outcome is only observable through its handle"]
pub struct StreamHandle {
    slot: Arc<Slot<StreamOutcome>>,
    cancel: Arc<AtomicBool>,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl StreamHandle {
    /// Blocks until the operation completes, returning its outcome or
    /// error. Typed stream failures (indefinite downdate, shape mismatch,
    /// history mismatch, …) surface here as
    /// [`ServiceError::Plan`]-wrapped [`PlanError`]s.
    pub fn wait(self) -> Result<StreamOutcome, ServiceError> {
        self.slot.wait()
    }

    /// Blocks at most `budget`; `None` means still pending and the handle
    /// stays redeemable. Never blocks past the budget.
    pub fn wait_timeout(&self, budget: Duration) -> Option<Result<StreamOutcome, ServiceError>> {
        self.slot.wait_timeout(budget)
    }

    /// Requests lazy cancellation. A cancelled stream operation still
    /// consumes its turnstile slot (so later operations on the stream are
    /// not wedged) but does **not** execute — the stream's factor state is
    /// untouched, exactly as if the operation had never been submitted,
    /// and the handle resolves to [`ServiceError::Cancelled`]. An
    /// operation already applied (or applying) is unaffected.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the operation has already completed (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.slot.is_finished()
    }
}

/// Shard count of the plan cache. A small power of two: plenty of
/// independence for realistic spec diversity, negligible footprint.
const PLAN_SHARDS: usize = 16;

/// The plan cache, split into independently locked shards so concurrent
/// lookups of different keys never serialize on one `RwLock`.
struct ShardedPlanCache {
    shards: Vec<RwLock<HashMap<JobSpec, Arc<QrPlan>>>>,
}

/// FNV-1a over the spec's derived `Hash`. `HashMap`'s own `RandomState` is
/// seeded per process, which would make shard assignment unstable across
/// runs; FNV is fixed, so a spec lands on the same shard every time —
/// which keeps shard-level behavior (contention, eviction) reproducible.
fn shard_index(key: &JobSpec) -> usize {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    (h.finish() as usize) % PLAN_SHARDS
}

impl ShardedPlanCache {
    fn new() -> ShardedPlanCache {
        ShardedPlanCache {
            shards: (0..PLAN_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &JobSpec) -> &RwLock<HashMap<JobSpec, Arc<QrPlan>>> {
        &self.shards[shard_index(key)]
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }
}

/// State shared between the service front end and its workers.
struct Shared {
    queue: StealQueue<Work>,
    cache: ShardedPlanCache,
    /// Registry of open streams, keyed by caller-chosen name.
    streams: RwLock<HashMap<String, Arc<StreamEntry>>>,
    /// Memoized cost-model tuning results for [`QrService::plan_auto`]:
    /// shape → winning spec, so repeat shapes skip re-enumeration (the
    /// installed-profile check stays per-call — it is cheap and the
    /// profile can change).
    auto_specs: RwLock<HashMap<(usize, usize), JobSpec>>,
    stats: Recorder,
    machine: Machine,
    runtime: RuntimeKind,
    default_backend: BackendKind,
}

/// Builder for [`QrService`]; created by [`QrService::builder`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct QrServiceBuilder {
    workers: Option<usize>,
    queue_capacity: Option<usize>,
    machine: Machine,
    runtime: RuntimeKind,
    backend: BackendKind,
}

impl QrServiceBuilder {
    /// Requests a pool width; clamped to the process thread budget
    /// ([`dense::thread_budget`]). Default: the whole budget.
    pub fn workers(mut self, workers: usize) -> QrServiceBuilder {
        self.workers = Some(workers);
        self
    }

    /// Sets the bounded submission injector's capacity (default:
    /// `2 × workers`). [`QrService::submit`] blocks while the injector
    /// holds this many unstarted jobs. Internal `factor_many` splits don't
    /// count — admission control is per submission, not per panel.
    pub fn queue_capacity(mut self, capacity: usize) -> QrServiceBuilder {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Sets the simulated machine model charged by every job (default
    /// [`Machine::zero`]).
    pub fn machine(mut self, machine: Machine) -> QrServiceBuilder {
        self.machine = machine;
        self
    }

    /// Sets the execution backend every job runs on (default: the
    /// process-wide choice from `CACQR_RUNTIME`). Like the machine model,
    /// the runtime is a property of the whole service, not of individual
    /// specs — equal specs share one cached plan either way.
    pub fn runtime(mut self, runtime: RuntimeKind) -> QrServiceBuilder {
        self.runtime = runtime;
        self
    }

    /// Sets the default kernel backend for specs that don't pin one
    /// (default: the process-wide default).
    pub fn backend(mut self, backend: BackendKind) -> QrServiceBuilder {
        self.backend = backend;
        self
    }

    /// Spawns the worker pool and returns the running service.
    pub fn build(self) -> QrService {
        let workers = dense::thread_budget(self.workers.unwrap_or(usize::MAX));
        let capacity = self.queue_capacity.unwrap_or(2 * workers);
        let shared = Arc::new(Shared {
            queue: StealQueue::new(capacity, workers),
            cache: ShardedPlanCache::new(),
            streams: RwLock::new(HashMap::new()),
            auto_specs: RwLock::new(HashMap::new()),
            stats: Recorder::new(),
            machine: self.machine,
            runtime: self.runtime,
            default_backend: self.backend,
        });
        let reservation = PoolReservation::register(workers);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qrservice-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn QrService worker thread")
            })
            .collect();
        QrService {
            shared,
            handles,
            _reservation: reservation,
            workers,
        }
    }
}

/// Worker body: drain work until the queue closes, surviving job panics.
///
/// The consumer guard deregisters this worker on *any* exit — normal
/// shutdown or a panic that escapes a job guard — so producers blocked on
/// a full injector fail with [`ServiceError::ShuttingDown`] instead of
/// waiting on a pool that will never drain. While parked, the worker
/// marks itself idle ([`dense::pool_worker_idle`]) so its kernel-thread
/// share flows to the workers still running jobs.
fn worker_loop(shared: &Shared, worker: usize) {
    let _consumer = shared.queue.consumer();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (worker as u64 + 1);
    while let Some(work) = shared.queue.pop(worker, &mut rng, dense::pool_worker_idle) {
        dense::fault::maybe_delay(dense::fault::DEQUEUE);
        match work {
            Work::Factor(job) => {
                shared.stats.queue_wait.record(job.enqueued.elapsed());
                // Lazy cancellation/expiry: the handle resolves typed, the
                // kernels never run, the stream of siblings is untouched.
                if let Some(err) = dequeue_reject(shared, &job.cancel, job.deadline, job.enqueued) {
                    job.slot.fulfill(Err(err));
                    continue;
                }
                let policy = job.retry.unwrap_or_else(|| job.plan.retry_policy());
                let t0 = Instant::now();
                let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                    dense::faultpoint!(dense::fault::WORKER, {
                        panic!("injected worker fault (CACQR_FAULTS site `worker`)");
                    });
                    job.plan.factor_with_policy(job.input.matrix(), policy)
                })) {
                    Ok(Ok(report)) => {
                        record_escalation(shared, &report);
                        Ok(report)
                    }
                    Ok(Err(e)) => Err(ServiceError::Plan(e)),
                    Err(payload) => Err(ServiceError::WorkerPanicked {
                        message: panic_message(payload.as_ref()),
                    }),
                };
                shared.stats.execution.record(t0.elapsed());
                shared.stats.end_to_end.record(job.enqueued.elapsed());
                shared.stats.complete(1);
                job.slot.fulfill(outcome);
            }
            Work::Stream(job) => run_stream_job(shared, job),
            Work::Many(chunk) => run_many_chunk(shared, worker, chunk),
        }
    }
}

/// Feeds a completed report's escalation record into the service counters:
/// each rung beyond the first is a retry; an accepted non-primary rung is
/// an escalation.
fn record_escalation(shared: &Shared, report: &QrReport) {
    if let Some(esc) = &report.escalation {
        shared.stats.retried(esc.attempts.len().saturating_sub(1) as u64);
        if esc.escalated() {
            shared.stats.escalated();
        }
    }
}

/// Processes one `factor_many` range: shatter it to leaf granularity
/// (pushing the far halves onto this worker's deque, where siblings steal
/// them), factor the local leaf, and deliver the batch when its last
/// panel retires.
fn run_many_chunk(shared: &Shared, worker: usize, chunk: ManyChunk) {
    let ManyChunk { batch, lo, mut hi } = chunk;
    while hi - lo > batch.leaf {
        let mid = lo + (hi - lo) / 2;
        shared.queue.push_local(
            worker,
            Work::Many(ManyChunk {
                batch: Arc::clone(&batch),
                lo: mid,
                hi,
            }),
        );
        hi = mid;
    }
    let picked = Instant::now();
    for i in lo..hi {
        shared.stats.queue_wait.record(picked.duration_since(batch.enqueued));
        let t0 = Instant::now();
        let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| batch.plan.factor(batch.inputs[i].matrix()))) {
            Ok(Ok(report)) => {
                record_escalation(shared, &report);
                Ok(report)
            }
            Ok(Err(e)) => Err(ServiceError::Plan(e)),
            Err(payload) => Err(ServiceError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            }),
        };
        shared.stats.execution.record(t0.elapsed());
        shared.stats.end_to_end.record(batch.enqueued.elapsed());
        shared.stats.complete(1);
        batch.results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(outcome);
    }
    let done = hi - lo;
    if batch.remaining.fetch_sub(done, Ordering::SeqCst) == done {
        // This leaf retired the batch's last panel: deliver everything in
        // submission order.
        let results = std::mem::take(&mut *batch.results.lock().unwrap_or_else(|e| e.into_inner()));
        batch.slot.fulfill(Ok(results
            .into_iter()
            .map(|r| r.expect("every panel index was factored exactly once"))
            .collect()));
    }
}

/// Applies one stream operation at its turnstile slot.
///
/// Waits until every earlier-submitted operation on the same stream has
/// been applied (the FIFO injector guarantees those are already popped by
/// some worker, never still queued behind this one), applies this one, and
/// advances the turnstile — *unconditionally*, even when the operation
/// failed or panicked, or every later queued operation on the stream would
/// wait forever.
fn run_stream_job(shared: &Shared, job: StreamJob) {
    let StreamJob {
        entry,
        op,
        seq,
        slot,
        enqueued,
        deadline,
        cancel,
    } = job;
    shared.stats.queue_wait.record(enqueued.elapsed());
    // Lazy cancellation/expiry — but a stream operation owns a turnstile
    // ticket, so it must still *consume its slot*: fulfill the typed error
    // now (the caller stops waiting immediately), then take the turn and
    // advance the counter without touching the factor. Skipping the turn
    // would wedge every later operation on the stream forever.
    let rejected = dequeue_reject(shared, &cancel, deadline, enqueued);
    let skip = rejected.is_some();
    if let Some(err) = rejected {
        slot.fulfill(Err(err));
    }
    let mut st = entry.state.lock().unwrap_or_else(|e| e.into_inner());
    while st.applied != seq {
        st = entry.turn.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    if skip {
        st.applied += 1;
        entry.turn.notify_all();
        return;
    }
    let qr = &mut st.qr;
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match &op {
        StreamOp::Append(b) => qr.append_rows(b.as_ref()).map(StreamOutcome::Update),
        StreamOp::AppendWith(b, c) => qr.append_rows_with(b.as_ref(), c.as_ref()).map(StreamOutcome::Update),
        StreamOp::Downdate(b) => qr.downdate_rows(b.as_ref()).map(StreamOutcome::Update),
        StreamOp::DowndateWith(b, c) => qr.downdate_rows_with(b.as_ref(), c.as_ref()).map(StreamOutcome::Update),
        StreamOp::Solve => qr.solve().map(StreamOutcome::Solution),
        StreamOp::Snapshot => qr.snapshot().map(StreamOutcome::Snapshot),
    }));
    shared.stats.execution.record(t0.elapsed());
    st.applied += 1;
    entry.turn.notify_all();
    drop(st);
    shared.stats.end_to_end.record(enqueued.elapsed());
    shared.stats.complete(1);
    slot.fulfill(match outcome {
        Ok(Ok(o)) => Ok(o),
        Ok(Err(e)) => Err(ServiceError::Plan(e)),
        Err(payload) => Err(ServiceError::WorkerPanicked {
            message: panic_message(payload.as_ref()),
        }),
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The concurrent plan-caching batch factorization engine. See the
/// [module docs](self).
///
/// Shared by reference: every method takes `&self`, so one service instance
/// can serve any number of submitting threads. Dropping the service closes
/// the queue, lets the workers drain already-accepted jobs, and joins them;
/// [`QrService::close`] does the closing half early, from `&self`.
pub struct QrService {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    _reservation: PoolReservation,
    workers: usize,
}

impl QrService {
    /// Starts configuring a service.
    pub fn builder() -> QrServiceBuilder {
        QrServiceBuilder {
            workers: None,
            queue_capacity: None,
            machine: Machine::zero(),
            runtime: RuntimeKind::from_env(),
            backend: BackendKind::default_kind(),
        }
    }

    /// Number of worker threads in the pool (after budget clamping).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Capacity of the bounded submission injector.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// The machine model every job is charged under.
    pub fn machine(&self) -> Machine {
        self.shared.machine
    }

    /// The execution backend every job runs on.
    pub fn runtime(&self) -> RuntimeKind {
        self.shared.runtime
    }

    /// Point-in-time latency and throughput telemetry: p50/p99 queue-wait,
    /// execution, and end-to-end latency plus sustained jobs-per-second
    /// since the pool started. Lock-free to record, cheap to snapshot —
    /// safe to poll from a monitoring loop.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }

    /// Number of distinct plans currently cached, across all shards.
    pub fn plan_cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Number of distinct plans currently cached (alias of
    /// [`QrService::plan_cache_len`], kept for existing callers).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache_len()
    }

    /// Evicts the cached plan for `spec`, returning whether one was
    /// cached. Touches only the spec's shard. Jobs already holding the
    /// `Arc<QrPlan>` keep running — the plan is dropped when the last
    /// holder finishes — so eviction bounds the cache without invalidating
    /// in-flight work.
    pub fn evict(&self, spec: &JobSpec) -> bool {
        let key = self.cache_key(spec);
        self.shared
            .cache
            .shard(&key)
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key)
            .is_some()
    }

    /// Resolves the plan for `(m, n)` by autotuning: the
    /// [`Tuner`](crate::tuner::Tuner) picks the configuration
    /// (cost-model-only, so this is cheap and deterministic), and the
    /// winning spec becomes the cache key — repeat shapes reuse the tuned
    /// plan without re-tuning validation.
    pub fn plan_auto(&self, m: usize, n: usize) -> Result<Arc<QrPlan>, ServiceError> {
        // Honor the process-wide installed profile exactly like
        // `QrPlan::auto` does: the two auto front doors must agree.
        if let Some(entry) = crate::tuner::installed_entry(m, n) {
            return self.plan(&entry.spec()?);
        }
        // Cost-model tuning is deterministic per shape, so memoize the
        // winning spec: repeat shapes skip re-enumeration entirely.
        if let Some(spec) = self
            .shared
            .auto_specs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(m, n))
        {
            return self.plan(spec);
        }
        let report = crate::tuner::Tuner::new(m, n)
            .backends(&[self.shared.default_backend])
            .report()
            .map_err(PlanError::from)?;
        let spec = report.best_spec();
        self.shared
            .auto_specs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert((m, n), spec);
        self.plan(&spec)
    }

    /// Preloads every entry of a [`TuningProfile`](crate::tuner::TuningProfile)
    /// into the plan cache, so the first request of each profiled shape
    /// never pays planning. Returns how many plans were newly built;
    /// entries already cached (or normalizing to an already-cached key)
    /// are skipped for free. Any invalid entry aborts with its typed
    /// error. Observe and bound the result via
    /// [`QrService::plan_cache_len`] / [`QrService::evict`].
    pub fn preload_profile(&self, profile: &crate::tuner::TuningProfile) -> Result<usize, ServiceError> {
        let mut built = 0;
        for entry in profile.entries() {
            let (_, inserted) = self.plan_tracking_insert(&entry.spec()?)?;
            built += usize::from(inserted);
        }
        Ok(built)
    }

    /// Normalizes a spec into its cache key: unset knobs that the service
    /// defaults (currently the backend) are resolved so that "default" and
    /// "explicitly the default" share one cache entry (and one shard).
    fn cache_key(&self, spec: &JobSpec) -> JobSpec {
        let mut key = *spec;
        key.backend = Some(key.backend.unwrap_or(self.shared.default_backend));
        key
    }

    /// Resolves (building and caching on first use) the plan for `spec`.
    ///
    /// Equal specs return pointer-equal `Arc<QrPlan>`s for the lifetime of
    /// the service; repeat shapes never pay validation again.
    pub fn plan(&self, spec: &JobSpec) -> Result<Arc<QrPlan>, ServiceError> {
        Ok(self.plan_tracking_insert(spec)?.0)
    }

    /// [`QrService::plan`] plus whether this call inserted a new cache
    /// entry (exact even under concurrent cache churn). Only the key's own
    /// shard is locked: a plan build for one spec never blocks lookups of
    /// specs hashing elsewhere.
    fn plan_tracking_insert(&self, spec: &JobSpec) -> Result<(Arc<QrPlan>, bool), ServiceError> {
        let key = self.cache_key(spec);
        let shard = self.shared.cache.shard(&key);
        if let Some(plan) = shard.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Ok((Arc::clone(plan), false));
        }
        let mut cache = shard.write().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = cache.get(&key) {
            return Ok((Arc::clone(plan), false)); // lost the build race: reuse the winner
        }
        let plan =
            Arc::new(key.build_plan_on(self.shared.machine, self.shared.default_backend, self.shared.runtime)?);
        cache.insert(key, Arc::clone(&plan));
        Ok((plan, true))
    }

    /// Validates the operand against the spec's plan and enqueues the job,
    /// blocking while the submission injector is full (backpressure).
    ///
    /// Takes anything convertible to a [`JobInput`]: an owned [`Matrix`]
    /// (moved, exactly as before) or an `Arc<Matrix>` (shared — no data
    /// copy; see [`QrService::submit_ref`]).
    ///
    /// Planning errors (invalid spec, shape mismatch) surface here, before
    /// the job is accepted; execution errors surface from
    /// [`JobHandle::wait`]. A closed or worker-less service fails with
    /// [`ServiceError::ShuttingDown`] instead of blocking forever.
    pub fn submit(&self, spec: &JobSpec, a: impl Into<JobInput>) -> Result<JobHandle, ServiceError> {
        self.submit_with(spec, a, SubmitOptions::new())
    }

    /// [`QrService::submit`] with per-job quality-of-service knobs: a
    /// deadline (enforced lazily at dequeue, see
    /// [`SubmitOptions::deadline`]) and/or a [`RetryPolicy`] override.
    ///
    /// Deadline submissions pass admission control first: when the pool's
    /// observed p99 queue wait already exceeds the budget, the job is shed
    /// with [`ServiceError::Overloaded`] instead of queued — it would
    /// almost certainly expire at dequeue anyway, and shedding keeps the
    /// injector slot for work that can still meet its deadline.
    pub fn submit_with(
        &self,
        spec: &JobSpec,
        a: impl Into<JobInput>,
        opts: SubmitOptions,
    ) -> Result<JobHandle, ServiceError> {
        self.admit(opts)?;
        let job = self.prepare(spec, a.into(), opts)?;
        let slot = Arc::clone(&job.slot);
        let cancel = Arc::clone(&job.cancel);
        match self.shared.queue.push(Work::Factor(job)) {
            Ok(()) => Ok(JobHandle { slot, cancel }),
            Err(_) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Admission control for deadline-carrying submissions: sheds the job
    /// when the pool's p99 queue wait already exceeds its budget.
    fn admit(&self, opts: SubmitOptions) -> Result<(), ServiceError> {
        if let Some(budget) = opts.deadline {
            let queue_p99 = self.shared.stats.queue_wait.summary().p99;
            if queue_p99 > budget {
                self.shared.stats.shed_one();
                return Err(ServiceError::Overloaded { queue_p99, budget });
            }
        }
        Ok(())
    }

    /// Zero-copy submission: the job borrows the caller's `Arc<Matrix>`
    /// (pointer clone only — the matrix data is never copied), so fanning
    /// one operand out to many jobs, or submitting while keeping a handle
    /// on the input, costs nothing per submission.
    pub fn submit_ref(&self, spec: &JobSpec, a: &Arc<Matrix>) -> Result<JobHandle, ServiceError> {
        self.submit(spec, JobInput::Shared(Arc::clone(a)))
    }

    /// Like [`QrService::submit`] but never blocks: a full injector returns
    /// [`ServiceError::QueueFull`] and hands no job to the pool.
    pub fn try_submit(&self, spec: &JobSpec, a: impl Into<JobInput>) -> Result<JobHandle, ServiceError> {
        let job = self.prepare(spec, a.into(), SubmitOptions::new())?;
        let slot = Arc::clone(&job.slot);
        let cancel = Arc::clone(&job.cancel);
        match self.shared.queue.try_push(Work::Factor(job)) {
            Ok(()) => Ok(JobHandle { slot, cancel }),
            Err(PushError::Full(_)) => Err(ServiceError::QueueFull {
                capacity: self.shared.queue.capacity(),
            }),
            Err(PushError::Closed(_)) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Opens a named stream: factors `initial` through the spec's cached
    /// plan (synchronously, on the caller's thread — so planning and
    /// conditioning errors surface here, typed) and registers the live
    /// factor under `key`. Subsequent [`append_rows`](QrService::append_rows)
    /// / [`downdate_rows`](QrService::downdate_rows) /
    /// [`snapshot`](QrService::snapshot) jobs address it by key and run on
    /// the worker pool, sharing the service's plan cache, thread budget,
    /// and warm arena pools with batch traffic.
    pub fn stream_open(&self, key: &str, spec: &JobSpec, initial: &Matrix) -> Result<(), ServiceError> {
        let plan = self.plan(spec)?;
        let qr = plan.stream(initial)?;
        self.register_stream(key, qr)
    }

    /// Like [`stream_open`](QrService::stream_open), but the stream also
    /// maintains the right-hand-side track `d = Aᵀb` (see
    /// [`QrPlan::stream_with_rhs`]), so the service can answer
    /// [`solve`](QrService::solve) jobs against it. Updates must then go
    /// through [`append_rows_with`](QrService::append_rows_with) /
    /// [`downdate_rows_with`](QrService::downdate_rows_with) so the track
    /// stays synchronized with the factor.
    pub fn stream_open_with_rhs(
        &self,
        key: &str,
        spec: &JobSpec,
        initial: &Matrix,
        rhs: &Matrix,
    ) -> Result<(), ServiceError> {
        let plan = self.plan(spec)?;
        let qr = plan.stream_with_rhs(initial, rhs)?;
        self.register_stream(key, qr)
    }

    /// Registers a caller-configured [`StreamingQr`] under `key` — the
    /// escape hatch for streams that need knobs
    /// [`stream_open`](QrService::stream_open) does not expose
    /// ([`with_history(false)`](StreamingQr::with_history), a custom
    /// drift threshold, …). The adopted stream serves
    /// [`append_rows`](QrService::append_rows) /
    /// [`stream_submit`](QrService::stream_submit) jobs exactly like an
    /// opened one. The stream should come from a plan compatible with this
    /// service's runtime and thread budget — typically one resolved via
    /// [`QrService::plan`].
    pub fn stream_adopt(&self, key: &str, qr: StreamingQr) -> Result<(), ServiceError> {
        self.register_stream(key, qr)
    }

    fn register_stream(&self, key: &str, qr: StreamingQr) -> Result<(), ServiceError> {
        let mut map = self.shared.streams.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(key) {
            return Err(ServiceError::StreamExists { key: key.to_string() });
        }
        map.insert(
            key.to_string(),
            Arc::new(StreamEntry {
                state: Mutex::new(StreamState { applied: 0, qr }),
                turn: Condvar::new(),
                submit: Mutex::new(0),
            }),
        );
        Ok(())
    }

    /// Closes the named stream, returning whether one was open.
    ///
    /// Close is a *drain*, not a cancel: operations already queued hold
    /// their own `Arc` to the stream entry, so they execute to completion
    /// in submission order and their handles stay redeemable — including
    /// solves and snapshots queued just before the close. Only operations
    /// submitted after the close fail, with
    /// [`ServiceError::UnknownStream`]. The stream's factor state is
    /// dropped when the last queued operation finishes.
    pub fn stream_close(&self, key: &str) -> bool {
        self.shared
            .streams
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key)
            .is_some()
    }

    /// Number of streams currently open.
    pub fn open_streams(&self) -> usize {
        self.shared.streams.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Enqueues a rank-k row-append against the named stream. Per key,
    /// operations apply strictly in submission order; the handle's
    /// [`StreamOutcome::status`] reports the post-append state (including
    /// whether a refresh fired).
    pub fn append_rows(&self, key: &str, rows: Matrix) -> Result<StreamHandle, ServiceError> {
        self.submit_stream(key, StreamOp::Append(rows))
    }

    /// Enqueues a rank-k row-append carrying the matching right-hand-side
    /// rows, for streams opened with
    /// [`stream_open_with_rhs`](QrService::stream_open_with_rhs): the
    /// factor and `d = Aᵀb` advance in the same turnstile slot.
    pub fn append_rows_with(&self, key: &str, rows: Matrix, rhs: Matrix) -> Result<StreamHandle, ServiceError> {
        self.submit_stream(key, StreamOp::AppendWith(rows, rhs))
    }

    /// Enqueues a downdate of the named stream's `rows.rows()` oldest rows
    /// (which must match what was appended — see
    /// [`StreamingQr::downdate_rows`]).
    pub fn downdate_rows(&self, key: &str, rows: Matrix) -> Result<StreamHandle, ServiceError> {
        self.submit_stream(key, StreamOp::Downdate(rows))
    }

    /// Enqueues a downdate that also retires the matching right-hand-side
    /// rows from the stream's `d = Aᵀb` track (see
    /// [`StreamingQr::downdate_rows_with`]).
    pub fn downdate_rows_with(&self, key: &str, rows: Matrix, rhs: Matrix) -> Result<StreamHandle, ServiceError> {
        self.submit_stream(key, StreamOp::DowndateWith(rows, rhs))
    }

    /// Enqueues a least-squares solve against the named stream: the handle
    /// delivers [`StreamOutcome::Solution`] with the `n × nrhs` minimizer
    /// of `min ‖Ax − b‖` over exactly the rows live when the solve's
    /// turnstile slot comes up — ordered after every operation submitted
    /// before it, bitwise-deterministic under pool contention. Requires a
    /// stream opened with
    /// [`stream_open_with_rhs`](QrService::stream_open_with_rhs).
    pub fn solve(&self, key: &str) -> Result<StreamHandle, ServiceError> {
        self.submit_stream(key, StreamOp::Solve)
    }

    /// Enqueues a snapshot of the named stream: the handle delivers a
    /// [`StreamSnapshot`] with explicit `Q` and batch-grade diagnostics
    /// (see [`StreamingQr::snapshot`]), ordered after every operation
    /// submitted before it.
    pub fn snapshot(&self, key: &str) -> Result<StreamHandle, ServiceError> {
        self.submit_stream(key, StreamOp::Snapshot)
    }

    fn submit_stream(&self, key: &str, op: StreamOp) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, op, SubmitOptions::new())
    }

    /// The general stream submission entry: enqueues `op` against the
    /// named stream with per-job quality-of-service knobs (the
    /// [`QrService::append_rows`] family delegates here with defaults).
    /// Deadline submissions pass the same admission control as
    /// [`QrService::submit_with`]; a cancelled or expired stream operation
    /// still consumes its turnstile slot — later operations on the stream
    /// are never wedged — but leaves the factor state untouched.
    pub fn stream_submit(&self, key: &str, op: StreamOp, opts: SubmitOptions) -> Result<StreamHandle, ServiceError> {
        self.admit(opts)?;
        let entry = self
            .shared
            .streams
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .map(Arc::clone)
            .ok_or_else(|| ServiceError::UnknownStream { key: key.to_string() })?;
        let slot = Slot::new();
        let cancel = Arc::new(AtomicBool::new(false));
        // Hold the sequence lock across the push: per-stream queue order
        // must equal sequence order (see `StreamEntry`). Only submitters to
        // the *same* stream serialize here.
        let mut next = entry.submit.lock().unwrap_or_else(|e| e.into_inner());
        let enqueued = Instant::now();
        let job = StreamJob {
            entry: Arc::clone(&entry),
            op,
            seq: *next,
            slot: Arc::clone(&slot),
            enqueued,
            deadline: Deadline::from_budget(opts.deadline, enqueued),
            cancel: Arc::clone(&cancel),
        };
        match self.shared.queue.push(Work::Stream(job)) {
            Ok(()) => {
                *next += 1;
                Ok(StreamHandle { slot, cancel })
            }
            Err(_) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Factors every matrix in `batch` under one spec, returning reports in
    /// batch order. All-or-nothing: the first per-job failure is returned as
    /// [`ServiceError::BatchJobFailed`] (carrying the failing index) and the
    /// other reports are dropped — use [`QrService::try_factor_batch`] to
    /// keep them.
    ///
    /// Submissions interleave with waiting, so a batch larger than the
    /// injector capacity streams through the pool under backpressure.
    /// Results are bitwise identical to a sequential `plan.factor` loop
    /// over the same matrices — parallel execution never perturbs the
    /// arithmetic.
    ///
    /// Each input is cloned into its job (the caller keeps the originals).
    /// For small panels, the per-job dispatch dominates — hand the batch
    /// over to [`QrService::factor_many`], which admits it as *one* job
    /// and lets the pool steal panel ranges.
    pub fn factor_batch(&self, spec: &JobSpec, batch: &[Matrix]) -> Result<Vec<QrReport>, ServiceError> {
        self.try_factor_batch(spec, batch)?
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| {
                outcome.map_err(|e| ServiceError::BatchJobFailed {
                    index,
                    source: Box::new(e),
                })
            })
            .collect()
    }

    /// Like [`QrService::factor_batch`], but delivers every job's individual
    /// outcome: one failed matrix does not discard its siblings' completed
    /// reports. The outer `Result` fails only when the batch could not be
    /// submitted at all (invalid spec, shape mismatch, shutdown).
    ///
    /// Outcomes are indexed by input position: element `i` is matrix `i`'s
    /// result — success or typed failure — regardless of completion order,
    /// so a failing matrix never shifts its siblings' indices.
    pub fn try_factor_batch(
        &self,
        spec: &JobSpec,
        batch: &[Matrix],
    ) -> Result<Vec<Result<QrReport, ServiceError>>, ServiceError> {
        let mut handles = Vec::with_capacity(batch.len());
        for a in batch {
            handles.push(self.submit(spec, a.clone())?);
        }
        Ok(handles.into_iter().map(JobHandle::wait).collect())
    }

    /// Factors a whole batch of (typically small) panels as **one**
    /// dispatched job: a single injector slot, a single completion wait,
    /// and panel ranges that shatter across the pool via work stealing.
    /// This amortizes the per-job dispatch (queue round-trip, slot
    /// allocation, wakeups) that dominates when panels take microseconds —
    /// the difference between [`QrService::factor_batch`] and this method
    /// *is* the service's small-panel throughput story (gated in CI by
    /// `service_slo`).
    ///
    /// Takes the batch by value: panels are moved, never cloned. Reports
    /// come back in input order, bitwise identical to a sequential
    /// `plan.factor` loop. All-or-nothing like
    /// [`QrService::factor_batch`]; use [`QrService::try_factor_many`] for
    /// per-panel outcomes. An empty batch returns an empty report list
    /// without touching the pool.
    pub fn factor_many(&self, spec: &JobSpec, batch: Vec<Matrix>) -> Result<Vec<QrReport>, ServiceError> {
        self.try_factor_many(spec, batch)?
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| {
                outcome.map_err(|e| ServiceError::BatchJobFailed {
                    index,
                    source: Box::new(e),
                })
            })
            .collect()
    }

    /// Like [`QrService::factor_many`], but delivers every panel's
    /// individual outcome. The outer `Result` fails only when the batch
    /// could not be admitted at all (invalid spec, shape mismatch,
    /// shutdown).
    ///
    /// Per-panel outcomes are indexed by input position and stay there
    /// under work stealing: which worker factors panel `i` — and in what
    /// order panels retire — never changes where its result (or typed
    /// error) lands, because each chunk writes results by absolute panel
    /// index, not arrival order.
    pub fn try_factor_many(
        &self,
        spec: &JobSpec,
        batch: Vec<Matrix>,
    ) -> Result<Vec<Result<QrReport, ServiceError>>, ServiceError> {
        let plan = self.plan(spec)?;
        for a in &batch {
            if (a.rows(), a.cols()) != (plan.m(), plan.n()) {
                return Err(ServiceError::Plan(PlanError::InputShapeMismatch {
                    expected: (plan.m(), plan.n()),
                    got: (a.rows(), a.cols()),
                }));
            }
        }
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let panels = batch.len();
        // A few leaves per worker: enough slack for stealing to balance
        // stragglers, little enough that deque traffic stays negligible.
        let leaf = (panels / (4 * self.workers.max(1))).max(1);
        let slot = Slot::new();
        let many = Arc::new(ManyBatch {
            plan,
            inputs: batch.into_iter().map(JobInput::Owned).collect(),
            leaf,
            results: Mutex::new((0..panels).map(|_| None).collect()),
            remaining: AtomicUsize::new(panels),
            slot: Arc::clone(&slot),
            enqueued: Instant::now(),
        });
        match self.shared.queue.push(Work::Many(ManyChunk {
            batch: many,
            lo: 0,
            hi: panels,
        })) {
            Ok(()) => slot.wait(),
            Err(_) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Builds the job, resolving the plan from the cache and rejecting
    /// shape mismatches up front.
    fn prepare(&self, spec: &JobSpec, input: JobInput, opts: SubmitOptions) -> Result<Job, ServiceError> {
        let plan = self.plan(spec)?;
        let a = input.matrix();
        if (a.rows(), a.cols()) != (plan.m(), plan.n()) {
            return Err(ServiceError::Plan(PlanError::InputShapeMismatch {
                expected: (plan.m(), plan.n()),
                got: (a.rows(), a.cols()),
            }));
        }
        let enqueued = Instant::now();
        Ok(Job {
            plan,
            input,
            slot: Slot::new(),
            enqueued,
            deadline: Deadline::from_budget(opts.deadline, enqueued),
            cancel: Arc::new(AtomicBool::new(false)),
            retry: opts.retry,
        })
    }

    /// Closes the service from a shared reference: no new jobs are
    /// accepted (submissions fail with [`ServiceError::ShuttingDown`]),
    /// already-accepted work drains, and the workers exit once the queue
    /// is empty. The threads are joined by `Drop` as usual — `close` is
    /// the half of shutdown that any clone-holder of `&QrService` may
    /// trigger, e.g. a signal handler asking a serving process to wind
    /// down while in-flight handles stay redeemable.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Shuts the service down: stop accepting jobs, drain the queue, join
    /// the workers. Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for QrService {
    fn drop(&mut self) {
        self.shared.queue.close();
        for h in self.handles.drain(..) {
            // A worker can only panic outside catch_unwind during queue
            // teardown; propagating would double-panic in Drop, so swallow.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::{gaussian_matrix, well_conditioned};

    fn spec_64x16() -> JobSpec {
        JobSpec::new(64, 16).grid(GridShape::new(2, 2).unwrap())
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let service = QrService::builder().workers(2).build();
        let a = well_conditioned(64, 16, 7);
        let handle = service.submit(&spec_64x16(), a.clone()).unwrap();
        let report = handle.wait().unwrap();
        assert!(report.orthogonality_error() < 1e-12);
        assert!(report.residual_error(&a) < 1e-12);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.end_to_end.count, 1);
        assert!(stats.end_to_end.p99 >= stats.execution.p50);
    }

    #[test]
    fn submit_ref_shares_the_operand() {
        let service = QrService::builder().workers(2).build();
        let a = Arc::new(well_conditioned(64, 16, 7));
        let owned = service.submit(&spec_64x16(), (*a).clone()).unwrap().wait().unwrap();
        // Fan the same Arc out to several jobs: no data copies, identical
        // bits out.
        let handles: Vec<_> = (0..3).map(|_| service.submit_ref(&spec_64x16(), &a).unwrap()).collect();
        for h in handles {
            let shared = h.wait().unwrap();
            assert_eq!(
                shared.r.data(),
                owned.r.data(),
                "shared and owned inputs factor identically"
            );
        }
        // After the workers join, every job's reference is dropped.
        service.shutdown();
        assert_eq!(Arc::strong_count(&a), 1, "jobs release their references");
    }

    #[test]
    fn cache_is_pointer_stable_per_key() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let p1 = service.plan(&spec).unwrap();
        let p2 = service.plan(&spec).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(service.cached_plans(), 1);
        // Explicitly pinning the service default backend is the same key.
        let p3 = service.plan(&spec.backend(BackendKind::default_kind())).unwrap();
        assert!(Arc::ptr_eq(&p1, &p3));
        assert_eq!(service.cached_plans(), 1);
        // A different base size is a different plan.
        let p4 = service.plan(&spec.base_size(8)).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p4));
        assert_eq!(service.cached_plans(), 2);
    }

    #[test]
    fn sharded_cache_counts_and_evicts_across_shards() {
        let service = QrService::builder().workers(1).build();
        // Distinct shapes hash to assorted shards; len() must see all of
        // them and evict() must find each in its own shard.
        let specs: Vec<_> = (0..24)
            .map(|i| JobSpec::new(64 * (i + 1), 16).grid(GridShape::new(2, 2).unwrap()))
            .collect();
        for s in &specs {
            service.plan(s).unwrap();
        }
        assert_eq!(service.plan_cache_len(), 24);
        for s in &specs {
            assert!(service.evict(s));
        }
        assert_eq!(service.plan_cache_len(), 0);
        assert!(!service.evict(&specs[0]), "evicting twice finds nothing");
    }

    #[test]
    fn invalid_specs_fail_at_submission() {
        let service = QrService::builder().workers(1).build();
        let err = service
            .submit(&JobSpec::new(64, 16), well_conditioned(64, 16, 1))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::MissingGrid { .. })));
        let err = service.submit(&spec_64x16(), well_conditioned(32, 16, 1)).unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::InputShapeMismatch { .. })));
    }

    #[test]
    fn batch_failures_carry_index_and_spare_siblings() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let mut bad = well_conditioned(64, 16, 5);
        for i in 0..64 {
            bad.set(i, 3, 0.0); // zero column: Gram matrix loses positive definiteness
        }
        let batch = [well_conditioned(64, 16, 1), bad, well_conditioned(64, 16, 2)];
        match service.factor_batch(&spec, &batch).unwrap_err() {
            ServiceError::BatchJobFailed { index, source } => {
                assert_eq!(index, 1, "the error must name the failing input");
                assert!(matches!(*source, ServiceError::Plan(PlanError::NotPositiveDefinite(_))));
            }
            other => panic!("expected BatchJobFailed, got {other}"),
        }
        let outcomes = service.try_factor_batch(&spec, &batch).unwrap();
        assert!(outcomes[0].is_ok(), "siblings of a failed job keep their reports");
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_ok());
    }

    #[test]
    fn factor_many_matches_factor_batch_and_handles_edges() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        assert_eq!(service.factor_many(&spec, Vec::new()).unwrap().len(), 0);
        assert_eq!(service.factor_batch(&spec, &[]).unwrap().len(), 0);
        let batch: Vec<_> = (0..17).map(|s| well_conditioned(64, 16, s)).collect();
        let via_batch = service.factor_batch(&spec, &batch).unwrap();
        let via_many = service.factor_many(&spec, batch).unwrap();
        assert_eq!(via_many.len(), 17);
        for (a, b) in via_many.iter().zip(&via_batch) {
            assert_eq!(a.r.data(), b.r.data(), "factor_many is bitwise the per-job path");
        }
        // Shape errors reject the whole batch before admission.
        let err = service
            .factor_many(&spec, vec![well_conditioned(32, 16, 0)])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::InputShapeMismatch { .. })));
        // Per-panel failures carry their index, like factor_batch.
        let mut bad = well_conditioned(64, 16, 5);
        for i in 0..64 {
            bad.set(i, 3, 0.0);
        }
        match service
            .factor_many(&spec, vec![well_conditioned(64, 16, 1), bad])
            .unwrap_err()
        {
            ServiceError::BatchJobFailed { index, .. } => assert_eq!(index, 1),
            other => panic!("expected BatchJobFailed, got {other}"),
        }
    }

    #[test]
    fn wait_timeout_honors_its_budget_and_keeps_the_handle_redeemable() {
        // Drive the slot directly: a handle whose job never completes must
        // come back `None` within its budget, and still redeem later.
        let slot = Slot::new();
        let handle = JobHandle {
            slot: Arc::clone(&slot),
            cancel: Arc::new(AtomicBool::new(false)),
        };
        let budget = Duration::from_millis(20);
        let t0 = Instant::now();
        assert!(handle.wait_timeout(budget).is_none());
        let waited = t0.elapsed();
        assert!(waited >= budget, "returned early: {waited:?}");
        assert!(waited < budget + Duration::from_secs(2), "overslept: {waited:?}");
        // Zero budget never blocks at all.
        assert!(handle.wait_timeout(Duration::ZERO).is_none());
        // Once fulfilled, the same handle delivers the outcome.
        slot.fulfill(Err(ServiceError::Cancelled));
        match handle.wait_timeout(Duration::ZERO) {
            Some(Err(ServiceError::Cancelled)) => {}
            other => panic!("expected the fulfilled outcome, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_jobs_resolve_typed_without_executing() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let plan = service.plan(&spec).unwrap();
        // Park the lone worker deterministically: hand it a stream job
        // whose turnstile slot is one ahead of the applied counter, so it
        // waits until this thread advances the counter by hand.
        let entry = Arc::new(StreamEntry {
            state: Mutex::new(StreamState {
                applied: 0,
                qr: plan.stream(&well_conditioned(64, 16, 3)).unwrap(),
            }),
            turn: Condvar::new(),
            submit: Mutex::new(2),
        });
        let park_slot = Slot::new();
        service
            .shared
            .queue
            .push(Work::Stream(StreamJob {
                entry: Arc::clone(&entry),
                op: StreamOp::Snapshot,
                seq: 1,
                slot: Arc::clone(&park_slot),
                enqueued: Instant::now(),
                deadline: None,
                cancel: Arc::new(AtomicBool::new(false)),
            }))
            .ok()
            .expect("queue open");
        // Queue a factor job behind the parked worker, then cancel it
        // before any worker can dequeue it.
        let handle = service.submit(&spec, well_conditioned(64, 16, 4)).unwrap();
        handle.cancel();
        assert!(
            handle.wait_timeout(Duration::from_millis(5)).is_none(),
            "the job cannot run while the only worker is parked"
        );
        // Release the turnstile; the worker applies the parked snapshot,
        // then pops the cancelled job and fulfills it typed.
        {
            let mut st = entry.state.lock().unwrap_or_else(|e| e.into_inner());
            st.applied = 1;
            entry.turn.notify_all();
        }
        park_slot.wait().unwrap();
        assert!(matches!(handle.wait(), Err(ServiceError::Cancelled)));
        assert_eq!(service.stats().cancelled, 1);
        // The pool survives and keeps serving.
        let report = service
            .submit(&spec, well_conditioned(64, 16, 5))
            .unwrap()
            .wait()
            .unwrap();
        assert!(report.orthogonality_error() < 1e-12);
    }

    #[test]
    fn expired_stream_job_is_typed_and_does_not_wedge_the_turnstile() {
        // Fresh service: no queue-wait samples yet, so a zero budget
        // passes admission (p99 = 0 is not > 0) and then deterministically
        // expires at dequeue.
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        service
            .stream_open("live", &spec, &well_conditioned(64, 16, 23))
            .unwrap();
        let expired = service
            .stream_submit(
                "live",
                StreamOp::Append(gaussian_matrix(2, 16, 1)),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap();
        match expired.wait().unwrap_err() {
            ServiceError::DeadlineExceeded { budget, .. } => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The turnstile advanced past the expired slot and the factor
        // never saw its rows: the next append lands on 64 live rows.
        let ok = service.append_rows("live", gaussian_matrix(2, 16, 2)).unwrap();
        assert_eq!(ok.wait().unwrap().status().unwrap().rows, 66);
        assert_eq!(service.stats().expired, 1);
    }

    #[test]
    fn expired_factor_job_never_executes() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let handle = service
            .submit_with(
                &spec,
                well_conditioned(64, 16, 9),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(handle.wait(), Err(ServiceError::DeadlineExceeded { .. })));
        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.execution.count, 0, "an expired job must never reach the kernels");
    }

    #[test]
    fn admission_control_sheds_deadlines_the_pool_cannot_meet() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        // Warm the queue-wait histogram so p99 is nonzero.
        for seed in 0..3 {
            service
                .submit(&spec, well_conditioned(64, 16, seed))
                .unwrap()
                .wait()
                .unwrap();
        }
        assert!(service.stats().queue_wait.p99 > Duration::ZERO);
        // A zero budget now loses to the observed p99: shed, not queued.
        let err = service
            .submit_with(
                &spec,
                well_conditioned(64, 16, 7),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap_err();
        match err {
            ServiceError::Overloaded { queue_p99, budget } => {
                assert!(queue_p99 > budget);
                assert_eq!(budget, Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        // Stream submissions pass through the same gate.
        service
            .stream_open("live", &spec, &well_conditioned(64, 16, 23))
            .unwrap();
        let err = service
            .stream_submit(
                "live",
                StreamOp::Append(gaussian_matrix(2, 16, 1)),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { .. }));
        assert_eq!(service.stats().shed, 2);
        // Deadline-less submissions are never shed.
        service
            .submit(&spec, well_conditioned(64, 16, 8))
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn per_job_retry_override_escalates_without_rekeying_the_cache() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let hard = dense::random::matrix_with_condition(64, 16, 1e9, 41);
        // Under the spec's default policy the squared conditioning kills
        // CQR2.
        let err = service.submit(&spec, hard.clone()).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::NotPositiveDefinite(_))));
        // The same spec (same cached plan) with a per-job override walks
        // the ladder instead.
        let report = service
            .submit_with(&spec, hard, SubmitOptions::new().retry(crate::RetryPolicy::escalate()))
            .unwrap()
            .wait()
            .unwrap();
        let esc = report
            .escalation
            .as_ref()
            .expect("policy-enabled run records its ladder");
        assert!(esc.escalated(), "kappa 1e9 must escalate past CQR2");
        assert_ne!(report.algorithm, Algorithm::CaCqr2);
        assert_eq!(service.plan_cache_len(), 1, "the override must not re-key the cache");
        let stats = service.stats();
        assert!(stats.retries >= 1);
        assert_eq!(stats.escalations, 1);
    }

    #[test]
    fn spec_level_retry_policy_is_part_of_the_cache_key() {
        let service = QrService::builder().workers(1).build();
        let base = spec_64x16();
        let escalating = base.retry(crate::RetryPolicy::escalate());
        let p1 = service.plan(&base).unwrap();
        let p2 = service.plan(&escalating).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2), "policies cache separate plans");
        assert_eq!(service.plan_cache_len(), 2);
        assert!(p2.retry_policy().is_enabled());
        // Jobs through the escalating spec recover without any per-job
        // options.
        let hard = dense::random::matrix_with_condition(64, 16, 1e9, 41);
        let report = service.submit(&escalating, hard).unwrap().wait().unwrap();
        assert!(report.escalation.expect("recorded").escalated());
    }

    #[test]
    fn close_makes_submissions_fail_fast() {
        let service = QrService::builder().workers(1).queue_capacity(1).build();
        let spec = spec_64x16();
        let pre = service.submit(&spec, well_conditioned(64, 16, 1)).unwrap();
        service.close();
        pre.wait().unwrap(); // accepted work drains
        assert!(matches!(
            service.submit(&spec, well_conditioned(64, 16, 2)).unwrap_err(),
            ServiceError::ShuttingDown
        ));
        assert!(matches!(
            service.try_submit(&spec, well_conditioned(64, 16, 2)).unwrap_err(),
            ServiceError::ShuttingDown
        ));
        assert!(matches!(
            service
                .factor_many(&spec, vec![well_conditioned(64, 16, 2)])
                .unwrap_err(),
            ServiceError::ShuttingDown
        ));
        // Stream submissions fail the same way (open streams stay
        // registered, but no new operation can be queued).
        assert!(matches!(
            service.append_rows("nope", gaussian_matrix(2, 16, 0)).unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
    }

    #[test]
    fn try_submit_reports_queue_full() {
        // Single worker, capacity-1 queue: park the worker on a real job,
        // fill the queue, then observe QueueFull without blocking.
        let service = QrService::builder().workers(1).queue_capacity(1).build();
        let spec = spec_64x16();
        let mut handles = Vec::new();
        let mut saw_full = false;
        for seed in 0..64 {
            match service.try_submit(&spec, well_conditioned(64, 16, seed)) {
                Ok(h) => handles.push(h),
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(saw_full, "64 instant submissions must outrun a capacity-1 queue");
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn stream_jobs_apply_in_submission_order_and_match_a_direct_stream() {
        let service = QrService::builder().workers(4).build();
        let spec = spec_64x16();
        let a0 = well_conditioned(64, 16, 21);
        service.stream_open("live", &spec, &a0).unwrap();
        assert_eq!(service.open_streams(), 1);
        assert!(matches!(
            service.stream_open("live", &spec, &a0).unwrap_err(),
            ServiceError::StreamExists { .. }
        ));
        // Mirror the exact update sequence on a direct (single-threaded)
        // stream off the same cached plan.
        let mut direct = service.plan(&spec).unwrap().stream(&a0).unwrap();
        // Queue a burst of appends while batch jobs contend for the pool.
        let mut handles = Vec::new();
        let mut batch = Vec::new();
        for round in 0..6u64 {
            handles.push(service.append_rows("live", gaussian_matrix(2, 16, 30 + round)).unwrap());
            batch.push(service.submit(&spec, well_conditioned(64, 16, 50 + round)).unwrap());
        }
        for (round, h) in handles.into_iter().enumerate() {
            let status = h.wait().unwrap().status().unwrap();
            assert_eq!(status.rows, 64 + 2 * (round + 1), "appends apply in submission order");
            direct
                .append_rows(gaussian_matrix(2, 16, 30 + round as u64).as_ref())
                .unwrap();
        }
        let snap = service
            .snapshot("live")
            .unwrap()
            .wait()
            .unwrap()
            .into_snapshot()
            .unwrap();
        let direct_snap = direct.snapshot().unwrap();
        assert_eq!(
            snap.r.data(),
            direct_snap.r.data(),
            "bitwise determinism per (seed, update sequence) under contention"
        );
        assert!(snap.orthogonality_error.unwrap() < 1e-12);
        for h in batch {
            h.wait().unwrap();
        }
        assert!(service.stream_close("live"));
        assert_eq!(service.open_streams(), 0);
        assert!(matches!(
            service.append_rows("live", gaussian_matrix(2, 16, 1)).unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
        assert!(!service.stream_close("live"));
    }

    #[test]
    fn stream_job_failures_are_typed_and_do_not_wedge_the_stream() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let a0 = well_conditioned(64, 16, 23);
        service.stream_open("live", &spec, &a0).unwrap();
        // Wrong width: the kernel's typed shape error comes back through
        // the handle...
        let bad = service.append_rows("live", gaussian_matrix(2, 8, 1)).unwrap();
        assert!(matches!(
            bad.wait().unwrap_err(),
            ServiceError::Plan(PlanError::Update(dense::update::UpdateError::ShapeMismatch { .. }))
        ));
        // ...and the turnstile advanced past the failure: later operations
        // still run.
        let ok = service.append_rows("live", gaussian_matrix(2, 16, 2)).unwrap();
        assert_eq!(ok.wait().unwrap().status().unwrap().rows, 66);
    }

    #[test]
    fn drop_drains_accepted_jobs() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let handles: Vec<_> = (0..8)
            .map(|s| service.submit(&spec, well_conditioned(64, 16, s)).unwrap())
            .collect();
        service.shutdown();
        for h in handles {
            assert!(h.is_finished(), "accepted jobs must complete before shutdown returns");
            h.wait().unwrap();
        }
    }
}
