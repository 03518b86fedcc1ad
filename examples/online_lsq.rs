//! Online least squares over a row stream — the streaming counterpart of
//! `examples/least_squares.rs`.
//!
//! Observations of a polynomial model arrive in batches. Instead of
//! re-factoring the whole design matrix per batch (`O(mn²)` each time), a
//! [`StreamingQr`] opened with a right-hand-side track folds each batch
//! into a live `R` *and* `d = Aᵀb` at `O(kn² + n³)`, and
//! [`StreamingQr::solve`] re-estimates the coefficients after every
//! arrival via corrected semi-normal equations — no caller-side
//! bookkeeping. A sliding-window phase then *downdates* the oldest rows so
//! the fit tracks only the recent past, and a final section pushes the
//! same traffic through [`QrService`] stream jobs to show the pooled,
//! contention-safe route to identical factors and solutions.
//!
//! Run: `cargo run --release --example online_lsq`

use ca_cqr2::cacqr::service::JobSpec;
use ca_cqr2::dense::random::SeededRng;
use ca_cqr2::dense::Matrix;
use ca_cqr2::pargrid::GridShape;
use ca_cqr2::{Algorithm, QrPlan, QrService, StreamingQr};

/// Ground truth: y(t) = 3 − 2t + 0.5t² − 0.1t³ plus noise.
const TRUTH: [f64; 4] = [3.0, -2.0, 0.5, -0.1];

/// One batch of observations at times `ts`: Vandermonde rows + noisy values.
fn observe(ts: &[f64], n: usize, rng: &mut SeededRng) -> (Matrix, Matrix) {
    let design = Matrix::from_fn(ts.len(), n, |i, j| ts[i].powi(j as i32));
    let values = Matrix::from_fn(ts.len(), 1, |i, _| {
        let t = ts[i];
        let clean: f64 = TRUTH.iter().enumerate().map(|(k, c)| c * t.powi(k as i32)).sum();
        clean + 0.01 * (rng.uniform() - 0.5)
    });
    (design, values)
}

fn main() {
    let n = 4usize; // fit exactly the generating degree-3 model
    let m0 = 256usize;
    let batch = 16usize;
    let batches = 8usize;
    let mut rng = SeededRng::seed_from_u64(11);
    let time_at = |i: usize| -1.0 + 2.0 * (i % 512) as f64 / 511.0;

    // Initial window + live stream with its right-hand-side track. The
    // plan validates once; the stream shares its workspace pool, so warm
    // appends and solves allocate nothing.
    let ts0: Vec<f64> = (0..m0).map(time_at).collect();
    let (a0, b0) = observe(&ts0, n, &mut rng);
    let plan = QrPlan::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .expect("256 rows split evenly over 4 ranks");
    let mut stream: StreamingQr = plan.stream_with_rhs(&a0, &b0).expect("well-conditioned window");
    stream.reserve_rows(batches * batch);

    println!("online fit of a degree-3 model, {batch}-row batches onto {m0} initial rows:");
    println!("  rows    drift       max |coeff err|");
    let mut appended: Vec<(Matrix, Matrix)> = Vec::new();
    for arrival in 0..batches {
        let ts: Vec<f64> = (0..batch).map(|i| time_at(m0 + arrival * batch + i)).collect();
        let (a_k, b_k) = observe(&ts, n, &mut rng);
        let status = stream
            .append_rows_with(a_k.as_ref(), b_k.as_ref())
            .expect("full-rank batch");
        appended.push((a_k, b_k));

        let x = stream.solve().expect("factor is live");
        let worst = (0..n).map(|k| (x.get(k, 0) - TRUTH[k]).abs()).fold(0.0, f64::max);
        println!("  {:<7} {:<11.3e} {worst:.5}", status.rows, status.drift);
        assert!(worst < 0.05, "streamed fit must track the generating model");
    }

    // Sliding window: retire the initial rows so only streamed batches
    // remain. The downdate subtracts the same rows from both RᵀR and d.
    let retire = Matrix::from_view(a0.view(0, 0, m0 / 2, n));
    let retire_b = Matrix::from_view(b0.view(0, 0, m0 / 2, 1));
    let status = stream
        .downdate_rows_with(retire.as_ref(), retire_b.as_ref())
        .expect("rows are in the window");
    let x = stream.solve().expect("factor is live");
    let worst = (0..n).map(|k| (x.get(k, 0) - TRUTH[k]).abs()).fold(0.0, f64::max);
    println!(
        "  after retiring the oldest {} rows: {} live, max |coeff err| {worst:.5}",
        m0 / 2,
        status.rows
    );
    assert!(worst < 0.05, "the slid window still covers the model");

    // Snapshot: explicit Q plus batch-grade diagnostics (the CQR2 repair
    // pass runs under the hood, so the bounds match a from-scratch factor;
    // the diagnostics run on the plan's kernel backend). Between snapshots
    // the stream's cheap certificate is its κ estimate and drift bound.
    println!(
        "  before snapshot: κ ≈ {:.1e}, drift {:.1e}",
        stream.condition_estimate(),
        stream.drift()
    );
    let snap = stream.snapshot().expect("well-conditioned window");
    println!(
        "  snapshot: {} rows, orthogonality {:.2e}, residual {:.2e}, {} refreshes",
        snap.rows,
        snap.orthogonality_error.expect("history retained"),
        snap.residual_error.expect("history retained"),
        snap.refreshes,
    );
    assert!(snap.orthogonality_error.unwrap() < 1e-12);
    assert!(snap.residual_error.unwrap() < 1e-12);

    // The same traffic as stateful service jobs: one stream per key, FIFO
    // per key, sharing the worker pool (and plan cache) with batch jobs.
    // Factors and solutions are bitwise-identical to a direct replay.
    let service = QrService::builder().workers(2).build();
    let spec = JobSpec::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap());
    service
        .stream_open_with_rhs("telemetry", &spec, &a0, &b0)
        .expect("fresh key");
    let handles: Vec<_> = appended
        .iter()
        .map(|(a_k, b_k)| {
            service
                .append_rows_with("telemetry", a_k.clone(), b_k.clone())
                .expect("stream is open")
        })
        .collect();
    for h in handles {
        h.wait().expect("appends succeed");
    }
    service
        .downdate_rows_with("telemetry", retire.clone(), retire_b.clone())
        .expect("stream is open")
        .wait()
        .expect("rows are in the window");
    let served_x = service
        .solve("telemetry")
        .expect("stream is open")
        .wait()
        .expect("solve succeeds")
        .into_solution()
        .expect("solution outcome");
    assert_eq!(
        served_x.data(),
        x.data(),
        "service solve must match the direct stream bitwise"
    );
    let served = service
        .snapshot("telemetry")
        .expect("stream is open")
        .wait()
        .expect("snapshot succeeds")
        .into_snapshot()
        .expect("snapshot outcome");
    assert_eq!(
        served.r.data(),
        snap.r.data(),
        "service stream must match the direct stream bitwise"
    );
    service.stream_close("telemetry");
    println!(
        "  service replay: bitwise-identical R and x through {} stream jobs",
        appended.len() + 3
    );
}
