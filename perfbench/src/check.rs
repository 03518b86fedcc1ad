//! The benchmark's own correctness checks. Every check runs outside the
//! timed window, with `dense::norms` on factors the program returned; the
//! program's self-reported diagnostics are never read.

use cacqr::{Algorithm, QrPlan};
use dense::{Matrix, Trans};
use pargrid::GridShape;
use simgrid::{CostLedger, Machine, RuntimeKind};

/// Bound on `‖QᵀQ − I‖_F` and on `‖A − QR‖_F / ‖A‖_F` for an `n`-column
/// factorization: CholeskyQR2 (and every escalation rung) reaches
/// orthogonality and residual of order ε while κ ≲ 1/√ε. The factor 32·n
/// leaves an order of magnitude above the values observed at every
/// workload shape.
pub fn factor_tolerance(n: usize) -> f64 {
    32.0 * n as f64 * f64::EPSILON
}

/// Checks one returned factorization of `a`.
pub fn factors(a: &Matrix, q: &Matrix, r: &Matrix) -> Result<(), String> {
    let (m, n) = (a.rows(), a.cols());
    if (q.rows(), q.cols(), r.rows(), r.cols()) != (m, n, n, n) {
        return Err(format!(
            "factor shapes Q {}x{}, R {}x{} for a {m}x{n} input",
            q.rows(),
            q.cols(),
            r.rows(),
            r.cols()
        ));
    }
    if !q.data().iter().chain(r.data()).all(|v| v.is_finite()) {
        return Err("non-finite factor entries".into());
    }
    let lower = dense::norms::lower_residual(r.as_ref());
    let tol = factor_tolerance(n);
    let orth = dense::norms::orthogonality_error(q.as_ref());
    let res = dense::norms::residual_error(a.as_ref(), q.as_ref(), r.as_ref());
    let out_of_bound = |v: f64| v.is_nan() || v > tol;
    if lower != 0.0 || out_of_bound(orth) || out_of_bound(res) {
        return Err(format!(
            "{m}x{n}: orthogonality {orth:e}, residual {res:e}, lower part {lower:e} (bound {tol:e})"
        ));
    }
    Ok(())
}

/// Least-squares solution of `min ‖Ax − b‖` by Householder QR, the
/// reference the stream's corrected semi-normal `solve` is checked against.
pub fn householder_solve(a: &Matrix, b: &Matrix) -> Matrix {
    let (q, r) = dense::householder::qr(a);
    let mut x = dense::matmul(q.as_ref(), Trans::Yes, b.as_ref(), Trans::No);
    dense::trsm_left_upper(r.as_ref(), x.as_mut());
    x
}

/// Checks a streamed solution `x` of the live window `(a, b)` against the
/// Householder reference: the relative difference must stay within the
/// least-squares perturbation bound `ε·κ²` scaled by a safety factor.
pub fn solution(a: &Matrix, b: &Matrix, x: &Matrix, kappa: f64) -> Result<(), String> {
    let reference = householder_solve(a, b);
    let diff = dense::norms::rel_diff(x.as_ref(), reference.as_ref());
    let tol = 1e3 * f64::EPSILON * kappa * kappa;
    if diff.is_nan() || diff > tol {
        return Err(format!(
            "stream solve differs from Householder by {diff:e} (bound {tol:e})"
        ));
    }
    Ok(())
}

/// Communication and flop counts of one factorization, as the ledgers
/// report them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counts {
    pub words_max: u64,
    pub msgs_max: u64,
    pub flops_total: f64,
}

impl Counts {
    pub fn of(ledgers: &[CostLedger]) -> Counts {
        Counts {
            words_max: ledgers.iter().map(|l| l.words_sent).max().unwrap_or(0),
            msgs_max: ledgers.iter().map(|l| l.msgs_sent).max().unwrap_or(0),
            flops_total: ledgers.iter().map(|l| l.flops).sum(),
        }
    }
}

/// The α-β-γ closed form of CQR2 for a plan shape.
pub fn model(m: usize, n: usize, algorithm: Algorithm, grid: GridShape) -> costmodel::Cost {
    match algorithm {
        Algorithm::Cqr2_1d => costmodel::cqr1d::cqr2_1d(m, n, grid.p()),
        Algorithm::CaCqr2 => {
            let base = cacqr::CfrParams::default_for(n, grid.c).base_size;
            costmodel::cacqr2::ca_cqr2(m, n, grid.c, grid.d, base, 0)
        }
        other => panic!("no closed form for {other}"),
    }
}

fn same_flops(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// Hard checks of the exact counts of one factorization of `a` at a plan
/// shape against the `costmodel` closed forms:
///
/// * the total ledger flops equal `P·γ` (every rank does the same work);
/// * the critical paths replayed under unit machines equal the model's
///   `α` (messages), `β` (words) and `γ` (flops) exactly;
/// * with `P = 1` nothing is sent.
///
/// Returns the ledger counts, which every later factorization at this
/// shape must reproduce bit for bit.
pub fn exact_counts(a: &Matrix, algorithm: Algorithm, grid: GridShape) -> Result<Counts, String> {
    let (m, n) = (a.rows(), a.cols());
    let model = model(m, n, algorithm, grid);
    let factor_on = |machine: Machine| {
        QrPlan::new(m, n)
            .algorithm(algorithm)
            .grid(grid)
            .machine(machine)
            .runtime(RuntimeKind::Simulated)
            .backend(dense::BackendKind::Blocked)
            .build()
            .map_err(|e| e.to_string())?
            .factor(a)
            .map_err(|e| e.to_string())
    };
    let mut counts = None;
    for (what, machine, expected) in [
        ("alpha", Machine::alpha_only(), model.alpha),
        ("beta", Machine::beta_only(), model.beta),
        ("gamma", Machine::gamma_only(), model.gamma),
    ] {
        let report = factor_on(machine)?;
        let ok = if what == "gamma" {
            same_flops(report.elapsed, expected)
        } else {
            report.elapsed == expected
        };
        if !ok {
            return Err(format!(
                "{m}x{n} {algorithm}: critical-path {what} {} != costmodel {expected}",
                report.elapsed
            ));
        }
        let c = Counts::of(&report.ledgers);
        if counts.is_some_and(|prev| prev != c) {
            return Err(format!("{m}x{n} {algorithm}: ledgers differ between replays"));
        }
        counts = Some(c);
    }
    let counts = counts.expect("three replays ran");
    let p = grid.p() as f64;
    if !same_flops(counts.flops_total, p * model.gamma) {
        return Err(format!(
            "{m}x{n} {algorithm}: ledger flops {} != P·γ = {}",
            counts.flops_total,
            p * model.gamma
        ));
    }
    if grid.p() == 1 && (counts.words_max, counts.msgs_max) != (0, 0) {
        return Err(format!("{m}x{n}: a single rank sent {counts:?}"));
    }
    Ok(counts)
}
