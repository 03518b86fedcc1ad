//! Reproduction of the paper's §I numerical-stability claims as assertions.

use cacqr::QrPlan;
use dense::norms::orthogonality_error;
use dense::random::matrix_with_condition;
use dense::BackendKind;
use pargrid::GridShape;

#[test]
fn cqr_error_grows_as_kappa_squared() {
    // Fit the growth exponent of ‖QᵀQ−I‖ against κ: should be ≈ 2.
    let (m, n) = (96usize, 12usize);
    let mut lk = Vec::new();
    let mut le = Vec::new();
    for exp in [2i32, 3, 4, 5] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 500 + exp as u64);
        let (q, _) = cacqr::cqr(&a, BackendKind::default_kind()).expect("κ ≤ 1e5 must factor");
        lk.push(kappa.ln());
        le.push(orthogonality_error(q.as_ref()).ln());
    }
    // Least-squares slope.
    let mean_x: f64 = lk.iter().sum::<f64>() / lk.len() as f64;
    let mean_y: f64 = le.iter().sum::<f64>() / le.len() as f64;
    let num: f64 = lk.iter().zip(&le).map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let den: f64 = lk.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    let slope = num / den;
    assert!(
        (1.6..2.4).contains(&slope),
        "CholeskyQR orthogonality loss should scale as κ²; measured exponent {slope:.2}"
    );
}

#[test]
fn cqr2_matches_householder_within_its_domain() {
    // "the QR factorization given by CholeskyQR2 will be as accurate as
    // Householder QR" for κ = O(√(1/ε)).
    let (m, n) = (96usize, 12usize);
    for exp in [1i32, 3, 5, 6, 7] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 600 + exp as u64);
        let (q2, _) = cacqr::cqr2(&a, BackendKind::default_kind()).expect("within the CQR2 domain");
        let (qh, _) = dense::householder::qr(&a);
        let e2 = orthogonality_error(q2.as_ref());
        let eh = orthogonality_error(qh.as_ref());
        assert!(
            e2 < 20.0 * eh.max(1e-15),
            "κ=1e{exp}: CQR2 {e2:.2e} vs Householder {eh:.2e}"
        );
    }
}

#[test]
fn distributed_cacqr2_inherits_sequential_stability() {
    // The distribution must not change the numerics: distributed CA-CQR2 on
    // a moderately conditioned input stays at machine precision.
    let (m, n) = (128usize, 16usize);
    let a = matrix_with_condition(m, n, 1e5, 9);
    let shape = GridShape::new(2, 8).unwrap();
    let run = QrPlan::new(m, n)
        .grid(shape)
        .base_size(4)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    assert!(run.orthogonality_error() < 5e-14);
}

#[test]
fn shifted_cqr3_is_unconditional() {
    let (m, n) = (96usize, 12usize);
    for exp in [8i32, 10, 12, 14] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 700 + exp as u64);
        let (q, _) =
            cacqr::shifted_cqr3(&a, BackendKind::default_kind()).expect("shifted CQR3 is unconditionally stable");
        assert!(
            orthogonality_error(q.as_ref()) < 1e-12,
            "κ=1e{exp}: {:.2e}",
            orthogonality_error(q.as_ref())
        );
    }
}
