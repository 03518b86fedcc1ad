//! Error metrics used by the correctness tests and the stability experiments.
//!
//! The backend-free functions run on the naive oracle kernels and are the
//! reference the test suites check against. The `*_with` variants compute
//! the same quantities through a [`Backend`] (blocked SYRK/gemm), for
//! callers that want diagnostics at kernel speed.

use crate::backend::Backend;
use crate::gemm::{gemm, matmul, Trans};
use crate::matrix::{MatRef, Matrix};

/// Frobenius norm `‖A‖_F`.
pub fn frobenius(a: MatRef<'_>) -> f64 {
    let mut s = 0.0;
    for i in 0..a.rows() {
        for &v in a.row(i) {
            s += v * v;
        }
    }
    s.sqrt()
}

/// Max-absolute-entry norm `‖A‖_max`.
pub fn max_abs(a: MatRef<'_>) -> f64 {
    let mut m = 0.0f64;
    for i in 0..a.rows() {
        for &v in a.row(i) {
            m = m.max(v.abs());
        }
    }
    m
}

/// Deviation from orthonormality: `‖QᵀQ − I‖_F`.
///
/// This is the metric the CholeskyQR2 literature reports: ≈ machine-ε for
/// Householder QR and CQR2 on well-conditioned input, ≈ `ε·κ(A)²` for plain
/// CholeskyQR.
pub fn orthogonality_error(q: MatRef<'_>) -> f64 {
    identity_deviation(matmul(q, Trans::Yes, q, Trans::No))
}

/// [`orthogonality_error`] with the Gram matrix `QᵀQ` formed by
/// `backend`'s SYRK.
pub fn orthogonality_error_with(backend: &dyn Backend, q: MatRef<'_>) -> f64 {
    identity_deviation(backend.syrk(q))
}

/// `‖G − I‖_F` for a square `G`.
fn identity_deviation(mut g: Matrix) -> f64 {
    for i in 0..g.rows() {
        let v = g.get(i, i);
        g.set(i, i, v - 1.0);
    }
    frobenius(g.as_ref())
}

/// Relative residual `‖A − QR‖_F / ‖A‖_F`.
pub fn residual_error(a: MatRef<'_>, q: MatRef<'_>, r: MatRef<'_>) -> f64 {
    let mut d = a.to_owned();
    gemm(-1.0, q, Trans::No, r, Trans::No, 1.0, d.as_mut());
    frobenius(d.as_ref()) / frobenius(a)
}

/// [`residual_error`] with `A − QR` formed by `backend`'s gemm. An exact
/// factorization of the zero matrix reports `0`, not `0/0`.
pub fn residual_error_with(backend: &dyn Backend, a: MatRef<'_>, q: MatRef<'_>, r: MatRef<'_>) -> f64 {
    let mut d = a.to_owned();
    backend.gemm(-1.0, q, Trans::No, r, Trans::No, 1.0, d.as_mut());
    let diff = frobenius(d.as_ref());
    if diff == 0.0 {
        0.0
    } else {
        diff / frobenius(a)
    }
}

/// Frobenius norm of the strictly-lower part (how far from upper triangular).
pub fn lower_residual(r: MatRef<'_>) -> f64 {
    let mut s = 0.0;
    for i in 0..r.rows() {
        let row = r.row(i);
        for &v in &row[..i.min(row.len())] {
            s += v * v;
        }
    }
    s.sqrt()
}

/// Relative elementwise difference `‖A − B‖_F / max(1, ‖A‖_F)`.
pub fn rel_diff(a: MatRef<'_>, b: MatRef<'_>) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let mut d = a.to_owned();
    let mut idx = 0;
    for i in 0..b.rows() {
        let row = b.row(i);
        for (j, &v) in row.iter().enumerate() {
            let _ = j;
            d.data_mut()[idx] -= v;
            idx += 1;
        }
    }
    frobenius(d.as_ref()) / frobenius(a).max(1.0)
}

/// Normalizes the sign of an upper-triangular factor so that diagonals are
/// non-negative, applying the compensating signs to the columns of `Q`.
/// QR is unique only up to these signs; tests comparing factorizations from
/// different algorithms normalize both first.
pub fn normalize_qr_signs(q: &mut Matrix, r: &mut Matrix) {
    let n = r.rows();
    for i in 0..n {
        if r.get(i, i) < 0.0 {
            for j in 0..r.cols() {
                let v = r.get(i, j);
                r.set(i, j, -v);
            }
            for k in 0..q.rows() {
                let v = q.get(k, i);
                q.set(k, i, -v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::householder::qr;
    use crate::matrix::Matrix;

    #[test]
    fn frobenius_known() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert_eq!(frobenius(a.as_ref()), 5.0);
    }

    #[test]
    fn identity_is_orthogonal() {
        let q = Matrix::identity(6);
        assert_eq!(orthogonality_error(q.as_ref()), 0.0);
    }

    #[test]
    fn scaled_identity_is_not() {
        let mut q = Matrix::identity(3);
        q.set(0, 0, 2.0);
        assert!(orthogonality_error(q.as_ref()) > 1.0);
    }

    #[test]
    fn backend_diagnostics_match_the_oracle() {
        let a = crate::random::well_conditioned(96, 12, 3);
        let (q, r) = qr(&a);
        let tol = 4.0 * 12.0 * f64::EPSILON;
        for kind in crate::BackendKind::ALL {
            let be = kind.get();
            let orth = orthogonality_error_with(be, q.as_ref());
            assert!((orth - orthogonality_error(q.as_ref())).abs() < tol, "{kind}");
            let res = residual_error_with(be, a.as_ref(), q.as_ref(), r.as_ref());
            assert!(
                (res - residual_error(a.as_ref(), q.as_ref(), r.as_ref())).abs() < tol,
                "{kind}"
            );
        }
    }

    #[test]
    fn zero_matrix_residual_is_zero_not_nan() {
        let a = Matrix::zeros(8, 3);
        let q = Matrix::from_fn(8, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let r = Matrix::zeros(3, 3);
        assert!(
            residual_error(a.as_ref(), q.as_ref(), r.as_ref()).is_nan(),
            "the oracle is unchanged"
        );
        for kind in crate::BackendKind::ALL {
            assert_eq!(residual_error_with(kind.get(), a.as_ref(), q.as_ref(), r.as_ref()), 0.0);
        }
    }

    #[test]
    fn sign_normalization_preserves_product() {
        let a = Matrix::from_fn(10, 4, |i, j| ((i + 3 * j) as f64).sin());
        let (mut q, mut r) = qr(&a);
        let before = residual_error(a.as_ref(), q.as_ref(), r.as_ref());
        normalize_qr_signs(&mut q, &mut r);
        let after = residual_error(a.as_ref(), q.as_ref(), r.as_ref());
        assert!((before - after).abs() < 1e-14);
        for i in 0..4 {
            assert!(r.get(i, i) >= 0.0);
        }
    }
}
