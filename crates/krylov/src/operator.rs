//! Abstract linear operators for the iterative solvers.

/// A linear operator `y = A x` on `R^n`.
pub trait LinOp: Sync {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Writes `A x` into `y` (both of length [`dim`](LinOp::dim)).
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Wraps a closure as a [`LinOp`].
pub struct FnOp<F: Fn(&[f64], &mut [f64]) + Sync> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64]) + Sync> FnOp<F> {
    /// Creates an operator of dimension `dim` from `f(x, y)` writing `Ax`
    /// into `y`.
    pub fn new(dim: usize, f: F) -> Self {
        FnOp { dim, f }
    }
}

impl<F: Fn(&[f64], &mut [f64]) + Sync> LinOp for FnOp<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }
}

/// A borrowed dense matrix as a [`LinOp`]: one `gemv` per application.
/// Borrowing lets a cached operator (the hybrid solver's assembled reduced
/// system) serve many solves, on many threads, without a copy.
pub struct DenseOp<'a> {
    mat: kfds_la::MatRef<'a>,
}

impl<'a> DenseOp<'a> {
    /// Wraps a square matrix view.
    ///
    /// # Panics
    /// Panics if `mat` is not square.
    pub fn new(mat: kfds_la::MatRef<'a>) -> Self {
        assert_eq!(mat.nrows(), mat.ncols(), "DenseOp requires a square matrix");
        DenseOp { mat }
    }
}

impl LinOp for DenseOp<'_> {
    fn dim(&self) -> usize {
        self.mat.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        kfds_la::blas2::gemv(1.0, self.mat, x, 0.0, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_op_applies_closure() {
        let op = FnOp::new(3, |x: &[f64], y: &mut [f64]| {
            for i in 0..3 {
                y[i] = 2.0 * x[i];
            }
        });
        let mut y = vec![0.0; 3];
        op.apply(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![2.0, 4.0, 6.0]);
        assert_eq!(op.dim(), 3);
    }

    #[test]
    fn dense_op_matches_gemv() {
        let m = kfds_la::Mat::from_fn(2, 2, |i, j| (i + 2 * j) as f64);
        let op = DenseOp::new(m.rb());
        let mut y = vec![0.0; 2];
        op.apply(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![2.0, 4.0]);
    }
}
