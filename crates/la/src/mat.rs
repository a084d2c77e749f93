//! Column-major dense matrix types.
//!
//! [`Mat`] owns its storage; [`MatRef`] and [`MatMut`] are borrowed views with
//! a column stride, so submatrices (contiguous row/column ranges) can be taken
//! without copying. All numeric kernels in this crate operate on views.

use std::fmt;

/// An owned, column-major, `f64` dense matrix.
///
/// Element `(i, j)` lives at `data[i + j * nrows]`. Column-major layout is
/// chosen to match the access patterns of the factorization kernels (panel
/// updates, column pivoting) and LAPACK conventions.
#[derive(Clone, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates an `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Creates a matrix from a function of the index pair `(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Mat { nrows, ncols, data }
    }

    /// Creates a matrix from column-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "column-major data length mismatch");
        Mat { nrows, ncols, data }
    }

    /// Consumes the matrix, returning its column-major storage. The inverse
    /// of [`Mat::from_col_major`]; lets temporaries hand their buffers back
    /// to [`crate::workspace`].
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// Underlying column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Borrowing view of the whole matrix.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef { data: &self.data, nrows: self.nrows, ncols: self.ncols, col_stride: self.nrows }
    }

    /// Mutable borrowing view of the whole matrix.
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        let (nrows, ncols) = (self.nrows, self.ncols);
        MatMut::from_parts(&mut self.data, nrows, ncols, nrows)
    }

    /// View of rows `rows` and columns `cols`.
    pub fn submatrix(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatRef<'_> {
        self.rb().submatrix(rows, cols)
    }

    /// The transpose as a new owned matrix.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        crate::blas1::nrm2(&self.data)
    }

    /// Maximum absolute element (`max |a_ij|`), 0 for empty matrices.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Extracts the columns of `self` selected by `idx` into a new matrix.
    pub fn select_cols(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(self.nrows, idx.len());
        for (k, &j) in idx.iter().enumerate() {
            out.col_mut(k).copy_from_slice(self.col(j));
        }
        out
    }

    /// Horizontal concatenation `[self, other]`.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn hcat(&self, other: &Mat) -> Mat {
        assert_eq!(self.nrows, other.nrows, "hcat: row count mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Mat { nrows: self.nrows, ncols: self.ncols + other.ncols, data }
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vcat(&self, other: &Mat) -> Mat {
        assert_eq!(self.ncols, other.ncols, "vcat: column count mismatch");
        let mut out = Mat::zeros(self.nrows + other.nrows, self.ncols);
        for j in 0..self.ncols {
            out.col_mut(j)[..self.nrows].copy_from_slice(self.col(j));
            out.col_mut(j)[self.nrows..].copy_from_slice(other.col(j));
        }
        out
    }

    /// Swaps columns `a` and `b`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        assert!(a < self.ncols && b < self.ncols, "column swap out of range");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = self.data.split_at_mut(hi * self.nrows);
        left[lo * self.nrows..(lo + 1) * self.nrows].swap_with_slice(&mut right[..self.nrows]);
    }

    /// Swaps rows `a` and `b`.
    ///
    /// # Panics
    /// Panics if either index is out of range (an out-of-range row index
    /// smaller than `data.len()` would otherwise silently swap elements
    /// of the *next* column).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.nrows && b < self.nrows, "row swap out of range");
        if a == b {
            return;
        }
        for j in 0..self.ncols {
            self.data.swap(a + j * self.nrows, b + j * self.nrows);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        let show_cols = self.ncols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if show_cols < self.ncols { "..." } else { "" })?;
        }
        if show_rows < self.nrows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Immutable column-major matrix view with a column stride.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    nrows: usize,
    ncols: usize,
    col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// Builds a view from raw column-major parts.
    ///
    /// # Panics
    /// Panics if the slice is too short for the given shape/stride.
    pub fn from_parts(data: &'a [f64], nrows: usize, ncols: usize, col_stride: usize) -> Self {
        assert!(col_stride >= nrows || ncols <= 1);
        if ncols > 0 {
            assert!(data.len() >= (ncols - 1) * col_stride + nrows, "view out of bounds");
        }
        MatRef { data, nrows, ncols, col_stride }
    }

    /// A slice as the `len x 1` matrix it is.
    #[inline]
    pub fn from_col(col: &'a [f64]) -> Self {
        MatRef { data: col, nrows: col.len(), ncols: 1, col_stride: col.len() }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i + j * self.col_stride]
    }

    /// Column `j` as a contiguous slice of length `nrows`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.col_stride..j * self.col_stride + self.nrows]
    }

    /// Pointer to element `(0, 0)`; element `(i, j)` is at offset
    /// `i + j * col_stride`. Used by the SIMD kernels.
    #[inline]
    pub fn as_ptr(&self) -> *const f64 {
        self.data.as_ptr()
    }

    /// Sub-view of rows `rows` and columns `cols`.
    pub fn submatrix(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatRef<'a> {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols, "submatrix out of bounds");
        assert!(rows.start <= rows.end && cols.start <= cols.end);
        let offset = rows.start + cols.start * self.col_stride;
        let nrows = rows.end - rows.start;
        let ncols = cols.end - cols.start;
        // Degenerate (zero-extent) views carry no data at all; computing an
        // offset into possibly-empty parent storage would be out of bounds.
        // Their stride is 0 so that every column of a zero-row view is the
        // empty slice rather than a range past the end of no data.
        if ncols == 0 || nrows == 0 {
            return MatRef { data: &[], nrows, ncols, col_stride: 0 };
        }
        let end = offset + (ncols - 1) * self.col_stride + nrows;
        MatRef { data: &self.data[offset..end], nrows, ncols, col_stride: self.col_stride }
    }

    /// Copies the view into an owned matrix.
    pub fn to_mat(&self) -> Mat {
        let mut out = Mat::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            out.col_mut(j).copy_from_slice(self.col(j));
        }
        out
    }
}

/// Mutable column-major matrix view with a column stride.
///
/// Internally a raw pointer rather than a `&mut [f64]` slice: row-wise
/// splits ([`MatMut::split_at_row`]) produce two views whose storage spans
/// interleave even though their element sets are disjoint, which two `&mut`
/// slices cannot express without aliasing UB. All element accesses are
/// bounds-checked against the logical shape (debug assertions on the hot
/// accessors, hard assertions on the splitting constructors), and every
/// view originates from a uniquely borrowed `&'a mut [f64]`, so the usual
/// borrow rules still guarantee exclusivity of the underlying storage.
pub struct MatMut<'a> {
    ptr: *mut f64,
    nrows: usize,
    ncols: usize,
    col_stride: usize,
    marker: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY: a MatMut is semantically an exclusive borrow of f64 storage
// (PhantomData<&'a mut [f64]>), and f64 is Send + Sync. Disjoint views
// produced by the splitting methods never overlap element-wise, so moving
// them to other threads (rayon::join over row/column panels) is sound.
unsafe impl Send for MatMut<'_> {}
// SAFETY: `&MatMut` exposes no mutation (all writes take `&mut self`), so
// sharing the view across threads is no more capable than sharing
// `&&mut [f64]`, which is Sync because f64 is.
unsafe impl Sync for MatMut<'_> {}

impl<'a> MatMut<'a> {
    /// Builds a mutable view from raw column-major parts.
    ///
    /// # Panics
    /// Panics if the slice is too short for the given shape/stride.
    pub fn from_parts(data: &'a mut [f64], nrows: usize, ncols: usize, col_stride: usize) -> Self {
        assert!(col_stride >= nrows || ncols <= 1);
        if ncols > 0 {
            assert!(data.len() >= (ncols - 1) * col_stride + nrows, "view out of bounds");
        }
        MatMut {
            ptr: data.as_mut_ptr(),
            nrows,
            ncols,
            col_stride,
            marker: std::marker::PhantomData,
        }
    }

    /// A slice as the `len x 1` matrix it is: how a single right-hand
    /// side enters the multi-column solve routines.
    #[inline]
    pub fn from_col(col: &'a mut [f64]) -> Self {
        let n = col.len();
        Self::from_parts(col, n, 1, n)
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn col_stride(&self) -> usize {
        self.col_stride
    }

    /// Number of storage elements spanned by this view (0 when degenerate).
    #[inline]
    fn span(&self) -> usize {
        if self.nrows == 0 || self.ncols == 0 {
            0
        } else {
            (self.ncols - 1) * self.col_stride + self.nrows
        }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols);
        // SAFETY: in bounds per the shape assertion; the view owns exclusive
        // access to its elements for 'a.
        unsafe { *self.ptr.add(i + j * self.col_stride) }
    }

    /// Sets element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows && j < self.ncols);
        // SAFETY: as in `get`.
        unsafe { *self.ptr.add(i + j * self.col_stride) = v }
    }

    /// Column `j` as a mutable contiguous slice of length `nrows`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.ncols);
        // SAFETY: a column is nrows contiguous elements inside the view's
        // span; exclusivity follows from &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.col_stride), self.nrows) }
    }

    /// Immutable snapshot of this view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        // SAFETY: the span is inside the storage this view exclusively
        // borrows; the returned lifetime is tied to &self.
        let data = unsafe { std::slice::from_raw_parts(self.ptr, self.span()) };
        MatRef { data, nrows: self.nrows, ncols: self.ncols, col_stride: self.col_stride }
    }

    /// Reborrows the view mutably (shorter lifetime).
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.ptr,
            nrows: self.nrows,
            ncols: self.ncols,
            col_stride: self.col_stride,
            marker: std::marker::PhantomData,
        }
    }

    /// Splits into the columns `[0, j)` and `[j, ncols)`.
    pub fn split_at_col(self, j: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(j <= self.ncols);
        // SAFETY: the halves cover disjoint column ranges of a view we hold
        // exclusively, so neither can reach the other's elements.
        let right_ptr = unsafe { self.ptr.add(j * self.col_stride) };
        (
            MatMut {
                ptr: self.ptr,
                nrows: self.nrows,
                ncols: j,
                col_stride: self.col_stride,
                marker: std::marker::PhantomData,
            },
            MatMut {
                ptr: right_ptr,
                nrows: self.nrows,
                ncols: self.ncols - j,
                col_stride: self.col_stride,
                marker: std::marker::PhantomData,
            },
        )
    }

    /// Splits into the rows `[0, i)` and `[i, nrows)`.
    ///
    /// The two views' storage spans interleave (each column contributes to
    /// both), but their element sets are disjoint, so they may be mutated
    /// concurrently — this is what the row-parallel GEMM path relies on for
    /// tall-skinny products.
    pub fn split_at_row(self, i: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(i <= self.nrows);
        // SAFETY: same storage, disjoint row ranges; every accessor bounds
        // element coordinates by the view's own (nrows, ncols), so the top
        // view never touches rows >= i and the bottom never touches rows
        // < i of the parent. A view of no columns spans no storage (its
        // pointer may dangle), so both of its halves keep the base.
        let bot_ptr = unsafe { self.ptr.add(if self.ncols == 0 { 0 } else { i }) };
        (
            MatMut {
                ptr: self.ptr,
                nrows: i,
                ncols: self.ncols,
                col_stride: self.col_stride,
                marker: std::marker::PhantomData,
            },
            MatMut {
                ptr: bot_ptr,
                nrows: self.nrows - i,
                ncols: self.ncols,
                col_stride: self.col_stride,
                marker: std::marker::PhantomData,
            },
        )
    }

    /// Mutable sub-view of rows `rows` and columns `cols`.
    pub fn submatrix_mut(
        self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatMut<'a> {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols, "submatrix out of bounds");
        assert!(rows.start <= rows.end && cols.start <= cols.end);
        let nrows = rows.end - rows.start;
        let ncols = cols.end - cols.start;
        // Degenerate views keep the base pointer: the offset could point
        // past the end of the parent's storage.
        let ptr = if nrows == 0 || ncols == 0 {
            self.ptr
        } else {
            // SAFETY: the first element of the sub-view is inside the
            // parent's span per the shape assertions above.
            unsafe { self.ptr.add(rows.start + cols.start * self.col_stride) }
        };
        MatMut { ptr, nrows, ncols, col_stride: self.col_stride, marker: std::marker::PhantomData }
    }

    /// Pointer to element `(0, 0)`; element `(i, j)` is at offset
    /// `i + j * col_stride`. Used by the SIMD microkernel to write a full
    /// register tile without materializing per-column borrows.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    /// Fills the view with `v`.
    pub fn fill(&mut self, v: f64) {
        for j in 0..self.ncols {
            self.col_mut(j).fill(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_indexing_roundtrip() {
        let m = Mat::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn col_major_layout() {
        let m = Mat::from_fn(2, 2, |i, j| (i + 2 * j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 3.0]);
    }

    #[test]
    fn identity_and_transpose() {
        let i3 = Mat::identity(3);
        assert_eq!(i3.transpose(), i3);
        let m = Mat::from_fn(2, 3, |i, j| (i + j * 7) as f64);
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], t[(j, i)]);
            }
        }
    }

    #[test]
    fn submatrix_view_matches_elements() {
        let m = Mat::from_fn(5, 6, |i, j| (i * 100 + j) as f64);
        let v = m.submatrix(1..4, 2..5);
        assert_eq!(v.nrows(), 3);
        assert_eq!(v.ncols(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(v.get(i, j), m[(i + 1, j + 2)]);
            }
        }
        let owned = v.to_mat();
        assert_eq!(owned[(2, 2)], m[(3, 4)]);
    }

    #[test]
    fn swap_rows_cols() {
        let mut m = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let orig = m.clone();
        m.swap_cols(0, 2);
        m.swap_cols(0, 2);
        m.swap_rows(1, 2);
        m.swap_rows(2, 1);
        assert_eq!(m, orig);
        m.swap_rows(0, 1);
        assert_eq!(m[(0, 0)], orig[(1, 0)]);
    }

    #[test]
    fn hcat_vcat_shapes() {
        let a = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Mat::from_fn(2, 3, |i, j| (i * j) as f64);
        let h = a.hcat(&b);
        assert_eq!((h.nrows(), h.ncols()), (2, 5));
        assert_eq!(h[(1, 3)], b[(1, 1)]);
        let c = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let v = a.vcat(&c);
        assert_eq!((v.nrows(), v.ncols()), (5, 2));
        assert_eq!(v[(3, 1)], c[(1, 1)]);
    }

    #[test]
    fn select_cols_picks_columns() {
        let m = Mat::from_fn(3, 5, |i, j| (j * 10 + i) as f64);
        let s = m.select_cols(&[4, 0, 2]);
        assert_eq!(s.col(0), m.col(4));
        assert_eq!(s.col(1), m.col(0));
        assert_eq!(s.col(2), m.col(2));
    }

    #[test]
    fn split_at_col_disjoint() {
        let mut m = Mat::zeros(3, 4);
        let (mut l, mut r) = m.rb_mut().split_at_col(2);
        l.fill(1.0);
        r.fill(2.0);
        assert_eq!(m.col(1), &[1.0; 3]);
        assert_eq!(m.col(2), &[2.0; 3]);
    }

    #[test]
    fn split_at_row_disjoint() {
        let mut m = Mat::zeros(4, 3);
        let (mut top, mut bot) = m.rb_mut().split_at_row(1);
        assert_eq!((top.nrows(), top.ncols()), (1, 3));
        assert_eq!((bot.nrows(), bot.ncols()), (3, 3));
        top.fill(1.0);
        bot.fill(2.0);
        for j in 0..3 {
            assert_eq!(m[(0, j)], 1.0);
            for i in 1..4 {
                assert_eq!(m[(i, j)], 2.0);
            }
        }
        // Degenerate splits at both ends.
        let (e0, rest) = m.rb_mut().split_at_row(0);
        assert_eq!(e0.nrows(), 0);
        assert_eq!(rest.nrows(), 4);
        let (all, e1) = m.rb_mut().split_at_row(4);
        assert_eq!(all.nrows(), 4);
        assert_eq!(e1.nrows(), 0);
        // A view of no columns has no storage to offset into.
        let mut none = Mat::zeros(4, 0);
        let (top, bot) = none.rb_mut().split_at_row(3);
        assert_eq!((top.nrows(), bot.nrows(), bot.ncols()), (3, 1, 0));
    }

    #[test]
    fn split_at_row_threads_write_concurrently() {
        let mut m = Mat::zeros(64, 5);
        let (mut top, mut bot) = m.rb_mut().split_at_row(32);
        std::thread::scope(|s| {
            s.spawn(move || {
                for j in 0..5 {
                    top.col_mut(j).fill(7.0);
                }
            });
            s.spawn(move || {
                for j in 0..5 {
                    bot.col_mut(j).fill(9.0);
                }
            });
        });
        assert_eq!(m[(31, 4)], 7.0);
        assert_eq!(m[(32, 0)], 9.0);
    }

    #[test]
    fn norms() {
        let m = Mat::from_col_major(2, 2, vec![3.0, 0.0, 0.0, -4.0]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-14);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn degenerate_submatrix_of_empty_storage() {
        // A (1 x 0) matrix has no storage; zero-extent sub-views anywhere
        // inside its logical shape must be valid (regression test for the
        // rank-0 skeleton case).
        let m = Mat::zeros(1, 0);
        let v = m.submatrix(1..1, 0..0);
        assert_eq!((v.nrows(), v.ncols()), (0, 0));
        let t = Mat::zeros(3, 2);
        let v2 = t.submatrix(3..3, 0..2);
        assert_eq!(v2.nrows(), 0);
        // Every column of a zero-row view is readable (and empty).
        assert!(v2.col(1).is_empty());
        assert_eq!(v2.to_mat().ncols(), 2);
        let mut t2 = Mat::zeros(2, 3);
        let v3 = t2.rb_mut().submatrix_mut(2..2, 3..3);
        assert_eq!((v3.nrows(), v3.ncols()), (0, 0));
    }

    #[test]
    #[should_panic]
    fn hcat_mismatch_panics() {
        let a = Mat::zeros(2, 2);
        let b = Mat::zeros(3, 2);
        let _ = a.hcat(&b);
    }
}
