//! A minimal dense 2-D tensor.
//!
//! All networks in this reproduction are small MLP/LSTM stacks, so a
//! row-major `Vec<f32>` matrix with a handful of BLAS-free kernels is
//! all the linear algebra required.

use std::fmt;

use rand::Rng;

use crate::simd::{self, Kernel, AVX2, AVX512};

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use tsc_nn::Tensor;
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.shape(), (2, 2));
/// assert_eq!(t.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or zero rows.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A single-row tensor from a slice.
    pub fn row_from_slice(v: &[f32]) -> Self {
        Tensor::from_vec(1, v.len(), v.to_vec())
    }

    /// Standard-normal random tensor scaled by `std`.
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        // Box–Muller; avoids a rand_distr dependency.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen::<f32>().max(1e-12);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `other`'s elements into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "copy_from shapes");
        self.data.copy_from_slice(&other.data);
    }

    /// Ensures `self` is `rows × cols`, reallocating only on shape
    /// change. Returns `true` when a fresh allocation was required —
    /// this is the hook the inference path's allocation probes count
    /// (steady state: always `false`). Contents are unspecified after
    /// the call; callers are expected to overwrite every element.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) -> bool {
        if self.rows == rows && self.cols == cols {
            return false;
        }
        *self = Tensor::zeros(rows, cols);
        true
    }

    /// Matrix product `self @ other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols());
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self @ other` written into a pre-sized `out`
    /// (fully overwritten, never read). This is the one matmul kernel:
    /// tape forwards, [`Graph::backward`](crate::Graph::backward) and
    /// every tape-free `infer_into` run it.
    ///
    /// Contract: each output element is summed over ascending `k`,
    /// starting at +0.0, with no term skipped. Rust never contracts
    /// `a * b + c` to a fused multiply-add, so for finite inputs the
    /// result is bit-identical to any loop with that order — including
    /// one that skips zero terms, since adding ±0.0 never changes a sum
    /// that starts at +0.0. A zero meeting an infinite or NaN operand
    /// gives NaN.
    ///
    /// The kernel has one body, built for baseline x86-64, AVX2 and
    /// AVX-512F and chosen at run time (see `simd`); every build gives
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or a mis-sized `out`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_into out");
        simd::run(MatMul {
            a: self,
            b: other,
            out,
        });
    }

    /// `selfᵀ @ other` without building the transpose: each element is
    /// the same ascending-`k` sum as in `self.transpose().matmul(other)`.
    /// See [`TMatMul`] for how the kernel walks the operands.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub(crate) fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul inner dims");
        let mut out = Tensor::zeros(self.cols, other.cols);
        simd::run(TMatMul {
            a: self,
            g: other,
            out: &mut out,
        });
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// The transpose written into `out`, which takes the transposed
    /// shape and keeps its allocation whenever its capacity suffices.
    pub(crate) fn transpose_into(&self, out: &mut Tensor) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.clear();
        out.data.resize(self.data.len(), 0.0);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Element-wise in-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Element-wise map to a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sets all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

/// The body of [`Tensor::matmul_into`] (shapes checked by the caller):
/// one output row at a time, in column strips.
struct MatMul<'a> {
    a: &'a Tensor,
    b: &'a Tensor,
    out: &'a mut Tensor,
}

impl Kernel for MatMul<'_> {
    #[inline(always)]
    fn run<const LEVEL: u8>(self) {
        let MatMul { a, b, out } = self;
        for i in 0..a.rows {
            row_strips::<LEVEL>(a.row(i).iter(), &b.data, out.row_mut(i), true);
        }
    }
}

/// Most bytes of `g` one `k` block of [`TMatMul`] spans: 32 KB stays in
/// L1 across every output row.
const K_BLOCK_BYTES: usize = 32 * 1024;

/// Most rows of `k` per block: 64 rows of a 128-column `g` fill
/// [`K_BLOCK_BYTES`].
const K_BLOCK_ROWS: usize = 64;

/// Rows of `k` per block for a `g` of `q` columns: [`K_BLOCK_ROWS`] up
/// to 128 columns, fewer above so a block stays within
/// [`K_BLOCK_BYTES`] (32 rows at 256 columns).
fn k_block(q: usize) -> usize {
    (K_BLOCK_BYTES / q.saturating_mul(std::mem::size_of::<f32>())).clamp(1, K_BLOCK_ROWS)
}

/// The body of [`Tensor::t_matmul`]: `out = aᵀ @ g`, for `a` `n × p`,
/// `g` `n × q` and `out` `p × q` (shapes checked by the caller). Output
/// row `i` is column `i` of `a` against `g`, in column strips.
///
/// `k` (the `n` axis) goes in blocks of [`k_block`] rows, so one block
/// of the streamed operand is read from L1 by every output row instead
/// of from L2 once per row. An element's partial sum is stored to
/// `out` after a block and reloaded for the next: that is the same
/// `f32` the register held, so every element is still one sum over
/// ascending `k` from +0.0.
struct TMatMul<'a> {
    a: &'a Tensor,
    g: &'a Tensor,
    out: &'a mut Tensor,
}

impl Kernel for TMatMul<'_> {
    #[inline(always)]
    fn run<const LEVEL: u8>(self) {
        let TMatMul { a, g, out } = self;
        let (n, p, q) = (a.rows, a.cols, g.cols);
        if p == 0 || q == 0 {
            return;
        }
        // An empty `k` range still runs one (empty) block, which writes
        // the +0.0 sums.
        let rows = k_block(q);
        for k0 in (0..n.max(1)).step_by(rows) {
            let k1 = (k0 + rows).min(n);
            let a_block = &a.data[k0 * p..k1 * p];
            let g_block = &g.data[k0 * q..k1 * q];
            for (i, out_row) in out.data.chunks_exact_mut(q).enumerate() {
                let a_col = a_block.iter().skip(i).step_by(p);
                row_strips::<LEVEL>(a_col, g_block, out_row, k0 == 0);
            }
        }
    }
}

/// One output row: `out[s] (+)= Σ_k a_k · b[k][s]` over the `k` values
/// `a` yields, for row-major `b` with `out.len()` columns. The sums
/// start at +0.0 when `fresh`, and from the values in `out` otherwise.
/// Columns go in strips of 32, 8, 4 and 1 — with 64 first from AVX2 on
/// and 128 first with AVX-512F, eight registers either way — so that
/// each strip's partial sums stay in registers for the whole
/// ascending-`k` loop.
#[inline(always)]
fn row_strips<'a, const LEVEL: u8>(
    a: impl Iterator<Item = &'a f32> + Clone,
    b: &[f32],
    out: &mut [f32],
    fresh: bool,
) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let mut j = 0;
    while LEVEL >= AVX512 && j + 128 <= n {
        strip::<128>(a.clone(), b, j, out, fresh);
        j += 128;
    }
    while LEVEL >= AVX2 && j + 64 <= n {
        strip::<64>(a.clone(), b, j, out, fresh);
        j += 64;
    }
    while j + 32 <= n {
        strip::<32>(a.clone(), b, j, out, fresh);
        j += 32;
    }
    while j + 8 <= n {
        strip::<8>(a.clone(), b, j, out, fresh);
        j += 8;
    }
    while j + 4 <= n {
        strip::<4>(a.clone(), b, j, out, fresh);
        j += 4;
    }
    while j < n {
        strip::<1>(a.clone(), b, j, out, fresh);
        j += 1;
    }
}

/// Columns `j..j + W` of one output row (see [`row_strips`]).
#[inline(always)]
fn strip<'a, const W: usize>(
    a: impl Iterator<Item = &'a f32>,
    b: &[f32],
    j: usize,
    out: &mut [f32],
    fresh: bool,
) {
    let mut acc = [0.0f32; W];
    if !fresh {
        acc.copy_from_slice(&out[j..j + W]);
    }
    for (&av, b_row) in a.zip(b.chunks_exact(out.len())) {
        let b_strip: &[f32; W] = b_row[j..j + W].try_into().expect("strip width");
        for (s, &bv) in acc.iter_mut().zip(b_strip) {
            *s += av * bv;
        }
    }
    out[j..j + W].copy_from_slice(&acc);
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn randn_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::randn(100, 100, 1.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.add_assign(&b);
        a.scale_assign(0.5);
        assert_eq!(a, Tensor::full(2, 2, 1.5));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Tensor::zeros(1, 1).to_string().is_empty());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// A ReLU-like `rows × cols` tensor: about half its entries are
    /// zeros of either sign.
    fn zero_heavy(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        Tensor::randn(rows, cols, 1.0, rng).map(|x| match x {
            x if x > 0.0 => x,
            x if x > -0.5 => 0.0,
            _ => -0.0,
        })
    }

    /// The kernel contract, spelled out: each element summed over
    /// ascending `k` from +0.0 with no term skipped.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut sum = 0.0f32;
                for k in 0..a.cols() {
                    sum += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    /// Every strip width (128, 64, 32, 8, 4, 1) and their remainders,
    /// from one row to a full minibatch, into a dirty output buffer —
    /// through every build this CPU runs, and through the dispatched
    /// kernel.
    #[test]
    fn matmul_into_matches_naive_ascending_k_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let widths = [
            1, 3, 4, 5, 8, 9, 16, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257,
        ];
        for rows in [1, 4, 9, 36, 256] {
            for cols in widths {
                let inner = 1 + (rows + cols) % 40;
                let a = zero_heavy(rows, inner, &mut rng);
                let b = Tensor::randn(inner, cols, 1.0, &mut rng);
                let expected = bits(&naive_matmul(&a, &b));
                let shape = format!("{rows}x{inner} @ {inner}x{cols}");
                let mut out = Tensor::full(rows, cols, f32::NAN);
                a.matmul_into(&b, &mut out);
                assert_eq!(bits(&out), expected, "{shape}");
                assert_eq!(bits(&a.matmul(&b)), expected, "{shape}");
                for level in simd::levels() {
                    let mut out = Tensor::full(rows, cols, f32::NAN);
                    let (a, b) = (&a, &b);
                    simd::run_at(
                        level,
                        MatMul {
                            a,
                            b,
                            out: &mut out,
                        },
                    );
                    assert_eq!(bits(&out), expected, "level {level}: {shape}");
                }
            }
        }
    }

    /// No zero skip: a zero meeting a non-finite operand is NaN.
    #[test]
    fn matmul_zero_times_infinity_is_nan() {
        let a = Tensor::from_rows(&[&[0.0, 1.0]]);
        let b = Tensor::from_rows(&[&[f32::INFINITY], &[2.0]]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
    }

    /// `aᵀ @ g` against the naive reference on the explicit transpose,
    /// into a dirty output buffer, through every build this CPU runs.
    #[test]
    fn t_matmul_matches_naive_reference_on_the_transpose() {
        let mut rng = StdRng::seed_from_u64(12);
        let g_widths = [1, 2, 4, 5, 31, 32, 33, 63, 64, 65, 128, 129];
        let mut shapes = Vec::new();
        // Every `k` around the block height, against outputs on both
        // sides of every strip width.
        for rows in [0, 1, 9, 63, 64, 65, 256, 257] {
            for a_cols in [0, 1, 3, 5, 33] {
                shapes.extend(g_widths.map(|g_cols| (rows, a_cols, g_cols)));
            }
        }
        // Wider `a` (more output rows, a longer stride down its
        // columns), over one block and over two.
        for rows in [1, 65] {
            for a_cols in [12, 32, 48, 64, 65, 128, 129] {
                shapes.extend(g_widths.map(|g_cols| (rows, a_cols, g_cols)));
            }
        }
        // Odd `k`s, and the gradients `lstm_hidden` 64 trains: the heads
        // (`a` 64 wide, 1 and 4 outputs), fc (64 outputs) and the LSTM
        // weights (256 outputs).
        shapes.extend([
            (4, 3, 33),
            (7, 5, 63),
            (7, 5, 64),
            (9, 48, 5),
            (36, 12, 65),
            (36, 12, 129),
            (256, 64, 1),
            (256, 64, 4),
            (256, 48, 64),
            (256, 64, 256),
        ]);
        for (rows, a_cols, g_cols) in shapes {
            let a = zero_heavy(rows, a_cols, &mut rng);
            let g = Tensor::randn(rows, g_cols, 1.0, &mut rng);
            let expected = bits(&naive_matmul(&a.transpose(), &g));
            let shape = format!("{rows}x{a_cols}, {g_cols}");
            assert_eq!(bits(&a.t_matmul(&g)), expected, "{shape}");
            for level in simd::levels() {
                let mut out = Tensor::full(a_cols, g_cols, f32::NAN);
                let (a, g) = (&a, &g);
                simd::run_at(
                    level,
                    TMatMul {
                        a,
                        g,
                        out: &mut out,
                    },
                );
                assert_eq!(bits(&out), expected, "level {level}: {shape}");
            }
        }
    }

    #[test]
    fn transpose_into_reuses_a_large_enough_buffer() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let mut out = Tensor::zeros(4, 4);
        let before = out.data().as_ptr();
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        assert_eq!(out.data().as_ptr(), before);
    }

    #[test]
    fn ensure_shape_reallocates_only_on_change() {
        let mut t = Tensor::zeros(2, 3);
        assert!(!t.ensure_shape(2, 3));
        assert!(t.ensure_shape(4, 3));
        assert_eq!(t.shape(), (4, 3));
        assert!(!t.ensure_shape(4, 3));
    }

    #[test]
    fn copy_from_and_row_mut() {
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Tensor::zeros(2, 2);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.row_mut(1).copy_from_slice(&[9.0, 8.0]);
        assert_eq!(dst.row(1), &[9.0, 8.0]);
    }
}
