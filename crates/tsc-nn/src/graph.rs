//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of one forward pass on a tape;
//! [`Graph::backward`] walks the tape in reverse, accumulating exact
//! gradients into the [`Params`] set. The op set
//! is exactly what PPO/A2C/DQN over MLP+LSTM networks need — nothing
//! more.
//!
//! # Examples
//!
//! ```
//! use tsc_nn::{Graph, Params, Tensor};
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::from_rows(&[&[2.0], &[3.0]]));
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[1.0, 4.0]]));
//! let wv = g.param(&params, w);
//! let y = g.matmul(x, wv); // 1x1: 1*2 + 4*3 = 14
//! let loss = g.sum(y);
//! g.backward(loss, &mut params);
//! assert_eq!(g.value(y).get(0, 0), 14.0);
//! assert_eq!(params.grad(w).data(), &[1.0, 4.0]);
//! ```

use crate::math;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    // The scalar shift has unit gradient, so backward never reads it;
    // it is kept for Debug output of the tape.
    AddScalar(Var, #[allow(dead_code)] f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    Softmax(Var),
    LogSoftmax(Var),
    GatherCols(Var, Vec<usize>),
    Sum(Var),
    Mean(Var),
    Square(Var),
    Clamp(Var, f32, f32),
    Minimum(Var, Var),
    ConcatCols(Var, Var),
    SliceCols(Var, usize),
    Transpose(Var),
}

impl Op {
    /// The nodes this op reads.
    fn inputs(&self) -> [Option<Var>; 2] {
        match *self {
            Op::Leaf | Op::Param(_) => [None, None],
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRow(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Minimum(a, b)
            | Op::ConcatCols(a, b) => [Some(a), Some(b)],
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::Exp(a)
            | Op::Softmax(a)
            | Op::LogSoftmax(a)
            | Op::GatherCols(a, _)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::Square(a)
            | Op::Clamp(a, _, _)
            | Op::SliceCols(a, _)
            | Op::Transpose(a) => [Some(a), None],
        }
    }
}

/// A single forward pass' computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    values: Vec<Tensor>,
    ops: Vec<Op>,
    /// Whether some parameter reaches each node; backward computes
    /// gradients for these nodes only.
    needs_grad: Vec<bool>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs_grad = match op {
            Op::Param(_) => true,
            _ => op.inputs().iter().flatten().any(|v| self.needs_grad[v.0]),
        };
        self.values.push(value);
        self.ops.push(op);
        self.needs_grad.push(needs_grad);
        Var(self.values.len() - 1)
    }

    /// The computed value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A constant input (no gradient flows back out of it).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// A view of parameter `id`; gradients accumulate into `params` on
    /// [`backward`](Self::backward).
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Param(id))
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].matmul(&self.values[b.0]);
        self.push(v, Op::MatMul(a, b))
    }

    /// Element-wise sum of equal-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let mut v = self.values[a.0].clone();
        v.add_assign(&self.values[b.0]);
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `1 × m` row vector to every row of an `n × m` matrix.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (n, m) = self.values[a.0].shape();
        assert_eq!(self.values[row.0].shape(), (1, m), "row vector shape");
        let mut v = self.values[a.0].clone();
        let bias = self.values[row.0].data();
        for r in 0..n {
            for (x, &b) in v.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
        self.push(v, Op::AddRow(a, row))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let v = elementwise(&self.values[a.0], &self.values[b.0], |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let v = elementwise(&self.values[a.0], &self.values[b.0], |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].map(|x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].map(|x| x + s);
        self.push(v, Op::AddScalar(a, s))
    }

    /// Logistic sigmoid ([`math::sigmoid_in_place`]).
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let mut v = self.values[a.0].clone();
        math::sigmoid_in_place(v.data_mut());
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent ([`math::tanh_in_place`]).
    pub fn tanh(&mut self, a: Var) -> Var {
        let mut v = self.values[a.0].clone();
        math::tanh_in_place(v.data_mut());
        self.push(v, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Element-wise exponential ([`math::exp_in_place`]).
    pub fn exp(&mut self, a: Var) -> Var {
        let mut v = self.values[a.0].clone();
        math::exp_in_place(v.data_mut());
        self.push(v, Op::Exp(a))
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        let v = softmax_rows(&self.values[a.0]);
        self.push(v, Op::Softmax(a))
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let x = &self.values[a.0];
        let mut v = x.clone();
        for r in 0..x.rows() {
            let max = x.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            // The row's `e^(y - max)` terms, in `v`'s row until the
            // result overwrites them.
            let terms = v.row_mut(r);
            terms.iter_mut().for_each(|y| *y -= max);
            math::exp_in_place(terms);
            let logsum = terms.iter().sum::<f32>().ln() + max;
            for (y, &xi) in terms.iter_mut().zip(x.row(r)) {
                *y = xi - logsum;
            }
        }
        self.push(v, Op::LogSoftmax(a))
    }

    /// Picks one column per row: output `n × 1` with
    /// `out[r] = a[r, cols[r]]`.
    ///
    /// # Panics
    ///
    /// Panics if `cols.len()` differs from the row count or an index is
    /// out of range.
    pub fn gather_cols(&mut self, a: Var, cols: Vec<usize>) -> Var {
        let x = &self.values[a.0];
        assert_eq!(cols.len(), x.rows(), "one column index per row");
        let mut v = Tensor::zeros(x.rows(), 1);
        for (r, &c) in cols.iter().enumerate() {
            v.set(r, 0, x.get(r, c));
        }
        self.push(v, Op::GatherCols(a, cols))
    }

    /// Sum of all elements (`1 × 1`).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::from_vec(1, 1, vec![self.values[a.0].sum()]);
        self.push(v, Op::Sum(a))
    }

    /// Mean of all elements (`1 × 1`).
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.values[a.0].len() as f32;
        let v = Tensor::from_vec(1, 1, vec![self.values[a.0].sum() / n]);
        self.push(v, Op::Mean(a))
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(|x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Element-wise clamp into `[lo, hi]`; gradient passes only through
    /// the un-clipped region (as in PPO's clipped objective).
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        let v = self.values[a.0].map(|x| x.clamp(lo, hi));
        self.push(v, Op::Clamp(a, lo, hi))
    }

    /// Element-wise minimum; the gradient flows to the smaller operand
    /// (ties go to `a`).
    pub fn minimum(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let v = elementwise(&self.values[a.0], &self.values[b.0], f32::min);
        self.push(v, Op::Minimum(a, b))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let x = &self.values[a.0];
        let y = &self.values[b.0];
        assert_eq!(x.rows(), y.rows(), "concat row mismatch");
        let mut v = Tensor::zeros(x.rows(), x.cols() + y.cols());
        for r in 0..x.rows() {
            let (left, right) = v.row_mut(r).split_at_mut(x.cols());
            left.copy_from_slice(x.row(r));
            right.copy_from_slice(y.row(r));
        }
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Columns `start..end` as a new tensor.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let x = &self.values[a.0];
        assert!(start < end && end <= x.cols(), "slice bounds");
        let mut v = Tensor::zeros(x.rows(), end - start);
        for r in 0..x.rows() {
            v.row_mut(r).copy_from_slice(&x.row(r)[start..end]);
        }
        self.push(v, Op::SliceCols(a, start))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.values[a.0].transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Runs reverse-mode differentiation from scalar `loss`, adding
    /// parameter gradients into `params`.
    ///
    /// Only nodes that a parameter reaches get a gradient: constant
    /// inputs, and matmul operands among them, are skipped, so a loss
    /// no parameter reaches leaves `params` untouched. Each node's
    /// gradient is moved out when its turn comes, and operand gradients
    /// are added in place. Every gradient element is the same sum, in
    /// the same order, as a dense pass that zero-fills a gradient for
    /// every node and adds each op's full-size contribution.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&self, loss: Var, params: &mut Params) {
        assert_eq!(self.values[loss.0].shape(), (1, 1), "loss must be scalar");
        let mut grads = Grads {
            graph: self,
            slots: (0..self.values.len()).map(|_| None).collect(),
        };
        // `bᵀ` for each matmul's left-operand gradient, packed into one
        // buffer that the whole pass reuses.
        let mut packed = Tensor::zeros(0, 0);
        // Scratch for a log-softmax row's probabilities.
        let mut probs = Vec::new();
        grads.give(loss, Tensor::full(1, 1, 1.0));
        for i in (0..self.ops.len()).rev() {
            let Some(g) = grads.slots[i].take() else {
                continue;
            };
            if g.data().iter().all(|&x| x == 0.0) {
                continue;
            }
            let y = &self.values[i];
            match &self.ops[i] {
                Op::Leaf => {}
                Op::Param(id) => params.accumulate_grad(*id, &g),
                Op::MatMul(a, b) => {
                    if self.needs_grad[a.0] {
                        self.values[b.0].transpose_into(&mut packed);
                        grads.give(*a, g.matmul(&packed));
                    }
                    if self.needs_grad[b.0] {
                        grads.give(*b, self.values[a.0].t_matmul(&g));
                    }
                }
                Op::Add(a, b) => {
                    grads.give_ref(*a, &g);
                    grads.give(*b, g);
                }
                Op::AddRow(a, row) => {
                    let dr = self.needs_grad[row.0].then(|| {
                        let mut dr = Tensor::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            add_slice(dr.data_mut(), g.row(r));
                        }
                        dr
                    });
                    grads.give(*a, g);
                    if let Some(dr) = dr {
                        grads.give(*row, dr);
                    }
                }
                Op::Sub(a, b) => {
                    grads.give_ref(*a, &g);
                    if let Some(d) = grads.slot(*b) {
                        add_map(d, &g, |x| -x);
                    }
                }
                Op::Mul(a, b) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(d, &g, &self.values[b.0], |x, y| x * y);
                    }
                    if let Some(d) = grads.slot(*b) {
                        add_zip(d, &g, &self.values[a.0], |x, y| x * y);
                    }
                }
                Op::Scale(a, s) => {
                    if let Some(d) = grads.slot(*a) {
                        add_map(d, &g, |x| x * s);
                    }
                }
                Op::AddScalar(a, _) => grads.give(*a, g),
                Op::Sigmoid(a) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(d, &g, y, |gi, y| gi * y * (1.0 - y));
                    }
                }
                Op::Tanh(a) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(d, &g, y, |gi, y| gi * (1.0 - y * y));
                    }
                }
                Op::Relu(a) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(
                            d,
                            &g,
                            &self.values[a.0],
                            |gi, x| if x > 0.0 { gi } else { 0.0 },
                        );
                    }
                }
                Op::Exp(a) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(d, &g, y, |gi, y| gi * y);
                    }
                }
                Op::Softmax(a) => {
                    if let Some(d) = grads.slot(*a) {
                        for r in 0..y.rows() {
                            let (gr, yr) = (g.row(r), y.row(r));
                            let dot: f32 = gr.iter().zip(yr).map(|(gi, yi)| gi * yi).sum();
                            for ((di, &gi), &yi) in d.row_mut(r).iter_mut().zip(gr).zip(yr) {
                                *di += yi * (gi - dot);
                            }
                        }
                    }
                }
                Op::LogSoftmax(a) => {
                    // `y` holds log-probabilities.
                    if let Some(d) = grads.slot(*a) {
                        for r in 0..y.rows() {
                            let gr = g.row(r);
                            let gsum: f32 = gr.iter().copied().sum();
                            probs.clear();
                            probs.extend_from_slice(y.row(r));
                            math::exp_in_place(&mut probs);
                            for ((di, &gi), &p) in d.row_mut(r).iter_mut().zip(gr).zip(&probs) {
                                *di += gi - p * gsum;
                            }
                        }
                    }
                }
                Op::GatherCols(a, cols) => {
                    if let Some(d) = grads.slot(*a) {
                        for (r, &c) in cols.iter().enumerate() {
                            d.row_mut(r)[c] += g.get(r, 0);
                        }
                    }
                }
                Op::Sum(a) => {
                    if let Some(d) = grads.slot(*a) {
                        let gi = g.get(0, 0);
                        d.data_mut().iter_mut().for_each(|x| *x += gi);
                    }
                }
                Op::Mean(a) => {
                    if let Some(d) = grads.slot(*a) {
                        let gi = g.get(0, 0) / d.len() as f32;
                        d.data_mut().iter_mut().for_each(|x| *x += gi);
                    }
                }
                Op::Square(a) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(d, &g, &self.values[a.0], |gi, x| gi * 2.0 * x);
                    }
                }
                Op::Clamp(a, lo, hi) => {
                    if let Some(d) = grads.slot(*a) {
                        add_zip(d, &g, &self.values[a.0], |gi, x| {
                            if x > *lo && x < *hi {
                                gi
                            } else {
                                0.0
                            }
                        });
                    }
                }
                Op::Minimum(a, b) => {
                    let (xa, xb) = (self.values[a.0].data(), self.values[b.0].data());
                    for (v, a_side) in [(*a, true), (*b, false)] {
                        if let Some(d) = grads.slot(v) {
                            let picked =
                                d.data_mut().iter_mut().zip(g.data()).zip(xa.iter().zip(xb));
                            for ((di, &gi), (x, y)) in picked {
                                if (x <= y) == a_side {
                                    *di += gi;
                                }
                            }
                        }
                    }
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.values[a.0].cols();
                    if let Some(d) = grads.slot(*a) {
                        for r in 0..g.rows() {
                            add_slice(d.row_mut(r), &g.row(r)[..ca]);
                        }
                    }
                    if let Some(d) = grads.slot(*b) {
                        for r in 0..g.rows() {
                            add_slice(d.row_mut(r), &g.row(r)[ca..]);
                        }
                    }
                }
                Op::Transpose(a) => grads.give(*a, g.transpose()),
                Op::SliceCols(a, start) => {
                    if let Some(d) = grads.slot(*a) {
                        for r in 0..g.rows() {
                            add_slice(&mut d.row_mut(r)[*start..], g.row(r));
                        }
                    }
                }
            }
        }
    }
}

/// Gradient slots of one [`Graph::backward`] pass. Only nodes that a
/// parameter reaches ever get a slot, and a slot stays `None` (zero)
/// until its first contribution arrives.
///
/// Every slot holds a sum that starts at +0.0, so no slot ever holds
/// -0.0. That is what lets [`give`](Self::give) move a tensor in as a
/// first contribution without changing a bit: it takes only tensors
/// that keep the property (matmul outputs, sums from +0.0, other
/// nodes' gradients). Everything else is added in place into
/// [`slot`](Self::slot).
struct Grads<'g> {
    graph: &'g Graph,
    slots: Vec<Option<Tensor>>,
}

impl Grads<'_> {
    /// `v`'s gradient, zero-filled on first use, or `None` when no
    /// parameter reaches `v`.
    fn slot(&mut self, v: Var) -> Option<&mut Tensor> {
        if !self.graph.needs_grad[v.0] {
            return None;
        }
        let (rows, cols) = self.graph.values[v.0].shape();
        Some(self.slots[v.0].get_or_insert_with(|| Tensor::zeros(rows, cols)))
    }

    /// Adds `d` into `v`'s gradient; a first contribution is moved in.
    fn give(&mut self, v: Var, d: Tensor) {
        if !self.graph.needs_grad[v.0] {
            return;
        }
        match &mut self.slots[v.0] {
            Some(t) => t.add_assign(&d),
            empty => *empty = Some(d),
        }
    }

    /// [`give`](Self::give) for a gradient that is still needed.
    fn give_ref(&mut self, v: Var, d: &Tensor) {
        if let Some(t) = self.slot(v) {
            t.add_assign(d);
        }
    }
}

/// Row-wise numerically stable softmax on a plain tensor (also used by
/// inference-time action sampling without a tape).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut v = x.clone();
    softmax_rows_into(x, &mut v);
    v
}

/// Row-wise softmax written into a pre-sized `out` (fully overwritten),
/// bit-identical to [`softmax_rows`]. Lets the tape-free serving hot
/// loop reuse one probability buffer across steps.
///
/// # Panics
///
/// Panics if `out`'s shape differs from `x`'s.
pub fn softmax_rows_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(out.shape(), x.shape(), "softmax_rows_into out");
    for r in 0..x.rows() {
        let xr = x.row(r);
        let max = xr.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let out_r = out.row_mut(r);
        for (e, &xi) in out_r.iter_mut().zip(xr) {
            *e = xi - max;
        }
        math::exp_in_place(out_r);
        let mut sum = 0.0;
        for &e in out_r.iter() {
            sum += e;
        }
        for e in out_r {
            *e /= sum;
        }
    }
}

/// `f(x, y)` element by element, for equal-shaped `x` and `y`.
fn elementwise(x: &Tensor, y: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    debug_assert_eq!(x.shape(), y.shape());
    Tensor::from_vec(
        x.rows(),
        x.cols(),
        x.data()
            .iter()
            .zip(y.data())
            .map(|(&xi, &yi)| f(xi, yi))
            .collect(),
    )
}

/// `d += f(g, x)` element by element.
fn add_zip(d: &mut Tensor, g: &Tensor, x: &Tensor, f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(g.shape(), x.shape());
    for (di, (&gi, &xi)) in d.data_mut().iter_mut().zip(g.data().iter().zip(x.data())) {
        *di += f(gi, xi);
    }
}

/// `d[j] += g[j]` over the length of `g`.
fn add_slice(d: &mut [f32], g: &[f32]) {
    for (di, &gi) in d.iter_mut().zip(g) {
        *di += gi;
    }
}

/// `d += f(g)` element by element.
fn add_map(d: &mut Tensor, g: &Tensor, f: impl Fn(f32) -> f32) {
    debug_assert_eq!(d.shape(), g.shape());
    for (di, &gi) in d.data_mut().iter_mut().zip(g.data()) {
        *di += f(gi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check: for a scalar loss `f(params)`, compare
    /// the analytic gradient with `(f(p + eps) - f(p - eps)) / (2 eps)`.
    fn grad_check<F>(build: F, rows: usize, cols: usize, seed: u64)
    where
        F: Fn(&mut Graph, &Params, ParamId) -> Var,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let w = params.add("w", Tensor::randn(rows, cols, 0.5, &mut rng));
        // Analytic gradient.
        let mut g = Graph::new();
        let loss = build(&mut g, &params, w);
        params.zero_grad();
        g.backward(loss, &mut params);
        let analytic = params.grad(w).clone();
        // Numeric gradient.
        let eps = 1e-3f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = params.value(w).get(r, c);
                params.value_mut(w).set(r, c, orig + eps);
                let mut gp = Graph::new();
                let lp = build(&mut gp, &params, w);
                let fp = gp.value(lp).get(0, 0);
                params.value_mut(w).set(r, c, orig - eps);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &params, w);
                let fm = gm.value(lm).get(0, 0);
                params.value_mut(w).set(r, c, orig);
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_check_matmul_sigmoid_sum() {
        grad_check(
            |g, p, w| {
                let x = g.input(Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.9, 0.2, -0.4]]));
                let wv = g.param(p, w);
                let y = g.matmul(x, wv);
                let s = g.sigmoid(y);
                g.sum(s)
            },
            3,
            2,
            0,
        );
    }

    #[test]
    fn grad_check_tanh_mul_mean() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let t = g.tanh(wv);
                let sq = g.mul(t, t);
                g.mean(sq)
            },
            4,
            3,
            1,
        );
    }

    #[test]
    fn grad_check_softmax_gather() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let ls = g.log_softmax(wv);
                let picked = g.gather_cols(ls, vec![1, 0, 2]);
                let neg = g.scale(picked, -1.0);
                g.mean(neg)
            },
            3,
            4,
            2,
        );
    }

    #[test]
    fn grad_check_softmax_entropy() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let probs = g.softmax(wv);
                let logp = g.log_softmax(wv);
                let plogp = g.mul(probs, logp);
                let s = g.sum(plogp);
                g.scale(s, -1.0)
            },
            2,
            5,
            3,
        );
    }

    #[test]
    fn grad_check_clamp_minimum_ppo_shape() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let ratio = g.exp(wv);
                let adv = g.input(Tensor::from_rows(&[&[1.0, -0.5, 0.2], &[-1.2, 0.8, 0.1]]));
                let surr1 = g.mul(ratio, adv);
                let clipped = g.clamp(ratio, 0.8, 1.2);
                let surr2 = g.mul(clipped, adv);
                let m = g.minimum(surr1, surr2);
                let s = g.mean(m);
                g.scale(s, -1.0)
            },
            2,
            3,
            4,
        );
    }

    #[test]
    fn grad_check_concat_slice_relu() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let x = g.input(Tensor::from_rows(&[&[0.5, -0.3], &[0.1, 0.9]]));
                let cat = g.concat_cols(x, wv);
                let r = g.relu(cat);
                let sl = g.slice_cols(r, 1, 4);
                let sq = g.square(sl);
                g.sum(sq)
            },
            2,
            2,
            5,
        );
    }

    #[test]
    fn grad_check_add_row_bias() {
        grad_check(
            |g, p, w| {
                let x = g.input(Tensor::from_rows(&[
                    &[0.3, -0.7, 1.1],
                    &[0.9, 0.2, -0.4],
                    &[-0.2, 0.5, 0.6],
                ]));
                let b = g.param(p, w);
                let y = g.add_row(x, b);
                let t = g.tanh(y);
                g.sum(t)
            },
            1,
            3,
            6,
        );
    }

    #[test]
    fn grad_check_sub_square_value_loss() {
        grad_check(
            |g, p, w| {
                let v = g.param(p, w);
                let target = g.input(Tensor::from_rows(&[&[1.0], &[-2.0], &[0.5]]));
                let d = g.sub(v, target);
                let sq = g.square(d);
                g.mean(sq)
            },
            3,
            1,
            7,
        );
    }

    #[test]
    fn grad_check_transpose_attention_shape() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w); // 2x3 "keys"
                let q = g.input(Tensor::from_rows(&[&[0.4, -0.9]]));
                let kt = g.transpose(wv); // 3x2 -> wait: w is 2x3, kt 3x2
                let scores = g.matmul(q, wv); // 1x3
                let sm = g.softmax(scores);
                let ctx = g.matmul(sm, kt); // 1x2

                g.sum(ctx)
            },
            2,
            3,
            8,
        );
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn unused_branches_get_zero_grad() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, 2.0));
        let u = params.add("unused", Tensor::full(1, 1, 3.0));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let _uv = g.param(&params, u);
        let loss = g.sum(wv);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).get(0, 0), 1.0);
        assert_eq!(params.grad(u).get(0, 0), 0.0);
    }

    #[test]
    fn backward_from_a_loss_no_parameter_reaches_is_a_no_op() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(2, 3, 0.5));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let x = g.input(Tensor::from_rows(&[&[1.0, -2.0]]));
        let _off_loss = g.matmul(x, wv);
        let t = g.tanh(x);
        let loss = g.sum(t);
        g.backward(loss, &mut params);
        assert!(params.grad(w).data().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, 2.0));
        for _ in 0..3 {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let loss = g.sum(wv);
            g.backward(loss, &mut params);
        }
        assert_eq!(params.grad(w).get(0, 0), 3.0);
    }
}
