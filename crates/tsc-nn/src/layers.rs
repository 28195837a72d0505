//! Network layers: fully-connected and LSTM.
//!
//! Layers own [`ParamId`]s inside a shared [`Params`] set and build
//! their forward computation onto a caller-provided [`Graph`], so one
//! parameter set can be reused across many forward passes (parameter
//! sharing across agents, exactly as the paper trains).

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::init::Init;
use crate::math;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// A fully-connected layer `y = x W + b`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim → out_dim` layer in `params`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        rng: &mut R,
    ) -> Self {
        let w = params.add(format!("{name}.w"), init.tensor(in_dim, out_dim, rng));
        let b = params.add(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `batch × in_dim` input.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: Var) -> Var {
        let w = g.param(params, self.w);
        let b = g.param(params, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }

    /// Tape-free forward: writes `x W + b` into `out`, resizing it only
    /// on shape change. Bit-identical to [`forward`](Self::forward) on
    /// the same inputs — same matmul kernel, same `+ bias` expression —
    /// but records no tape ops and allocates nothing in steady state.
    /// Returns the number of buffer (re)allocations performed (0 once
    /// shapes have stabilized).
    pub fn infer_into(&self, params: &Params, x: &Tensor, out: &mut Tensor) -> u64 {
        let allocs = u64::from(out.ensure_shape(x.rows(), self.out_dim));
        x.matmul_into(params.value(self.w), out);
        let b = params.value(self.b);
        for r in 0..out.rows() {
            for (o, &bv) in out.row_mut(r).iter_mut().zip(b.row(0)) {
                *o += bv;
            }
        }
        allocs
    }
}

/// One LSTM cell (single step; hidden state threaded by the caller).
///
/// Gate layout along the `4·hidden` axis is `[i, f, g, o]`. The forget
/// gate bias starts at 1, the usual trick for stable recurrent training.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LstmCell {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

/// Hidden state of an LSTM cell: `(h, c)`, each `batch × hidden`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LstmState {
    /// Hidden output.
    pub h: Tensor,
    /// Cell memory.
    pub c: Tensor,
}

impl LstmState {
    /// The all-zero initial state for a batch of `batch` rows.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        LstmState {
            h: Tensor::zeros(batch, hidden),
            c: Tensor::zeros(batch, hidden),
        }
    }
}

/// Reusable scratch buffers for [`LstmCell::infer_into`]: the gate
/// pre-activations and the recurrent matmul term. Starts empty and is
/// sized on first use, then reused allocation-free across steps.
#[derive(Debug, Clone)]
pub struct LstmScratch {
    gates: Tensor,
    hterm: Tensor,
}

impl LstmScratch {
    /// An empty scratch, sized lazily by the first inference step.
    pub fn new() -> Self {
        LstmScratch {
            gates: Tensor::zeros(0, 0),
            hterm: Tensor::zeros(0, 0),
        }
    }
}

impl Default for LstmScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl LstmCell {
    /// Registers an `in_dim → hidden` LSTM cell in `params`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let init = Init::Orthogonal { gain: 1.0 };
        let wx = params.add(format!("{name}.wx"), init.tensor(in_dim, 4 * hidden, rng));
        let wh = params.add(format!("{name}.wh"), init.tensor(hidden, 4 * hidden, rng));
        let mut bias = Tensor::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0); // forget gate bias
        }
        let b = params.add(format!("{name}.b"), bias);
        LstmCell {
            wx,
            wh,
            b,
            in_dim,
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// One step: inputs `x` (`batch × in`), previous `(h, c)` as graph
    /// vars; returns `(h', c')` vars.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: Var,
        h_prev: Var,
        c_prev: Var,
    ) -> (Var, Var) {
        let wx = g.param(params, self.wx);
        let wh = g.param(params, self.wh);
        let b = g.param(params, self.b);
        let xw = g.matmul(x, wx);
        let hw = g.matmul(h_prev, wh);
        let pre = g.add(xw, hw);
        let gates = g.add_row(pre, b);
        let hsz = self.hidden;
        let i_part = g.slice_cols(gates, 0, hsz);
        let f_part = g.slice_cols(gates, hsz, 2 * hsz);
        let g_part = g.slice_cols(gates, 2 * hsz, 3 * hsz);
        let o_part = g.slice_cols(gates, 3 * hsz, 4 * hsz);
        let i = g.sigmoid(i_part);
        let f = g.sigmoid(f_part);
        let gg = g.tanh(g_part);
        let o = g.sigmoid(o_part);
        let fc = g.mul(f, c_prev);
        let ig = g.mul(i, gg);
        let c_new = g.add(fc, ig);
        let tc = g.tanh(c_new);
        let h_new = g.mul(o, tc);
        (h_new, c_new)
    }

    /// Tape-free LSTM step, bit-identical to
    /// [`forward`](Self::forward): writes `h'` / `c'` into
    /// `h_out` / `c_out`, using `scratch` for the gate pre-activations.
    /// Every buffer is resized only on shape change, so the steady-state
    /// step loop does zero allocation and zero tape bookkeeping. The
    /// per-element expressions replicate the graph ops exactly
    /// (`gates = (xW_x + hW_h) + b`, `c' = (f·c) + (i·g)`,
    /// `h' = o · tanh(c')`, with [`math::sigmoid_in_place`] passes over
    /// each row's `i`, `f` and `o` gates and [`math::tanh_in_place`]
    /// passes over its `g` gate and `c'`), which is what makes
    /// serving-vs-training action parity
    /// exact rather than approximate. Returns the number of buffer
    /// (re)allocations performed (0 once shapes have stabilized).
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatches: `c_prev` must be
    /// `batch × hidden`; the matmul kernels check `x` and `h_prev`.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_into(
        &self,
        params: &Params,
        x: &Tensor,
        h_prev: &Tensor,
        c_prev: &Tensor,
        scratch: &mut LstmScratch,
        h_out: &mut Tensor,
        c_out: &mut Tensor,
    ) -> u64 {
        let batch = x.rows();
        let hsz = self.hidden;
        assert_eq!(c_prev.shape(), (batch, hsz), "lstm c_prev shape");
        let mut allocs = u64::from(scratch.gates.ensure_shape(batch, 4 * hsz));
        allocs += u64::from(scratch.hterm.ensure_shape(batch, 4 * hsz));
        allocs += u64::from(h_out.ensure_shape(batch, hsz));
        allocs += u64::from(c_out.ensure_shape(batch, hsz));
        let LstmScratch { gates, hterm } = scratch;
        x.matmul_into(params.value(self.wx), gates);
        h_prev.matmul_into(params.value(self.wh), hterm);
        let b = params.value(self.b).row(0);
        for r in 0..batch {
            let ht = hterm.row(r);
            let gr = gates.row_mut(r);
            for c in 0..4 * hsz {
                gr[c] = (gr[c] + ht[c]) + b[c];
            }
        }
        for r in 0..batch {
            let g = gates.row_mut(r);
            math::sigmoid_in_place(&mut g[..2 * hsz]);
            math::tanh_in_place(&mut g[2 * hsz..3 * hsz]);
            math::sigmoid_in_place(&mut g[3 * hsz..]);
            let (i, rest) = g.split_at(hsz);
            let (f, rest) = rest.split_at(hsz);
            let (gg, o) = rest.split_at(hsz);
            let (cp, c_new, h_new) = (c_prev.row(r), c_out.row_mut(r), h_out.row_mut(r));
            for j in 0..hsz {
                c_new[j] = (f[j] * cp[j]) + (i[j] * gg[j]);
            }
            h_new.copy_from_slice(c_new);
            math::tanh_in_place(h_new);
            for (h, &o) in h_new.iter_mut().zip(o) {
                *h *= o;
            }
        }
        allocs
    }

    /// Convenience: one step from a plain [`LstmState`], returning the
    /// next state as plain tensors (detached, i.e. truncated BPTT of
    /// length 1 — the hidden state is stored in the rollout buffer as in
    /// Algorithm 1 line 20).
    pub fn step(
        &self,
        g: &mut Graph,
        params: &Params,
        x: Var,
        state: &LstmState,
    ) -> (Var, LstmState) {
        let h_prev = g.input(state.h.clone());
        let c_prev = g.input(state.c.clone());
        let (h, c) = self.forward(g, params, x, h_prev, c_prev);
        let next = LstmState {
            h: g.value(h).clone(),
            c: g.value(c).clone(),
        };
        (h, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let l = Linear::new(&mut params, "fc", 3, 2, Init::Zeros, &mut rng);
        params.value_mut(crate::params::ParamId(1)).set(0, 1, 5.0); // bias
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let y = l.forward(&mut g, &params, x);
        assert_eq!(g.value(y).shape(), (1, 2));
        assert_eq!(g.value(y).get(0, 1), 5.0, "bias applied");
    }

    #[test]
    fn linear_gradients_flow_to_both_w_and_b() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let l = Linear::new(
            &mut params,
            "fc",
            3,
            2,
            Init::Orthogonal { gain: 1.0 },
            &mut rng,
        );
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, -1.0, 2.0]]));
        let y = l.forward(&mut g, &params, x);
        let s = g.sum(y);
        g.backward(s, &mut params);
        for id in params.ids() {
            assert!(params.grad(id).norm() > 0.0, "{}", params.name(id));
        }
    }

    #[test]
    fn lstm_step_changes_state_and_is_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let cell = LstmCell::new(&mut params, "lstm", 4, 8, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, -1.0, 0.5, 2.0]]));
        let state = LstmState::zeros(1, 8);
        let (h, next) = cell.step(&mut g, &params, x, &state);
        assert_eq!(g.value(h).shape(), (1, 8));
        assert_ne!(next.h, state.h);
        assert!(
            g.value(h).data().iter().all(|v| v.abs() <= 1.0),
            "h in [-1,1]"
        );
    }

    #[test]
    fn lstm_memory_persists_across_steps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let cell = LstmCell::new(&mut params, "lstm", 2, 4, &mut rng);
        // Feed a distinctive input, then zeros; the state should keep a
        // trace of the first input (c not reset).
        let mut state = LstmState::zeros(1, 4);
        let mut g = Graph::new();
        let x0 = g.input(Tensor::from_rows(&[&[3.0, -3.0]]));
        let (_, s1) = cell.step(&mut g, &params, x0, &state);
        state = s1;
        let zero_state = LstmState::zeros(1, 4);
        let mut g2 = Graph::new();
        let z = g2.input(Tensor::zeros(1, 2));
        let (h_with_memory, _) = cell.step(&mut g2, &params, z, &state);
        let mut g3 = Graph::new();
        let z3 = g3.input(Tensor::zeros(1, 2));
        let (h_cold, _) = cell.step(&mut g3, &params, z3, &zero_state);
        assert_ne!(g2.value(h_with_memory), g3.value(h_cold));
    }

    #[test]
    fn linear_infer_is_bit_identical_to_graph_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let l = Linear::new(
            &mut params,
            "fc",
            5,
            3,
            Init::Orthogonal { gain: 1.0 },
            &mut rng,
        );
        let x = Tensor::randn(4, 5, 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = l.forward(&mut g, &params, xv);
        // Dirty, correctly-shaped buffer: second call must not allocate.
        let mut out = Tensor::full(4, 3, f32::NAN);
        assert_eq!(l.infer_into(&params, &x, &mut out), 0);
        assert_eq!(&out, g.value(y));
    }

    /// Hidden widths around the element-wise kernels' 8- and 16-lane
    /// groups: a single lane, short and long remainders, whole groups.
    #[test]
    fn lstm_infer_is_bit_identical_to_graph_step() {
        let mut rng = StdRng::seed_from_u64(8);
        for hidden in [6, 1, 7, 8, 9, 15, 16, 17, 33] {
            let mut params = Params::new();
            let cell = LstmCell::new(&mut params, "lstm", 4, hidden, &mut rng);
            let x = Tensor::randn(3, 4, 1.0, &mut rng);
            let state = LstmState {
                h: Tensor::randn(3, hidden, 0.5, &mut rng),
                c: Tensor::randn(3, hidden, 0.5, &mut rng),
            };
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let (hv, next) = cell.step(&mut g, &params, xv, &state);
            let mut scratch = LstmScratch::new();
            let mut h_out = Tensor::zeros(0, 0);
            let mut c_out = Tensor::zeros(0, 0);
            let first = cell.infer_into(
                &params,
                &x,
                &state.h,
                &state.c,
                &mut scratch,
                &mut h_out,
                &mut c_out,
            );
            assert_eq!(first, 4, "all four buffers sized on first use");
            assert_eq!(&h_out, g.value(hv), "hidden {hidden}");
            assert_eq!(c_out, next.c, "hidden {hidden}");
            // Steady state: same shapes, zero allocations, same result.
            let again = cell.infer_into(
                &params,
                &x,
                &state.h,
                &state.c,
                &mut scratch,
                &mut h_out,
                &mut c_out,
            );
            assert_eq!(again, 0);
            assert_eq!(&h_out, g.value(hv), "hidden {hidden}");
        }
    }

    /// The tape step panics on a mis-shaped `c_prev` (through `mul`);
    /// the tape-free step must too, not read part of a wider one.
    #[test]
    #[should_panic(expected = "lstm c_prev shape")]
    fn lstm_infer_rejects_a_wider_c_prev() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = Params::new();
        let cell = LstmCell::new(&mut params, "lstm", 4, 6, &mut rng);
        let x = Tensor::randn(3, 4, 1.0, &mut rng);
        let h = Tensor::zeros(3, 6);
        let c = Tensor::zeros(3, 7);
        let (mut h_out, mut c_out) = (Tensor::zeros(0, 0), Tensor::zeros(0, 0));
        cell.infer_into(
            &params,
            &x,
            &h,
            &c,
            &mut LstmScratch::new(),
            &mut h_out,
            &mut c_out,
        );
    }

    #[test]
    fn lstm_gradcheck_through_one_step() {
        // Finite-difference check through the full cell wrt wx.
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let cell = LstmCell::new(&mut params, "lstm", 2, 3, &mut rng);
        let x_data = Tensor::from_rows(&[&[0.7, -0.4]]);
        let state = LstmState {
            h: Tensor::from_rows(&[&[0.1, -0.2, 0.3]]),
            c: Tensor::from_rows(&[&[0.2, 0.0, -0.1]]),
        };
        let run = |params: &Params| -> f32 {
            let mut g = Graph::new();
            let x = g.input(x_data.clone());
            let (h, _) = cell.step(&mut g, params, x, &state);
            let mut g2 = g;
            let s = g2.sum(h);
            g2.value(s).get(0, 0)
        };
        // Analytic.
        let mut g = Graph::new();
        let x = g.input(x_data.clone());
        let (h, _) = cell.step(&mut g, &params, x, &state);
        let s = g.sum(h);
        params.zero_grad();
        g.backward(s, &mut params);
        let wx = crate::params::ParamId(0);
        let analytic = params.grad(wx).clone();
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..12 {
                let orig = params.value(wx).get(r, c);
                params.value_mut(wx).set(r, c, orig + eps);
                let fp = run(&params);
                params.value_mut(wx).set(r, c, orig - eps);
                let fm = run(&params);
                params.value_mut(wx).set(r, c, orig);
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + a.abs()),
                    "({r},{c}): {a} vs {numeric}"
                );
            }
        }
    }
}
