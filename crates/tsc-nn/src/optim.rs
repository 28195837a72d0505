//! Gradient-descent optimizers.

use crate::params::Params;
use crate::tensor::Tensor;

/// Adam optimizer state over one [`Params`] set.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer for `params` with learning rate `lr`
    /// and standard betas (0.9, 0.999).
    pub fn new(params: &Params, lr: f32) -> Self {
        let m = params
            .ids()
            .map(|id| {
                let t = params.value(id);
                Tensor::zeros(t.rows(), t.cols())
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }

    /// Rebuilds an optimizer from persisted state (see
    /// [`load_adam`](crate::io::load_adam)). The moment vectors `m` and
    /// `v` must be pairwise shape-identical; `t` is the number of
    /// [`step`](Self::step) calls already applied, so a restored
    /// optimizer continues bias correction exactly where the saved one
    /// stopped.
    ///
    /// # Errors
    ///
    /// Returns a message when `m` and `v` disagree in length or shape,
    /// when `lr` is negative or not finite, when `eps` is not a finite
    /// positive number, or when a β lies outside `[0, 1)`.
    pub fn from_state(
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        m: Vec<Tensor>,
        v: Vec<Tensor>,
    ) -> Result<Self, String> {
        if !(lr.is_finite() && lr >= 0.0) {
            return Err(format!("learning rate {lr} is not finite and non-negative"));
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(format!("epsilon {eps} is not finite and positive"));
        }
        for (name, beta) in [("beta1", beta1), ("beta2", beta2)] {
            if !(0.0..1.0).contains(&beta) {
                return Err(format!("{name} {beta} is outside [0, 1)"));
            }
        }
        if m.len() != v.len() {
            return Err(format!(
                "moment count mismatch: {} first moments vs {} second moments",
                m.len(),
                v.len()
            ));
        }
        for (i, (mi, vi)) in m.iter().zip(&v).enumerate() {
            if mi.shape() != vi.shape() {
                return Err(format!(
                    "moment {i} shape mismatch: m is {:?}, v is {:?}",
                    mi.shape(),
                    vi.shape()
                ));
            }
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        })
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for schedules/annealing).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The `(β₁, β₂)` decay rates.
    pub fn betas(&self) -> (f32, f32) {
        (self.beta1, self.beta2)
    }

    /// The denominator stabilizer ε.
    pub fn epsilon(&self) -> f32 {
        self.eps
    }

    /// Number of update steps applied so far. Together with
    /// [`moments`](Self::moments) this is the full optimizer state:
    /// bias correction depends on `t`, so faithful checkpoint resume is
    /// impossible without persisting it.
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// The first (`m`) and second (`v`) moment estimates, in parameter
    /// registration order.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Whether this optimizer's moment tensors match `params` tensor
    /// for tensor (count and shapes) — the precondition of
    /// [`step`](Self::step).
    pub fn matches(&self, params: &Params) -> bool {
        self.m.len() == params.len()
            && params
                .ids()
                .all(|id| self.m[id.index()].shape() == params.value(id).shape())
    }

    /// Applies one update from the gradients accumulated in `params`,
    /// then zeroes them.
    ///
    /// # Panics
    ///
    /// Panics if `params` gained tensors since construction.
    pub fn step(&mut self, params: &mut Params) {
        assert_eq!(self.m.len(), params.len(), "param set changed size");
        // A restored `t` may be anywhere in `u64`. From 2³¹ on, βᵗ is
        // already exactly 0, so the exponent saturates there.
        self.t = self.t.saturating_add(1);
        let power = i32::try_from(self.t).unwrap_or(i32::MAX);
        let b1t = 1.0 - self.beta1.powi(power);
        let b2t = 1.0 - self.beta2.powi(power);
        for id in params.ids() {
            let i = id.index();
            let (value, grad) = params.value_mut_and_grad(id);
            let m = &mut self.m[i];
            for (mi, gi) in m.data_mut().iter_mut().zip(grad.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            }
            let v = &mut self.v[i];
            for (vi, gi) in v.data_mut().iter_mut().zip(grad.data()) {
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            for ((wi, mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(self.m[i].data())
                .zip(self.v[i].data())
            {
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                *wi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        params.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Adam should minimize a simple quadratic `(w - 3)^2`.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, -5.0));
        let mut opt = Adam::new(&params, 0.1);
        for _ in 0..500 {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let target = g.input(Tensor::full(1, 1, 3.0));
            let d = g.sub(wv, target);
            let sq = g.square(d);
            let loss = g.sum(sq);
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        let final_w = params.value(w).get(0, 0);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, 1.0));
        let mut opt = Adam::new(&params, 0.01);
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let loss = g.sum(wv);
        g.backward(loss, &mut params);
        assert!(params.grad_norm() > 0.0);
        opt.step(&mut params);
        assert_eq!(params.grad_norm(), 0.0);
    }

    /// A restored timestep anywhere in `u64` still takes a normal step.
    /// With a wrapping `t as i32` exponent, 2³¹ freezes every parameter,
    /// 2³² - 1 and `u64::MAX - 1` make them NaN, and `u64::MAX`
    /// overflows `t + 1`.
    #[test]
    fn huge_restored_timesteps_still_step() {
        for t in [
            (1 << 31) - 1,
            1 << 31,
            (1 << 32) - 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut params = Params::new();
            let w = params.add("w", Tensor::full(1, 2, 1.0));
            let zeros = vec![Tensor::zeros(1, 2)];
            let mut opt = Adam::from_state(0.01, 0.9, 0.999, 1e-8, t, zeros.clone(), zeros)
                .expect("valid state");
            params.accumulate_grad(w, &Tensor::from_rows(&[&[0.5, -2.0]]));
            opt.step(&mut params);
            let after = params.value(w).data();
            assert!(after.iter().all(|x| x.is_finite()), "t = {t}: {after:?}");
            assert!(after.iter().all(|&x| x != 1.0), "t = {t}: {after:?}");
        }
    }

    #[test]
    fn from_state_rejects_hyperparameters_that_poison_a_step() {
        let ok = |lr, b1, b2, eps| Adam::from_state(lr, b1, b2, eps, 0, vec![], vec![]).is_ok();
        assert!(ok(0.0, 0.0, 0.999, 1e-8));
        for lr in [f32::NAN, f32::INFINITY, -1e-3] {
            assert!(!ok(lr, 0.9, 0.999, 1e-8), "lr {lr}");
        }
        for eps in [0.0, -1e-8, f32::NAN, f32::INFINITY] {
            assert!(!ok(1e-3, 0.9, 0.999, eps), "eps {eps}");
        }
        for beta in [1.0, -0.1, 1.5, f32::NAN] {
            assert!(!ok(1e-3, beta, 0.999, 1e-8), "beta1 {beta}");
            assert!(!ok(1e-3, 0.9, beta, 1e-8), "beta2 {beta}");
        }
    }

    #[test]
    fn lr_schedule_is_settable() {
        let params = Params::new();
        let mut opt = Adam::new(&params, 0.01);
        opt.set_lr(0.001);
        assert_eq!(opt.lr(), 0.001);
    }
}
