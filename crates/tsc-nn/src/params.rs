//! Trainable parameter storage shared across forward passes.
//!
//! A [`Params`] set owns every weight tensor of a model together with
//! its gradient accumulator. Computation graphs reference parameters by
//! [`ParamId`]; [`Graph::backward`](crate::graph::Graph::backward)
//! accumulates into the matching gradient slot, and the optimizer in
//! [`optim`](crate::optim) consumes the accumulated gradients.

use crate::tensor::Tensor;

/// Identifier of one parameter tensor inside a [`Params`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Dense index of this parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable tensors and their gradients.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Params {
    names: Vec<String>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl Params {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Params {
            names: Vec::new(),
            values: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Registers a tensor and returns its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered tensors.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Value of parameter `id`.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value of parameter `id`.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Value of parameter `id`, mutably, beside its gradient: disjoint
    /// fields, so an optimizer reads one while it writes the other.
    pub(crate) fn value_mut_and_grad(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        (&mut self.values[id.0], &self.grads[id.0])
    }

    /// Gradient accumulator of parameter `id`.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Name of parameter `id`.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Adds `delta` into the gradient of `id` (used by the graph).
    pub(crate) fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.scale_assign(s);
            }
        }
        norm
    }

    /// Copies every value from `other` (matching ids) — used for target
    /// network synchronization in DQN.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different layouts.
    pub fn copy_from(&mut self, other: &Params) {
        assert_eq!(self.len(), other.len(), "param set layout mismatch");
        for i in 0..self.values.len() {
            assert_eq!(self.values[i].shape(), other.values[i].shape());
            self.values[i] = other.values[i].clone();
        }
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::full(2, 3, 1.0));
        assert_eq!(p.value(id).shape(), (2, 3));
        assert_eq!(p.name(id), "w");
        assert_eq!(p.num_scalars(), 6);
        assert_eq!(p.grad(id).sum(), 0.0);
    }

    #[test]
    fn grad_clipping_scales_to_max_norm() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::zeros(1, 2));
        p.accumulate_grad(id, &Tensor::from_rows(&[&[3.0, 4.0]]));
        let pre = p.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((p.grad_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Params::new();
        let id = p.add("w", Tensor::zeros(1, 2));
        p.accumulate_grad(id, &Tensor::from_rows(&[&[3.0, 4.0]]));
        p.zero_grad();
        assert_eq!(p.grad_norm(), 0.0);
    }

    #[test]
    fn copy_from_synchronizes_values() {
        let mut a = Params::new();
        let ia = a.add("w", Tensor::full(1, 2, 1.0));
        let mut b = Params::new();
        let _ = b.add("w", Tensor::full(1, 2, 9.0));
        a.copy_from(&b);
        assert_eq!(a.value(ia).get(0, 0), 9.0);
    }
}
