//! The [`Layer`] trait and the [`Param`] container.

use crate::Result;
use fedsu_tensor::{pool, Tensor};

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass(es).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter from an initial value, with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Number of scalar entries.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A neural-network layer with explicit forward and backward passes.
///
/// Layers cache activations during [`forward`](Layer::forward) and consume
/// them in [`backward`](Layer::backward) or
/// [`backward_params`](Layer::backward_params); the caller must therefore
/// pair each of those with a preceding forward on the same instance.
///
/// Parameters are visited in a deterministic order (declaration order,
/// depth-first for containers), which [`crate::flat`] relies on to give every
/// scalar parameter a stable global index — the granularity at which the
/// FedSU predictability mask operates.
pub trait Layer: Send {
    /// Human-readable layer name (used in error messages).
    fn name(&self) -> &str;

    /// Runs the layer on a batch, caching whatever `backward` will need.
    ///
    /// `train` distinguishes training from inference for layers that behave
    /// differently (inference may skip caching).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInput`] when the input shape does not
    /// match the layer's expectation.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Propagates `grad_output` through the layer, accumulating parameter
    /// gradients and returning the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForward`] when called before
    /// `forward`, and shape errors when `grad_output` does not match the
    /// cached activation.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Accumulates the same parameter gradients as [`Layer::backward`],
    /// bit for bit, without returning the gradient with respect to the
    /// input. A model's first layer runs this (see [`crate::Sequential`]):
    /// nothing reads the gradient of the training batch.
    ///
    /// The default runs `backward` and hands the input gradient back to the
    /// buffer pool. `Conv2d` and `Dense` override it and never compute that
    /// gradient (`Conv2d` skips its `Wᵀ·dY` product and `col2im` per sample,
    /// `Dense` its `dY·W`).
    ///
    /// # Errors
    ///
    /// Exactly those of [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        pool::recycle(self.backward(grad_output)?);
        Ok(())
    }

    /// Visits every trainable parameter, depth-first, in declaration order.
    ///
    /// The default implementation visits nothing (parameter-free layer).
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Read-only parameter visit, same order as [`Layer::visit_params_mut`].
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
}

/// Extension helpers available on every `Layer`.
impl dyn Layer {
    /// Total number of scalar parameters in the layer (recursively).
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoParams;
    impl Layer for NoParams {
        fn name(&self) -> &str {
            "noparams"
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
    }

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new(Tensor::ones(&[3]));
        assert_eq!(p.grad.data(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn default_visitors_visit_nothing() {
        let l: Box<dyn Layer> = Box::new(NoParams);
        assert_eq!(l.num_params(), 0);
    }
}
