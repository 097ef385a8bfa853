//! Activation layers.

use crate::layer::Layer;
use crate::{NnError, Result};
use fedsu_tensor::{simd, Tensor};

/// Rectified linear unit: `y = max(x, 0)`, elementwise over any shape.
///
/// Forward and backward run on the dispatched `fedsu_tensor::simd` lanes;
/// the training-mode cache keeps the raw input (a copy) instead of
/// a boolean mask so the backward pass can ride the same compare+select
/// kernel.
#[derive(Debug, Default)]
pub struct Relu {
    input: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut out = Tensor::zeros(input.shape());
        simd::relu_fwd(input.data(), out.data_mut());
        if train {
            self.input = Some(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cached = self
            .input
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        if cached.len() != grad_output.len() {
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {} elements", cached.len()),
                grad_output.shape(),
            ));
        }
        let mut out = Tensor::zeros(grad_output.shape());
        simd::relu_bwd(cached.data(), grad_output.data(), out.data_mut());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = r.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]).unwrap();
        r.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]).unwrap();
        let dx = r.backward(&dy).unwrap();
        assert_eq!(dx.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // Subgradient at exactly 0 is taken as 0.
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        r.forward(&x, true).unwrap();
        let dx = r.backward(&Tensor::ones(&[1])).unwrap();
        assert_eq!(dx.data(), &[0.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut r = Relu::new();
        assert!(r.backward(&Tensor::ones(&[1])).is_err());
    }

    #[test]
    fn inference_mode_does_not_cache() {
        let mut r = Relu::new();
        let x = Tensor::ones(&[2]);
        r.forward(&x, false).unwrap();
        assert!(r.backward(&Tensor::ones(&[2])).is_err());
    }
}
