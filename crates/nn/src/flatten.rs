//! Flatten layer: `[batch, ...] -> [batch, prod(...)]`.

use crate::layer::Layer;
use crate::{NnError, Result};
use fedsu_tensor::Tensor;

/// Flattens all non-batch dimensions.
#[derive(Debug, Default)]
pub struct Flatten {
    /// The input shape of the last training forward, reused across calls.
    shape: Vec<usize>,
    /// Whether `shape` belongs to a forward no backward has consumed yet.
    cached: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let (batch, rest) = match *input.shape() {
            [batch, ref rest @ ..] if !rest.is_empty() => (batch, rest.iter().product::<usize>()),
            _ => {
                return Err(NnError::new_bad_input(
                    self.name(),
                    format_args!("rank >= 2"),
                    input.shape(),
                ))
            }
        };
        if train {
            self.shape.clear();
            self.shape.extend_from_slice(input.shape());
            self.cached = true;
        }
        Ok(input.reshape(&[batch, rest])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if !std::mem::take(&mut self.cached) {
            return Err(NnError::new_missing_forward(self.name()));
        }
        Ok(grad_output.reshape(&self.shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_flattens_and_backward_restores() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let dx = f.backward(&Tensor::zeros(&[2, 60])).unwrap();
        assert_eq!(dx.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn rejects_rank1() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::zeros(&[5]), true).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::zeros(&[2, 60])).is_err());
    }
}
