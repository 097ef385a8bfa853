//! Fully-connected (dense) layer.

use crate::layer::{Layer, Param};
use crate::{NnError, Result};
use fedsu_tensor::{kaiming_uniform, matmul, matmul_transpose_a, matmul_transpose_b, Tensor};
use rand::Rng;

/// A fully-connected layer computing `y = x · Wᵀ + b`.
///
/// Input: `[batch, in_features]`; output: `[batch, out_features]`.
/// Weights are stored `[out_features, in_features]`.
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform weights and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig(format!(
                "dense layer dims must be positive, got {in_features}x{out_features}"
            )));
        }
        let weight = kaiming_uniform(&[out_features, in_features], in_features, rng);
        Ok(Dense {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        })
    }

    /// The backward pass: accumulates `dW` and `db`, and returns the input
    /// gradient `dY · W` only when `input_grad` is set.
    fn backward_impl(&mut self, grad_output: &Tensor, input_grad: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        if !matches!(grad_output.shape(), &[_, f] if f == self.out_features) {
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad [batch, {}]", self.out_features),
                grad_output.shape(),
            ));
        }
        // dW = dYᵀ · X  -> [out, in]
        self.weight.grad.add_assign(&matmul_transpose_a(grad_output, &input)?)?;
        // db = column-sum of dY
        let bg = self.bias.grad.data_mut();
        for grow in grad_output.data().chunks_exact(self.out_features) {
            for (b, g) in bg.iter_mut().zip(grow) {
                *b += g;
            }
        }
        // dX = dY · W -> [batch, in]
        Ok(if input_grad { Some(matmul(grad_output, &self.weight.value)?) } else { None })
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if !matches!(input.shape(), &[_, f] if f == self.in_features) {
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("[batch, {}]", self.in_features),
                input.shape(),
            ));
        }
        let mut out = matmul_transpose_b(input, &self.weight.value)?;
        let b = self.bias.value.data();
        for orow in out.data_mut().chunks_exact_mut(self.out_features) {
            for (o, bv) in orow.iter_mut().zip(b) {
                *o += bv;
            }
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        // `Some` whenever the input gradient is asked for.
        Ok(self.backward_impl(grad_output, true)?.unwrap_or_default())
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_impl(grad_output, false).map(drop)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_with_known_weights() -> Dense {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 3, &mut rng).unwrap();
        // W = [[1,2],[3,4],[5,6]], b = [0.1, 0.2, 0.3]
        d.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        d.bias.value = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]).unwrap();
        d
    }

    #[test]
    fn forward_known_values() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = d.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 3]);
        let want = [3.1, 7.2, 11.3];
        for (a, b) in y.data().iter().zip(&want) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_known_gradients() {
        let mut d = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        d.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]).unwrap();
        let dx = d.backward(&dy).unwrap();
        // dX = dY·W = [1*1 + 0*3 + (-1)*5, 1*2 + 0*4 + (-1)*6] = [-4, -4]
        assert_eq!(dx.data(), &[-4.0, -4.0]);
        // dW = dYᵀ·X = [[1,2],[0,0],[-1,-2]]
        assert_eq!(d.weight.grad.data(), &[1.0, 2.0, 0.0, 0.0, -1.0, -2.0]);
        assert_eq!(d.bias.grad.data(), &[1.0, 0.0, -1.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut d = layer_with_known_weights();
        let dy = Tensor::zeros(&[1, 3]);
        assert!(matches!(d.backward(&dy), Err(NnError::MissingForward { .. })));
    }

    #[test]
    fn rejects_bad_input_shape() {
        let mut d = layer_with_known_weights();
        let x = Tensor::zeros(&[1, 5]);
        assert!(matches!(d.forward(&x, true), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn param_visit_order_is_weight_then_bias() {
        let d = layer_with_known_weights();
        let mut lens = Vec::new();
        d.visit_params(&mut |p| lens.push(p.len()));
        assert_eq!(lens, vec![6, 3]);
    }

    #[test]
    fn zero_dims_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Dense::new(0, 3, &mut rng).is_err());
        assert!(Dense::new(3, 0, &mut rng).is_err());
    }

    #[test]
    fn finite_difference_gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(4, 3, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
        // Loss = sum(forward(x)); analytic dL/dW via backward with ones.
        let y = d.forward(&x, true).unwrap();
        let dy = Tensor::ones(y.shape());
        d.backward(&dy).unwrap();
        let analytic = d.weight.grad.clone();

        let eps = 1e-3f32;
        for idx in [0usize, 5, 11] {
            let orig = d.weight.value.data()[idx];
            d.weight.value.data_mut()[idx] = orig + eps;
            let lp = d.forward(&x, true).unwrap().sum();
            d.weight.value.data_mut()[idx] = orig - eps;
            let lm = d.forward(&x, true).unwrap().sum();
            d.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic.data()[idx];
            assert!((numeric - got).abs() < 1e-2, "idx {idx}: numeric {numeric} vs analytic {got}");
        }
    }
}
