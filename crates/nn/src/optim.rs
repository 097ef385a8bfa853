//! Stochastic gradient descent with optional weight decay.

use crate::layer::Layer;
use crate::Result;
use fedsu_tensor::simd;

/// SGD optimizer matching the paper's training setup (plain SGD with weight
/// decay).
///
/// The optimizer zeroes each parameter's gradient after applying it.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate and no weight
    /// decay.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, weight_decay: 0.0 }
    }

    /// Sets L2 weight decay (the paper uses `1e-3`).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step to every parameter of `model`, then zeroes
    /// the gradients.
    ///
    /// # Errors
    ///
    /// Currently infallible for well-formed models; the `Result` return
    /// keeps the signature stable if validation is added.
    pub fn step(&mut self, model: &mut dyn Layer) -> Result<()> {
        let (lr, wd) = (self.lr, self.weight_decay);
        model.visit_params_mut(&mut |p| {
            simd::sgd_step(p.value.data_mut(), p.grad.data_mut(), lr, wd);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit_dense() -> Dense {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(1, 1, &mut rng).unwrap();
        d.visit_params_mut(&mut |p| p.value.fill(1.0));
        d
    }

    #[test]
    fn plain_sgd_applies_gradient_and_zeroes_it() {
        let mut d = unit_dense();
        d.visit_params_mut(&mut |p| p.grad.fill(2.0));
        Sgd::new(0.1).step(&mut d).unwrap();
        d.visit_params(&mut |p| {
            assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
            assert_eq!(p.grad.data()[0], 0.0);
        });
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut d = unit_dense();
        // Zero gradient: only decay acts. x <- x - lr*wd*x = 1 - 0.1*0.5
        Sgd::new(0.1).with_weight_decay(0.5).step(&mut d).unwrap();
        d.visit_params(&mut |p| {
            assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
        });
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut d = unit_dense();
        let mut opt = Sgd::new(0.1);
        opt.set_lr(0.2);
        assert_eq!(opt.lr(), 0.2);
        d.visit_params_mut(&mut |p| p.grad.fill(1.0));
        opt.step(&mut d).unwrap();
        d.visit_params(&mut |p| assert!((p.value.data()[0] - 0.8).abs() < 1e-6));
    }
}
