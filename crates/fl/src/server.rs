//! The FL server: global parameters and centralized evaluation.

use crate::Result;
use fedsu_data::InMemoryDataset;
use fedsu_nn::flat::{flatten_params, load_params, param_count};
use fedsu_nn::loss::{accuracy, softmax_cross_entropy};
use fedsu_nn::{Layer, NnError, Sequential};
use fedsu_tensor::pool;
use std::sync::Arc;

/// Holds the global model parameters and evaluates them on a held-out test
/// set.
pub struct Server {
    global: Vec<f32>,
    eval_model: Sequential,
    test_set: Arc<InMemoryDataset>,
    eval_batch: usize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("params", &self.global.len())
            .field("test_samples", &self.test_set.len())
            .finish()
    }
}

impl Server {
    /// Creates a server whose initial global parameters are taken from
    /// `eval_model` (which is also reused for evaluation).
    pub fn new(eval_model: Sequential, test_set: Arc<InMemoryDataset>) -> Self {
        let global = flatten_params(&eval_model);
        Server { global, eval_model, test_set, eval_batch: 64 }
    }

    /// Current global parameter vector.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// Mutable access for the sync strategy's aggregation step.
    pub fn global_mut(&mut self) -> &mut Vec<f32> {
        &mut self.global
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        param_count(&self.eval_model)
    }

    /// Evaluates the current global model on the test set, returning
    /// `(accuracy, mean_loss)`.
    ///
    /// # Errors
    ///
    /// Propagates NN errors (shape mismatches are construction bugs).
    pub fn evaluate(&mut self) -> Result<(f32, f32)> {
        load_params(&mut self.eval_model, &self.global)?;
        let n = self.test_set.len();
        let mut correct_weighted = 0.0f64;
        let mut loss_weighted = 0.0f64;
        for start in (0..n).step_by(self.eval_batch) {
            let idx: Vec<usize> = (start..n).take(self.eval_batch).collect();
            let (x, labels) = self.test_set.batch(&idx).map_err(NnError::from)?;
            let logits = self.eval_model.forward(&x, false)?;
            let acc = accuracy(&logits, &labels)?;
            let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
            // Evaluation reads the loss only; its gradient came from the pool.
            pool::recycle(grad);
            let w = idx.len() as f64;
            correct_weighted += f64::from(acc) * w;
            loss_weighted += f64::from(loss) * w;
        }
        #[allow(clippy::cast_possible_truncation, reason = "f64 weighted means, reported in f32")]
        let means = ((correct_weighted / n as f64) as f32, (loss_weighted / n as f64) as f32);
        Ok(means)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsu_data::SyntheticConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> Server {
        let mut rng = StdRng::seed_from_u64(0);
        let test = Arc::new(SyntheticConfig::new(2, 1, 4, 4).samples_per_class(20).build(&mut rng));
        let mut model = Sequential::new("m");
        model.push(fedsu_nn::flatten::Flatten::new());
        model.push_boxed(Box::new(fedsu_nn::models::mlp(&[16, 2], &mut rng).unwrap()));
        Server::new(model, test)
    }

    #[test]
    fn evaluate_returns_probability_range() {
        let mut s = setup();
        let (acc, loss) = s.evaluate().unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn global_mutation_affects_evaluation() {
        let mut s = setup();
        let (_, loss_before) = s.evaluate().unwrap();
        for v in s.global_mut().iter_mut() {
            *v = 100.0; // absurd params -> loss changes drastically
        }
        let (_, loss_after) = s.evaluate().unwrap();
        assert_ne!(loss_before, loss_after);
    }

    #[test]
    fn param_count_matches_global_len() {
        let s = setup();
        assert_eq!(s.param_count(), s.global().len());
    }
}
