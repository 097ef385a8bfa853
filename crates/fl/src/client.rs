//! An emulated FL client: a local model, optimizer, and data partition.

use crate::schedule::LrSchedule;
use crate::{FlError, Result};
use fedsu_data::Batcher;
use fedsu_nn::flat::{load_params, param_count};
use fedsu_nn::loss::softmax_cross_entropy;
use fedsu_nn::optim::Sgd;
use fedsu_nn::{Layer, Sequential};

/// Local-training hyper-parameters shared by every client (the paper's
/// Sec. VI-A setup: batch 32, 50 iterations per round, SGD with weight
/// decay 1e-3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    /// Mini-batch size per iteration.
    pub batch_size: usize,
    /// SGD iterations per round (`F_s` in Algorithm 1).
    pub local_iters: usize,
    /// Base learning rate.
    pub lr: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// Per-round learning-rate schedule (Theorem 1's Eq. 13 condition).
    pub schedule: LrSchedule,
    /// Optional global-norm gradient clipping threshold (`None` = off, as
    /// in the paper's setup).
    pub clip_norm: Option<f32>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            batch_size: 32,
            local_iters: 50,
            lr: 0.01,
            weight_decay: 1e-3,
            schedule: LrSchedule::Constant,
            clip_norm: None,
        }
    }
}

/// Scales all accumulated gradients so their global L2 norm is at most
/// `max_norm` (no-op when already below).
fn clip_gradients(model: &mut fedsu_nn::Sequential, max_norm: f32) {
    use fedsu_nn::Layer;
    let mut sq = 0.0f64;
    model.visit_params(&mut |p| {
        sq += p.grad.data().iter().map(|g| f64::from(*g) * f64::from(*g)).sum::<f64>();
    });
    #[allow(clippy::cast_possible_truncation, reason = "an f64 sum of squares, used in f32")]
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params_mut(&mut |p| p.grad.scale_in_place(scale));
    }
}

/// One emulated FL client.
pub struct Client {
    id: usize,
    model: Sequential,
    optimizer: Sgd,
    batcher: Batcher,
    config: ClientConfig,
    param_count: usize,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.id)
            .field("params", &self.param_count)
            .field("samples", &self.batcher.len())
            .finish()
    }
}

impl Client {
    /// Creates a client owning `model` and training on `batcher`'s
    /// partition.
    pub fn new(id: usize, model: Sequential, batcher: Batcher, config: ClientConfig) -> Self {
        let optimizer = Sgd::new(config.lr).with_weight_decay(config.weight_decay);
        let param_count = param_count(&model);
        Client { id, model, optimizer, batcher, config, param_count }
    }

    /// Client id (stable across the experiment).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of scalar parameters in the local model.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Loads global parameters into the local model (the "pull" step).
    ///
    /// # Errors
    ///
    /// Returns an error when `global` has the wrong length.
    pub fn pull(&mut self, global: &[f32]) -> Result<()> {
        load_params(&mut self.model, global)?;
        Ok(())
    }

    /// Runs one round of local training (`local_iters` SGD steps) and
    /// returns the mean training loss over the round.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Diverged`] if parameters become non-finite, or an
    /// underlying NN error.
    pub fn train_round(&mut self, round: usize) -> Result<f32> {
        self.optimizer.set_lr(self.config.schedule.lr_at(self.config.lr, round));
        let mut total_loss = 0.0f64;
        for _ in 0..self.config.local_iters {
            let (x, labels) = self.batcher.next_batch(self.config.batch_size);
            let logits = self.model.forward(&x, true)?;
            let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
            if !loss.is_finite() {
                return Err(FlError::Diverged { round });
            }
            // No one reads the gradient of the batch itself: the first
            // layer accumulates its parameter gradients and stops there.
            self.model.backward_params(&grad)?;
            if let Some(max_norm) = self.config.clip_norm {
                clip_gradients(&mut self.model, max_norm);
            }
            self.optimizer.step(&mut self.model)?;
            total_loss += f64::from(loss);
        }
        #[allow(clippy::cast_possible_truncation, reason = "an f64 mean, reported in f32")]
        let mean = (total_loss / self.config.local_iters as f64) as f32;
        Ok(mean)
    }

    /// Copies the flattened local parameters (the "push" payload before
    /// sparsification) into `out`, reusing its allocation.
    pub fn local_params_into(&self, out: &mut Vec<f32>) {
        fedsu_nn::flat::flatten_params_into(&self.model, out);
    }

    /// Shared access to the underlying model (e.g. for evaluation probes).
    pub fn model(&self) -> &Sequential {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsu_data::{InMemoryDataset, SyntheticConfig};
    use fedsu_nn::flat::flatten_params;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn toy_client(seed: u64) -> Client {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Arc<InMemoryDataset> =
            Arc::new(SyntheticConfig::new(3, 1, 4, 4).samples_per_class(10).build(&mut rng));
        let n = data.len();
        let batcher = Batcher::new(data, (0..n).collect(), seed);
        let mut model_rng = StdRng::seed_from_u64(0);
        let mut model = fedsu_nn::Sequential::new("m");
        model.push(fedsu_nn::flatten::Flatten::new());
        let inner = fedsu_nn::models::mlp(&[16, 8, 3], &mut model_rng).unwrap();
        model.push_boxed(Box::new(inner));
        Client::new(
            7,
            model,
            batcher,
            ClientConfig {
                batch_size: 4,
                local_iters: 3,
                lr: 0.05,
                weight_decay: 0.0,
                schedule: LrSchedule::Constant,
                clip_norm: None,
            },
        )
    }

    #[test]
    fn pull_roundtrips_params() {
        let mut c = toy_client(1);
        let n = c.param_count();
        let values: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
        c.pull(&values).unwrap();
        assert_eq!(flatten_params(&c.model), values);
        assert!(c.pull(&[0.0]).is_err());
    }

    #[test]
    fn train_round_changes_params_and_returns_finite_loss() {
        let mut c = toy_client(2);
        let before = flatten_params(&c.model);
        let loss = c.train_round(0).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert_ne!(before, flatten_params(&c.model));
    }

    #[test]
    fn training_reduces_loss_over_rounds() {
        let mut c = toy_client(3);
        let first = c.train_round(0).unwrap();
        let mut last = first;
        for r in 1..10 {
            last = c.train_round(r).unwrap();
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn ids_and_sizes_are_reported() {
        let c = toy_client(4);
        assert_eq!(c.id(), 7);
        assert_eq!(c.batcher.len(), 30);
        assert!(c.param_count() > 0);
    }
}


#[cfg(test)]
mod clip_tests {
    use super::*;
    use fedsu_nn::dense::Dense;
    use fedsu_nn::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clipping_caps_the_global_norm() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = fedsu_nn::Sequential::new("m");
        m.push(Dense::new(2, 2, &mut rng).unwrap());
        m.visit_params_mut(&mut |p| p.grad.fill(10.0));
        clip_gradients(&mut m, 1.0);
        let mut sq = 0.0f32;
        m.visit_params(&mut |p| sq += p.grad.data().iter().map(|g| g * g).sum::<f32>());
        assert!((sq.sqrt() - 1.0).abs() < 1e-5, "norm {}", sq.sqrt());
    }

    #[test]
    fn small_gradients_are_untouched() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = fedsu_nn::Sequential::new("m");
        m.push(Dense::new(2, 2, &mut rng).unwrap());
        m.visit_params_mut(&mut |p| p.grad.fill(0.01));
        let mut before = Vec::new();
        m.visit_params(&mut |p| before.extend_from_slice(p.grad.data()));
        clip_gradients(&mut m, 100.0);
        let mut after = Vec::new();
        m.visit_params(&mut |p| after.extend_from_slice(p.grad.data()));
        assert_eq!(before, after);
    }
}
