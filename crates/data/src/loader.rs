//! Mini-batch loader over a client's partition of a shared dataset.

use crate::InMemoryDataset;
use fedsu_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Streams shuffled mini-batches from a subset of a shared dataset,
/// reshuffling at each epoch boundary. Every FL client owns one `Batcher`
/// over its Dirichlet partition.
#[derive(Debug, Clone)]
pub struct Batcher {
    dataset: Arc<InMemoryDataset>,
    indices: Vec<usize>,
    pos: usize,
    rng: StdRng,
}

impl Batcher {
    /// Creates a batcher over `indices` of `dataset`, seeded for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range index.
    pub fn new(dataset: Arc<InMemoryDataset>, indices: Vec<usize>, seed: u64) -> Self {
        assert!(!indices.is_empty(), "batcher needs at least one sample");
        assert!(indices.iter().all(|&i| i < dataset.len()), "index out of range");
        let mut b = Batcher { dataset, indices, pos: 0, rng: StdRng::seed_from_u64(seed) };
        b.indices.shuffle(&mut b.rng);
        b
    }

    /// Number of samples in this client's partition.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the partition is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Produces the next mini-batch of up to `batch_size` samples, wrapping
    /// (and reshuffling) at the epoch boundary. The batch may be smaller
    /// than `batch_size` at the end of an epoch but is never empty.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn next_batch(&mut self, batch_size: usize) -> (Tensor, Vec<usize>) {
        assert!(batch_size > 0, "batch size must be positive");
        if self.pos >= self.indices.len() {
            self.indices.shuffle(&mut self.rng);
            self.pos = 0;
        }
        let end = (self.pos + batch_size).min(self.indices.len());
        let batch = self.dataset.batch(self.indices.get(self.pos..end).unwrap_or_default());
        self.pos = end;
        // `new` checked every index, so the dataset accepts them all; were
        // it not to, the empty batch fails the model's forward pass with a
        // typed error instead of aborting the round.
        batch.unwrap_or_else(|_| (Tensor::zeros(&[0]), Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Arc<InMemoryDataset> {
        let features: Vec<f32> = (0..20).map(|v| v as f32).collect();
        let labels = (0..10).map(|i| i % 2).collect();
        Arc::new(InMemoryDataset::new(features, labels, &[2], 2))
    }

    #[test]
    fn batches_have_requested_size() {
        let mut b = Batcher::new(dataset(), (0..10).collect(), 0);
        let (t, l) = b.next_batch(4);
        assert_eq!(t.shape(), &[4, 2]);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn epoch_covers_every_sample_exactly_once() {
        let mut b = Batcher::new(dataset(), (0..10).collect(), 1);
        let mut seen = Vec::new();
        for _ in 0..4 {
            let (t, _) = b.next_batch(3);
            for row in 0..t.shape()[0] {
                seen.push(t.row(row).unwrap()[0] as usize / 2);
            }
        }
        // 3+3+3+1 = 10: one full epoch.
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wraps_after_epoch() {
        let mut b = Batcher::new(dataset(), vec![0, 1], 2);
        b.next_batch(2);
        let (t, _) = b.next_batch(2); // second epoch
        assert_eq!(t.shape()[0], 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut b1 = Batcher::new(dataset(), (0..10).collect(), 7);
        let mut b2 = Batcher::new(dataset(), (0..10).collect(), 7);
        let (t1, l1) = b1.next_batch(5);
        let (t2, l2) = b2.next_batch(5);
        assert_eq!(t1.data(), t2.data());
        assert_eq!(l1, l2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut b1 = Batcher::new(dataset(), (0..10).collect(), 7);
        let mut b2 = Batcher::new(dataset(), (0..10).collect(), 8);
        let (t1, _) = b1.next_batch(10);
        let (t2, _) = b2.next_batch(10);
        assert_ne!(t1.data(), t2.data());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_indices_panic() {
        Batcher::new(dataset(), vec![], 0);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_index_panics() {
        Batcher::new(dataset(), vec![99], 0);
    }
}
