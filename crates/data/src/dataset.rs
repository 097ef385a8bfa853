//! In-memory labelled dataset.

use fedsu_tensor::{Tensor, TensorError};

/// A labelled dataset held fully in memory.
///
/// Features are stored as one contiguous row-major buffer; each sample has
/// shape `sample_shape` (e.g. `[1, 28, 28]`). Clients hold an `Arc` to a
/// shared dataset and index into it with their partition's indices.
#[derive(Debug, Clone, PartialEq)]
pub struct InMemoryDataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    sample_shape: Vec<usize>,
    sample_len: usize,
    classes: usize,
}

impl InMemoryDataset {
    /// Creates a dataset from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != labels.len() * prod(sample_shape)` or a
    /// label is `>= classes`.
    pub fn new(features: Vec<f32>, labels: Vec<usize>, sample_shape: &[usize], classes: usize) -> Self {
        let sample_len: usize = sample_shape.iter().product();
        assert_eq!(
            features.len(),
            labels.len() * sample_len,
            "feature buffer size mismatch"
        );
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        InMemoryDataset { features, labels, sample_shape: sample_shape.to_vec(), sample_len, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample tensor shape (without the batch dimension).
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature slice and label of sample `idx`, or `None` if
    /// `idx >= len()`.
    pub fn sample(&self, idx: usize) -> Option<(&[f32], usize)> {
        let label = *self.labels.get(idx)?;
        let features = self.features.get(idx * self.sample_len..(idx + 1) * self.sample_len)?;
        Some((features, label))
    }

    /// Assembles a batch tensor `[indices.len(), ...sample_shape]` and the
    /// corresponding labels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for an index `>= len()`.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), TensorError> {
        let mut data = Vec::with_capacity(indices.len() * self.sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let out_of_range = TensorError::IndexOutOfBounds { index: i, len: self.len() };
            let (f, l) = self.sample(i).ok_or(out_of_range)?;
            data.extend_from_slice(f);
            labels.push(l);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.sample_shape);
        Ok((Tensor::from_vec(data, &shape)?, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InMemoryDataset {
        // 3 samples of shape [2]: [0,1], [2,3], [4,5]
        InMemoryDataset::new(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], vec![0, 1, 0], &[2], 2)
    }

    #[test]
    fn sample_access() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.classes(), 2);
        let (f, l) = d.sample(1).unwrap();
        assert_eq!(f, &[2.0, 3.0]);
        assert_eq!(l, 1);
    }

    #[test]
    fn batch_assembles_in_index_order() {
        let d = tiny();
        let (t, labels) = d.batch(&[2, 0]).unwrap();
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert_eq!(labels, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "feature buffer size mismatch")]
    fn wrong_feature_len_panics() {
        InMemoryDataset::new(vec![0.0; 5], vec![0, 1], &[2], 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_out_of_range_panics() {
        InMemoryDataset::new(vec![0.0; 4], vec![0, 5], &[2], 2);
    }

    #[test]
    fn empty_batch_is_valid() {
        let d = tiny();
        let (t, labels) = d.batch(&[]).unwrap();
        assert_eq!(t.shape(), &[0, 2]);
        assert!(labels.is_empty());
    }
}
