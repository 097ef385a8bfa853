//! Class-prototype synthetic image generator.
//!
//! Each class `c` owns two random prototype images `P_c`, `Q_c`. A sample of
//! class `c` is `t·P_c + (1−t)·Q_c + ε` with `t ~ U(0,1)` and pixelwise
//! Gaussian noise `ε`. The interpolation gives each class a 1-D manifold
//! (so the task is not trivially linearly separable per-pixel) and the noise
//! level controls difficulty; together they reproduce the gradual
//! converge-then-plateau accuracy curves of the paper's real datasets.

use crate::InMemoryDataset;
use rand::Rng;

/// Builder for a synthetic classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    classes: usize,
    channels: usize,
    height: usize,
    width: usize,
    samples_per_class: usize,
    noise_std: f32,
}

impl SyntheticConfig {
    /// Starts a config with explicit geometry.
    pub fn new(classes: usize, channels: usize, height: usize, width: usize) -> Self {
        SyntheticConfig {
            classes,
            channels,
            height,
            width,
            samples_per_class: 100,
            noise_std: 0.6,
        }
    }

    /// EMNIST stand-in: 28×28 greyscale, 10 classes (the paper's CNN task).
    pub fn emnist_like() -> Self {
        SyntheticConfig::new(10, 1, 28, 28).noise_std(0.7)
    }

    /// Fashion-MNIST stand-in: 28×28 greyscale, 10 classes (ResNet task).
    pub fn fmnist_like() -> Self {
        SyntheticConfig::new(10, 1, 28, 28).noise_std(0.9)
    }

    /// CIFAR-10 stand-in: 32×32 RGB, 10 classes (DenseNet task).
    pub fn cifar_like() -> Self {
        SyntheticConfig::new(10, 3, 32, 32).noise_std(0.7)
    }

    /// Sets the number of samples generated per class.
    pub fn samples_per_class(mut self, n: usize) -> Self {
        self.samples_per_class = n;
        self
    }

    /// Sets the pixel-noise standard deviation (task difficulty knob).
    pub fn noise_std(mut self, std: f32) -> Self {
        self.noise_std = std;
        self
    }


    /// Number of classes configured.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-sample shape `[channels, height, width]`.
    pub fn sample_shape(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Generates the dataset. Deterministic given the RNG state.
    ///
    /// # Panics
    ///
    /// Panics if classes or geometry is zero.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> InMemoryDataset {
        let prototypes = self.sample_prototypes(rng);
        self.generate(&prototypes, self.samples_per_class, rng)
    }

    /// Generates a train/test pair that shares class prototypes — the test
    /// set measures generalization on the *same* task, as a held-out split
    /// of a real dataset would.
    ///
    /// # Panics
    ///
    /// Panics if classes or geometry is zero.
    pub fn build_split<R: Rng + ?Sized>(
        &self,
        test_per_class: usize,
        rng: &mut R,
    ) -> (InMemoryDataset, InMemoryDataset) {
        let prototypes = self.sample_prototypes(rng);
        let train = self.generate(&prototypes, self.samples_per_class, rng);
        let test = self.generate(&prototypes, test_per_class, rng);
        (train, test)
    }

    fn sample_prototypes<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f32> {
        assert!(self.classes > 0 && self.channels > 0 && self.height > 0 && self.width > 0);
        let sample_len = self.channels * self.height * self.width;
        (0..2 * self.classes * sample_len)
            .map(|_| gaussian(rng))
            .collect()
    }

    fn generate<R: Rng + ?Sized>(
        &self,
        prototypes: &[f32],
        per_class: usize,
        rng: &mut R,
    ) -> InMemoryDataset {
        let sample_len = self.channels * self.height * self.width;
        let n = self.classes * per_class;
        let mut features = Vec::with_capacity(n * sample_len);
        let mut labels = Vec::with_capacity(n);
        // Class `c` mixes prototypes `2c` and `2c + 1`.
        for (class, pair) in prototypes.chunks_exact(2 * sample_len).enumerate() {
            let (p, q) = pair.split_at(sample_len);
            for _ in 0..per_class {
                let t: f32 = rng.gen_range(0.0..1.0);
                for (&pi, &qi) in p.iter().zip(q) {
                    let v = t * pi + (1.0 - t) * qi + gaussian(rng) * self.noise_std;
                    features.push(v);
                }
                labels.push(class);
            }
        }
        InMemoryDataset::new(features, labels, &self.sample_shape(), self.classes)
    }
}

/// One standard-normal draw via Box–Muller (keeps the dependency surface to
/// `rand`'s uniform sampling).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builds_expected_size_and_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = SyntheticConfig::emnist_like().samples_per_class(5).build(&mut rng);
        assert_eq!(d.len(), 50);
        assert_eq!(d.sample_shape(), &[1, 28, 28]);
        assert_eq!(d.classes(), 10);
    }

    #[test]
    fn labels_are_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SyntheticConfig::new(4, 1, 4, 4).samples_per_class(7).build(&mut rng);
        let mut counts = [0usize; 4];
        for &l in d.labels() {
            counts[l] += 1;
        }
        assert_eq!(counts, [7, 7, 7, 7]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticConfig::cifar_like().samples_per_class(3).build(&mut StdRng::seed_from_u64(9));
        let b = SyntheticConfig::cifar_like().samples_per_class(3).build(&mut StdRng::seed_from_u64(9));
        assert_eq!(a.sample(0).unwrap().0, b.sample(0).unwrap().0);
    }

    #[test]
    fn same_class_samples_are_correlated_more_than_cross_class() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = SyntheticConfig::new(2, 1, 8, 8).samples_per_class(30).noise_std(0.3).build(&mut rng);
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        // Mean |cosine| within class 0 vs between class 0 and 1.
        let mut within = 0.0f32;
        let mut across = 0.0f32;
        let mut wn = 0;
        let mut an = 0;
        for i in 0..10 {
            for j in 10..20 {
                within += cos(d.sample(i).unwrap().0, d.sample(j).unwrap().0);
                wn += 1;
                across += cos(d.sample(i).unwrap().0, d.sample(30 + j).unwrap().0).abs();
                an += 1;
            }
        }
        assert!(within / wn as f32 > across / an as f32, "classes should be separable");
    }

    #[test]
    fn noise_std_increases_spread() {
        let clean = SyntheticConfig::new(1, 1, 6, 6)
            .samples_per_class(20)
            .noise_std(0.01)
            .build(&mut StdRng::seed_from_u64(3));
        let noisy = SyntheticConfig::new(1, 1, 6, 6)
            .samples_per_class(20)
            .noise_std(2.0)
            .build(&mut StdRng::seed_from_u64(3));
        let spread = |d: &InMemoryDataset| {
            let (a, _) = d.sample(0).unwrap();
            let (b, _) = d.sample(1).unwrap();
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
        };
        assert!(spread(&noisy) > spread(&clean));
    }
}

#[cfg(test)]
mod split_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn split_shares_prototypes() {
        // Same-class samples across the split correlate; a fresh build's do not.
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = SyntheticConfig::new(2, 1, 8, 8).samples_per_class(10).noise_std(0.2);
        let (train, test) = cfg.build_split(10, &mut rng);
        let fresh = cfg.build(&mut StdRng::seed_from_u64(999));
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        let mut same = 0.0f32;
        let mut other = 0.0f32;
        for i in 0..10 {
            same += cos(train.sample(i).unwrap().0, test.sample(i).unwrap().0);
            other += cos(train.sample(i).unwrap().0, fresh.sample(i).unwrap().0).abs();
        }
        assert!(same > other, "split must share the task: {same} vs {other}");
    }

    #[test]
    fn split_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = SyntheticConfig::new(3, 1, 4, 4).samples_per_class(7).build_split(2, &mut rng);
        assert_eq!(train.len(), 21);
        assert_eq!(test.len(), 6);
    }
}
