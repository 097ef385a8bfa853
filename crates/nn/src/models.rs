//! Model zoo: the three architectures of the FedSU paper's evaluation
//! (2-conv CNN, ResNet-18, DenseNet) plus a small MLP used in tests and
//! examples.
//!
//! Each architecture comes in width presets: [`ModelPreset::Small`] is the
//! laptop-scale configuration used by the default benchmark profile, while
//! [`ModelPreset::Paper`] approximates the original channel widths (see
//! DESIGN.md §3 on the scaling substitution).

use crate::activation::Relu;
use crate::blocks::{DenseLayer, ResidualBlock, Transition};
use crate::conv2d::Conv2d;
use crate::dense::Dense;
use crate::flatten::Flatten;
use crate::groupnorm::GroupNorm;
use crate::pool::{GlobalAvgPool, MaxPool2d};
use crate::sequential::Sequential;
use crate::{NnError, Result};
use rand::Rng;

/// Width/depth preset for the convolutional architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelPreset {
    /// Tiny configuration for unit tests (fastest).
    Tiny,
    /// Laptop-scale configuration used by the default experiment profile.
    #[default]
    Small,
    /// Channel widths approximating the architectures the paper trains.
    Paper,
}

fn groups_for(channels: usize) -> usize {
    if channels.is_multiple_of(4) {
        4
    } else if channels.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// A plain MLP: `dims[0] -> dims[1] -> ... -> dims.last()` with ReLU between
/// layers. Useful for fast tests and the quickstart example.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] when fewer than two dims are given.
pub fn mlp<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Result<Sequential> {
    if dims.len() < 2 {
        return Err(NnError::BadConfig("mlp needs at least input and output dims".to_string()));
    }
    let mut net = Sequential::with_capacity("mlp", 2 * dims.len());
    for (i, (&from, &to)) in dims.iter().zip(dims.iter().skip(1)).enumerate() {
        net.push(Dense::new(from, to, rng)?);
        if i + 2 < dims.len() {
            net.push(Relu::new());
        }
    }
    Ok(net)
}

/// The paper's EMNIST CNN: two 5×5 convolutions with max-pooling followed by
/// two fully-connected layers (Sec. VI-A).
///
/// Input: `[batch, 1, 28, 28]`. The preset scales channel/hidden widths.
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn cnn<R: Rng + ?Sized>(classes: usize, preset: ModelPreset, rng: &mut R) -> Result<Sequential> {
    let (c1, c2, hidden) = match preset {
        ModelPreset::Tiny => (2, 4, 16),
        ModelPreset::Small => (6, 12, 64),
        ModelPreset::Paper => (32, 64, 512),
    };
    let mut net = Sequential::new("cnn");
    net.push(Conv2d::new(1, c1, 5, 1, 2, rng)?);
    net.push(Relu::new());
    net.push(MaxPool2d::new(2)); // 28 -> 14
    net.push(Conv2d::new(c1, c2, 5, 1, 2, rng)?);
    net.push(Relu::new());
    net.push(MaxPool2d::new(2)); // 14 -> 7
    net.push(Flatten::new());
    net.push(Dense::new(c2 * 7 * 7, hidden, rng)?);
    net.push(Relu::new());
    net.push(Dense::new(hidden, classes, rng)?);
    Ok(net)
}

/// ResNet-18-style residual network over `[batch, in_channels, 28, 28]`
/// inputs (the paper trains ResNet-18 on FMNIST).
///
/// Four stages of two basic blocks each, with stride-2 downsampling at the
/// start of stages 2–4, GroupNorm in place of BatchNorm (DESIGN.md §3),
/// global average pooling, and a final classifier.
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn resnet18<R: Rng + ?Sized>(
    in_channels: usize,
    classes: usize,
    preset: ModelPreset,
    rng: &mut R,
) -> Result<Sequential> {
    let w = match preset {
        ModelPreset::Tiny => 2,
        ModelPreset::Small => 4,
        ModelPreset::Paper => 64,
    };
    let mut net = Sequential::with_capacity("resnet18", 13);
    net.push(Conv2d::new(in_channels, w, 3, 1, 1, rng)?);
    net.push(GroupNorm::new(w, groups_for(w))?);
    net.push(Relu::new());
    let widths = [w, 2 * w, 4 * w, 8 * w];
    let mut in_c = w;
    for (stage, &out_c) in widths.iter().enumerate() {
        let stride = if stage == 0 { 1 } else { 2 };
        net.push(ResidualBlock::new(in_c, out_c, stride, groups_for(out_c), rng)?);
        net.push(ResidualBlock::new(out_c, out_c, 1, groups_for(out_c), rng)?);
        in_c = out_c;
    }
    net.push(GlobalAvgPool::new());
    net.push(Dense::new(8 * w, classes, rng)?);
    Ok(net)
}

/// DenseNet-style densely-connected network over
/// `[batch, in_channels, 32, 32]` inputs (the paper trains DenseNet-121 on
/// CIFAR-10).
///
/// A stride-2 stem (DenseNet-121's own stem downsamples 4×) followed by
/// three dense blocks separated by transitions that halve channels and
/// spatial dims, then GroupNorm + ReLU + global average pooling and a
/// classifier. The early downsampling also keeps the final 4×4 global
/// average pool informative at laptop-scale widths.
///
/// # Errors
///
/// Propagates layer construction errors.
pub fn densenet<R: Rng + ?Sized>(
    in_channels: usize,
    classes: usize,
    preset: ModelPreset,
    rng: &mut R,
) -> Result<Sequential> {
    let (growth, layers_per_block) = match preset {
        ModelPreset::Tiny => (6, 2),
        ModelPreset::Small => (8, 3),
        ModelPreset::Paper => (32, 6),
    };
    let mut net = Sequential::with_capacity("densenet", 3 * layers_per_block + 7);
    let mut channels = 2 * growth;
    net.push(Conv2d::new(in_channels, channels, 3, 2, 1, rng)?); // 32 -> 16
    for block in 0..3 {
        for _ in 0..layers_per_block {
            net.push(DenseLayer::new(channels, growth, groups_for(channels), rng)?);
            channels += growth;
        }
        if block < 2 {
            let out = channels / 2;
            net.push(Transition::new(channels, out, groups_for(channels), rng)?);
            channels = out;
        }
    }
    net.push(GroupNorm::new(channels, groups_for(channels))?);
    net.push(Relu::new());
    net.push(GlobalAvgPool::new());
    net.push(Dense::new(channels, classes, rng)?);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::param_count;
    use crate::layer::Layer;
    use crate::loss::softmax_cross_entropy;
    use fedsu_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&[4, 8, 3], &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert!(mlp(&[4], &mut rng).is_err());
    }

    #[test]
    fn cnn_forward_backward_runs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = cnn(10, ModelPreset::Tiny, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 1, 28, 28], -1.0, 1.0, &mut rng);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        let (_, grad) = softmax_cross_entropy(&y, &[3, 7]).unwrap();
        let dx = m.backward(&grad).unwrap();
        assert_eq!(dx.shape(), x.shape());
        assert!(!dx.has_non_finite());
    }

    #[test]
    fn resnet_forward_backward_runs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = resnet18(1, 10, ModelPreset::Tiny, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 1, 28, 28], -1.0, 1.0, &mut rng);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        let (_, grad) = softmax_cross_entropy(&y, &[0, 9]).unwrap();
        let dx = m.backward(&grad).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn densenet_forward_backward_runs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = densenet(3, 10, ModelPreset::Tiny, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 3, 32, 32], -1.0, 1.0, &mut rng);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        let (_, grad) = softmax_cross_entropy(&y, &[1, 2]).unwrap();
        let dx = m.backward(&grad).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn presets_scale_parameter_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        let tiny = cnn(10, ModelPreset::Tiny, &mut rng).unwrap();
        let small = cnn(10, ModelPreset::Small, &mut rng).unwrap();
        assert!(param_count(&small) > param_count(&tiny));
    }

    #[test]
    fn models_are_deterministic_given_seed() {
        let a = cnn(10, ModelPreset::Tiny, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = cnn(10, ModelPreset::Tiny, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(crate::flat::flatten_params(&a), crate::flat::flatten_params(&b));
    }

    #[test]
    fn one_sgd_step_reduces_loss_on_fixed_batch() {
        use crate::optim::Sgd;
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = mlp(&[4, 16, 3], &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[8, 4], -1.0, 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0, 1, 2, 0, 1];
        let mut opt = Sgd::new(0.5);
        let y0 = m.forward(&x, true).unwrap();
        let (l0, g) = softmax_cross_entropy(&y0, &labels).unwrap();
        m.backward(&g).unwrap();
        opt.step(&mut m).unwrap();
        let y1 = m.forward(&x, false).unwrap();
        let (l1, _) = softmax_cross_entropy(&y1, &labels).unwrap();
        assert!(l1 < l0, "loss should decrease: {l0} -> {l1}");
    }
}
