//! `Layer::backward_params` against `Layer::backward`: the parameter-only
//! pass must leave every parameter gradient bit-equal to the full pass and
//! fail exactly where and how the full pass fails.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_nn::conv2d::Conv2d;
use fedsu_nn::dense::Dense;
use fedsu_nn::groupnorm::GroupNorm;
use fedsu_nn::models::{cnn, mlp, resnet18, ModelPreset};
use fedsu_nn::{Layer, NnError, Sequential};
use fedsu_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every parameter gradient of `layer`, as bits, in visit order.
fn grad_bits(layer: &dyn Layer) -> Vec<u32> {
    let mut bits = Vec::new();
    layer.visit_params(&mut |p| bits.extend(p.grad.data().iter().map(|g| g.to_bits())));
    bits
}

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Builds the layer twice (`build` is deterministic), then runs two
/// forward/backward steps — the second accumulates onto the first's
/// gradients — with the full `backward` through one copy and
/// `backward_params` through the other, and compares every parameter
/// gradient bit for bit.
fn assert_same_param_grads<L: Layer>(what: &str, build: impl Fn() -> L, input: &Tensor) {
    let (mut full, mut params_only) = (build(), build());
    for step in 0..2 {
        let y = full.forward(input, true).unwrap();
        let dy = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng(step));
        assert_eq!(params_only.forward(input, true).unwrap(), y, "{what}: same forward");
        full.backward(&dy).unwrap();
        params_only.backward_params(&dy).unwrap();
    }
    let (want, got) = (grad_bits(&full), grad_bits(&params_only));
    assert_eq!(got.len(), want.len(), "{what}: parameter count");
    assert!(want.iter().any(|&b| f32::from_bits(b) != 0.0), "{what}: needs non-zero gradients");
    if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: parameter gradient {i} of {} differs: {} with backward_params, {} with backward",
            want.len(),
            f32::from_bits(got[i]),
            f32::from_bits(want[i])
        );
    }
}

#[test]
fn dense_and_conv2d_accumulate_the_gradients_backward_does() {
    let x = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng(1));
    assert_same_param_grads("dense", || Dense::new(5, 3, &mut rng(2)).unwrap(), &x);
    let img = Tensor::rand_uniform(&[2, 2, 7, 6], -1.0, 1.0, &mut rng(3));
    assert_same_param_grads("conv2d 3x3 pad 1", || Conv2d::new(2, 3, 3, 1, 1, &mut rng(4)).unwrap(), &img);
    assert_same_param_grads("conv2d 3x3 stride 2", || Conv2d::new(2, 4, 3, 2, 0, &mut rng(5)).unwrap(), &img);
}

/// `GroupNorm` keeps the default method: `backward`, input gradient
/// recycled.
#[test]
fn a_default_method_layer_accumulates_the_gradients_backward_does() {
    let x = Tensor::rand_uniform(&[2, 4, 3, 3], -1.0, 1.0, &mut rng(6));
    assert_same_param_grads("groupnorm", || GroupNorm::new(4, 2).unwrap(), &x);
}

/// Every layer of a model but the first runs `backward`; the first runs
/// `backward_params` (`Conv2d` for the CNN and the residual network, `Dense`
/// for the bare MLP).
#[test]
fn sequential_models_accumulate_the_gradients_backward_does() {
    let image = Tensor::rand_uniform(&[2, 1, 28, 28], -1.0, 1.0, &mut rng(7));
    assert_same_param_grads("cnn", || cnn(10, ModelPreset::Tiny, &mut rng(8)).unwrap(), &image);
    assert_same_param_grads("resnet18", || resnet18(1, 10, ModelPreset::Tiny, &mut rng(9)).unwrap(), &image);
    let x = Tensor::rand_uniform(&[3, 6], -1.0, 1.0, &mut rng(10));
    assert_same_param_grads("mlp", || mlp(&[6, 8, 5, 3], &mut rng(11)).unwrap(), &x);
    // An empty model has nothing to do either way.
    assert!(Sequential::new("empty").backward_params(&x).is_ok());
}

/// Runs `backward` on one copy and `backward_params` on another, each
/// after `prepare`, and returns both errors.
fn both_errors<L: Layer>(build: impl Fn() -> L, prepare: impl Fn(&mut L), grad: &Tensor) -> (NnError, NnError) {
    let (mut full, mut params_only) = (build(), build());
    prepare(&mut full);
    prepare(&mut params_only);
    (full.backward(grad).unwrap_err(), params_only.backward_params(grad).unwrap_err())
}

fn assert_same_errors<L: Layer>(what: &str, build: impl Fn() -> L, input: &Tensor, bad_grad: &Tensor) {
    // No forward first.
    let (full, params_only) = both_errors(&build, |_| {}, bad_grad);
    assert!(matches!(full, NnError::MissingForward { .. }), "{what}: {full:?}");
    assert_eq!(params_only, full, "{what}: missing forward");
    // A gradient of the wrong shape.
    let (full, params_only) = both_errors(&build, |l| drop(l.forward(input, true).unwrap()), bad_grad);
    assert!(matches!(full, NnError::BadInput { .. }), "{what}: {full:?}");
    assert_eq!(params_only, full, "{what}: bad gradient shape");
}

#[test]
fn errors_are_the_ones_backward_returns() {
    let x = Tensor::rand_uniform(&[2, 5], -1.0, 1.0, &mut rng(12));
    assert_same_errors("dense", || Dense::new(5, 3, &mut rng(13)).unwrap(), &x, &Tensor::zeros(&[2, 4]));
    let img = Tensor::rand_uniform(&[1, 2, 5, 5], -1.0, 1.0, &mut rng(14));
    let bad = Tensor::zeros(&[1, 3, 4, 5]);
    assert_same_errors("conv2d", || Conv2d::new(2, 3, 3, 1, 1, &mut rng(15)).unwrap(), &img, &bad);
    let bad = Tensor::zeros(&[1, 2, 5]);
    assert_same_errors("groupnorm", || GroupNorm::new(2, 1).unwrap(), &img, &bad);
    let image = Tensor::rand_uniform(&[1, 1, 28, 28], -1.0, 1.0, &mut rng(16));
    let bad = Tensor::zeros(&[1, 9]);
    assert_same_errors("cnn", || cnn(10, ModelPreset::Tiny, &mut rng(17)).unwrap(), &image, &bad);
}
