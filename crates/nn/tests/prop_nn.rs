//! Property tests for the NN substrate: gradient checks on random
//! layer configurations and structural invariants.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_cases::{check, ends_then_draw, Rng, SeedableRng, StdRng};
use fedsu_nn::activation::Relu;
use fedsu_nn::dense::Dense;
use fedsu_nn::flat::{flatten_params, load_params, param_count};
use fedsu_nn::loss::softmax_cross_entropy;
use fedsu_nn::models::{mlp, ModelPreset};
use fedsu_nn::optim::Sgd;
use fedsu_nn::{Layer, Sequential};
use fedsu_tensor::Tensor;

const CASES: u64 = 24;

#[test]
fn dense_gradient_check_random_configs() {
    check("dense_gradient_check_random_configs", CASES, |rng| {
        let (inf, outf, batch) =
            (rng.gen_range(1usize..6), rng.gen_range(1usize..6), rng.gen_range(1usize..4));
        let mut d = Dense::new(inf, outf, rng).unwrap();
        let x = Tensor::rand_uniform(&[batch, inf], -1.0, 1.0, rng);
        let y = d.forward(&x, true).unwrap();
        let dy = Tensor::ones(y.shape());
        let dx = d.backward(&dy).unwrap();

        let eps = 1e-2f32;
        let mut x2 = x.clone();
        for idx in 0..x.len().min(4) {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp = d.forward(&x2, true).unwrap().sum();
            x2.data_mut()[idx] = orig - eps;
            let lm = d.forward(&x2, true).unwrap().sum();
            x2.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dx.data()[idx]).abs() < 0.05 * (1.0 + numeric.abs()));
        }
    });
}

#[test]
fn loss_gradient_rows_sum_to_zero() {
    check("loss_gradient_rows_sum_to_zero", CASES, |rng| {
        let (batch, classes) = (rng.gen_range(1usize..5), rng.gen_range(2usize..6));
        let logits = Tensor::rand_uniform(&[batch, classes], -3.0, 3.0, rng);
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        assert!(loss >= 0.0);
        for n in 0..batch {
            let s: f32 = grad.data()[n * classes..(n + 1) * classes].iter().sum();
            assert!(s.abs() < 1e-5);
        }
    });
}

#[test]
fn flat_roundtrip_arbitrary_values() {
    check("flat_roundtrip_arbitrary_values", CASES, |rng| {
        let scale = rng.gen_range(0.1f32..5.0);
        let mut m = mlp(&[3, 5, 2], rng).unwrap();
        let n = param_count(&m);
        let values: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.7).sin() * scale).collect();
        load_params(&mut m, &values).unwrap();
        assert_eq!(flatten_params(&m), values);
    });
}

#[test]
fn relu_is_idempotent() {
    check("relu_is_idempotent", CASES, |rng| {
        for len in ends_then_draw(rng, 1..32) {
            let x = Tensor::rand_uniform(&[1, len], -2.0, 2.0, rng);
            let mut r1 = Relu::new();
            let mut r2 = Relu::new();
            let once = r1.forward(&x, false).unwrap();
            let twice = r2.forward(&once, false).unwrap();
            assert_eq!(once.data(), twice.data());
        }
    });
}

#[test]
fn sgd_without_grad_and_decay_is_identity() {
    check("sgd_without_grad_and_decay_is_identity", CASES, |rng| {
        let mut m = mlp(&[3, 4, 2], rng).unwrap();
        let before = flatten_params(&m);
        Sgd::new(0.1).step(&mut m).unwrap();
        assert_eq!(flatten_params(&m), before);
    });
}

#[test]
fn training_loss_decreases_over_steps() {
    check("training_loss_decreases_over_steps", CASES, |rng| {
        let mut m = mlp(&[4, 12, 3], rng).unwrap();
        let x = Tensor::rand_uniform(&[12, 4], -1.0, 1.0, rng);
        let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let mut opt = Sgd::new(0.3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..20 {
            let y = m.forward(&x, true).unwrap();
            let (l, g) = softmax_cross_entropy(&y, &labels).unwrap();
            m.backward(&g).unwrap();
            opt.step(&mut m).unwrap();
            if first.is_none() {
                first = Some(l);
            }
            last = l;
        }
        assert!(last < first.unwrap(), "loss {} -> {}", first.unwrap(), last);
    });
}

#[test]
fn models_have_expected_relative_sizes() {
    let mut rng = StdRng::seed_from_u64(0);
    let cnn = fedsu_nn::models::cnn(10, ModelPreset::Small, &mut rng).unwrap();
    let resnet = fedsu_nn::models::resnet18(1, 10, ModelPreset::Small, &mut rng).unwrap();
    let densenet = fedsu_nn::models::densenet(3, 10, ModelPreset::Small, &mut rng).unwrap();
    // Sanity on overall scale (documented laptop-scale models).
    for (name, m) in [("cnn", &cnn), ("resnet", &resnet), ("densenet", &densenet)] {
        let n = param_count(m);
        assert!(n > 1_000 && n < 2_000_000, "{name} has {n} params");
    }
}

#[test]
fn sequential_backward_matches_composition() {
    // backward(Sequential) == backward chained manually through each layer.
    let mut rng = StdRng::seed_from_u64(42);
    let mut seq = Sequential::new("s");
    seq.push(Dense::new(3, 4, &mut rng).unwrap());
    seq.push(Relu::new());

    let mut rng2 = StdRng::seed_from_u64(42);
    let mut d = Dense::new(3, 4, &mut rng2).unwrap();
    let mut r = Relu::new();

    let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
    let y_seq = seq.forward(&x, true).unwrap();
    let y_man = r.forward(&d.forward(&x, true).unwrap(), true).unwrap();
    assert_eq!(y_seq.data(), y_man.data());

    let dy = Tensor::ones(y_seq.shape());
    let dx_seq = seq.backward(&dy).unwrap();
    let dx_man = d.backward(&r.backward(&dy).unwrap()).unwrap();
    assert_eq!(dx_seq.data(), dx_man.data());
}
