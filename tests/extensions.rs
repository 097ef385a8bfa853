//! Integration tests for the extension features: QSGD/Top-K baselines,
//! learning-rate schedules and gradient clipping.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::LrSchedule;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};

fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(5).rounds(30).samples_per_class(40).seed(13)
}

#[test]
fn qsgd_converges_with_compressed_uploads() {
    let mut fedavg = scenario().build(StrategyKind::FedAvg).unwrap();
    let ra = fedavg.run(None).unwrap();
    let mut qsgd = scenario().build(StrategyKind::Qsgd).unwrap();
    let rq = qsgd.run(None).unwrap();
    assert!(rq.best_accuracy() > 0.75, "qsgd reached {:.3}", rq.best_accuracy());
    // 5-bit payloads: strictly fewer bytes than full FedAvg.
    assert!(rq.total_bytes() < ra.total_bytes());
    // Quantization's compression is fixed (the paper's "limited ceiling"):
    // sparsification ratio ~ 1 - 5/32 every round.
    for r in &rq.rounds {
        assert!((r.sparsification_ratio - (1.0 - 5.0 / 32.0)).abs() < 0.05);
    }
}

#[test]
fn topk_converges_and_sparsifies() {
    let mut topk = scenario().build(StrategyKind::TopK).unwrap();
    let rt = topk.run(None).unwrap();
    assert!(rt.best_accuracy() > 0.75, "topk reached {:.3}", rt.best_accuracy());
    assert!(rt.mean_sparsification() > 0.3);
}

#[test]
fn inv_sqrt_schedule_still_converges() {
    let mut e = scenario()
        .schedule(LrSchedule::InvSqrt)
        .build(StrategyKind::FedSuCalibrated)
        .unwrap();
    let r = e.run(None).unwrap();
    assert!(r.best_accuracy() > 0.7, "got {:.3}", r.best_accuracy());
}

#[test]
fn step_schedule_still_converges() {
    let mut e = scenario()
        .schedule(LrSchedule::Step { every: 10, gamma: 0.5 })
        .build(StrategyKind::FedAvg)
        .unwrap();
    let r = e.run(None).unwrap();
    assert!(r.best_accuracy() > 0.7, "got {:.3}", r.best_accuracy());
}

#[test]
fn gradient_clipping_keeps_aggressive_lr_stable() {
    use fedsu_repro::fl::{ClientConfig, Experiment, ExperimentConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    let factory: fedsu_repro::fl::experiment::ModelFactory = Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = fedsu_repro::nn::Sequential::new("m");
        m.push(fedsu_repro::nn::flatten::Flatten::new());
        m.push_boxed(Box::new(fedsu_repro::nn::models::mlp(&[16, 8, 3], &mut rng)?));
        Ok(m)
    });
    let mut rng = StdRng::seed_from_u64(0);
    let (train, test) = fedsu_repro::data::SyntheticConfig::new(3, 1, 4, 4)
        .samples_per_class(20)
        .build_split(5, &mut rng);
    let config = |clip: Option<f32>| ExperimentConfig {
        cluster: fedsu_repro::netsim::ClusterConfig::paper_like(3),
        select_fraction: 1.0,
        rounds: 30,
        client: ClientConfig {
            batch_size: 4,
            local_iters: 5,
            lr: 50.0, // wildly unstable without clipping
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
            clip_norm: clip,
        },
        alpha: 1.0,
        seed: 0,
        eval_every: 10,
        compute_secs: 1.0,
        model_name: "mlp".to_string(),
        availability: None,
        faults: fedsu_repro::netsim::FaultConfig::default(),
        defense: fedsu_repro::fl::DefenseConfig::default(),
    };
    // Without clipping this lr diverges (checked in failure_injection.rs
    // with an even larger lr); with tight clipping it must stay finite.
    let mut clipped = Experiment::new(
        config(Some(0.01)),
        factory,
        Arc::new(train),
        Arc::new(test),
        Box::new(fedsu_repro::strategies::FedAvg::new()),
    )
    .unwrap();
    let r = clipped.run(None).unwrap();
    assert!(r.rounds.iter().all(|x| x.train_loss.is_finite()));
}
