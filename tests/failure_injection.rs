//! Failure injection: divergence detection, degenerate cluster shapes, and
//! hostile strategy behaviour.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::strategy::average_into;
use fedsu_repro::fl::{AggregateOutcome, FlError, SyncStrategy};
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};

/// A strategy that corrupts the global model with NaNs after a few rounds.
struct Saboteur {
    after: usize,
}

impl SyncStrategy for Saboteur {
    fn name(&self) -> &str {
        "saboteur"
    }
    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        _global: &[f32],
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.extend(locals.iter().map(|l| l.len() as u64));
    }
    fn aggregate(
        &mut self,
        round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        _active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        average_into(locals, selected, global);
        if round >= self.after {
            global[0] = f32::NAN;
        }
        AggregateOutcome { broadcast_scalars: global.len(), synced_scalars: global.len() }
    }
}

fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(3).rounds(10).samples_per_class(20).seed(5)
}

#[test]
fn nan_in_global_is_reported_as_divergence() {
    let mut e = scenario().build_with(Box::new(Saboteur { after: 4 })).unwrap();
    match e.run(None) {
        Err(FlError::Diverged { round }) => assert_eq!(round, 4),
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn single_client_cluster_works() {
    let mut e = Scenario::new(ModelKind::Mlp)
        .clients(1)
        .rounds(8)
        .samples_per_class(30)
        .select_fraction(1.0)
        .build(StrategyKind::FedSuCalibrated)
        .unwrap();
    let r = e.run(None).unwrap();
    assert_eq!(r.rounds.len(), 8);
    assert!(r.rounds.iter().all(|x| x.participants == 1));
}

#[test]
fn full_participation_fraction_works() {
    let mut e = scenario().select_fraction(1.0).build(StrategyKind::FedAvg).unwrap();
    let r = e.run(None).unwrap();
    assert!(r.rounds.iter().all(|x| x.participants == 3));
}

#[test]
fn minimal_participation_fraction_works() {
    let mut e = scenario().select_fraction(0.01).build(StrategyKind::FedSuCalibrated).unwrap();
    let r = e.run(None).unwrap();
    assert!(r.rounds.iter().all(|x| x.participants == 1));
}

#[test]
fn huge_learning_rate_diverges_cleanly() {
    // lr far above stability: the runtime must report divergence instead of
    // panicking or looping forever. Which error depends on who sees the
    // overflow first (DESIGN.md §9, "only veto one"): unarmed, the server
    // finds non-finite parameters and returns `Diverged`; armed, the
    // finite-kernel guard vetoes the matmul that manufactured the first
    // infinity inside client training, which surfaces as `ClientFailed`.
    use fedsu_repro::fl::{ClientConfig, Experiment, ExperimentConfig};
    use fedsu_repro::netsim::ClusterConfig;
    use fedsu_repro::strategies::FedAvg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0);
    let (train, test) = fedsu_repro::data::SyntheticConfig::new(3, 1, 4, 4)
        .samples_per_class(20)
        .build_split(5, &mut rng);
    let factory: fedsu_repro::fl::experiment::ModelFactory = Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = fedsu_repro::nn::Sequential::new("m");
        m.push(fedsu_repro::nn::flatten::Flatten::new());
        m.push_boxed(Box::new(fedsu_repro::nn::models::mlp(&[16, 8, 3], &mut rng)?));
        Ok(m)
    });
    let config = ExperimentConfig {
        cluster: ClusterConfig::paper_like(3),
        select_fraction: 1.0,
        rounds: 50,
        client: ClientConfig {
            batch_size: 4,
            local_iters: 5,
            lr: 1e4,
            weight_decay: 0.0,
            schedule: fedsu_repro::fl::LrSchedule::Constant,
            clip_norm: None,
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
    let mut e = Experiment::new(config, factory, Arc::new(train), Arc::new(test), Box::new(FedAvg::new())).unwrap();
    let err = e.run(None).unwrap_err();
    if fedsu_repro::tensor::invariant::enabled() {
        assert!(matches!(err, FlError::ClientFailed { .. }), "armed: {err}");
    } else {
        assert!(matches!(err, FlError::Diverged { .. }), "unarmed: {err}");
    }
}

#[test]
fn strategy_contract_violation_is_detected() {
    struct ShortUploads;
    impl SyncStrategy for ShortUploads {
        fn name(&self) -> &str {
            "short"
        }
        fn prepare_uploads_into(
            &mut self,
            _round: usize,
            _locals: &[Vec<f32>],
            _global: &[f32],
            out: &mut Vec<u64>,
        ) {
            out.clear();
            out.push(0); // wrong length: one entry for many clients
        }
        fn aggregate(
            &mut self,
            _round: usize,
            locals: &[Vec<f32>],
            selected: &[usize],
            _active: &[bool],
            global: &mut [f32],
        ) -> AggregateOutcome {
            average_into(locals, selected, global);
            AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 }
        }
    }
    let mut e = scenario().build_with(Box::new(ShortUploads)).unwrap();
    assert!(matches!(e.run(None), Err(FlError::StrategyContract(_))));
}

// ---------------------------------------------------------------------------
// Fault-injection acceptance: the hardened round loop keeps both FedAvg and
// FedSU converging under the issue's target fault mix.
// ---------------------------------------------------------------------------

fn faulty_scenario(strategy: StrategyKind) -> (f32, f32, usize) {
    use fedsu_repro::netsim::FaultConfig;

    let build = |faults: Option<FaultConfig>| {
        let mut s =
            Scenario::new(ModelKind::Mlp).clients(16).rounds(20).samples_per_class(40).seed(7);
        if let Some(f) = faults {
            s = s.faults(f);
        }
        s.build(strategy).unwrap()
    };

    let clean = build(None).run(None).unwrap();
    let faulty = build(Some(FaultConfig {
        dropout_prob: 0.15,
        upload_loss_prob: 0.05,
        corrupt_prob: 0.02,
        ..FaultConfig::default()
    }))
    .run(None)
    .unwrap();

    assert_eq!(faulty.rounds.len(), 20, "faulty run must complete every round");
    let injected = faulty.total_dropped() + faulty.total_quarantined();
    (clean.best_accuracy(), faulty.best_accuracy(), injected)
}

#[test]
fn fedavg_survives_dropout_and_corruption() {
    let (clean, faulty, injected) = faulty_scenario(StrategyKind::FedAvg);
    assert!(injected > 0, "fault plan must actually fire");
    assert!(
        (clean - faulty).abs() <= 0.05,
        "FedAvg accuracy drifted too far under faults: clean {clean:.3} vs faulty {faulty:.3}"
    );
}

#[test]
fn fedsu_survives_dropout_and_corruption() {
    let (clean, faulty, injected) = faulty_scenario(StrategyKind::FedSuCalibrated);
    assert!(injected > 0, "fault plan must actually fire");
    assert!(
        (clean - faulty).abs() <= 0.05,
        "FedSU accuracy drifted too far under faults: clean {clean:.3} vs faulty {faulty:.3}"
    );
}
