//! End-to-end convergence tests: every synchronization scheme trains the
//! synthetic task to high accuracy, and the paper's headline orderings hold
//! (FedSU sparsifies more than APF without losing accuracy).

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};

fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(6).rounds(30).samples_per_class(40).seed(7)
}

#[test]
fn all_strategies_converge_on_the_synthetic_task() {
    for strategy in [
        StrategyKind::FedAvg,
        StrategyKind::Cmfl,
        StrategyKind::ApfCalibrated,
        StrategyKind::FedSuCalibrated,
    ] {
        let mut experiment = scenario().build(strategy).unwrap();
        let result = experiment.run(None).unwrap();
        assert!(
            result.best_accuracy() > 0.8,
            "{} only reached {:.3}",
            result.strategy,
            result.best_accuracy()
        );
    }
}

#[test]
fn fedsu_accuracy_matches_fedavg_within_tolerance() {
    let mut fedavg = scenario().build(StrategyKind::FedAvg).unwrap();
    let ra = fedavg.run(None).unwrap();
    let mut fedsu = scenario().build(StrategyKind::FedSuCalibrated).unwrap();
    let rs = fedsu.run(None).unwrap();
    // The paper's central claim: sparsification without accuracy loss.
    assert!(
        rs.best_accuracy() >= ra.best_accuracy() - 0.05,
        "fedsu {:.3} vs fedavg {:.3}",
        rs.best_accuracy(),
        ra.best_accuracy()
    );
}

#[test]
fn fedsu_sparsifies_more_than_apf() {
    // Longer horizon so both mechanisms get past their warmup.
    let scen = Scenario::new(ModelKind::Mlp).clients(6).rounds(60).samples_per_class(40).seed(7);
    let mut apf = scen.build(StrategyKind::ApfCalibrated).unwrap();
    let ra = apf.run(None).unwrap();
    let mut fedsu = scen.build(StrategyKind::FedSuCalibrated).unwrap();
    let rs = fedsu.run(None).unwrap();
    assert!(
        rs.mean_sparsification() > ra.mean_sparsification(),
        "fedsu {:.3} vs apf {:.3}",
        rs.mean_sparsification(),
        ra.mean_sparsification()
    );
    assert!(rs.mean_sparsification() > 0.02, "fedsu should skip a nontrivial share");
}

#[test]
fn fedsu_moves_fewer_bytes_than_fedavg() {
    let mut fedavg = scenario().build(StrategyKind::FedAvg).unwrap();
    let ra = fedavg.run(None).unwrap();
    let mut fedsu = scenario().build(StrategyKind::FedSuCalibrated).unwrap();
    let rs = fedsu.run(None).unwrap();
    assert!(
        rs.total_bytes() < ra.total_bytes(),
        "fedsu {} vs fedavg {}",
        rs.total_bytes(),
        ra.total_bytes()
    );
}

#[test]
fn fedsu_finishes_in_less_simulated_time() {
    let mut fedavg = scenario().build(StrategyKind::FedAvg).unwrap();
    let ra = fedavg.run(None).unwrap();
    let mut fedsu = scenario().build(StrategyKind::FedSuCalibrated).unwrap();
    let rs = fedsu.run(None).unwrap();
    let ta = ra.rounds.last().unwrap().sim_time_secs;
    let ts = rs.rounds.last().unwrap().sim_time_secs;
    assert!(ts <= ta, "fedsu sim time {ts:.1}s vs fedavg {ta:.1}s");
}

#[test]
fn different_seeds_differ() {
    let mut a = scenario().build(StrategyKind::FedAvg).unwrap();
    let ra = a.run(None).unwrap();
    let mut b = scenario().seed(8).build(StrategyKind::FedAvg).unwrap();
    let rb = b.run(None).unwrap();
    assert_ne!(ra.rounds, rb.rounds);
}

#[test]
fn higher_skew_does_not_break_fedsu() {
    // Strong non-IID (alpha = 0.1): accuracy may dip, but the run must stay
    // finite and the error feedback must keep the model trainable.
    let mut e = scenario().alpha(0.1).build(StrategyKind::FedSuCalibrated).unwrap();
    let r = e.run(None).unwrap();
    assert!(r.best_accuracy() > 0.5, "got {:.3}", r.best_accuracy());
}
