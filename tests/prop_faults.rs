//! Property tests of the fault-tolerant round loop: for random fault
//! plans the experiment must complete, keep the global model finite, keep
//! simulated time strictly monotone, and stay fully deterministic.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_cases::{check, Rng, StdRng};
use fedsu_repro::fl::DefenseConfig;
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};

const ROUNDS: usize = 6;
const CASES: u64 = 6;

fn run_faulty(faults: FaultConfig) -> (fedsu_repro::fl::ExperimentResult, bool) {
    let mut saw_nonfinite = false;
    let mut experiment = Scenario::new(ModelKind::Mlp)
        .clients(5)
        .rounds(ROUNDS)
        .samples_per_class(12)
        .seed(3)
        .faults(faults)
        .defense(DefenseConfig::on())
        .build(StrategyKind::FedSuCalibrated)
        .unwrap();
    let mut hook = |_record: &fedsu_repro::fl::RoundRecord, global: &[f32]| {
        if !global.iter().all(|v| v.is_finite()) {
            saw_nonfinite = true;
        }
    };
    let result = experiment.run(Some(&mut hook)).unwrap();
    (result, saw_nonfinite)
}

fn arb_fault_config(rng: &mut StdRng) -> FaultConfig {
    FaultConfig {
        dropout_prob: rng.gen_range(0.0f64..0.35),
        upload_loss_prob: rng.gen_range(0.0f64..0.3),
        corrupt_prob: rng.gen_range(0.0f64..0.1),
        slowdown_prob: rng.gen_range(0.0f64..0.3),
        crash_prob: rng.gen_range(0.0f64..0.1),
        seed: rng.gen_range(0u64..1000),
        ..FaultConfig::default()
    }
}

#[test]
fn random_fault_plans_never_break_the_run() {
    check("random_fault_plans_never_break_the_run", CASES, |rng| {
        let (result, saw_nonfinite) = run_faulty(arb_fault_config(rng));

        // The run completes every round and the global model stays finite.
        assert_eq!(result.rounds.len(), ROUNDS);
        assert!(!saw_nonfinite, "global model went non-finite mid-run");
        assert!(result.rounds.iter().all(|r| r.train_loss.is_finite()));

        // Simulated time is strictly monotone: every round costs time, even
        // barren ones (they are charged the lost-round penalty).
        let mut prev = 0.0;
        for r in &result.rounds {
            assert!(
                r.sim_time_secs > prev,
                "sim time not strictly monotone at round {}: {} <= {}",
                r.round,
                r.sim_time_secs,
                prev
            );
            prev = r.sim_time_secs;
        }
    });
}

#[test]
fn same_fault_plan_is_deterministic() {
    check("same_fault_plan_is_deterministic", CASES, |rng| {
        let faults = arb_fault_config(rng);
        let (a, _) = run_faulty(faults);
        let (b, _) = run_faulty(faults);
        assert_eq!(a.rounds, b.rounds);
    });
}
