//! The runtime invariant guards (`FEDSU_CHECK_INVARIANTS`) must be pure
//! observers: arming them may abort on violation but must never perturb the
//! emulation. A zero-fault run with every guard armed has to reproduce the
//! legacy `RoundRecord`s bit-for-bit.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::ExperimentResult;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use fedsu_repro::tensor::invariant;

fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(5).rounds(12).samples_per_class(20).seed(11)
}

fn run(strategy: StrategyKind) -> ExperimentResult {
    scenario().build(strategy).unwrap().run(None).unwrap()
}

/// One test, not several: the invariant switch is process-global, so the
/// armed/unarmed phases must run in a fixed order rather than race across
/// test threads.
#[test]
fn armed_guards_reproduce_zero_fault_records_bit_for_bit() {
    for strategy in [
        StrategyKind::FedAvg,
        StrategyKind::FedSuCalibrated,
        StrategyKind::FedSuV1 { period: 4 },
    ] {
        invariant::set_enabled(false);
        let baseline = run(strategy);

        invariant::set_enabled(true);
        let guarded = run(strategy);
        invariant::set_enabled(false);

        // Strict equality, not approximate: RoundRecord derives PartialEq
        // over its f32/f64 fields, so this compares every bit of every
        // record — durations, losses, byte counts, mask statistics.
        assert_eq!(
            baseline, guarded,
            "{strategy:?}: arming FEDSU_CHECK_INVARIANTS changed the records"
        );
    }
}
