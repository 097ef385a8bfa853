//! The runtime invariant guards (`FEDSU_CHECK_INVARIANTS`) must be pure
//! observers: arming them may abort on violation but must never perturb the
//! emulation. A zero-fault run with every guard armed has to reproduce the
//! legacy `RoundRecord`s bit-for-bit. The same holds for the kernel thread
//! count: it may change wall time and nothing else.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::{ExperimentResult, RoundRecord};
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
/// test threads (other tests in this binary never touch the switch).
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

/// Records and wire volumes must not depend on how many threads the host
/// lends the kernels: the same scenario at a kernel-thread count of 1, of 4
/// and at the auto policy (0) yields equal `RoundRecord`s and a bit-equal
/// final global model. (The count is process-wide and the other test's runs
/// save and restore it around their training threads, so an older count can
/// come back mid-run; equality has to hold at any setting, so that can weaken
/// this check but never fail it.)
#[test]
fn kernel_thread_count_changes_neither_records_nor_the_final_model() {
    let run_at = |threads: usize| {
        let mut last_global: Vec<u32> = Vec::new();
        let mut hook = |_: &RoundRecord, global: &[f32]| {
            last_global = global.iter().map(|v| v.to_bits()).collect();
        };
        fedsu_repro::tensor::set_kernel_threads(threads);
        let result = scenario()
            .build(StrategyKind::FedSuCalibrated)
            .unwrap()
            .run(Some(&mut hook))
            .unwrap();
        (result, last_global)
    };
    let (serial, serial_model) = run_at(1);
    assert!(!serial_model.is_empty(), "the hook saw the final global");
    for threads in [4, 0] {
        let (records, model) = run_at(threads);
        assert_eq!(serial, records, "kernel threads {threads} changed the records");
        assert_eq!(serial_model, model, "kernel threads {threads} changed the final model");
    }
}
