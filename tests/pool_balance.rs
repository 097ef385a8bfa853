//! The buffer pool's checkout balance across steady rounds of the real
//! round loop (ROADMAP item 7: `tensor.pool_outstanding_delta`).
//!
//! `pool::global().outstanding()` is one process-wide counter, so this is
//! its own test binary holding one test: nothing else checks buffers in or
//! out while it reads the counter.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::RoundRecord;
use fedsu_repro::nn::models::ModelPreset;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use fedsu_repro::tensor::pool;

/// Rounds that may still move the counter: round 0 builds the round loop's
/// scratch and the first evaluation's buffers.
const WARMUP: usize = 2;
const ROUNDS: usize = 8;

/// `outstanding()` at the end of every round of `scenario`.
fn balance_after_each_round(scenario: Scenario) -> Vec<u64> {
    let mut experiment = scenario.rounds(ROUNDS).build(StrategyKind::FedSuCalibrated).unwrap();
    let mut seen = Vec::with_capacity(ROUNDS);
    let mut hook = |_: &RoundRecord, _: &[f32]| seen.push(pool::global().outstanding());
    experiment.run(Some(&mut hook)).unwrap();
    seen
}

/// Every steady round — training, the first layer's parameter-only
/// backward, and every other round an evaluation — returns each pooled
/// buffer it checks out, for the CNN (a `Conv2d` first) and the MLP (a
/// `Flatten` first, so the default `backward_params`).
#[test]
fn steady_rounds_return_every_pooled_buffer() {
    let scenarios = [
        ("cnn", Scenario::new(ModelKind::Cnn).preset(ModelPreset::Tiny).samples_per_class(6)),
        ("mlp", Scenario::new(ModelKind::Mlp).samples_per_class(8)),
    ];
    for (name, scenario) in scenarios {
        let scenario = scenario.clients(3).batch_size(4).local_iters(2).eval_every(2);
        let seen = balance_after_each_round(scenario);
        assert_eq!(seen.len(), ROUNDS, "{name}: one balance per round");
        let settled = seen[WARMUP - 1];
        for (round, &balance) in seen.iter().enumerate().skip(WARMUP) {
            assert_eq!(
                balance,
                settled,
                "{name}: round {round} moved the pool balance by {} checkouts",
                balance.wrapping_sub(settled) as i64
            );
        }
    }
}
