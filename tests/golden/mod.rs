//! The golden rows shared by `determinism.rs` (every row under every axis)
//! and `round_golden.rs` (each round-loop exit at the process's settings).
//!
//! Each row runs a scenario under one strategy and folds every field of
//! every `RoundRecord`, plus the final global, into one FNV-1a digest. The
//! nine literals between the CNN and v1 rows were recorded before
//! `Experiment::run` was split into phases, those two before the
//! determinism harness existed. A change meant to move a record re-records
//! them: a miss prints the digests in hex.

// Each test binary that includes this module uses a different subset of it.
#![allow(dead_code)]

use fedsu_repro::fl::experiment::AvailabilityFn;
use fedsu_repro::fl::{DefenseConfig, ExperimentResult, RoundRecord};
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::nn::models::ModelPreset;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use std::sync::Arc;

pub const CLIENTS: usize = 7;

pub fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(CLIENTS).rounds(24).samples_per_class(16).seed(11).eval_every(3)
}

pub fn hostile_faults() -> FaultConfig {
    FaultConfig {
        dropout_prob: 0.15,
        upload_loss_prob: 0.2,
        corrupt_prob: 0.15,
        slowdown_prob: 0.2,
        crash_prob: 0.08,
        seed: 0xFA17,
        ..FaultConfig::default()
    }
}

/// Client 5 joins at round 3 and is away again every seventh round.
pub fn churn() -> AvailabilityFn {
    Arc::new(|client, round| client != 5 || (round >= 3 && round % 7 != 0))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Stands in for an absent `accuracy` / `test_loss`; not the bits of any
/// value an evaluation produces.
const NONE_SENTINEL: u64 = 0xFFFF_FFFF_FFFF_FFFF;

fn fold(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

fn fold_record(digest: &mut u64, r: &RoundRecord) {
    let opt = |v: Option<f32>| v.map_or(NONE_SENTINEL, |x| u64::from(x.to_bits()));
    for word in [
        r.round as u64,
        r.duration_secs.to_bits(),
        r.sim_time_secs.to_bits(),
        opt(r.accuracy),
        opt(r.test_loss),
        u64::from(r.train_loss.to_bits()),
        r.sparsification_ratio.to_bits(),
        r.bytes,
        r.participants as u64,
        r.dropped as u64,
        r.quarantined as u64,
        r.retransmitted_bytes,
        r.rollbacks as u64,
    ] {
        fold(digest, word);
    }
}

/// Runs the scenario and digests every record field, then the final global
/// (as the hook saw it after the last round).
pub fn run_digest(
    scenario: &Scenario,
    strategy: StrategyKind,
    availability: Option<AvailabilityFn>,
) -> (ExperimentResult, u64) {
    let mut last_global: Vec<u32> = Vec::new();
    let mut hook = |_: &RoundRecord, global: &[f32]| {
        last_global.clear();
        last_global.extend(global.iter().map(|v| v.to_bits()));
    };
    let result = scenario
        .build_with_availability(strategy, availability)
        .unwrap()
        .run(Some(&mut hook))
        .unwrap();
    let mut digest = FNV_OFFSET;
    for r in &result.rounds {
        fold_record(&mut digest, r);
    }
    assert!(!last_global.is_empty(), "the hook saw the final global");
    for bits in last_global {
        fold(&mut digest, u64::from(bits));
    }
    (result, digest)
}

/// One golden row: what runs, the digest it must produce, and the shape
/// that makes the digest worth having (checked after the digests, so that a
/// re-recorded row still walks its paths).
pub struct Row {
    pub scenario: Scenario,
    /// `None` runs without a fault plan.
    pub faults: Option<FaultConfig>,
    pub strategy: StrategyKind,
    pub availability: Option<AvailabilityFn>,
    pub golden: u64,
    pub shape: fn(&ExperimentResult),
}

impl Row {
    /// Runs the row at the process's SIMD level and guard switch; `quiet_plan`
    /// is the fault plan of a row that has none.
    pub fn run(&self, quiet_plan: Option<FaultConfig>) -> (ExperimentResult, u64) {
        let scenario = self.scenario.clone().faults(self.faults.or(quiet_plan).unwrap_or_default());
        run_digest(&scenario, self.strategy, self.availability.clone())
    }
}

/// Runs the rows as they are set up, asserts every digest against its
/// literal in one hex comparison, then every row's shape.
pub fn check(rows: &[Row], quiet_plan: Option<FaultConfig>, context: &str) -> Vec<ExperimentResult> {
    let (results, got): (Vec<ExperimentResult>, Vec<u64>) = rows.iter().map(|row| row.run(quiet_plan)).unzip();
    let want: Vec<u64> = rows.iter().map(|row| row.golden).collect();
    assert_eq!(format!("{got:#018x?}"), format!("{want:#018x?}"), "{context}");
    rows.iter().zip(&results).for_each(|(row, result)| (row.shape)(result));
    results
}

fn clean(scenario: Scenario, strategy: StrategyKind, availability: Option<AvailabilityFn>, golden: u64) -> Row {
    Row {
        scenario,
        faults: None,
        strategy,
        availability,
        golden,
        shape: |r| assert_eq!((r.total_dropped(), r.total_quarantined(), r.total_retransmitted_bytes()), (0, 0, 0)),
    }
}

/// A tiny CNN under FedSU. Its conv scatter accumulates into pooled
/// buffers, which a dirty checkout moves.
pub fn cnn_row() -> Row {
    clean(
        Scenario::new(ModelKind::Cnn).preset(ModelPreset::Tiny).clients(3).batch_size(4).local_iters(2).rounds(6),
        StrategyKind::FedSuCalibrated,
        None,
        0x60e4_9f1d_ded4_3037,
    )
}

/// The hostile scenario under each of the six strategies: dropouts, lossy
/// uploads, on-the-wire corruption, slowdowns, crashes, client 5's churn, a
/// 2 s round deadline and every server-side defense.
pub fn hostile_rows() -> Vec<Row> {
    [
        (StrategyKind::FedAvg, 0xd678_8192_f196_dcd1),
        (StrategyKind::Cmfl, 0xacbd_5c26_72a4_31a3),
        (StrategyKind::ApfCalibrated, 0x813d_5d17_00f2_ffad),
        (StrategyKind::Qsgd, 0x0d25_5430_e98b_b942),
        (StrategyKind::TopK, 0xda9f_794e_2400_aa60),
        (StrategyKind::FedSuCalibrated, 0xb67c_f787_7cab_8821),
    ]
    .into_iter()
    .map(|(strategy, golden)| Row {
        scenario: scenario().defense(DefenseConfig { round_deadline_secs: Some(2.0), ..DefenseConfig::on() }),
        faults: Some(hostile_faults()),
        strategy,
        availability: Some(churn()),
        golden,
        // Dropouts, a round cut at the 2 s deadline, quarantines and
        // retries; rollback is failure_injection.rs's.
        shape: |r| {
            let capped = r.rounds.iter().any(|round| round.duration_secs == 2.0);
            let walked = (capped, r.total_quarantined() >= 16, r.total_retransmitted_bytes() > 0);
            assert_eq!((r.total_dropped(), walked, r.total_rollbacks()), (56, (true, true, true), 0), "{}", r.strategy);
        },
    })
    .collect()
}

/// The legacy clean path: defenses off, no fault plan. Client 5 still
/// leaves and rejoins, so the catch-up download and the join state are on
/// this path too.
pub fn legacy_clean_row() -> Row {
    clean(
        scenario().defense(DefenseConfig::default()),
        StrategyKind::FedSuCalibrated,
        Some(churn()),
        0xf9c1_3efd_4151_153c,
    )
}

pub const EMPTY_ROUND: usize = 4;

/// Nobody attends round 4: no bytes, no fates, the 30 s lost-round penalty
/// and no evaluation. Then everyone rejoins: the full model plus the join
/// state, more than a steady round's sparse broadcast.
pub fn empty_round_row() -> Row {
    Row {
        scenario: scenario().defense(DefenseConfig::on()),
        faults: None,
        strategy: StrategyKind::FedSuCalibrated,
        availability: Some(Arc::new(|_, round| round != EMPTY_ROUND)),
        golden: 0xe708_f6e8_dfa8_549e,
        shape: |result| {
            let (r, before) = (&result.rounds[EMPTY_ROUND], &result.rounds[EMPTY_ROUND - 1]);
            assert_eq!((r.participants, r.bytes, r.dropped + r.quarantined + r.rollbacks), (0, 0, 0));
            assert_eq!((r.duration_secs, r.sim_time_secs), (30.0, before.sim_time_secs + 30.0));
            assert_eq!((r.sparsification_ratio, r.accuracy), (1.0, None));
            assert!(result.rounds[EMPTY_ROUND + 1].bytes > before.bytes);
        },
    }
}

/// Every client trains and then drops out: each round ends at the
/// nobody-returned exit with all seven downloads on the wire.
pub fn all_uploads_lost_row() -> Row {
    Row {
        scenario: scenario().rounds(4).defense(DefenseConfig::on()),
        faults: Some(FaultConfig { dropout_prob: 1.0, ..FaultConfig::default() }),
        strategy: StrategyKind::FedAvg,
        availability: None,
        golden: 0x7925_83b7_ca11_921f,
        shape: |result| {
            let downloads = CLIENTS as u64 * result.param_count as u64 * 4;
            for r in &result.rounds {
                assert_eq!((r.participants, r.dropped, r.bytes, r.duration_secs), (0, CLIENTS, downloads, 30.0));
                assert!(r.train_loss > 0.0, "the clients did train before dropping out");
            }
        },
    }
}

/// FedSU's fixed-period exit (ablation v1).
pub fn v1_row() -> Row {
    clean(scenario(), StrategyKind::FedSuV1 { period: 4 }, None, 0x7ae3_a98c_22d6_566f)
}

/// Every row, the CNN first: the harness runs it on a cold pool first in
/// the process and on a warm one last.
pub fn rows() -> Vec<Row> {
    let mut rows = vec![cnn_row()];
    rows.extend(hostile_rows());
    rows.extend([legacy_clean_row(), empty_round_row(), all_uploads_lost_row(), v1_row()]);
    rows
}
