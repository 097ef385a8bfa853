//! Golden digests for the whole round loop.
//!
//! One hostile scenario — dropouts, lossy uploads, on-the-wire corruption,
//! slowdowns, crashes, a leaving-and-rejoining client, a round deadline and
//! every server-side defense — is run under each of the six strategies, and
//! every field of every `RoundRecord` plus the final global model is folded
//! into one FNV-1a digest per run. The literals were recorded at the commit
//! *before* `Experiment::run` was split into phases, so a structural edit of
//! the loop that moves one bit on the faulty paths fails here (roundbench's
//! checksums cover only zero-fault calibrated FedSU). Three further cases
//! cover the exits the hostile scenario cannot reach: the legacy clean path
//! (defenses off), a round emptied by availability, and a run in which every
//! upload is lost.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_repro::fl::experiment::AvailabilityFn;
use fedsu_repro::fl::{DefenseConfig, ExperimentResult, RoundRecord};
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use std::sync::Arc;

const CLIENTS: usize = 7;

fn scenario() -> Scenario {
    Scenario::new(ModelKind::Mlp).clients(CLIENTS).rounds(24).samples_per_class(16).seed(11).eval_every(3)
}

fn hostile_faults() -> FaultConfig {
    FaultConfig {
        dropout_prob: 0.15,
        upload_loss_prob: 0.2,
        corrupt_prob: 0.15,
        slowdown_prob: 0.2,
        slowdown_factor: 3.0,
        crash_prob: 0.08,
        crash_down_rounds: 2,
        seed: 0xFA17,
        ..FaultConfig::default()
    }
}

fn deadline(secs: Option<f64>) -> DefenseConfig {
    DefenseConfig { round_deadline_secs: secs, ..DefenseConfig::on() }
}

/// Client 5 joins at round 3 and is away again every seventh round.
fn churn() -> AvailabilityFn {
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
fn run_digest(
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

#[test]
fn hostile_scenario_digests_match_the_pre_refactor_loop() {
    let golden = [
        (StrategyKind::FedAvg, 0xd678_8192_f196_dcd1_u64),
        (StrategyKind::Cmfl, 0xacbd_5c26_72a4_31a3),
        (StrategyKind::ApfCalibrated, 0x813d_5d17_00f2_ffad),
        (StrategyKind::Qsgd, 0x0d25_5430_e98b_b942),
        (StrategyKind::TopK, 0xda9f_794e_2400_aa60),
        (StrategyKind::FedSuCalibrated, 0xb67c_f787_7cab_8821),
    ];
    let hostile = scenario().faults(hostile_faults()).defense(deadline(Some(2.0)));
    let no_deadline = scenario().faults(hostile_faults()).defense(deadline(None));
    let mut recorded = Vec::new();
    for (strategy, _) in golden {
        let name = strategy.name();
        let (result, digest) = run_digest(&hostile, strategy, Some(churn()));
        // The scenario must keep walking the deadline, quarantine and retry
        // paths: these counts are what makes the digest worth having.
        assert_eq!(result.total_dropped(), 56, "{name}: dropped client-rounds");
        assert!(result.total_quarantined() >= 16, "{name}: {}", result.total_quarantined());
        assert!(result.total_retransmitted_bytes() > 0, "{name}: no retransmission");
        assert_eq!(result.total_rollbacks(), 0, "{name}: failure_injection.rs owns rollback");
        recorded.push((strategy, digest));

        let (relaxed, _) = run_digest(&no_deadline, strategy, Some(churn()));
        assert_eq!(relaxed.total_dropped(), 49, "{name}: seven drops are the deadline's");
    }
    // All six at once, in hex, so a deliberate re-recording is one paste.
    assert_eq!(format!("{recorded:#x?}"), format!("{:#x?}", golden.to_vec()));
}

#[test]
fn legacy_clean_path_digest_matches_the_pre_refactor_loop() {
    // Defenses off and a zero-fault plan: the loop every record before the
    // fault model was produced by. Client 5 still leaves and rejoins, so the
    // catch-up download and the join state are on this path too.
    let clean = scenario().defense(DefenseConfig::default());
    let (result, digest) = run_digest(&clean, StrategyKind::FedSuCalibrated, Some(churn()));
    assert_eq!(result.total_dropped() + result.total_quarantined(), 0);
    assert_eq!(result.total_retransmitted_bytes(), 0);
    assert_eq!(digest, 0xf9c1_3efd_4151_153c, "digest {digest:#018x}");
}

#[test]
fn a_round_nobody_attends_is_recorded_through_the_one_exit() {
    let empty_round = 4;
    let availability: AvailabilityFn = Arc::new(move |_, round| round != empty_round);
    let guarded = scenario().defense(DefenseConfig::on());
    let (result, digest) = run_digest(&guarded, StrategyKind::FedSuCalibrated, Some(availability));
    let r = &result.rounds[empty_round];
    assert_eq!(r.participants, 0);
    assert_eq!(r.sparsification_ratio, 1.0);
    assert_eq!(r.duration_secs, 30.0, "the lost-round penalty is the round's duration");
    assert_eq!(r.sim_time_secs, result.rounds[empty_round - 1].sim_time_secs + 30.0);
    assert_eq!(r.bytes, 0, "nobody was there to download, and nothing was uploaded");
    assert_eq!((r.dropped, r.quarantined, r.retransmitted_bytes, r.rollbacks), (0, 0, 0, 0));
    assert!(r.accuracy.is_none(), "round 4 is not an evaluation round at eval_every 3");
    // Everyone rejoins: full model plus the join state, more than any
    // steady round's sparse broadcast.
    assert!(result.rounds[empty_round + 1].bytes > result.rounds[empty_round - 1].bytes);
    assert_eq!(digest, 0xe708_f6e8_dfa8_549e, "digest {digest:#018x}");
}

#[test]
fn a_run_in_which_every_upload_is_lost_pays_for_downloads_only() {
    // Every client trains and then drops out: each round ends at the
    // nobody-returned exit with all seven downloads on the wire.
    let faults = FaultConfig { dropout_prob: 1.0, ..FaultConfig::default() };
    let lossy = scenario().rounds(4).faults(faults).defense(DefenseConfig::on());
    let (result, digest) = run_digest(&lossy, StrategyKind::FedAvg, None);
    let full_model = result.param_count as u64 * 4;
    for r in &result.rounds {
        assert_eq!(r.bytes, CLIENTS as u64 * full_model, "round {}: downloads only", r.round);
        assert_eq!(r.dropped, CLIENTS);
        assert_eq!((r.participants, r.quarantined, r.retransmitted_bytes), (0, 0, 0));
        assert_eq!(r.duration_secs, 30.0);
        assert_eq!(r.sparsification_ratio, 1.0);
        assert!(r.train_loss > 0.0, "the clients did train before dropping out");
    }
    assert_eq!(digest, 0x7925_83b7_ca11_921f, "digest {digest:#018x}");
}
