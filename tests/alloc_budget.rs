//! Exact allocation pins for the round loop and the reliable transport.
//!
//! Every test target runs on `fedsu-tensor`'s counting global allocator (the
//! root crate's dev-dependency turns on its `alloc-stats` feature), and a
//! round hook reads the counters after each record. With one client,
//! `train_all` trains on the calling thread (its thread scope spawns
//! nothing and allocates one shared state a round) and the kernels are
//! serial, so every steady round (rounds 1.., round 0 pays one-time
//! warm-up) makes the same allocations on every run, at every `FEDSU_SIMD`
//! level, armed or not.
//! [`PINS`] holds those counts for every strategy on the MLP and the tiny
//! CNN, plus one faulty run: a reintroduced per-round `.to_vec()` of the
//! global, a `Vec` built inside one strategy's `aggregate`, or a core-count
//! lookup per kernel call moves a count and fails here.
//!
//! Bounds cover what cannot be pinned exactly, because threads run beside
//! the count: a four-client run (training threads) stays under ceilings
//! about 1.25× its measured traffic without trending upward, and the wire
//! FedAvg leg allocates less than one allocation over its measured count
//! per data frame and per retransmission — a copy of each frame on send, a
//! copy of each payload on receive, or a message re-encoded per attempt
//! fails the first bound, and the two sender-side copies fail the second.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

mod wire_fedavg;

use fedsu_repro::fl::{DefenseConfig, Experiment, ExperimentResult, RoundRecord};
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::nn::models::ModelPreset;
use fedsu_repro::scenario::{ModelKind, Scenario, StrategyKind};
use fedsu_repro::tensor::alloc_stats::{self, AllocSnapshot};
use std::fmt::Write as _;
use std::sync::Arc;

const ROUNDS: usize = 8;

/// Every strategy the scenario builder knows.
const STRATEGIES: [StrategyKind; 11] = [
    StrategyKind::FedAvg,
    StrategyKind::Cmfl,
    StrategyKind::Apf,
    StrategyKind::ApfCalibrated,
    StrategyKind::Qsgd,
    StrategyKind::TopK,
    StrategyKind::FedSu,
    StrategyKind::FedSuCalibrated,
    StrategyKind::FedSuWith { t_r: 0.05, t_s: 5.0 },
    StrategyKind::FedSuV1 { period: 3 },
    StrategyKind::FedSuV2 { probability: 0.5, period: 3 },
];

/// Allocations of rounds 1..ROUNDS, one row per run. A deliberate change
/// re-pins them: the failing assertion prints the whole table.
const PINS: &[(&str, [u64; ROUNDS - 1])] = &[
    ("mlp/FedAvg", [51, 51, 51, 51, 51, 51, 51]),
    ("mlp/Cmfl", [52, 52, 51, 51, 51, 51, 51]),
    ("mlp/Apf", [51, 51, 51, 51, 51, 51, 51]),
    ("mlp/ApfCalibrated", [51, 51, 51, 51, 51, 51, 51]),
    ("mlp/Qsgd", [52, 51, 51, 51, 51, 51, 51]),
    ("mlp/TopK", [52, 51, 51, 51, 51, 51, 51]),
    ("mlp/FedSu", [51, 51, 51, 52, 51, 51, 51]),
    ("mlp/FedSuCalibrated", [51, 51, 51, 52, 51, 51, 51]),
    ("mlp/FedSuWith { t_r: 0.05, t_s: 5.0 }", [51, 51, 51, 52, 51, 51, 51]),
    ("mlp/FedSuV1 { period: 3 }", [51, 51, 51, 52, 51, 51, 51]),
    ("mlp/FedSuV2 { probability: 0.5, period: 3 }", [51, 51, 51, 52, 51, 51, 51]),
    ("cnn-tiny/FedAvg", [44, 44, 44, 44, 44, 44, 44]),
    ("cnn-tiny/Cmfl", [45, 45, 44, 44, 44, 44, 44]),
    ("cnn-tiny/Apf", [44, 44, 44, 44, 44, 44, 44]),
    ("cnn-tiny/ApfCalibrated", [44, 44, 44, 44, 44, 44, 44]),
    ("cnn-tiny/Qsgd", [45, 44, 44, 44, 44, 44, 44]),
    ("cnn-tiny/TopK", [46, 45, 45, 45, 45, 45, 45]),
    ("cnn-tiny/FedSu", [44, 44, 44, 45, 44, 44, 44]),
    ("cnn-tiny/FedSuCalibrated", [44, 44, 44, 45, 44, 44, 44]),
    ("cnn-tiny/FedSuWith { t_r: 0.05, t_s: 5.0 }", [44, 44, 44, 45, 44, 44, 44]),
    ("cnn-tiny/FedSuV1 { period: 3 }", [44, 44, 44, 45, 44, 44, 44]),
    ("cnn-tiny/FedSuV2 { probability: 0.5, period: 3 }", [44, 44, 44, 45, 44, 44, 44]),
    ("mlp/FedSuCalibrated/faulty", [51, 48, 51, 51, 51, 48, 52]),
];

/// The one-client scenario of a pinned row.
fn single_client(model: &str) -> Scenario {
    let base = |kind| Scenario::new(kind).clients(1).rounds(ROUNDS).samples_per_class(16).seed(7);
    match model {
        "mlp" => base(ModelKind::Mlp),
        _ => base(ModelKind::Cnn).preset(ModelPreset::Tiny).batch_size(4).local_iters(2),
    }
}

/// A plan whose fates differ round to round: a dropout, a quarantined
/// corrupt upload, retried lost uploads (a non-zero plan turns the server
/// defenses on).
fn faulty() -> FaultConfig {
    FaultConfig {
        dropout_prob: 0.2,
        slowdown_prob: 0.3,
        corrupt_prob: 0.2,
        upload_loss_prob: 0.3,
        seed: 0xFA17,
        ..FaultConfig::default()
    }
}

/// Runs `experiment` with a hook that reads the allocation counters after
/// each round: its records, and the allocations charged to each round
/// (round 0's from the start of `run`, which includes its setup).
fn round_log(mut experiment: Experiment) -> (ExperimentResult, Vec<AllocSnapshot>) {
    // Reserved up front (no run here is longer than `ROUNDS`), so the
    // hook's pushes allocate nothing.
    let mut marks = Vec::with_capacity(ROUNDS + 1);
    marks.push(alloc_stats::snapshot());
    let mut hook = |_: &RoundRecord, _: &[f32]| marks.push(alloc_stats::snapshot());
    let result = experiment.run(Some(&mut hook)).unwrap();
    assert_eq!(marks.len(), result.rounds.len() + 1, "the hook sees every round once");
    let log = marks.windows(2).map(|w| w[1].since(&w[0])).collect();
    (result, log)
}

/// Allocations of rounds 1.. of one run.
fn steady_allocs(scenario: &Scenario, strategy: StrategyKind) -> Vec<u64> {
    let (_, log) = round_log(scenario.build(strategy).unwrap());
    log[1..].iter().map(|r| r.allocs).collect()
}

/// [`steady_allocs`], measured again while it misses `pin`, keeping each
/// round's minimum. Another thread can only add to a count — the test
/// harness does its own bookkeeping just after it starts this test, which
/// on a loaded host can land inside a measured round — while a defect in
/// the round loop repeats on every run and still fails.
fn pinned_row(scenario: &Scenario, strategy: StrategyKind, pin: Option<&[u64]>) -> Vec<u64> {
    let mut allocs = steady_allocs(scenario, strategy);
    for _ in 0..2 {
        if pin == Some(allocs.as_slice()) {
            break;
        }
        for (kept, again) in allocs.iter_mut().zip(steady_allocs(scenario, strategy)) {
            *kept = (*kept).min(again);
        }
    }
    allocs
}

/// `rows` as the Rust literal [`PINS`] is written in.
fn render(rows: &[(String, Vec<u64>)]) -> String {
    let mut out = String::new();
    for (name, allocs) in rows {
        writeln!(out, "    ({name:?}, {allocs:?}),").unwrap();
    }
    out
}

/// One test, not several: the counters and the round log are process-wide,
/// so the cases run in a fixed order with nothing beside them.
#[test]
fn steady_rounds_stay_within_the_checked_in_budget() {
    let mut rows: Vec<(String, Scenario, StrategyKind)> = Vec::new();
    for model in ["mlp", "cnn-tiny"] {
        for strategy in STRATEGIES {
            rows.push((format!("{model}/{strategy:?}"), single_client(model), strategy));
        }
    }
    let faulty_run = single_client("mlp").faults(faulty());
    rows.push(("mlp/FedSuCalibrated/faulty".to_string(), faulty_run, StrategyKind::FedSuCalibrated));
    let recorded: Vec<(String, Vec<u64>)> = rows
        .into_iter()
        .enumerate()
        .map(|(i, (name, scenario, strategy))| {
            let pin = PINS.get(i).map(|(_, allocs)| allocs.as_slice());
            (name, pinned_row(&scenario, strategy, pin))
        })
        .collect();
    let pinned: Vec<(String, Vec<u64>)> =
        PINS.iter().map(|(name, allocs)| (name.to_string(), allocs.to_vec())).collect();
    assert!(
        recorded == pinned,
        "steady-round allocations moved; the new table:\n{}",
        render(&recorded)
    );

    four_clients_stay_under_their_ceilings();
    a_round_nobody_attends_is_marked();
    the_wire_allocates_what_it_measures();
}

/// Per-round ceilings for the four-client run, about 1.25× its measured
/// steady rounds (206–208 allocations, 42.9–43.2 KB on a 2-thread host).
const MAX_ROUND_ALLOCS: u64 = 260;
const MAX_ROUND_BYTES: u64 = 54_000;

/// With four clients `train_all` runs training threads, so the counts carry
/// the spawns and are bounded rather than pinned.
fn four_clients_stay_under_their_ceilings() {
    let scenario = Scenario::new(ModelKind::Mlp).clients(4).rounds(6).samples_per_class(16).seed(7);
    let (_, log) = round_log(scenario.build(StrategyKind::FedSuCalibrated).unwrap());
    for (round, r) in log.iter().enumerate().skip(1) {
        assert!(
            r.allocs <= MAX_ROUND_ALLOCS && r.bytes <= MAX_ROUND_BYTES,
            "round {round}: {} allocations / {} bytes, the ceilings are {MAX_ROUND_ALLOCS} / \
             {MAX_ROUND_BYTES}; a hot-path copy crept back in",
            r.allocs,
            r.bytes
        );
    }
    // Scratch reuse means steady traffic does not trend upward.
    let (first, last) = (&log[1], &log[log.len() - 1]);
    assert!(last.allocs <= first.allocs, "allocations trend upward: {first:?} -> {last:?}");
}

/// A round that availability empties leaves through the same exit as every
/// other round, so the hook sees it too.
fn a_round_nobody_attends_is_marked() {
    let experiment = Scenario::new(ModelKind::Mlp)
        .clients(4)
        .rounds(6)
        .samples_per_class(16)
        .seed(7)
        .defense(DefenseConfig::on())
        .build_with_availability(StrategyKind::FedSuCalibrated, Some(Arc::new(|_, round| round != 2)))
        .unwrap();
    let (result, _) = round_log(experiment);
    assert_eq!(result.rounds[2].participants, 0, "round 2 must be the empty one");
}

/// A clean run of the wire FedAvg leg of `wire_parity.rs`, driven by
/// `fedsu_transport::Star`, measures 197 allocations over 24 data frames
/// (8.21 a frame, thread and channel setup included): each frame is written
/// once into the buffer the link takes, and the receiver decodes the message
/// from the frame in place. A `frame.clone()` per send or a payload `to_vec`
/// per receive reads 9.21, a fresh `Message::encode` per attempt 10.21.
const MAX_CLEAN_ALLOCS_PER_FRAME: f64 = 8.8;

/// What a retransmission may add: the lossy run measures 2.09 (268 − 197
/// over 34 retransmits), the new frame and the receiver's ack among them.
/// A `frame.clone()` per send adds one more (3.09), a fresh
/// `Message::encode` per attempt two (4.09). (A retransmission mostly lands
/// as a duplicate, which is never decoded, so a receive-side copy shows in
/// the bound above only.)
const MAX_ALLOCS_PER_RETRANSMIT: f64 = 2.8;

fn the_wire_allocates_what_it_measures() {
    let run = |faults: &FaultConfig| {
        let before = alloc_stats::snapshot();
        let run = wire_fedavg::wire_leg(faults);
        let allocs = alloc_stats::snapshot().since(&before).allocs;
        (allocs, run.server_rel.merged(&run.clients_rel))
    };
    let (clean, clean_rel) = run(&FaultConfig::default());
    let per_frame = clean as f64 / clean_rel.data_frames_sent as f64;
    assert!(
        per_frame <= MAX_CLEAN_ALLOCS_PER_FRAME,
        "{per_frame:.2} allocations per data frame ({clean} over {} frames), the bound is \
         {MAX_CLEAN_ALLOCS_PER_FRAME}",
        clean_rel.data_frames_sent
    );
    let (lossy, lossy_rel) = run(&wire_fedavg::lossy_faults());
    let retransmits = lossy_rel.retransmits;
    assert!(retransmits > 0, "the lossy plan must force retransmissions");
    let per_retransmit = lossy.saturating_sub(clean) as f64 / retransmits as f64;
    assert!(
        per_retransmit <= MAX_ALLOCS_PER_RETRANSMIT,
        "{per_retransmit:.2} allocations per retransmit ({clean} clean, {lossy} lossy, \
         {retransmits} retransmits), the bound is {MAX_ALLOCS_PER_RETRANSMIT}"
    );
}
