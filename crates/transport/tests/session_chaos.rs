//! Chaos soak: a sessioned FedAvg loop over the chaos bus must survive
//! drop/corrupt/duplicate/reorder/delay plans and still produce exactly
//! the model a fault-free run produces — no lost updates, no
//! double-counted updates, bit-for-bit.
//!
//! `FEDSU_CHAOS_CASES` scales the number of soak plans (6 when unset; CI
//! raises it, and a set value that is not a positive integer fails).

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_transport::{
    ChaosStats, FaultConfig, Message, SparseValues, Star, StarError, StarRun, StarServer,
};
use std::sync::Arc;
use std::time::Duration;

const PARAMS: usize = 16;
const CLIENTS: usize = 3;
const ROUNDS: usize = 4;

/// Deterministic fake "local training" (same rule as `tests/wire_parity.rs`).
fn local_update(round: usize, client: usize, j: usize) -> f32 {
    ((round * 31 + client * 7 + j) % 13) as f32 * 0.01 - 0.06
}

/// FedAvg's server: the global model down, the mean of the updates back.
/// The run's counters are filled in once it ends.
#[derive(Default)]
struct FedAvg {
    global: Vec<f32>,
    run: StarRun,
}

impl StarServer for FedAvg {
    fn broadcast(&mut self, round: u32) -> Message {
        Message::Model { round, values: SparseValues::dense(self.global.clone()) }
    }

    fn fold(&mut self, round: u32, uploads: Vec<Message>) {
        let mut acc = vec![0.0f32; PARAMS];
        for (from, msg) in uploads.into_iter().enumerate() {
            match msg {
                Message::Update { round: r, client, values } => {
                    assert_eq!(r, round, "epoch gating must keep rounds separate");
                    assert_eq!(client as usize, from);
                    for (a, v) in acc.iter_mut().zip(&values.values) {
                        *a += v / CLIENTS as f32;
                    }
                }
                other => panic!("server round {round}: unexpected {other:?}"),
            }
        }
        self.global = acc;
    }
}

/// FedAvg's client step: the received model plus this client's update.
fn train(id: u32, round: u32, msg: Message) -> Result<Message, String> {
    let Message::Model { round: r, values } = msg else { return Err(format!("unexpected {msg:?}")) };
    if r != round {
        return Err(format!("model of round {r} in round {round}"));
    }
    let trained = values.values.iter().enumerate().map(|(j, v)| v + local_update(round as usize, id as usize, j));
    Ok(Message::Update { round, client: id, values: SparseValues::dense(trained.collect()) })
}

/// Full sessioned FedAvg over the chaos bus under `faults`. The driver
/// folds by client index (not arrival order), so the result is bit-for-bit
/// comparable across plans.
fn run_sessioned_fedavg(faults: &FaultConfig) -> FedAvg {
    let mut server = FedAvg { global: vec![0.0; PARAMS], ..FedAvg::default() };
    server.run = Star::new(CLIENTS, ROUNDS as u32, *faults)
        .run(&mut server, |id| move |round, msg| train(id, round, msg))
        .unwrap();
    server
}

fn assert_exactly_once(outcome: &FedAvg) {
    assert_eq!(
        outcome.run.server.data_frames_delivered,
        (ROUNDS * CLIENTS) as u64,
        "server must deliver each update exactly once"
    );
    assert_eq!(
        outcome.run.clients.data_frames_delivered,
        (ROUNDS * CLIENTS) as u64,
        "each client must deliver each model exactly once"
    );
}

#[test]
fn zero_fault_wire_is_transparent_and_retry_free() {
    let clean = run_sessioned_fedavg(&FaultConfig::default());
    assert_exactly_once(&clean);
    assert_eq!(clean.run.server_chaos, ChaosStats::default(), "zero plan must not touch frames");
    assert_eq!(clean.run.clients_chaos, ChaosStats::default());
    assert_eq!(clean.run.server.retransmits, 0);
    assert_eq!(clean.run.server.retransmitted_bytes, 0);
    assert_eq!(clean.run.clients.retransmits, 0);
    assert_eq!(clean.run.clients.retransmitted_bytes, 0);
    assert_eq!(clean.run.server.dups_dropped, 0);
    assert_eq!(clean.run.clients.corrupt_frames_rejected, 0);
    // Exactly one data frame per logical message.
    assert_eq!(clean.run.server.data_frames_sent, (ROUNDS * CLIENTS) as u64);
    assert_eq!(clean.run.clients.data_frames_sent, (ROUNDS * CLIENTS) as u64);
}

#[test]
fn lossy_wire_reproduces_the_clean_model_bit_for_bit() {
    let clean = run_sessioned_fedavg(&FaultConfig::default());
    let lossy = FaultConfig {
        wire_drop_prob: 0.25,
        wire_corrupt_prob: 0.1,
        wire_duplicate_prob: 0.1,
        wire_reorder_prob: 0.1,
        wire_delay_prob: 0.05,
        seed: 0xC4A0,
        ..FaultConfig::default()
    };
    let faulted = run_sessioned_fedavg(&lossy);
    assert_exactly_once(&faulted);
    assert_eq!(
        faulted.global.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        clean.global.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "a lossy wire within the retry budget must not change the model at all"
    );
    // The plan actually did damage, and the session actually repaired it.
    let chaos = faulted.run.server_chaos.merged(&faulted.run.clients_chaos);
    assert!(chaos.drops > 0, "soak plan should drop frames: {chaos:?}");
    assert!(chaos.corruptions > 0, "soak plan should corrupt frames: {chaos:?}");
    let rel = faulted.run.server.merged(&faulted.run.clients);
    assert!(rel.retransmits > 0, "drops must force retransmissions");
    assert!(rel.retransmitted_bytes > 0);
    assert!(
        rel.corrupt_frames_rejected >= chaos.corruptions,
        "every corrupted frame must be caught by the envelope checksum \
         (chaos corrupted {}, receivers rejected {})",
        chaos.corruptions,
        rel.corrupt_frames_rejected
    );
}

// The assertion is about wall time: a failing step must not wait out the
// receive timeout.
#[allow(clippy::disallowed_methods)]
#[test]
fn a_failing_step_ends_the_run_at_once_with_every_thread_joined() {
    let steps = Arc::new(());
    let mut server = FedAvg { global: vec![0.0; PARAMS], ..FedAvg::default() };
    let started = std::time::Instant::now();
    let result = Star::new(CLIENTS, ROUNDS as u32, FaultConfig::default()).run(&mut server, |id| {
        let held = Arc::clone(&steps);
        move |round, msg| {
            let _held = &held;
            if (id, round) == (1, 1) {
                return Err("boom".to_string());
            }
            train(id, round, msg)
        }
    });
    let took = started.elapsed();
    assert_eq!(result, Err(StarError::Step(1, 1, "boom".into())));
    assert!(took < Duration::from_secs(2), "the error took {took:?}; the receive timeout is 20 s");
    assert_eq!(Arc::strong_count(&steps), 1, "a client thread outlived the run");
}

#[test]
fn soak_random_plans_all_converge_exactly_once() {
    // Unset runs 6 plans; a set value that is not a positive integer fails
    // rather than shrinking the soak unseen.
    let cases: u64 = match std::env::var("FEDSU_CHAOS_CASES") {
        Err(std::env::VarError::NotPresent) => 6,
        set => set.ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).expect("FEDSU_CHAOS_CASES must be a positive integer"),
    };
    let clean = run_sessioned_fedavg(&FaultConfig::default());
    let clean_bits: Vec<u32> = clean.global.iter().map(|v| v.to_bits()).collect();
    // Deterministic per-case knob derivation (splitmix-flavored): each case
    // exercises a different mix of the five wire faults.
    let unit = |case: u64, salt: u64| -> f64 {
        let mut z = case
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z ^= z >> 30;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    for case in 0..cases {
        let faults = FaultConfig {
            wire_drop_prob: unit(case, 1) * 0.3,
            wire_corrupt_prob: unit(case, 2) * 0.15,
            wire_duplicate_prob: unit(case, 3) * 0.15,
            wire_reorder_prob: unit(case, 4) * 0.15,
            wire_delay_prob: unit(case, 5) * 0.1,
            seed: 0x50AC ^ case,
            ..FaultConfig::default()
        };
        let outcome = run_sessioned_fedavg(&faults);
        assert_exactly_once(&outcome);
        let bits: Vec<u32> = outcome.global.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, clean_bits, "case {case} diverged under {faults:?}");
    }
}
