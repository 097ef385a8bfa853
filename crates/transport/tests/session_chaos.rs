//! Chaos soak: a sessioned FedAvg loop over the chaos bus must survive
//! drop/corrupt/duplicate/reorder/delay plans and still produce exactly
//! the model a fault-free run produces — no lost updates, no
//! double-counted updates, bit-for-bit.
//!
//! `FEDSU_CHAOS_CASES` scales the number of soak plans (default 6; CI can
//! raise it).

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_transport::{
    Chaos, ChaosStats, ClientSession, FaultConfig, FaultPlan, LocalBus,
    Message, ReliabilityStats, ServerSession, SessionConfig, SparseValues,
};
use std::time::Duration;

const PARAMS: usize = 16;
const CLIENTS: usize = 3;
const ROUNDS: usize = 4;
const T: Duration = Duration::from_secs(20);
/// End-of-run grace: longer than the peer's largest inter-retransmit gap
/// (`ack_timeout + backoff × max_retries` = 95ms) so a lingering endpoint
/// outlives every late retransmission aimed at it.
const LINGER: Duration = Duration::from_millis(250);

fn session_cfg() -> SessionConfig {
    // A generous retry budget so even p=0.3 double-sided loss plans
    // converge with overwhelming probability (the plan is deterministic,
    // so a passing seed passes forever).
    SessionConfig {
        max_retries: 16,
        ack_timeout: Duration::from_millis(15),
        backoff: Duration::from_millis(5),
    }
}

/// Deterministic fake "local training" (same rule as `tests/wire_parity.rs`).
fn local_update(round: usize, client: usize, j: usize) -> f32 {
    ((round * 31 + client * 7 + j) % 13) as f32 * 0.01 - 0.06
}

struct RunOutcome {
    global: Vec<f32>,
    server_rel: ReliabilityStats,
    clients_rel: ReliabilityStats,
    server_chaos: ChaosStats,
    clients_chaos: ChaosStats,
}

/// Full sessioned FedAvg over the chaos bus under `faults`. Aggregation is
/// by client index (not arrival order), so the result is bit-for-bit
/// comparable across plans.
fn run_sessioned_fedavg(faults: &FaultConfig) -> RunOutcome {
    let (server, clients) = LocalBus::star(CLIENTS);
    let chaos_server = Chaos::server(server, FaultPlan::new(*faults));
    let mut srv = ServerSession::new(chaos_server, session_cfg());

    let handles: Vec<_> = clients
        .into_iter()
        .map(|endpoint| {
            let id = endpoint.id();
            let chaos = Chaos::client(endpoint, FaultPlan::new(*faults), id);
            std::thread::spawn(move || {
                let mut session = ClientSession::new(chaos, id as u32, session_cfg());
                for round in 0..ROUNDS {
                    session.begin_epoch(round as u32);
                    let trained = match session.recv_reliable(T).unwrap() {
                        Message::Model { round: r, values } if r as usize == round => values
                            .values
                            .iter()
                            .enumerate()
                            .map(|(j, v)| v + local_update(round, id, j))
                            .collect::<Vec<f32>>(),
                        other => panic!("client {id} round {round}: unexpected {other:?}"),
                    };
                    session
                        .send_reliable(&Message::Update {
                            round: round as u32,
                            client: id as u32,
                            values: SparseValues::dense(trained),
                        })
                        .unwrap();
                }
                // TIME_WAIT: service the server's late retransmissions
                // (its last ack to us may have been chaos-dropped).
                session.linger(LINGER);
                (session.stats(), session.link().stats())
            })
        })
        .collect();

    let mut global = vec![0.0f32; PARAMS];
    for round in 0..ROUNDS {
        srv.begin_epoch(round as u32);
        srv.broadcast_reliable(&Message::Model {
            round: round as u32,
            values: SparseValues::dense(global.clone()),
        })
        .unwrap();
        let mut per_client: Vec<Option<Vec<f32>>> = vec![None; CLIENTS];
        while per_client.iter().any(Option::is_none) {
            let (from, msg) = srv.recv_reliable(T).unwrap();
            match msg {
                Message::Update { round: r, client, values } => {
                    assert_eq!(r as usize, round, "epoch gating must keep rounds separate");
                    assert_eq!(client as usize, from);
                    assert!(
                        per_client[from].is_none(),
                        "client {from} delivered twice in round {round}: dedup failed"
                    );
                    per_client[from] = Some(values.values);
                }
                other => panic!("server round {round}: unexpected {other:?}"),
            }
        }
        // Fixed fold order => bit-for-bit reproducible aggregation.
        let mut acc = vec![0.0f32; PARAMS];
        for update in per_client.into_iter().flatten() {
            for (a, v) in acc.iter_mut().zip(&update) {
                *a += v / CLIENTS as f32;
            }
        }
        global = acc;
    }

    // Server-side TIME_WAIT: keep re-acking clients' late retransmissions
    // until every client thread has actually finished its run.
    while handles.iter().any(|h| !h.is_finished()) {
        srv.linger(Duration::from_millis(25));
    }
    let mut clients_rel = ReliabilityStats::default();
    let mut clients_chaos = ChaosStats::default();
    for h in handles {
        let (rel, chaos) = h.join().unwrap();
        clients_rel = clients_rel.merged(&rel);
        clients_chaos = clients_chaos.merged(&chaos);
    }
    RunOutcome {
        global,
        server_rel: srv.stats(),
        clients_rel,
        server_chaos: srv.link().stats(),
        clients_chaos,
    }
}

fn assert_exactly_once(outcome: &RunOutcome) {
    assert_eq!(
        outcome.server_rel.data_frames_delivered,
        (ROUNDS * CLIENTS) as u64,
        "server must deliver each update exactly once"
    );
    assert_eq!(
        outcome.clients_rel.data_frames_delivered,
        (ROUNDS * CLIENTS) as u64,
        "each client must deliver each model exactly once"
    );
}

#[test]
fn zero_fault_wire_is_transparent_and_retry_free() {
    let clean = run_sessioned_fedavg(&FaultConfig::default());
    assert_exactly_once(&clean);
    assert_eq!(clean.server_chaos, ChaosStats::default(), "zero plan must not touch frames");
    assert_eq!(clean.clients_chaos, ChaosStats::default());
    assert_eq!(clean.server_rel.retransmits, 0);
    assert_eq!(clean.server_rel.retransmitted_bytes, 0);
    assert_eq!(clean.clients_rel.retransmits, 0);
    assert_eq!(clean.clients_rel.retransmitted_bytes, 0);
    assert_eq!(clean.server_rel.dups_dropped, 0);
    assert_eq!(clean.clients_rel.corrupt_frames_rejected, 0);
    // Exactly one data frame per logical message.
    assert_eq!(clean.server_rel.data_frames_sent, (ROUNDS * CLIENTS) as u64);
    assert_eq!(clean.clients_rel.data_frames_sent, (ROUNDS * CLIENTS) as u64);
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
    let chaos = faulted.server_chaos.merged(&faulted.clients_chaos);
    assert!(chaos.drops > 0, "soak plan should drop frames: {chaos:?}");
    assert!(chaos.corruptions > 0, "soak plan should corrupt frames: {chaos:?}");
    let rel = faulted.server_rel.merged(&faulted.clients_rel);
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

#[test]
fn soak_random_plans_all_converge_exactly_once() {
    let cases: usize = std::env::var("FEDSU_CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
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
    for case in 0..cases as u64 {
        let faults = FaultConfig {
            wire_drop_prob: unit(case, 1) * 0.3,
            wire_corrupt_prob: unit(case, 2) * 0.15,
            wire_duplicate_prob: unit(case, 3) * 0.15,
            wire_reorder_prob: unit(case, 4) * 0.15,
            wire_delay_prob: unit(case, 5) * 0.1,
            wire_delay_depth: 1 + (case % 3) as usize,
            seed: 0x50AC ^ case,
            ..FaultConfig::default()
        };
        let outcome = run_sessioned_fedavg(&faults);
        assert_exactly_once(&outcome);
        let bits: Vec<u32> = outcome.global.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, clean_bits, "case {case} diverged under {faults:?}");
    }
}
