//! The wire FedAvg leg shared by `wire_parity.rs` (which checks its
//! records against the emulation) and `alloc_budget.rs` (which counts what a
//! retransmission allocates): sessioned FedAvg over (chaos-decorated)
//! endpoints, records filled from observed traffic.

// Each test binary that includes this module uses a different subset of it.
#![allow(dead_code)]

use fedsu_repro::fl::RoundRecord;
use fedsu_repro::netsim::{FaultConfig, FaultPlan};
use fedsu_repro::transport::{
    Chaos, ClientSession, LocalBus, Message, ReliabilityStats, ServerSession, SessionConfig,
    SparseValues,
};
use std::time::Duration;

pub const PARAMS: usize = 16;
pub const CLIENTS: usize = 3;
pub const ROUNDS: usize = 4;
pub const T: Duration = Duration::from_secs(20);
/// End-of-run grace: longer than the peer's largest inter-retransmit gap
/// (`ack_timeout + backoff × max_retries` = 95ms) so a lingering endpoint
/// outlives every late retransmission aimed at it.
pub const LINGER: Duration = Duration::from_millis(250);

pub fn session_cfg() -> SessionConfig {
    SessionConfig {
        max_retries: 16,
        ack_timeout: Duration::from_millis(15),
        backoff: Duration::from_millis(5),
    }
}

/// The lossy plan of `wire_parity.rs`: every kind of wire fault, within the
/// retry budget.
pub fn lossy_faults() -> FaultConfig {
    FaultConfig {
        wire_drop_prob: 0.25,
        wire_corrupt_prob: 0.1,
        wire_duplicate_prob: 0.1,
        wire_reorder_prob: 0.08,
        wire_delay_prob: 0.05,
        seed: 0x9A21,
        ..FaultConfig::default()
    }
}

/// Deterministic fake "local training", shared with the transport suite.
pub fn local_update(round: usize, client: usize, j: usize) -> f32 {
    ((round * 31 + client * 7 + j) % 13) as f32 * 0.01 - 0.06
}

/// Mean |update − model| in fixed (client, param) order — a deterministic
/// stand-in for train loss that both legs can compute identically.
pub fn pseudo_loss(model: &[f32], updates: &[Vec<f32>]) -> f32 {
    let mut sum = 0.0f32;
    for update in updates {
        for (j, v) in update.iter().enumerate() {
            sum += (v - model[j]).abs();
        }
    }
    sum / (CLIENTS * PARAMS) as f32
}

pub fn record_of(round: usize, bytes: u64, loss: f32) -> RoundRecord {
    RoundRecord {
        round,
        duration_secs: 0.0,
        sim_time_secs: 0.0,
        accuracy: None,
        test_loss: None,
        train_loss: loss,
        sparsification_ratio: 0.0,
        bytes,
        participants: CLIENTS,
        dropped: 0,
        quarantined: 0,
        retransmitted_bytes: 0,
        rollbacks: 0,
    }
}

pub struct WireRun {
    pub records: Vec<RoundRecord>,
    pub global: Vec<f32>,
    pub server_rel: ReliabilityStats,
    pub clients_rel: ReliabilityStats,
    pub model_payload: u64,
    pub update_payload: u64,
}

/// Sessioned FedAvg over (chaos-decorated) endpoints, records filled from
/// observed traffic.
pub fn wire_leg(faults: &FaultConfig) -> WireRun {
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
                        Message::Model { round: r, values } => {
                            assert_eq!(r as usize, round);
                            values
                                .values
                                .iter()
                                .enumerate()
                                .map(|(j, v)| v + local_update(round, id, j))
                                .collect::<Vec<f32>>()
                        }
                        other => panic!("client {id}: unexpected {other:?}"),
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
                session.stats()
            })
        })
        .collect();

    let mut records = Vec::with_capacity(ROUNDS);
    let mut global = vec![0.0f32; PARAMS];
    let mut model_payload = 0u64;
    let mut update_payload = 0u64;
    for round in 0..ROUNDS {
        srv.begin_epoch(round as u32);
        let model =
            Message::Model { round: round as u32, values: SparseValues::dense(global.clone()) };
        model_payload = model.encode().len() as u64;
        srv.broadcast_reliable(&model).unwrap();

        let mut per_client: Vec<Option<Vec<f32>>> = vec![None; CLIENTS];
        let mut round_bytes = model_payload
            .checked_mul(CLIENTS as u64)
            .expect("round byte total fits in u64: payloads are model-sized");
        while per_client.iter().any(Option::is_none) {
            let (from, msg) = srv.recv_reliable(T).unwrap();
            // Payload bytes as they traveled: re-encoding the delivered
            // message reproduces the exact frame payload.
            update_payload = msg.encode().len() as u64;
            round_bytes = round_bytes
                .checked_add(update_payload)
                .expect("round byte total fits in u64: payloads are model-sized");
            match msg {
                Message::Update { round: r, client, values } => {
                    assert_eq!(r as usize, round, "stale-epoch rejection must gate rounds");
                    assert_eq!(client as usize, from);
                    assert!(per_client[from].is_none(), "dedup failed: client {from} twice");
                    per_client[from] = Some(values.values);
                }
                other => panic!("server: unexpected {other:?}"),
            }
        }
        let updates: Vec<Vec<f32>> =
            per_client.into_iter().map(|u| u.unwrap()).collect();
        let loss = pseudo_loss(&global, &updates);
        let mut acc = vec![0.0f32; PARAMS];
        for update in &updates {
            for (a, v) in acc.iter_mut().zip(update) {
                *a += v / CLIENTS as f32;
            }
        }
        global = acc;
        records.push(record_of(round, round_bytes, loss));
    }

    // Server-side TIME_WAIT: keep re-acking clients' late retransmissions
    // until every client thread has actually finished its run.
    while handles.iter().any(|h| !h.is_finished()) {
        srv.linger(Duration::from_millis(25));
    }
    let mut clients_rel = ReliabilityStats::default();
    for h in handles {
        clients_rel = clients_rel.merged(&h.join().unwrap());
    }
    WireRun { records, global, server_rel: srv.stats(), clients_rel, model_payload, update_payload }
}
