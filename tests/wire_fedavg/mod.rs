//! The wire FedAvg leg shared by `wire_parity.rs` (which checks its
//! records against the emulation) and `alloc_budget.rs` (which counts what a
//! retransmission allocates): sessioned FedAvg over (chaos-decorated)
//! endpoints, records filled from observed traffic.

// Each test binary that includes this module uses a different subset of it.
#![allow(dead_code)]

use fedsu_repro::fl::RoundRecord;
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::transport::{Message, ReliabilityStats, SparseValues, Star, StarServer};

pub const PARAMS: usize = 16;
pub const CLIENTS: usize = 3;
pub const ROUNDS: usize = 4;

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

/// The fold both legs share, in fixed client order: the pseudo loss
/// against `global`, which then becomes the mean of `updates`.
pub fn fedavg(global: &mut Vec<f32>, updates: &[Vec<f32>]) -> f32 {
    let loss = pseudo_loss(global, updates);
    let mut acc = vec![0.0f32; PARAMS];
    for update in updates {
        for (a, v) in acc.iter_mut().zip(update) {
            *a += v / CLIENTS as f32;
        }
    }
    *global = acc;
    loss
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

/// FedAvg's server, filling a record per round from the payloads it sees;
/// the session counters are filled in once the run ends.
#[derive(Default)]
pub struct WireRun {
    pub records: Vec<RoundRecord>,
    pub global: Vec<f32>,
    pub server_rel: ReliabilityStats,
    pub clients_rel: ReliabilityStats,
    pub model_payload: u64,
    pub update_payload: u64,
}

impl StarServer for WireRun {
    fn broadcast(&mut self, round: u32) -> Message {
        let model = Message::Model { round, values: SparseValues::dense(self.global.clone()) };
        self.model_payload = model.encode().len() as u64;
        model
    }

    fn fold(&mut self, round: u32, uploads: Vec<Message>) {
        let mut round_bytes = self.model_payload * CLIENTS as u64;
        let updates: Vec<Vec<f32>> = uploads
            .into_iter()
            .enumerate()
            .map(|(from, msg)| {
                // Payload bytes as they traveled: re-encoding the delivered
                // message reproduces the exact frame payload.
                self.update_payload = msg.encode().len() as u64;
                round_bytes += self.update_payload;
                match msg {
                    Message::Update { round: r, client, values } => {
                        assert_eq!(r, round, "stale-epoch rejection must gate rounds");
                        assert_eq!(client as usize, from);
                        values.values
                    }
                    other => panic!("server: unexpected {other:?}"),
                }
            })
            .collect();
        let loss = fedavg(&mut self.global, &updates);
        self.records.push(record_of(round as usize, round_bytes, loss));
    }
}

/// FedAvg's client step: the received model plus this client's update.
fn train(id: u32, round: u32, msg: Message) -> Result<Message, String> {
    let Message::Model { round: r, values } = msg else { return Err(format!("unexpected {msg:?}")) };
    assert_eq!(r, round);
    let trained = values.values.iter().enumerate().map(|(j, v)| v + local_update(round as usize, id as usize, j));
    Ok(Message::Update { round, client: id, values: SparseValues::dense(trained.collect()) })
}

/// Sessioned FedAvg over (chaos-decorated) endpoints, records filled from
/// observed traffic.
pub fn wire_leg(faults: &FaultConfig) -> WireRun {
    let mut server = WireRun { global: vec![0.0; PARAMS], ..WireRun::default() };
    let run = Star::new(CLIENTS, ROUNDS as u32, *faults)
        .run(&mut server, |id| move |round, msg| train(id, round, msg))
        .unwrap();
    WireRun { server_rel: run.server, clients_rel: run.clients, ..server }
}
