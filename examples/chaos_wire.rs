//! FedAvg over a real (in-process) wire with injected faults: the chaos
//! bus drops, corrupts, duplicates, reorders and delays frames while the
//! reliable session protocol repairs the damage. The run prints one row
//! per fault plan with the emulator's `RoundRecord` columns next to the
//! session's `ReliabilityStats`, demonstrating the parity guarantee: the
//! model (and every model-derived column) is bit-identical across plans —
//! only the repair-cost columns move.
//!
//! ```text
//! cargo run --release --example chaos_wire
//! ```

use fedsu_repro::metrics::Table;
use fedsu_repro::netsim::{FaultConfig, FaultPlan};
use fedsu_repro::transport::{
    Chaos, ChaosStats, ClientSession, LocalBus, Message, ReliabilityStats,
    ServerSession, SessionConfig, SparseValues,
};
use std::time::Duration;

const PARAMS: usize = 64;
const CLIENTS: usize = 4;
const ROUNDS: usize = 8;
const RECV_TIMEOUT: Duration = Duration::from_secs(20);
/// End-of-run grace, longer than the largest inter-retransmit gap
/// (`ack_timeout + backoff × max_retries`).
const LINGER: Duration = Duration::from_millis(250);

fn session_cfg() -> SessionConfig {
    SessionConfig {
        max_retries: 16,
        ack_timeout: Duration::from_millis(15),
        backoff: Duration::from_millis(5),
    }
}

/// Deterministic fake "local training": the same rule the transport
/// parity tests use, so the bit-for-bit claim is directly comparable.
fn local_update(round: usize, client: usize, j: usize) -> f32 {
    ((round * 31 + client * 7 + j) % 13) as f32 * 0.01 - 0.06
}

struct Outcome {
    global: Vec<f32>,
    bytes: u64,
    rel: ReliabilityStats,
    chaos: ChaosStats,
}

fn run(faults: &FaultConfig) -> Outcome {
    let (server, clients) = LocalBus::star(CLIENTS);
    let chaos_server = Chaos::server(server, FaultPlan::new(*faults));
    let mut srv = ServerSession::new(chaos_server, session_cfg());

    let handles: Vec<_> = clients
        .into_iter()
        .map(|endpoint| {
            let id = endpoint.id();
            let chaos = Chaos::client(endpoint, FaultPlan::new(*faults), id);
            std::thread::spawn(move || -> Result<(ReliabilityStats, ChaosStats), String> {
                let mut session = ClientSession::new(chaos, id as u32, session_cfg());
                for round in 0..ROUNDS {
                    session.begin_epoch(round as u32);
                    let trained = match session
                        .recv_reliable(RECV_TIMEOUT)
                        .map_err(|e| format!("client {id} recv: {e}"))?
                    {
                        Message::Model { values, .. } => values
                            .values
                            .iter()
                            .enumerate()
                            .map(|(j, v)| v + local_update(round, id, j))
                            .collect::<Vec<f32>>(),
                        other => return Err(format!("client {id}: unexpected {other:?}")),
                    };
                    session
                        .send_reliable(&Message::Update {
                            round: round as u32,
                            client: id as u32,
                            values: SparseValues::dense(trained),
                        })
                        .map_err(|e| format!("client {id} send: {e}"))?;
                }
                // TIME_WAIT: service the server's late retransmissions.
                session.linger(LINGER);
                Ok((session.stats(), session.link().stats()))
            })
        })
        .collect();

    let mut global = vec![0.0f32; PARAMS];
    let mut bytes = 0u64;
    for round in 0..ROUNDS {
        srv.begin_epoch(round as u32);
        let model =
            Message::Model { round: round as u32, values: SparseValues::dense(global.clone()) };
        let broadcast = u64::try_from(model.encode().len() * CLIENTS).unwrap_or(u64::MAX);
        bytes = bytes.saturating_add(broadcast);
        srv.broadcast_reliable(&model).expect("broadcast within the retry budget");
        let mut per_client: Vec<Option<Vec<f32>>> = vec![None; CLIENTS];
        while per_client.iter().any(Option::is_none) {
            let (from, msg) =
                srv.recv_reliable(RECV_TIMEOUT).expect("collection within the retry budget");
            bytes = bytes.saturating_add(u64::try_from(msg.encode().len()).unwrap_or(u64::MAX));
            match msg {
                Message::Update { values, .. } => per_client[from] = Some(values.values),
                other => panic!("server: unexpected {other:?}"),
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

    while handles.iter().any(|h| !h.is_finished()) {
        srv.linger(Duration::from_millis(25));
    }
    let mut rel = srv.stats();
    let mut chaos = srv.link().stats();
    for h in handles {
        let (r, c) = h.join().expect("client thread").expect("client run");
        rel = rel.merged(&r);
        chaos = chaos.merged(&c);
    }
    Outcome { global, bytes, rel, chaos }
}

fn main() {
    println!(
        "FedAvg over the chaos wire: {CLIENTS} clients x {ROUNDS} rounds, {PARAMS} params\n"
    );
    let plans: [(&str, FaultConfig); 4] = [
        ("clean", FaultConfig::default()),
        (
            "lossy",
            FaultConfig {
                wire_drop_prob: 0.2,
                seed: 11,
                ..FaultConfig::default()
            },
        ),
        (
            "noisy",
            FaultConfig {
                wire_corrupt_prob: 0.15,
                wire_duplicate_prob: 0.1,
                seed: 12,
                ..FaultConfig::default()
            },
        ),
        (
            "hostile",
            FaultConfig {
                wire_drop_prob: 0.25,
                wire_corrupt_prob: 0.1,
                wire_duplicate_prob: 0.1,
                wire_reorder_prob: 0.1,
                wire_delay_prob: 0.05,
                seed: 13,
                ..FaultConfig::default()
            },
        ),
    ];

    // RoundRecord-style columns (bytes, participants) next to the wire's
    // repair columns (retransmitted bytes, drops, corruptions, dups).
    let mut table = Table::new(&[
        "Plan",
        "Model[0]",
        "Bytes",
        "Participants",
        "Retx bytes",
        "Dropped",
        "Corrupted",
        "Duplicated",
        "Delayed",
    ]);
    let mut reference: Option<Vec<u32>> = None;
    for (name, faults) in &plans {
        let outcome = run(faults);
        let bits: Vec<u32> = outcome.global.iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(clean) => assert_eq!(
                &bits, clean,
                "plan {name} changed the model — the session protocol must hide wire faults"
            ),
        }
        table.row(&[
            name,
            &format!("{:+.6}", outcome.global[0]),
            &format!("{}", outcome.bytes),
            &format!("{}", CLIENTS * ROUNDS),
            &format!("{}", outcome.rel.retransmitted_bytes),
            &format!("{}", outcome.chaos.drops),
            &format!("{}", outcome.chaos.corruptions),
            &format!("{}", outcome.chaos.duplicates),
            &format!("{}", outcome.chaos.delays),
        ]);
        eprintln!("finished plan {name}");
    }
    println!("{table}");
    println!("Every plan produced a bit-identical model: payload columns match the");
    println!("emulator's RoundRecord accounting, and only the repair-cost columns");
    println!("(retransmitted bytes, chaos counters) respond to the wire faults.");
}
