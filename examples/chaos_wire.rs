//! FedAvg over a real (in-process) wire with injected faults: the chaos
//! bus drops, corrupts, duplicates, reorders and delays frames while the
//! reliable session protocol repairs the damage. `Star` runs the rounds;
//! this file holds only the plans, the FedAvg step and fold, and the table:
//! one row per fault plan, payload columns next to the session's repair
//! counters. The model (and every payload column) is bit-identical across
//! plans — only the repair-cost columns move.
//!
//! ```text
//! cargo run --release --example chaos_wire
//! ```

use fedsu_repro::metrics::Table;
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::transport::{Message, SparseValues, Star, StarServer};

const PARAMS: usize = 64;
const CLIENTS: usize = 4;
const ROUNDS: u32 = 8;

/// Deterministic fake "local training": the same rule the transport
/// parity tests use, so the bit-for-bit claim is directly comparable.
fn local_update(round: u32, client: u32, j: usize) -> f32 {
    ((round as usize * 31 + client as usize * 7 + j) % 13) as f32 * 0.01 - 0.06
}

/// FedAvg's server, counting the payload bytes that cross the wire.
struct FedAvg {
    global: Vec<f32>,
    bytes: u64,
}

impl StarServer for FedAvg {
    fn broadcast(&mut self, round: u32) -> Message {
        let model = Message::Model { round, values: SparseValues::dense(self.global.clone()) };
        self.bytes += (model.encode().len() * CLIENTS) as u64;
        model
    }

    fn fold(&mut self, _round: u32, uploads: Vec<Message>) {
        // The driver hands the uploads over in client order, so the fold
        // is bit-for-bit reproducible.
        let mut acc = vec![0.0f32; PARAMS];
        for msg in uploads {
            self.bytes += msg.encode().len() as u64;
            let Message::Update { values, .. } = msg else { panic!("server: unexpected {msg:?}") };
            for (a, v) in acc.iter_mut().zip(&values.values) {
                *a += v / CLIENTS as f32;
            }
        }
        self.global = acc;
    }
}

/// FedAvg's client step: the received model plus this client's update.
fn train(id: u32, round: u32, msg: Message) -> Result<Message, String> {
    let Message::Model { values, .. } = msg else { return Err(format!("unexpected {msg:?}")) };
    let trained = values.values.iter().enumerate().map(|(j, v)| v + local_update(round, id, j)).collect();
    Ok(Message::Update { round, client: id, values: SparseValues::dense(trained) })
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

    // Payload columns (bytes, uploads that arrived) next to the wire's
    // repair columns (retransmitted bytes, drops, corruptions, dups).
    let mut table = Table::new(&[
        "Plan",
        "Model[0]",
        "Bytes",
        "Uploads arrived",
        "Retx bytes",
        "Dropped",
        "Corrupted",
        "Duplicated",
        "Delayed",
    ]);
    let mut reference: Option<Vec<u32>> = None;
    for (name, faults) in &plans {
        let mut server = FedAvg { global: vec![0.0; PARAMS], bytes: 0 };
        let wire = Star::new(CLIENTS, ROUNDS, *faults)
            .run(&mut server, |id| move |round, msg| train(id, round, msg))
            .expect("every plan stays within the retry budget");
        let rel = wire.server.merged(&wire.clients);
        let chaos = wire.server_chaos.merged(&wire.clients_chaos);
        let bits: Vec<u32> = server.global.iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(clean) => assert_eq!(
                &bits, clean,
                "plan {name} changed the model — the session protocol must hide wire faults"
            ),
        }
        table.row(&[
            name,
            &format!("{:+.6}", server.global[0]),
            &format!("{}", server.bytes),
            &format!("{}", wire.server.data_frames_delivered),
            &format!("{}", rel.retransmitted_bytes),
            &format!("{}", chaos.drops),
            &format!("{}", chaos.corruptions),
            &format!("{}", chaos.duplicates),
            &format!("{}", chaos.delays),
        ]);
        eprintln!("finished plan {name}");
    }
    println!("{table}");
    println!("Every plan produced a bit-identical model and the same payload columns;");
    println!("only the repair-cost columns (retransmitted bytes, chaos counters) respond");
    println!("to the wire faults. tests/wire_parity.rs checks the payload accounting");
    println!("against the emulator's RoundRecords.");
}
