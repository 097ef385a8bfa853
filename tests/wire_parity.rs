//! Emulation ↔ wire parity: the headline guarantee of the fault-tolerant
//! transport stack.
//!
//! Two legs compute per-round [`RoundRecord`]s for the same deterministic
//! FedAvg workload:
//!
//! * the **wire leg** actually runs it — threads, encoded frames, the
//!   reliable session protocol, optionally the chaos bus — and fills the
//!   records from observed traffic;
//! * the **analytic leg** computes the same quantities the way the
//!   `fedsu-fl` emulation does (payload-byte formulas, fixed-order
//!   aggregation), without any wire.
//!
//! Contract: under a zero-fault plan the two record streams are equal
//! bit-for-bit; under a lossy plan within the retry budget the wire leg
//! still completes every round with no lost or double-counted update, its
//! records still match (retransmission overhead is accounted separately,
//! at run granularity, because client-side retries are not attributable to
//! a round from the server), and the session layer's
//! `retransmitted_bytes` obeys the same `payload × (attempts − 1)` rule as
//! `fedsu_fl::retransmitted_bytes`.
//!
//! Byte accounting follows the emulation's semantics: *payload* (encoded
//! `Message`) bytes, not envelope framing or acks.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

mod wire_fedavg;

use fedsu_repro::fl::{retransmitted_bytes, RoundRecord, BYTES_PER_SCALAR};
use fedsu_repro::netsim::FaultConfig;
use fedsu_repro::transport::{Message, SparseValues, Star, StarServer};
use wire_fedavg::{fedavg, local_update, lossy_faults, record_of, wire_leg, CLIENTS, PARAMS, ROUNDS};

/// The analytic leg: the same records computed the emulation's way — byte
/// formulas from scalar counts, fixed-order aggregation, no wire.
fn analytic_leg() -> (Vec<RoundRecord>, Vec<f32>) {
    // Message wire sizes (see fedsu-transport): Model = magic+ver+tag (4)
    // + round (4) + payload tag (1) + count (4) + scalars; Update adds a
    // client id (4). Scalars cost BYTES_PER_SCALAR, as the fl runtime
    // assumes.
    let scalar_bytes = BYTES_PER_SCALAR * PARAMS as u64;
    let model_payload = 4 + 4 + 1 + 4 + scalar_bytes;
    let update_payload = 4 + 4 + 4 + 1 + 4 + scalar_bytes;
    let mut records = Vec::with_capacity(ROUNDS);
    let mut global = vec![0.0f32; PARAMS];
    for round in 0..ROUNDS {
        let updates: Vec<Vec<f32>> = (0..CLIENTS)
            .map(|client| {
                global
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v + local_update(round, client, j))
                    .collect()
            })
            .collect();
        let loss = fedavg(&mut global, &updates);
        let bytes = (model_payload + update_payload) * CLIENTS as u64;
        records.push(record_of(round, bytes, loss));
    }
    (records, global)
}

#[test]
fn zero_fault_wire_records_match_the_emulation_bit_for_bit() {
    let wire = wire_leg(&FaultConfig::default());
    let (analytic_records, analytic_global) = analytic_leg();
    assert_eq!(wire.records, analytic_records, "records must agree field-for-field");
    assert_eq!(
        wire.global.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        analytic_global.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the aggregated model must be bit-identical"
    );
    // The analytic byte formulas really are the measured payload sizes.
    assert_eq!(wire.model_payload, 4 + 4 + 1 + 4 + BYTES_PER_SCALAR * PARAMS as u64);
    assert_eq!(wire.update_payload, 4 + 4 + 4 + 1 + 4 + BYTES_PER_SCALAR * PARAMS as u64);
    // And a clean wire retransmits nothing, so the two accountings agree
    // on zero.
    let rel = wire.server_rel.merged(&wire.clients_rel);
    assert_eq!(rel.retransmits, 0);
    assert_eq!(rel.retransmitted_bytes, 0);
}

#[test]
fn lossy_wire_still_matches_and_retransmission_accounting_is_shared() {
    let clean = wire_leg(&FaultConfig::default());
    let lossy = wire_leg(&lossy_faults());

    // Exactly-once under faults: records and model identical to the clean
    // wire run (which test 1 pins to the emulation).
    assert_eq!(lossy.records, clean.records, "faults within budget must be invisible in records");
    assert_eq!(
        lossy.global.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        clean.global.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );

    // The plan really did damage, and the overhead accounting matches the
    // fl-side rule payload × (attempts − 1): every client data frame
    // carries the same update payload, every server data frame the same
    // model payload, so the session totals must be exact multiples.
    assert!(lossy.clients_rel.retransmits > 0, "p=0.25 drops must force retries");
    assert_eq!(
        lossy.clients_rel.retransmitted_bytes,
        lossy.clients_rel.retransmits * lossy.update_payload,
        "client retransmission accounting must count exact payload bytes"
    );
    assert_eq!(
        lossy.server_rel.retransmitted_bytes,
        lossy.server_rel.retransmits * lossy.model_payload,
        "server retransmission accounting must count exact payload bytes"
    );
    // Spot-check the shared formula itself: one payload retried to the
    // k-th attempt contributes payload × (k − 1), the same quantity
    // RoundRecord::retransmitted_bytes accumulates in the emulation.
    for attempts in 1..=4u32 {
        assert_eq!(
            retransmitted_bytes(lossy.update_payload, attempts),
            u64::from(attempts - 1) * lossy.update_payload
        );
    }
}

// ---------------------------------------------------------------------------
// QSGD quantized-frame parity: the tag-8 `QuantizedUpdate` frame carries one
// byte per scalar plus a per-chunk scale, so the bytes framed on the bus are
// exactly what a byte-accounting emulation would charge — and decoding +
// dequantizing on the server reproduces the in-process strategy's arithmetic
// bit-for-bit (same RNG draws, same `((scale·sign)·level)/s` chain, same
// mean-then-apply aggregation order).
// ---------------------------------------------------------------------------

use fedsu_repro::fl::SyncStrategy;
use fedsu_repro::strategies::Qsgd;
use fedsu_repro::transport::QuantizedValues;

/// Deterministic per-round client drift; scalar 3 lands on `-0.0` to pin the
/// sign-bit encoding.
fn q_update(round: usize, j: usize) -> f32 {
    if j == 3 {
        -0.0
    } else {
        ((round * 17 + j * 5) % 11) as f32 * 0.03 - 0.15
    }
}

/// Emulated leg: the in-process `Qsgd` strategy (quantization inside
/// `aggregate`), recording the global after every round.
fn qsgd_emulated_globals() -> Vec<Vec<f32>> {
    let mut strat = Qsgd::new();
    let mut global = vec![0.0f32; PARAMS];
    let mut globals = Vec::with_capacity(ROUNDS);
    let mut uploads = Vec::new();
    for round in 0..ROUNDS {
        let locals: Vec<Vec<f32>> =
            vec![global.iter().enumerate().map(|(j, g)| g + q_update(round, j)).collect()];
        strat.prepare_uploads_into(round, &locals, &global, &mut uploads);
        strat.aggregate(round, &locals, &[0], &[true], &mut global);
        globals.push(global.clone());
    }
    globals
}

/// The QSGD wire leg's server: decodes, dequantizes, and applies the same
/// one-client mean chain the emulated aggregate uses, recording the global
/// after every round.
#[derive(Default)]
struct QsgdServer {
    global: Vec<f32>,
    globals: Vec<Vec<f32>>,
    payload: u64,
    deq: Vec<f32>,
}

impl StarServer for QsgdServer {
    fn broadcast(&mut self, round: u32) -> Message {
        Message::Model { round, values: SparseValues::dense(self.global.clone()) }
    }

    fn fold(&mut self, round: u32, uploads: Vec<Message>) {
        let [msg] = <[Message; 1]>::try_from(uploads).unwrap();
        self.payload = msg.encode().len() as u64;
        match msg {
            Message::QuantizedUpdate { round: r, client: 0, values } => {
                assert_eq!(r, round);
                assert_eq!(values.levels, Qsgd::LEVELS);
                assert_eq!(values.scales.len(), 1);
                Qsgd::dequantize_codes_into(values.levels, values.scales[0], &values.codes, &mut self.deq);
                // One selected client: mean_q = 0 + 1·q, then global += mean_q
                // (the exact chain `aggregate` runs; `0 + 1·(-0.0)` is `+0.0`,
                // so the intermediate matters for bit-parity).
                for (g, &d) in self.global.iter_mut().zip(&self.deq) {
                    let mean = 0.0f32 + 1.0 * d;
                    *g += mean;
                }
            }
            other => panic!("server: unexpected {other:?}"),
        }
        self.globals.push(self.global.clone());
    }
}

/// Wire leg: the client quantizes to wire codes, frames them as
/// `Message::QuantizedUpdate`, and pushes them through the reliable session
/// over the (zero-fault) chaos bus to [`QsgdServer`].
fn qsgd_wire_leg() -> QsgdServer {
    let mut server = QsgdServer { global: vec![0.0; PARAMS], ..QsgdServer::default() };
    Star::new(1, ROUNDS as u32, FaultConfig::default())
        .run(&mut server, |_| {
            let mut encoder = Qsgd::new();
            let mut codes = Vec::new();
            move |round, msg| {
                let Message::Model { round: r, values } = msg else {
                    return Err(format!("unexpected {msg:?}"));
                };
                assert_eq!(r, round);
                let global = values.values;
                // Same expressions as the emulated leg: local = g + drift,
                // update = local - g (NOT just the drift — fp rounding differs).
                let local: Vec<f32> =
                    global.iter().enumerate().map(|(j, g)| g + q_update(round as usize, j)).collect();
                let update: Vec<f32> = local.iter().zip(&global).map(|(l, g)| l - g).collect();
                let scale = encoder.quantize_to_codes(&update, &mut codes).unwrap();
                Ok(Message::QuantizedUpdate {
                    round,
                    client: 0,
                    values: QuantizedValues::new(Qsgd::LEVELS, PARAMS as u32, vec![scale], codes.clone()),
                })
            }
        })
        .unwrap();
    server
}

#[test]
fn qsgd_codes_on_the_bus_reproduce_the_emulated_strategy_bit_for_bit() {
    let QsgdServer { globals: wire, payload, .. } = qsgd_wire_leg();
    let emulated = qsgd_emulated_globals();
    assert_eq!(wire.len(), emulated.len());
    for (round, (w, e)) in wire.iter().zip(&emulated).enumerate() {
        for (j, (a, b)) in w.iter().zip(e).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "round {round} scalar {j}: wire {a} vs emulated {b}"
            );
        }
    }
    // Byte accounting: the framed payload is exactly header(4) + ids(8) +
    // levels/chunk_len/scale-count(12) + one scale(4) + code count(4) + one
    // code byte per scalar — and is smaller than the dense f32 frame.
    assert_eq!(payload as usize, 4 + 8 + 12 + 4 + 4 + PARAMS);
    let dense =
        Message::Update { round: 0, client: 0, values: SparseValues::dense(vec![0.0; PARAMS]) };
    assert!((payload as usize) < dense.encode().len());
}
