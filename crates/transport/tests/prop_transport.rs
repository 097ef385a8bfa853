//! Property tests of the wire format: arbitrary messages and session
//! envelopes round-trip, and corrupted/truncated/spliced payloads never
//! panic.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_cases::{check, ends_then_draw, vec_of, Rng, StdRng};
use fedsu_transport::{
    DecodeError, Envelope, Message, QuantizedValues, SparseValues, ENVELOPE_OVERHEAD,
};

const CASES: u64 = 128;

fn any_u32(rng: &mut StdRng) -> u32 {
    rng.gen_range(0..=u32::MAX)
}

fn any_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    vec_of(rng, 0..max_len, |r| r.gen_range(0..=u8::MAX))
}

fn arb_sparse(rng: &mut StdRng) -> SparseValues {
    let values = vec_of(rng, 0..64, |r| r.gen_range(-1e6f32..1e6));
    if rng.gen() {
        SparseValues::dense(values)
    } else {
        let indices = values.iter().map(|_| rng.gen_range(0u32..10_000)).collect();
        SparseValues::sparse(indices, values)
    }
}

/// A consistent quantized payload: levels 0–126, every code's level at most
/// `levels + 1` under a random sign bit, one finite scale per `chunk_len`
/// codes, and `chunk_len` 0 only when no codes are carried.
fn arb_quantized(rng: &mut StdRng) -> QuantizedValues {
    let levels = rng.gen_range(0u32..=126);
    let codes = vec_of(rng, 0..64, |r| {
        let level = u8::try_from(r.gen_range(0..=levels + 1)).unwrap();
        if r.gen() { level | 0x80 } else { level }
    });
    let chunk_len = rng.gen_range(u32::from(!codes.is_empty())..=8);
    let chunks = if codes.is_empty() { 0 } else { codes.len().div_ceil(chunk_len as usize) };
    let scales = (0..chunks).map(|_| rng.gen_range(-1e6f32..1e6)).collect();
    QuantizedValues::new(levels, chunk_len, scales, codes)
}

fn arb_message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0u8..5) {
        0 => Message::Model { round: any_u32(rng), values: arb_sparse(rng) },
        1 => Message::Update { round: any_u32(rng), client: any_u32(rng), values: arb_sparse(rng) },
        2 => Message::ErrorReport {
            round: any_u32(rng),
            client: any_u32(rng),
            errors: arb_sparse(rng),
        },
        3 => Message::QuantizedUpdate {
            round: any_u32(rng),
            client: any_u32(rng),
            values: arb_quantized(rng),
        },
        _ => Message::Shutdown,
    }
}

fn arb_envelope(rng: &mut StdRng) -> Envelope {
    let (client, epoch, seq) = (any_u32(rng), any_u32(rng), any_u32(rng));
    let attempt = rng.gen_range(0..=u16::MAX);
    let msg = arb_message(rng);
    if rng.gen() {
        Envelope::data(client, epoch, seq, attempt, msg.encode())
    } else {
        Envelope::ack(client, epoch, seq, attempt)
    }
}

#[test]
fn any_message_roundtrips() {
    // The empty payloads by name: the length range's lower end.
    for msg in [
        Message::Model { round: 0, values: SparseValues::dense(Vec::new()) },
        Message::Update {
            round: u32::MAX,
            client: u32::MAX,
            values: SparseValues::sparse(Vec::new(), Vec::new()),
        },
        Message::QuantizedUpdate {
            round: 0,
            client: 0,
            values: QuantizedValues::new(0, 0, Vec::new(), Vec::new()),
        },
    ] {
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }
    check("any_message_roundtrips", CASES, |rng| {
        let msg = arb_message(rng);
        let bytes = msg.encode();
        let decoded = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, msg);
    });
}

#[test]
fn truncation_never_panics() {
    check("truncation_never_panics", CASES, |rng| {
        let msg = arb_message(rng);
        let bytes = msg.encode();
        for cut in ends_then_draw(rng, 0..64) {
            let cut = cut.min(bytes.len());
            // Either decodes to the message (only if nothing was cut) or errors.
            match Message::decode(&bytes[..bytes.len() - cut]) {
                Ok(decoded) => assert!(cut == 0 && decoded == msg),
                Err(_) => assert!(cut > 0),
            }
        }
    });
}

#[test]
fn bitflips_never_panic() {
    check("bitflips_never_panic", CASES, |rng| {
        let msg = arb_message(rng);
        for pos in ends_then_draw(rng, 0..64) {
            for bit in ends_then_draw(rng, 0..8) {
                let mut bytes = msg.encode();
                let len = bytes.len();
                bytes[pos % len] ^= 1 << bit;
                // Must not panic; any result (error or some decoded message) is fine.
                let _ = Message::decode(&bytes);
            }
        }
    });
}

fn garbage_is_rejected_cleanly(data: &[u8]) {
    // Random bytes essentially never carry the magic; when they do not,
    // decode must fail cleanly.
    if data.len() < 2 || data[0] != 0xED || data[1] != 0xF5 {
        match Message::decode(data) {
            Err(
                DecodeError::Truncated
                | DecodeError::BadMagic(_)
                | DecodeError::BadVersion(_)
                | DecodeError::BadTag(_)
                | DecodeError::Inconsistent(_),
            ) => {}
            Ok(_) => panic!("garbage decoded as a message"),
        }
    }
}

#[test]
fn garbage_is_rejected() {
    garbage_is_rejected_cleanly(&[]);
    garbage_is_rejected_cleanly(&[0xED]);
    check("garbage_is_rejected", CASES, |rng| garbage_is_rejected_cleanly(&any_bytes(rng, 64)));
}

#[test]
fn wire_size_formula_holds_for_dense_updates() {
    // The range `0..128` is small enough to walk whole.
    for n in 0usize..128 {
        let msg =
            Message::Update { round: 1, client: 2, values: SparseValues::dense(vec![0.5; n]) };
        assert_eq!(msg.encode().len(), 4 + 8 + 1 + 4 + 4 * n);
    }
}

#[test]
fn any_envelope_roundtrips() {
    check("any_envelope_roundtrips", CASES, |rng| {
        let env = arb_envelope(rng);
        let bytes = env.encode();
        assert_eq!(bytes.len(), ENVELOPE_OVERHEAD + env.payload.len());
        assert_eq!(Envelope::decode(&bytes).unwrap(), env);
    });
}

#[test]
fn envelope_truncation_never_panics() {
    check("envelope_truncation_never_panics", CASES, |rng| {
        let env = arb_envelope(rng);
        let bytes = env.encode();
        for cut in ends_then_draw(rng, 0..64) {
            let cut = cut.min(bytes.len());
            match Envelope::decode(&bytes[..bytes.len() - cut]) {
                Ok(decoded) => assert!(cut == 0 && decoded == env),
                Err(_) => assert!(cut > 0),
            }
            // The chaos-keying peek must also survive any prefix.
            let _ = Envelope::peek_header(&bytes[..bytes.len() - cut]);
        }
    });
}

#[test]
fn envelope_bitflips_are_always_detected() {
    check("envelope_bitflips_are_always_detected", CASES, |rng| {
        let env = arb_envelope(rng);
        for pos in ends_then_draw(rng, 0..4096) {
            for bit in ends_then_draw(rng, 0..8) {
                let mut bytes = env.encode();
                let len = bytes.len();
                bytes[pos % len] ^= 1 << bit;
                // A single flipped bit can never silently decode back to the
                // original: either the structure breaks or the checksum catches it.
                if let Ok(decoded) = Envelope::decode(&bytes) {
                    assert_ne!(decoded, env);
                }
            }
        }
    });
}

#[test]
fn envelope_splices_never_panic_and_never_half_decode() {
    check("envelope_splices_never_panic_and_never_half_decode", CASES, |rng| {
        let (a, b) = (arb_envelope(rng), arb_envelope(rng));
        // Two frames glued together: strict framing must reject the splice
        // rather than decode frame `a` and silently drop frame `b`.
        let mut spliced = a.encode();
        spliced.extend_from_slice(&b.encode());
        assert!(Envelope::decode(&spliced).is_err());
        // Any resegmentation of the splice (a torn read) must not panic.
        for split in ends_then_draw(rng, 0..4096) {
            let split = split % (spliced.len() + 1);
            let _ = Envelope::decode(&spliced[..split]);
            let _ = Envelope::decode(&spliced[split..]);
            let _ = Envelope::peek_header(&spliced[split..]);
        }
    });
}

#[test]
fn envelope_garbage_never_panics() {
    let _ = (Envelope::decode(&[]), Envelope::peek_header(&[]));
    check("envelope_garbage_never_panics", CASES, |rng| {
        let data = any_bytes(rng, 128);
        let _ = Envelope::decode(&data);
        let _ = Envelope::peek_header(&data);
    });
}
