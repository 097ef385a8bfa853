//! Typed FL messages and their wire encoding.
//!
//! The protocol mirrors Algorithm 1's interaction pattern: the server
//! broadcasts the latest (masked) model each round, clients push sparse or
//! quantized value updates and accumulated error reports when a check is
//! due, and a joiner is sent the replicated manager state. All payloads are
//! length-prefixed little-endian.

use crate::cursor::{
    take, take_f32s, take_len, take_u16, take_u32, take_u32s, take_u8, Truncated,
};
use std::fmt;

const MAGIC: u16 = 0xF5ED;
const VERSION: u8 = 1;

/// Parameter values for a subset of scalars.
///
/// When both sides already know the mask (FedSU's replicated masks), only
/// the values travel; an explicit index list is available for protocols
/// without shared masks.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseValues {
    /// Explicit scalar indices, or `None` when the receiver derives them
    /// from shared state (mask-implied).
    pub indices: Option<Vec<u32>>,
    /// The values, in index order.
    pub values: Vec<f32>,
}

/// Writes a `u32` length or count prefix, the write side of `take_len`. A
/// length past `u32::MAX` saturates instead of wrapping, so the frame fails
/// to decode rather than decoding wrong.
fn put_len(buf: &mut Vec<u8>, len: usize) {
    buf.extend_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
}

impl SparseValues {
    /// Values for every scalar (a dense update).
    pub fn dense(values: Vec<f32>) -> Self {
        SparseValues { indices: None, values }
    }

    /// Values for an explicit index set.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn sparse(indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(indices.len(), values.len(), "indices/values length mismatch");
        SparseValues { indices: Some(indices), values }
    }

    /// Number of scalar values carried.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values are carried.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match &self.indices {
            None => buf.push(0),
            Some(idx) => {
                buf.push(1);
                put_len(buf, idx.len());
                for &i in idx {
                    buf.extend_from_slice(&i.to_le_bytes());
                }
            }
        }
        put_len(buf, self.values.len());
        for &v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_from(data: &mut &[u8]) -> Result<Self, DecodeError> {
        let indices = match take_u8(data)? {
            0 => None,
            1 => {
                let n = take_len(data)?;
                Some(take_u32s(data, n)?)
            }
            other => return Err(DecodeError::BadTag(other)),
        };
        let n = take_len(data)?;
        let values = take_f32s(data, n)?;
        if indices.as_ref().is_some_and(|idx| idx.len() != values.len()) {
            return Err(DecodeError::Inconsistent("index/value counts differ"));
        }
        Ok(SparseValues { indices, values })
    }
}

/// A quantized update payload: one sign+level byte per scalar plus one
/// `f32` scale per fixed-size chunk.
///
/// This is the frame QSGD-style strategies put on the wire; the receiver
/// dequantizes with the strategy's own code-to-value rule. Keeping codes as
/// raw bytes (rather than widening to `f32` at the sender) is the whole
/// point: the framed byte count equals what the byte-accounting emulation
/// charges for a quantized upload.
///
/// Code format: bit 7 is the sign (1 = negative), bits 0–6 the level, so
/// `levels` must be ≤ 126 for `level ≤ levels + 1` to fit.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedValues {
    /// Quantization levels `s` the encoder used (≤ 126).
    pub levels: u32,
    /// Scalars per chunk; the final chunk may be shorter. Zero only when
    /// no codes are carried.
    pub chunk_len: u32,
    /// Per-chunk scale factors, in chunk order.
    pub scales: Vec<f32>,
    /// Sign+level codes, chunks concatenated.
    pub codes: Vec<u8>,
}

impl QuantizedValues {
    /// Assembles a quantized payload.
    ///
    /// # Panics
    ///
    /// Panics if the scale count does not cover the codes (`scales.len()`
    /// must equal `codes.len()` divided by `chunk_len`, rounded up), or if
    /// `levels > 126`.
    pub fn new(levels: u32, chunk_len: u32, scales: Vec<f32>, codes: Vec<u8>) -> Self {
        assert!(levels <= 126, "levels {levels} do not fit 7-bit codes");
        let expected = expected_chunks(codes.len(), chunk_len);
        assert_eq!(
            Some(scales.len()),
            expected,
            "scale count mismatch: {} scales for {} codes in chunks of {}",
            scales.len(),
            codes.len(),
            chunk_len
        );
        QuantizedValues { levels, chunk_len, scales, codes }
    }

    /// Number of quantized scalars carried.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether no scalars are carried.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.levels.to_le_bytes());
        buf.extend_from_slice(&self.chunk_len.to_le_bytes());
        put_len(buf, self.scales.len());
        for &s in &self.scales {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        put_len(buf, self.codes.len());
        buf.extend_from_slice(&self.codes);
    }

    fn decode_from(data: &mut &[u8]) -> Result<Self, DecodeError> {
        let levels = take_u32(data)?;
        if levels > 126 {
            return Err(DecodeError::Inconsistent("quantization levels exceed 7-bit codes"));
        }
        let chunk_len = take_u32(data)?;
        let n_scales = take_len(data)?;
        let scales = take_f32s(data, n_scales)?;
        let n_codes = take_len(data)?;
        let codes = take(data, n_codes)?.to_vec();
        if expected_chunks(codes.len(), chunk_len) != Some(scales.len()) {
            return Err(DecodeError::Inconsistent("scale count does not cover the codes"));
        }
        if codes.iter().any(|&c| u32::from(c & 0x7f) > levels.saturating_add(1)) {
            return Err(DecodeError::Inconsistent("code level exceeds declared levels"));
        }
        Ok(QuantizedValues { levels, chunk_len, scales, codes })
    }
}

/// Chunk count covering `n_codes` at `chunk_len` scalars each, or `None`
/// when `chunk_len` is zero with codes present (undefined).
fn expected_chunks(n_codes: usize, chunk_len: u32) -> Option<usize> {
    if n_codes == 0 {
        Some(0)
    } else if chunk_len == 0 {
        None
    } else {
        Some(n_codes.div_ceil(chunk_len as usize))
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → client: the (masked) model values for this round.
    Model {
        /// Round the values belong to.
        round: u32,
        /// Broadcast values.
        values: SparseValues,
    },
    /// Client → server: locally-trained values for the unmasked scalars.
    Update {
        /// Round of the update.
        round: u32,
        /// Reporting client.
        client: u32,
        /// Uploaded values.
        values: SparseValues,
    },
    /// Client → server: accumulated prediction errors for checked scalars.
    ErrorReport {
        /// Round of the report.
        round: u32,
        /// Reporting client.
        client: u32,
        /// Accumulated errors for the check set.
        errors: SparseValues,
    },
    /// Server → clients: training is over.
    Shutdown,
    /// Client → server: a quantized (QSGD-style) update — 1-byte codes plus
    /// per-chunk scales instead of full `f32` values.
    QuantizedUpdate {
        /// Round of the update.
        round: u32,
        /// Reporting client.
        client: u32,
        /// The quantized payload.
        values: QuantizedValues,
    },
}

impl Message {
    /// The message's tag byte. Tags 1, 5 and 6 are retired and must not be
    /// reused: they decode as [`DecodeError::BadTag`].
    fn tag(&self) -> u8 {
        match self {
            Message::Model { .. } => 2,
            Message::Update { .. } => 3,
            Message::ErrorReport { .. } => 4,
            Message::Shutdown => 7,
            Message::QuantizedUpdate { .. } => 8,
        }
    }

    /// Serializes the message (magic, version, tag, body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes the message into `buf`, clearing it first. Hot paths call
    /// this with a reused buffer so steady-state encoding allocates nothing
    /// once the buffer has grown to the message's working size.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(self.tag());
        match self {
            Message::Model { round, values } => {
                buf.extend_from_slice(&round.to_le_bytes());
                values.encode_into(buf);
            }
            Message::Update { round, client, values } | Message::ErrorReport { round, client, errors: values } => {
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&client.to_le_bytes());
                values.encode_into(buf);
            }
            Message::Shutdown => {}
            Message::QuantizedUpdate { round, client, values } => {
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&client.to_le_bytes());
                values.encode_into(buf);
            }
        }
    }

    /// Parses a message produced by [`Message::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, bad magic/version, or an
    /// unknown tag.
    pub fn decode(mut data: &[u8]) -> Result<Self, DecodeError> {
        let data = &mut data;
        let magic = take_u16(data)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = take_u8(data)?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        match take_u8(data)? {
            2 => {
                let round = take_u32(data)?;
                let values = SparseValues::decode_from(data)?;
                Ok(Message::Model { round, values })
            }
            3 => {
                let round = take_u32(data)?;
                let client = take_u32(data)?;
                let values = SparseValues::decode_from(data)?;
                Ok(Message::Update { round, client, values })
            }
            4 => {
                let round = take_u32(data)?;
                let client = take_u32(data)?;
                let errors = SparseValues::decode_from(data)?;
                Ok(Message::ErrorReport { round, client, errors })
            }
            7 => Ok(Message::Shutdown),
            8 => {
                let round = take_u32(data)?;
                let client = take_u32(data)?;
                let values = QuantizedValues::decode_from(data)?;
                Ok(Message::QuantizedUpdate { round, client, values })
            }
            other => Err(DecodeError::BadTag(other)),
        }
    }
}

/// Wire-decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the declared contents.
    Truncated,
    /// Magic header mismatch.
    BadMagic(u16),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown message or payload tag.
    BadTag(u8),
    /// Internally inconsistent payload.
    Inconsistent(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t}"),
            DecodeError::Inconsistent(msg) => write!(f, "inconsistent payload: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<Truncated> for DecodeError {
    fn from(_: Truncated) -> Self {
        DecodeError::Truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = msg.encode();
        assert_eq!(Message::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::Model { round: 3, values: SparseValues::dense(vec![1.0, -2.0]) });
        roundtrip(Message::Update {
            round: 9,
            client: 2,
            values: SparseValues::sparse(vec![0, 5, 9], vec![0.1, 0.2, 0.3]),
        });
        roundtrip(Message::ErrorReport {
            round: 4,
            client: 1,
            errors: SparseValues::dense(vec![]),
        });
        roundtrip(Message::Shutdown);
    }

    #[test]
    fn truncated_rejected() {
        let variants = [
            Message::Model { round: 1, values: SparseValues::dense(vec![1.0; 8]) },
            Message::Update {
                round: 9,
                client: 2,
                values: SparseValues::sparse(vec![0, 5, 9], vec![0.1, 0.2, 0.3]),
            },
            quantized_msg(),
            Message::Shutdown,
        ];
        for msg in variants {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert_eq!(
                    Message::decode(&bytes[..cut]),
                    Err(DecodeError::Truncated),
                    "{msg:?} cut at {cut}"
                );
            }
        }
        // A count no buffer can back: the byte length must fail the bounds
        // check, not wrap around it.
        let mut bytes = Message::Model { round: 1, values: SparseValues::dense(vec![]) }.encode();
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Message::decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = Message::Shutdown.encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(Message::decode(&bytes), Err(DecodeError::BadMagic(_))));
        let mut bytes = Message::Shutdown.encode();
        bytes[2] = 99;
        assert!(matches!(Message::decode(&bytes), Err(DecodeError::BadVersion(99))));
    }

    #[test]
    fn unknown_tag_rejected() {
        // 1, 5 and 6 are retired tags: a body behind them must not decode.
        for tag in [0, 1, 5, 6, 9, 200] {
            let mut bytes = Message::Shutdown.encode();
            bytes[3] = tag;
            bytes.extend_from_slice(&7u32.to_le_bytes());
            assert_eq!(Message::decode(&bytes), Err(DecodeError::BadTag(tag)));
        }
    }

    #[test]
    fn dense_update_wire_size_is_4_bytes_per_scalar_plus_header() {
        let msg = Message::Update { round: 0, client: 0, values: SparseValues::dense(vec![0.0; 100]) };
        // 4 header + 8 (round, client) + 1 tag + 4 count + 400 values.
        assert_eq!(msg.encode().len(), 4 + 8 + 1 + 4 + 400);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sparse_length_mismatch_panics() {
        SparseValues::sparse(vec![1], vec![1.0, 2.0]);
    }

    fn quantized_msg() -> Message {
        Message::QuantizedUpdate {
            round: 5,
            client: 3,
            values: QuantizedValues::new(15, 4, vec![2.5, 0.0, 1.25], vec![0x81, 3, 0, 7, 0x8F, 1, 2, 3, 9]),
        }
    }

    #[test]
    fn quantized_update_roundtrips() {
        roundtrip(quantized_msg());
        roundtrip(Message::QuantizedUpdate {
            round: 0,
            client: 0,
            values: QuantizedValues::new(1, 0, vec![], vec![]),
        });
    }

    #[test]
    fn quantized_update_wire_size_is_one_byte_per_scalar_plus_scales() {
        let msg = quantized_msg();
        // 4 header + 8 (round, client) + 12 (levels, chunk_len, scale count)
        // + 3×4 scales + 4 code count + 9 codes.
        assert_eq!(msg.encode().len(), 4 + 8 + 12 + 12 + 4 + 9);
    }

    #[test]
    fn quantized_inconsistencies_rejected() {
        let ok = quantized_msg().encode();
        // Declared levels above the 7-bit ceiling.
        let mut bad = ok.clone();
        bad.splice(12..16, 127u32.to_le_bytes());
        assert!(matches!(Message::decode(&bad), Err(DecodeError::Inconsistent(_))));
        // Zero chunk_len with codes present.
        let mut bad = ok.clone();
        bad.splice(16..20, 0u32.to_le_bytes());
        assert!(matches!(Message::decode(&bad), Err(DecodeError::Inconsistent(_))));
        // A code whose level exceeds levels + 1.
        let mut bad = ok;
        let last = bad.len() - 1;
        bad[last] = 0x80 | 17;
        assert!(matches!(Message::decode(&bad), Err(DecodeError::Inconsistent(_))));
    }

    #[test]
    #[should_panic(expected = "scale count mismatch")]
    fn quantized_scale_mismatch_panics() {
        QuantizedValues::new(15, 4, vec![1.0], vec![0; 9]);
    }
}
