//! The replicated-state snapshot a newly-joining client downloads
//! (Sec. V, "Handling system dynamicity"): besides the latest model, a
//! joiner needs the predictability mask and the no-checking bookkeeping so
//! its local `FedSU_Manager` replica makes the same decisions as everyone
//! else's.
//!
//! The snapshot has a compact little-endian wire encoding so the runtime
//! can account for its download cost exactly.

use crate::diagnosis::EmaPair;
use std::fmt;

/// Magic header guarding the wire format.
const MAGIC: u32 = 0xFED5_0001;

/// Decoding errors for [`JoinState::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStateError {
    /// The buffer is shorter than the declared contents.
    Truncated,
    /// The magic header did not match (wrong or corrupt payload).
    BadMagic(u32),
}

impl fmt::Display for JoinStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStateError::Truncated => write!(f, "join state payload truncated"),
            JoinStateError::BadMagic(m) => write!(f, "bad join state magic {m:#x}"),
        }
    }
}

impl std::error::Error for JoinStateError {}

/// Everything a joining client needs to replicate the FedSU manager state.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinState {
    /// Predictability mask.
    pub predictable: Vec<bool>,
    /// Profiled per-round update for speculative scalars.
    pub slope: Vec<f32>,
    /// Current no-checking period length per scalar.
    pub no_check_len: Vec<u16>,
    /// Rounds remaining in the current no-checking period.
    pub no_check_remaining: Vec<u16>,
    /// Last observed global update per scalar.
    pub prev_update: Vec<f32>,
    /// Second-order EMA pair per scalar.
    pub ema: Vec<EmaPair>,
    /// Update observations per scalar (diagnosis warmup counter).
    pub obs: Vec<u16>,
    /// Rounds the donor manager has seen.
    pub rounds_seen: u64,
}

impl JoinState {
    /// Number of scalar parameters covered.
    pub fn len(&self) -> usize {
        self.predictable.len()
    }

    /// Whether the snapshot covers zero scalars.
    pub fn is_empty(&self) -> bool {
        self.predictable.is_empty()
    }

    /// Serializes to the compact wire format.
    ///
    /// Layout: magic `u32` | count `u32` | rounds_seen `u64` | bit-packed
    /// mask | per-scalar `slope, prev_update, ema.signed, ema.magnitude`
    /// (f32) | `no_check_len, no_check_remaining, obs` (u16).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.predictable.len();
        let mut buf = Vec::with_capacity(16 + n.div_ceil(8) + n * (16 + 6));
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&u32::try_from(n).unwrap_or(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&self.rounds_seen.to_le_bytes());
        // Bit-packed predictability mask.
        let mut byte = 0u8;
        for (i, &p) in self.predictable.iter().enumerate() {
            if p {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                buf.push(byte);
                byte = 0;
            }
        }
        if !n.is_multiple_of(8) {
            buf.push(byte);
        }
        for ((slope, prev_update), ema) in self.slope.iter().zip(&self.prev_update).zip(&self.ema) {
            for v in [slope, prev_update, &ema.signed, &ema.magnitude] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        let counters = self.no_check_len.iter().zip(&self.no_check_remaining).zip(&self.obs);
        for ((len, remaining), obs) in counters {
            for v in [len, remaining, obs] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// Parses the wire format produced by [`JoinState::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`JoinStateError`] on truncation or a bad header.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, JoinStateError> {
        if data.len() < 16 {
            return Err(JoinStateError::Truncated);
        }
        let data = &mut data;
        let magic = u32::from_le_bytes(take(data)?);
        if magic != MAGIC {
            return Err(JoinStateError::BadMagic(magic));
        }
        let n = usize::try_from(u32::from_le_bytes(take(data)?))
            .map_err(|_| JoinStateError::Truncated)?;
        let rounds_seen = u64::from_le_bytes(take(data)?);
        let mask_bytes = n.div_ceil(8);
        // Checked math: `n` comes off the wire, so an adversarial or corrupt
        // count must surface as Truncated, not as a usize overflow panic (or
        // a silent wrap admitting an undersized payload on 32-bit targets).
        let needed_bytes = n
            .checked_mul(16 + 6)
            .and_then(|per_client| per_client.checked_add(mask_bytes))
            .ok_or(JoinStateError::Truncated)?;
        if data.len() < needed_bytes {
            return Err(JoinStateError::Truncated);
        }
        let mut predictable = Vec::with_capacity(n);
        for i in 0..mask_bytes {
            let [byte] = take(data)?;
            for bit in 0..8 {
                let idx = i * 8 + bit;
                if idx < n {
                    predictable.push(byte & (1 << bit) != 0);
                }
            }
        }
        let mut slope = Vec::with_capacity(n);
        let mut prev_update = Vec::with_capacity(n);
        let mut ema = Vec::with_capacity(n);
        for _ in 0..n {
            slope.push(f32::from_le_bytes(take(data)?));
            prev_update.push(f32::from_le_bytes(take(data)?));
            let signed = f32::from_le_bytes(take(data)?);
            let magnitude = f32::from_le_bytes(take(data)?);
            ema.push(EmaPair { signed, magnitude });
        }
        let mut no_check_len = Vec::with_capacity(n);
        let mut no_check_remaining = Vec::with_capacity(n);
        let mut obs = Vec::with_capacity(n);
        for _ in 0..n {
            no_check_len.push(u16::from_le_bytes(take(data)?));
            no_check_remaining.push(u16::from_le_bytes(take(data)?));
            obs.push(u16::from_le_bytes(take(data)?));
        }
        Ok(JoinState {
            predictable,
            slope,
            no_check_len,
            no_check_remaining,
            prev_update,
            ema,
            obs,
            rounds_seen,
        })
    }
}

/// Splits the next `N` bytes off the front of `data`.
fn take<const N: usize>(data: &mut &[u8]) -> Result<[u8; N], JoinStateError> {
    let (head, tail) = data.split_first_chunk::<N>().ok_or(JoinStateError::Truncated)?;
    *data = tail;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> JoinState {
        JoinState {
            predictable: (0..n).map(|i| i % 3 == 0).collect(),
            slope: (0..n).map(|i| i as f32 * 0.1).collect(),
            no_check_len: (0..n).map(|i| (i % 7) as u16).collect(),
            no_check_remaining: (0..n).map(|i| (i % 5) as u16).collect(),
            prev_update: (0..n).map(|i| -(i as f32) * 0.01).collect(),
            ema: (0..n).map(|i| EmaPair { signed: i as f32, magnitude: i as f32 + 1.0 }).collect(),
            obs: (0..n).map(|i| (i % 11) as u16).collect(),
            rounds_seen: 42,
        }
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let s = sample(n);
            let decoded = JoinState::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(s, decoded, "size {n}");
        }
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample(10).to_bytes();
        for cut in 0..bytes.len() {
            let got = JoinState::from_bytes(&bytes[..cut]);
            assert_eq!(got, Err(JoinStateError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn wire_image_is_pinned() {
        // sample(9).to_bytes() as the `BytesMut`-built encoder produced it.
        #[rustfmt::skip]
        const GOLDEN: [u8; 216] = [
            1, 0, 213, 254, 9, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 73, 0,
            0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 128, 63,
            205, 204, 204, 61, 10, 215, 35, 188, 0, 0, 128, 63, 0, 0, 0, 64,
            205, 204, 76, 62, 10, 215, 163, 188, 0, 0, 0, 64, 0, 0, 64, 64,
            154, 153, 153, 62, 143, 194, 245, 188, 0, 0, 64, 64, 0, 0, 128, 64,
            205, 204, 204, 62, 10, 215, 35, 189, 0, 0, 128, 64, 0, 0, 160, 64,
            0, 0, 0, 63, 204, 204, 76, 189, 0, 0, 160, 64, 0, 0, 192, 64,
            154, 153, 25, 63, 143, 194, 117, 189, 0, 0, 192, 64, 0, 0, 224, 64,
            51, 51, 51, 63, 41, 92, 143, 189, 0, 0, 224, 64, 0, 0, 0, 65,
            205, 204, 76, 63, 10, 215, 163, 189, 0, 0, 0, 65, 0, 0, 16, 65,
            0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 2, 0,
            3, 0, 3, 0, 3, 0, 4, 0, 4, 0, 4, 0, 5, 0, 0, 0, 5, 0,
            6, 0, 1, 0, 6, 0, 0, 0, 2, 0, 7, 0, 1, 0, 3, 0, 8, 0,
        ];
        assert_eq!(sample(9).to_bytes(), GOLDEN);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample(3).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(JoinState::from_bytes(&bytes), Err(JoinStateError::BadMagic(_))));
    }

    #[test]
    fn wire_size_is_compact() {
        // The mask is bit-packed: 1000 scalars cost 125 mask bytes, not 1000.
        let s = sample(1000);
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), 16 + 125 + 1000 * (16 + 6));
    }

    #[test]
    fn len_and_is_empty() {
        assert!(sample(0).is_empty());
        assert_eq!(sample(5).len(), 5);
    }
}
