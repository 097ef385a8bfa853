//! QSGD-style stochastic gradient quantization (Alistarh et al., 2017) —
//! the *quantization* family of communication compression the paper's
//! Sec. II-B contrasts sparsification against. Included as an extra
//! baseline beyond the paper's three comparison schemes.
//!
//! Each client quantizes its round update `u = local − global` to
//! `s` = [`Qsgd::LEVELS`] levels: `Q(u_i) = ‖u‖₂ · sign(u_i) · ξ_i`, where
//! `ξ_i ∈ {0, 1/s, …, 1}` is a stochastic rounding of `|u_i|/‖u‖₂`
//! (unbiased). The wire cost per scalar is `log2(s+1) + 1` bits plus one norm per client — the
//! compression ceiling the paper calls "relatively limited".

use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_tensor::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the stochastic rounding (shared; deterministic runs).
const SEED: u64 = 0x45_6D;
/// Per-scalar wire cost in bits: a sign and a magnitude level (`⌈log2(s+1)⌉`
/// bits, 4 at 15 levels).
const BITS_PER_SCALAR: u32 = u32::BITS - Qsgd::LEVELS.leading_zeros() + 1;

/// The QSGD strategy.
#[derive(Debug, Clone)]
pub struct Qsgd {
    rng: StdRng,
    /// Round scratch: one client's raw update (reused across rounds).
    update_scratch: Vec<f32>,
    /// Round scratch: one client's wire codes (reused across rounds).
    codes_scratch: Vec<u8>,
    /// Round scratch: one client's dequantized update (reused across rounds).
    q_scratch: Vec<f32>,
    /// Round scratch: the averaged quantized update (reused across rounds).
    mean_scratch: Vec<f32>,
}

impl Qsgd {
    /// Quantization levels `s`: a magnitude takes 4 bits.
    pub const LEVELS: u32 = 15;

    /// Creates QSGD.
    pub fn new() -> Self {
        Qsgd {
            rng: StdRng::seed_from_u64(SEED),
            update_scratch: Vec::new(),
            codes_scratch: Vec::new(),
            q_scratch: Vec::new(),
            mean_scratch: Vec::new(),
        }
    }

    /// Quantizes one update vector (unbiased stochastic rounding) to wire
    /// codes: one byte per scalar (bit 7 = sign, bits 0–6 = magnitude level)
    /// plus the returned scale (the update's ℓ₂ norm; `0.0` for an all-zero
    /// update). [`Qsgd::dequantize_codes_into`] turns them back into the
    /// values [`SyncStrategy::aggregate`] averages.
    ///
    /// Returns `None` — without consuming any RNG draws — when the update is
    /// not wire-packable: non-finite values or a non-finite norm. The wire
    /// falls back to a dense frame; `aggregate` averages NaN.
    pub fn quantize_to_codes(&mut self, update: &[f32], codes: &mut Vec<u8>) -> Option<f32> {
        if update.iter().any(|v| !v.is_finite()) {
            return None;
        }
        codes.clear();
        let norm = update.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>().sqrt() as f32;
        if norm <= f32::EPSILON {
            codes.resize(update.len(), 0);
            return Some(0.0);
        }
        if !norm.is_finite() {
            return None;
        }
        let s = Self::LEVELS as f32;
        codes.reserve(update.len());
        for &v in update {
            let scaled = v.abs() / norm * s;
            let floor = scaled.floor();
            let level = if self.rng.gen::<f32>() < scaled - floor { floor + 1.0 } else { floor };
            // level <= s + 1 (rounding can land one past `s`), so the cast
            // always fits the 7 magnitude bits.
            let sign = if v.is_sign_negative() { 0x80u8 } else { 0 };
            codes.push(sign | (level as u8));
        }
        Some(norm)
    }

    /// Reconstructs the quantized values from wire codes: per scalar,
    /// `((scale · sign) · level) / s` (`scale = 0` encodes the all-zero
    /// update).
    pub fn dequantize_codes_into(levels: u32, scale: f32, codes: &[u8], out: &mut Vec<f32>) {
        let s = levels.max(1) as f32;
        out.clear();
        out.reserve(codes.len());
        out.extend(codes.iter().map(|&c| {
            let sign = if c & 0x80 != 0 { -1.0f32 } else { 1.0 };
            let level = f32::from(c & 0x7f);
            ((scale * sign) * level) / s
        }));
    }

    /// Quantizes one update and dequantizes its codes into `out`, the
    /// values `aggregate` averages; a non-finite update comes out as NaN.
    fn quantize_dequantize(&mut self, update: &[f32], codes: &mut Vec<u8>, out: &mut Vec<f32>) {
        match self.quantize_to_codes(update, codes) {
            Some(scale) => Self::dequantize_codes_into(Self::LEVELS, scale, codes, out),
            None => {
                out.clear();
                out.resize(update.len(), f32::NAN);
            }
        }
    }
}

impl Default for Qsgd {
    fn default() -> Self {
        Qsgd::new()
    }
}

impl SyncStrategy for Qsgd {
    fn name(&self) -> &str {
        "qsgd"
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        // Express the compressed payload in f32-scalar equivalents so the
        // byte accounting stays uniform across strategies.
        let equivalent =
            ((global.len() as f64 * f64::from(BITS_PER_SCALAR) / 32.0).ceil() as u64).max(1) + 1; // + the norm
        out.clear();
        out.resize(locals.len(), equivalent);
    }

    fn aggregate(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        _active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        if selected.is_empty() {
            // Nothing usable arrived: hold the global; no update is quantized.
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
        }
        let inv = 1.0 / selected.len() as f32;
        let mut mean_q = std::mem::take(&mut self.mean_scratch);
        mean_q.clear();
        mean_q.resize(global.len(), 0.0);
        let mut update = std::mem::take(&mut self.update_scratch);
        update.reserve(global.len());
        let mut codes = std::mem::take(&mut self.codes_scratch);
        let mut q = std::mem::take(&mut self.q_scratch);
        let level = simd::simd_level();
        for &c in selected {
            update.clear();
            let Some(local) = locals.get(c) else {
                continue;
            };
            update.extend(local.iter().zip(global.iter()).map(|(l, g)| l - g));
            self.quantize_dequantize(&update, &mut codes, &mut q);
            simd::axpy_with(level, &mut mean_q, inv, &q);
        }
        simd::add_assign_with(level, global, &mean_q);
        self.mean_scratch = mean_q;
        self.update_scratch = update;
        self.codes_scratch = codes;
        self.q_scratch = q;
        let equivalent = (global.len() as f64 * f64::from(BITS_PER_SCALAR) / 32.0).ceil() as usize;
        AggregateOutcome { broadcast_scalars: equivalent, synced_scalars: equivalent }
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<StdRng>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values `aggregate` averages for one update: its wire codes,
    /// dequantized.
    fn quantize(q: &mut Qsgd, update: &[f32]) -> Vec<f32> {
        let (mut codes, mut out) = (Vec::new(), Vec::new());
        q.quantize_dequantize(update, &mut codes, &mut out);
        out
    }

    #[test]
    fn quantization_is_unbiased_in_expectation() {
        let mut q = Qsgd::new();
        let update = vec![0.3f32, -0.7, 0.05, 0.0];
        let trials = 4000;
        let mut mean = vec![0.0f64; update.len()];
        for _ in 0..trials {
            let quantized = quantize(&mut q, &update);
            for (m, v) in mean.iter_mut().zip(&quantized) {
                *m += f64::from(*v) / trials as f64;
            }
        }
        for (m, v) in mean.iter().zip(&update) {
            assert!((m - f64::from(*v)).abs() < 0.02, "{m} vs {v}");
        }
    }

    #[test]
    fn zero_update_quantizes_to_zero() {
        let mut q = Qsgd::default();
        assert_eq!(quantize(&mut q, &[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn quantized_values_are_on_the_grid() {
        let mut q = Qsgd::new();
        let update = vec![0.5f32, -0.25, 0.1];
        let norm = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        let s = Qsgd::LEVELS as f32;
        for v in quantize(&mut q, &update) {
            let level = (v.abs() / norm * s).round();
            assert!((v.abs() / norm * s - level).abs() < 1e-5, "off-grid value {v}");
        }
    }

    #[test]
    fn upload_volume_reflects_bit_width() {
        // 15 levels -> 4 magnitude bits + 1 sign = 5 bits/scalar.
        let mut q = Qsgd::default();
        assert_eq!(BITS_PER_SCALAR, 5);
        let locals = vec![vec![0.0; 320]];
        let mut up = Vec::new();
        q.prepare_uploads_into(0, &locals, &[0.0; 320], &mut up);
        // 320 * 5 / 32 = 50 scalar-equivalents, + 1 for the norm.
        assert_eq!(up, vec![51]);
    }

    #[test]
    fn aggregate_moves_global_toward_locals() {
        let mut q = Qsgd::default();
        let mut global = vec![0.0f32; 8];
        let locals = vec![vec![1.0f32; 8], vec![1.0f32; 8]];
        q.aggregate(0, &locals, &[0, 1], &[true, true], &mut global);
        // Quantization noise allowed, but the direction must be right.
        assert!(global.iter().all(|&g| g > 0.0));
    }

    #[test]
    fn sparsification_ratio_matches_compression() {
        let mut q = Qsgd::default();
        let mut global = vec![0.0f32; 32];
        let locals = vec![vec![0.5f32; 32]];
        let out = q.aggregate(0, &locals, &[0], &[true], &mut global);
        // 5/32 of full volume -> ratio ~ 1 - 5/32.
        let ratio = 1.0 - out.synced_scalars as f64 / global.len() as f64;
        assert!((ratio - (1.0 - 5.0 / 32.0)).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn non_finite_update_leaves_a_non_finite_global() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut q = Qsgd::default();
            let mut global = vec![0.0f32; 4];
            let locals = vec![vec![0.5f32; 4], vec![1.0, bad, 1.0, 1.0]];
            q.aggregate(0, &locals, &[0, 1], &[true, true], &mut global);
            assert!(global.iter().all(|g| g.is_nan()), "{bad}: {global:?}");
        }
        // A finite update whose norm overflows `f32` is not packable either.
        let mut q = Qsgd::default();
        let mut global = vec![0.0f32; 2];
        q.aggregate(0, &[vec![f32::MAX, f32::MAX]], &[0], &[true], &mut global);
        assert!(global.iter().all(|g| g.is_nan()), "{global:?}");
    }

    #[test]
    fn zero_update_packs_to_zero_scale_and_codes() {
        let mut q = Qsgd::default();
        let mut codes = Vec::new();
        let scale = q.quantize_to_codes(&[0.0, 0.0, 0.0], &mut codes).unwrap();
        assert_eq!(scale, 0.0);
        assert_eq!(codes, vec![0, 0, 0]);
        let mut out = Vec::new();
        Qsgd::dequantize_codes_into(Qsgd::LEVELS, scale, &codes, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn unpackable_updates_are_refused() {
        let mut q = Qsgd::default();
        let mut codes = Vec::new();
        assert!(q.quantize_to_codes(&[1.0, f32::NAN], &mut codes).is_none());
        assert!(q.quantize_to_codes(&[f32::INFINITY], &mut codes).is_none());
        assert!(q.quantize_to_codes(&[f32::MAX, f32::MAX], &mut codes).is_none());
        // Refusal consumed no RNG draws: the next quantize matches a fresh
        // instance with the same seed.
        let a = quantize(&mut q, &[0.5, -0.5, 0.25]);
        let b = quantize(&mut Qsgd::default(), &[0.5, -0.5, 0.25]);
        assert_eq!(a, b);
    }
}
