//! QSGD-style stochastic gradient quantization (Alistarh et al., 2017) —
//! the *quantization* family of communication compression the paper's
//! Sec. II-B contrasts sparsification against. Included as an extra
//! baseline beyond the paper's three comparison schemes.
//!
//! Each client quantizes its round update `u = local − global` to
//! `s` levels: `Q(u_i) = ‖u‖₂ · sign(u_i) · ξ_i`, where `ξ_i ∈ {0, 1/s, …,
//! 1}` is a stochastic rounding of `|u_i|/‖u‖₂` (unbiased). The wire cost
//! per scalar is `log2(s+1) + 1` bits plus one norm per client — the
//! compression ceiling the paper calls "relatively limited".

use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_tensor::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest `levels` value whose codes fit the 7 magnitude bits of the wire
/// format (sign bit + level byte; see [`Qsgd::quantize_to_codes`]).
pub const MAX_WIRE_LEVELS: u32 = 126;

/// QSGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QsgdConfig {
    /// Number of quantization levels `s` (e.g. 15 for 4-bit magnitudes).
    pub levels: u32,
    /// RNG seed for the stochastic rounding (shared; deterministic runs).
    pub seed: u64,
}

impl Default for QsgdConfig {
    fn default() -> Self {
        QsgdConfig { levels: 15, seed: 0x45_6D }
    }
}

/// The QSGD strategy.
#[derive(Debug, Clone)]
pub struct Qsgd {
    config: QsgdConfig,
    rng: StdRng,
    /// Per-scalar wire cost in bits (sign + magnitude level).
    bits_per_scalar: f64,
    /// Round scratch: one client's raw update (reused across rounds).
    update_scratch: Vec<f32>,
    /// Round scratch: one client's quantized update (reused across rounds).
    q_scratch: Vec<f32>,
    /// Round scratch: the averaged quantized update (reused across rounds).
    mean_scratch: Vec<f32>,
}

impl Qsgd {
    /// Creates QSGD with the given config.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn new(config: QsgdConfig) -> Self {
        assert!(config.levels > 0, "need at least one level");
        let bits = ((config.levels + 1) as f64).log2().ceil() + 1.0;
        Qsgd {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            bits_per_scalar: bits,
            update_scratch: Vec::new(),
            q_scratch: Vec::new(),
            mean_scratch: Vec::new(),
        }
    }

    /// Quantizes one update vector (unbiased stochastic rounding) into
    /// `out`, reusing its allocation.
    fn quantize_into(&mut self, update: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(update.len(), 0.0);
        let norm = update.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>().sqrt() as f32;
        if norm <= f32::EPSILON {
            return;
        }
        let s = self.config.levels as f32;
        for (o, &v) in out.iter_mut().zip(update) {
            let scaled = v.abs() / norm * s;
            let floor = scaled.floor();
            let level = if self.rng.gen::<f32>() < scaled - floor { floor + 1.0 } else { floor };
            *o = norm * v.signum() * level / s;
        }
    }

    /// Quantizes one update vector to wire codes: one byte per scalar
    /// (bit 7 = sign, bits 0–6 = magnitude level) plus the returned scale
    /// (the update's ℓ₂ norm; `0.0` for an all-zero update). Consumes the
    /// same stochastic-rounding draws as [`quantize_into`] would, so with
    /// equal RNG state, [`dequantize_codes_into`] reproduces its emulated
    /// values bit-for-bit.
    ///
    /// Returns `None` — without consuming any RNG draws — when the update is
    /// not wire-packable: non-finite values, a non-finite norm, or more than
    /// [`MAX_WIRE_LEVELS`] levels. Callers fall back to a dense frame.
    pub fn quantize_to_codes(&mut self, update: &[f32], codes: &mut Vec<u8>) -> Option<f32> {
        if self.config.levels > MAX_WIRE_LEVELS || update.iter().any(|v| !v.is_finite()) {
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
        let s = self.config.levels as f32;
        codes.reserve(update.len());
        for &v in update {
            let scaled = v.abs() / norm * s;
            let floor = scaled.floor();
            let level = if self.rng.gen::<f32>() < scaled - floor { floor + 1.0 } else { floor };
            // level <= s + 1 <= 127 (rounding can land one past `s`), so the
            // cast always fits the 7 magnitude bits.
            let sign = if v.is_sign_negative() { 0x80u8 } else { 0 };
            codes.push(sign | (level as u8));
        }
        Some(norm)
    }

    /// Reconstructs dequantized values from wire codes, bit-for-bit equal to
    /// the emulated [`quantize_into`] output for the same RNG draws: the
    /// per-scalar expression is the identical `((scale · sign) · level) / s`
    /// chain (`scale = 0` encodes the all-zero update).
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

    /// Quantizes one update vector, allocating a fresh output.
    #[cfg(test)]
    fn quantize(&mut self, update: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.quantize_into(update, &mut out);
        out
    }

    /// Wire bits per quantized scalar.
    pub fn bits_per_scalar(&self) -> f64 {
        self.bits_per_scalar
    }
}

impl Default for Qsgd {
    fn default() -> Self {
        Qsgd::new(QsgdConfig::default())
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
            ((global.len() as f64 * self.bits_per_scalar / 32.0).ceil() as u64).max(1) + 1; // + the norm
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
            let n = global.len();
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0, total_scalars: n };
        }
        let inv = 1.0 / selected.len() as f32;
        let mut mean_q = std::mem::take(&mut self.mean_scratch);
        mean_q.clear();
        mean_q.resize(global.len(), 0.0);
        let mut update = std::mem::take(&mut self.update_scratch);
        update.reserve(global.len());
        let mut q = std::mem::take(&mut self.q_scratch);
        let level = simd::simd_level();
        for &c in selected {
            update.clear();
            let Some(local) = locals.get(c) else {
                continue;
            };
            update.extend(local.iter().zip(global.iter()).map(|(l, g)| l - g));
            self.quantize_into(&update, &mut q);
            simd::axpy_with(level, &mut mean_q, inv, &q);
        }
        simd::add_assign_with(level, global, &mean_q);
        self.mean_scratch = mean_q;
        self.update_scratch = update;
        self.q_scratch = q;
        let equivalent = (global.len() as f64 * self.bits_per_scalar / 32.0).ceil() as usize;
        AggregateOutcome {
            broadcast_scalars: equivalent,
            synced_scalars: equivalent,
            total_scalars: global.len(),
        }
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<StdRng>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_unbiased_in_expectation() {
        let mut q = Qsgd::new(QsgdConfig { levels: 4, seed: 1 });
        let update = vec![0.3f32, -0.7, 0.05, 0.0];
        let trials = 4000;
        let mut mean = vec![0.0f64; update.len()];
        for _ in 0..trials {
            let quantized = q.quantize(&update);
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
        assert_eq!(q.quantize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn quantized_values_are_on_the_grid() {
        let mut q = Qsgd::new(QsgdConfig { levels: 4, seed: 2 });
        let update = vec![0.5f32, -0.25, 0.1];
        let norm = update.iter().map(|v| v * v).sum::<f32>().sqrt();
        for v in q.quantize(&update) {
            let level = (v.abs() / norm * 4.0).round();
            assert!((v.abs() / norm * 4.0 - level).abs() < 1e-5, "off-grid value {v}");
        }
    }

    #[test]
    fn upload_volume_reflects_bit_width() {
        // 15 levels -> 4 magnitude bits + 1 sign = 5 bits/scalar.
        let mut q = Qsgd::default();
        assert_eq!(q.bits_per_scalar(), 5.0);
        let locals = vec![vec![0.0; 320]];
        let up = q.prepare_uploads(0, &locals, &vec![0.0; 320]);
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
        let ratio = 1.0 - out.synced_scalars as f64 / out.total_scalars as f64;
        assert!((ratio - (1.0 - 5.0 / 32.0)).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        Qsgd::new(QsgdConfig { levels: 0, seed: 0 });
    }

    #[test]
    fn wire_codes_dequantize_bit_identically_to_emulated_values() {
        // Same seed, same update: the emulated f32 path and the wire-code
        // path must produce bit-identical scalars.
        let cfg = QsgdConfig { levels: 15, seed: 77 };
        let update: Vec<f32> =
            (0..257).map(|i| ((i as f32 * 0.61).sin() - 0.5) * (i % 7) as f32).collect();
        let emulated = Qsgd::new(cfg).quantize(&update);
        let mut codes = Vec::new();
        let scale = Qsgd::new(cfg).quantize_to_codes(&update, &mut codes).unwrap();
        let mut wire = Vec::new();
        Qsgd::dequantize_codes_into(cfg.levels, scale, &codes, &mut wire);
        assert_eq!(emulated.len(), wire.len());
        for (i, (a, b)) in emulated.iter().zip(&wire).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    fn zero_update_packs_to_zero_scale_and_codes() {
        let mut q = Qsgd::default();
        let mut codes = Vec::new();
        let scale = q.quantize_to_codes(&[0.0, 0.0, 0.0], &mut codes).unwrap();
        assert_eq!(scale, 0.0);
        assert_eq!(codes, vec![0, 0, 0]);
        let mut out = Vec::new();
        Qsgd::dequantize_codes_into(15, scale, &codes, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn unpackable_updates_are_refused() {
        let mut q = Qsgd::default();
        let mut codes = Vec::new();
        assert!(q.quantize_to_codes(&[1.0, f32::NAN], &mut codes).is_none());
        assert!(q.quantize_to_codes(&[f32::INFINITY], &mut codes).is_none());
        let mut wide = Qsgd::new(QsgdConfig { levels: MAX_WIRE_LEVELS + 1, seed: 0 });
        assert!(wide.quantize_to_codes(&[1.0, 2.0], &mut codes).is_none());
        // Refusal consumed no RNG draws: the next quantize matches a fresh
        // instance with the same seed.
        let a = q.quantize(&[0.5, -0.5, 0.25]);
        let b = Qsgd::default().quantize(&[0.5, -0.5, 0.25]);
        assert_eq!(a, b);
    }
}
