//! Chunk-granular FedSU (extension ablation).
//!
//! Sec. III-A of the paper observes that linearity periods differ across
//! scalars even within one model and concludes that sparsification
//! decisions "shall be made in a fine-grained manner — independently for
//! each parameter". This module quantifies that design argument: the same
//! speculative machinery applied at *chunk* granularity (one mask bit per
//! block of scalars, diagnosis on chunk-aggregate statistics). With chunk
//! size 1 it degenerates to per-scalar FedSU; larger chunks model per-layer
//! or per-tensor masking, which the `ablation_granularity` bench compares.

use crate::diagnosis::EmaPair;
use crate::manager::resync_rejoiners;
use fedsu_fl::{AggregateOutcome, SyncStrategy};

/// FedSU with one predictability decision per fixed-size chunk of scalars.
#[derive(Debug, Clone)]
pub struct FedSuCoarse {
    chunk: usize,
    t_r: f64,
    t_s: f64,
    theta: f32,
    warmup_updates: u16,
    max_no_check: u16,

    // Per-chunk replicated state.
    predictable: Vec<bool>,
    no_check_len: Vec<u16>,
    no_check_remaining: Vec<u16>,
    ema: Vec<EmaPair>,
    obs: Vec<u16>,
    // Per-scalar slopes (prediction is still per-scalar; only the *decision*
    // is coarse).
    slope: Vec<f32>,
    prev_update: Vec<f32>,
    // Per-client, per-chunk accumulated mean errors.
    errors: Vec<Vec<f32>>,
    // Which clients took part in the previous aggregation.
    prev_active: Vec<bool>,
    predictable_rounds: Vec<u64>,
    rounds_seen: usize,
    n_params: usize,
}

impl FedSuCoarse {
    /// Creates a chunk-granular FedSU with the given chunk size and the
    /// quick-profile thresholds (`T_R`, `T_S`).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0` or a threshold is non-positive.
    pub fn new(chunk: usize, t_r: f64, t_s: f64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(t_r > 0.0 && t_s > 0.0, "thresholds must be positive");
        FedSuCoarse {
            chunk,
            t_r,
            t_s,
            theta: 0.9,
            warmup_updates: 4,
            max_no_check: 1024,
            predictable: Vec::new(),
            no_check_len: Vec::new(),
            no_check_remaining: Vec::new(),
            ema: Vec::new(),
            obs: Vec::new(),
            slope: Vec::new(),
            prev_update: Vec::new(),
            errors: Vec::new(),
            prev_active: Vec::new(),
            predictable_rounds: Vec::new(),
            rounds_seen: 0,
            n_params: 0,
        }
    }

    /// The current predictability mask, one entry per chunk.
    pub fn predictable_mask(&self) -> &[bool] {
        &self.predictable
    }

    fn n_chunks(&self) -> usize {
        self.n_params.div_ceil(self.chunk)
    }

    fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        c * self.chunk..((c + 1) * self.chunk).min(self.n_params)
    }

    fn ensure_capacity(&mut self, n_params: usize, n_clients: usize) {
        if self.n_params != n_params {
            self.n_params = n_params;
            let chunks = self.n_chunks();
            // Resize in place: steady rounds with a stable model never
            // reallocate, and a size change reuses whatever capacity the
            // old vectors already held.
            self.predictable.clear();
            self.predictable.resize(chunks, false);
            self.no_check_len.clear();
            self.no_check_len.resize(chunks, 0);
            self.no_check_remaining.clear();
            self.no_check_remaining.resize(chunks, 0);
            self.ema.clear();
            self.ema.resize_with(chunks, EmaPair::default);
            self.obs.clear();
            self.obs.resize(chunks, 0);
            self.predictable_rounds.clear();
            self.predictable_rounds.resize(chunks, 0);
            self.slope.clear();
            self.slope.resize(n_params, 0.0);
            self.prev_update.clear();
            self.prev_update.resize(n_params, 0.0);
        }
        let chunks = self.n_chunks();
        if self.errors.len() != n_clients || self.errors.first().is_some_and(|e| e.len() != chunks) {
            self.errors.resize_with(n_clients, Vec::new);
            for e in &mut self.errors {
                e.clear();
                e.resize(chunks, 0.0);
            }
        }
    }
}

impl SyncStrategy for FedSuCoarse {
    fn name(&self) -> &str {
        "fedsu-coarse"
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        self.ensure_capacity(global.len(), locals.len());
        let mut scalars = 0u64;
        for (c, (&pred, &remaining)) in
            self.predictable.iter().zip(&self.no_check_remaining).enumerate()
        {
            if !pred {
                scalars += self.chunk_range(c).len() as u64;
            } else if remaining == 1 {
                scalars += 1; // one aggregated error value per checked chunk
            }
        }
        out.clear();
        out.resize(locals.len(), scalars);
    }

    fn aggregate(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        self.ensure_capacity(global.len(), locals.len());
        resync_rejoiners(&mut self.errors, &mut self.prev_active, active);
        if selected.is_empty() {
            // Nothing usable arrived: hold every value and all mask and
            // feedback state (as `FedSu::aggregate`) rather than average
            // nothing into the regular scalars.
            self.rounds_seen += 1;
            return AggregateOutcome {
                broadcast_scalars: 0,
                synced_scalars: 0,
                total_scalars: self.n_params,
            };
        }
        let inv = 1.0 / selected.len() as f32;
        let mut synced = 0usize;
        let mut checked = 0usize;

        for c in 0..self.n_chunks() {
            let range = self.chunk_range(c);
            if self.predictable[c] {
                self.predictable_rounds[c] += 1;
                // Speculative update per scalar; error accumulated as the
                // chunk-mean deviation per client.
                let chunk_len = range.len() as f32;
                for (i, &act) in active.iter().enumerate() {
                    if !act {
                        continue;
                    }
                    let mut mean_err = 0.0f32;
                    for j in range.clone() {
                        let predicted = global[j] + self.slope[j];
                        mean_err += (locals[i][j] - predicted) / chunk_len;
                    }
                    self.errors[i][c] += mean_err;
                }
                let mut mean_abs_slope = 0.0f32;
                for j in range.clone() {
                    global[j] += self.slope[j];
                    mean_abs_slope += self.slope[j].abs() / chunk_len;
                }

                self.no_check_remaining[c] = self.no_check_remaining[c].saturating_sub(1);
                if self.no_check_remaining[c] == 0 {
                    checked += 1;
                    let e_mean: f32 = selected.iter().map(|&k| self.errors[k][c]).sum::<f32>() * inv;
                    let s = f64::from(e_mean.abs()) / f64::from(mean_abs_slope.max(f32::EPSILON));
                    if s < self.t_s {
                        self.no_check_len[c] = self.no_check_len[c].saturating_add(1).min(self.max_no_check);
                        self.no_check_remaining[c] = self.no_check_len[c];
                    } else {
                        self.predictable[c] = false;
                        self.obs[c] = 0;
                        self.ema[c].reset();
                        for e in &mut self.errors {
                            e[c] = 0.0;
                        }
                    }
                }
            } else {
                synced += range.len();
                // Regular sync + chunk-aggregate diagnosis.
                let chunk_len = range.len() as f32;
                let mut mean_g2 = 0.0f32;
                let mut mean_abs_update = 0.0f32;
                for j in range.clone() {
                    let old = global[j];
                    let mut avg = 0.0f32;
                    for &k in selected {
                        avg += locals[k][j];
                    }
                    avg *= inv;
                    global[j] = avg;
                    let g = avg - old;
                    mean_g2 += (g - self.prev_update[j]) / chunk_len;
                    mean_abs_update += g.abs() / chunk_len;
                    self.prev_update[j] = g;
                }
                if self.obs[c] == 0 {
                    self.obs[c] = 1; // prev_update seeded this round
                } else {
                    let ema = &mut self.ema[c];
                    ema.observe(mean_g2, self.theta);
                    // As `FedSu::aggregate`: second differences negligible
                    // relative to the update are float noise on a linear
                    // trajectory, whatever their ratio.
                    let linear = ema.magnitude <= 1e-3 * mean_abs_update || ema.ratio() < self.t_r;
                    self.obs[c] = self.obs[c].saturating_add(1);
                    if self.obs[c] >= self.warmup_updates && linear {
                        self.predictable[c] = true;
                        for j in range.clone() {
                            self.slope[j] = self.prev_update[j];
                        }
                        self.no_check_len[c] = 1;
                        self.no_check_remaining[c] = 1;
                        for e in &mut self.errors {
                            e[c] = 0.0;
                        }
                    }
                }
            }
        }
        self.rounds_seen += 1;
        AggregateOutcome {
            broadcast_scalars: synced + checked,
            synced_scalars: synced + checked,
            total_scalars: self.n_params,
        }
    }

    fn state_bytes(&self) -> usize {
        let chunks = self.n_chunks();
        self.n_params * 8 // slope + prev_update
            + chunks * (1 + 2 * 2 + 8 + 2) // mask, periods, ema, obs
            + self.errors.len() * chunks * 4
    }

    fn skip_fractions(&self) -> Option<Vec<f64>> {
        if self.rounds_seen == 0 {
            return None;
        }
        // Expand chunk fractions back to per-scalar for comparability.
        let mut out = Vec::with_capacity(self.n_params);
        for c in 0..self.n_chunks() {
            let frac = self.predictable_rounds[c] as f64 / self.rounds_seen as f64;
            for _ in self.chunk_range(c) {
                out.push(frac);
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(coarse: &mut FedSuCoarse, global: &mut Vec<f32>, updates: &[f32], round: usize) -> AggregateOutcome {
        let locals = vec![global.iter().zip(updates).map(|(g, u)| g + u).collect::<Vec<f32>>()];
        coarse.prepare_uploads(round, &locals, global);
        coarse.aggregate(round, &locals, &[0], &[true], global)
    }

    #[test]
    fn chunk_one_behaves_like_per_scalar_fedsu() {
        let mut f = FedSuCoarse::new(1, 0.1, 10.0);
        let mut global = vec![0.0f32; 2];
        for round in 0..8 {
            drive(&mut f, &mut global, &[-0.01, -0.02], round);
        }
        assert_eq!(f.predictable.len(), 2);
        assert!(f.predictable.iter().all(|&p| p), "both linear scalars speculate");
    }

    #[test]
    fn coarse_chunk_corrupts_mixed_content() {
        // One linear scalar and one strongly alternating scalar share a
        // chunk. The chunk-mean diagnosis sees the alternation average out,
        // admits the pair, and then freezes a *wrong* slope onto the
        // alternating scalar — whose trajectory drifts away from the truth.
        // Per-scalar granularity (chunk = 1) never speculates that scalar.
        // This is exactly Sec. III-A's argument for fine-grained decisions:
        // coarseness costs accuracy, not just opportunity.
        let horizon = 30;
        let mut fine = FedSuCoarse::new(1, 0.1, 10.0);
        let mut coarse = FedSuCoarse::new(2, 0.1, 10.0);
        let mut gf = vec![0.0f32; 2];
        let mut gc = vec![0.0f32; 2];
        for round in 0..horizon {
            let flip = if round % 2 == 0 { 0.05 } else { -0.05 };
            drive(&mut fine, &mut gf, &[-0.01, flip], round);
            drive(&mut coarse, &mut gc, &[-0.01, flip], round);
        }
        // Ground truth for the alternating scalar stays within one step of 0.
        assert!(gf[1].abs() <= 0.0501, "fine tracks the alternation: {}", gf[1]);
        assert!(
            gc[1].abs() > gf[1].abs() + 0.05,
            "coarse speculation must have corrupted the alternating scalar: {} vs {}",
            gc[1],
            gf[1]
        );
    }

    #[test]
    fn uniform_linear_chunks_speculate_and_track() {
        let mut f = FedSuCoarse::new(4, 0.1, 10.0);
        let mut global = vec![0.0f32; 8];
        let updates = vec![-0.01f32; 8];
        for round in 0..20 {
            drive(&mut f, &mut global, &updates, round);
        }
        assert!(f.predictable.iter().all(|&p| p));
        for (j, v) in global.iter().enumerate() {
            assert!((v - (-0.01 * 20.0)).abs() < 1e-4, "scalar {j} drifted: {v}");
        }
        let skips = f.skip_fractions().unwrap();
        assert_eq!(skips.len(), 8);
        assert!(skips[0] > 0.3);
    }

    #[test]
    fn ragged_final_chunk_is_handled() {
        let mut f = FedSuCoarse::new(3, 0.1, 10.0);
        let mut global = vec![0.0f32; 7]; // chunks of 3, 3, 1
        let updates = vec![-0.01f32; 7];
        for round in 0..10 {
            let out = drive(&mut f, &mut global, &updates, round);
            assert_eq!(out.total_scalars, 7);
        }
        assert_eq!(f.n_chunks(), 3);
    }

    #[test]
    fn empty_selection_holds_values_and_state() {
        let mut f = FedSuCoarse::new(2, 0.1, 10.0);
        let mut global = vec![1.0f32, 2.0, 3.0];
        let locals = vec![vec![9.0f32; 3]];
        let out = f.aggregate(0, &locals, &[], &[false], &mut global);
        assert_eq!(global, [1.0, 2.0, 3.0]);
        assert_eq!((out.broadcast_scalars, out.synced_scalars, out.total_scalars), (0, 0, 3));
        assert_eq!(f.rounds_seen, 1, "the round still counts");
        assert!(f.obs.iter().all(|&o| o == 0), "no diagnosis ran");
    }

    #[test]
    fn rejoiner_starts_from_a_clean_error_accumulator() {
        // Two clients on one linear chunk; every local lands exactly on the
        // speculated value, so a round adds (almost) nothing to an accumulator.
        fn step(f: &mut FedSuCoarse, global: &mut [f32], selected: &[usize], active: &[bool]) {
            let locals = vec![global.iter().map(|g| g - 0.01).collect::<Vec<f32>>(); 2];
            f.aggregate(0, &locals, selected, active, global);
        }
        let mut f = FedSuCoarse::new(2, 0.1, 10.0);
        let mut global = vec![0.0f32; 2];
        for _ in 0..8 {
            step(&mut f, &mut global, &[0, 1], &[true, true]);
        }
        assert!(f.predictable[0], "the linear chunk must speculate");
        f.errors[1][0] = 0.5; // what client 1 had accumulated when it left
        f.no_check_remaining[0] = 8; // keep the check out of the way
        step(&mut f, &mut global, &[0], &[true, false]);
        assert_eq!(f.errors[1][0], 0.5, "an absent client's accumulator is left alone");
        step(&mut f, &mut global, &[0, 1], &[true, true]);
        assert!(f.errors[1][0].abs() < 1e-6, "stale error survived the rejoin: {}", f.errors[1][0]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        FedSuCoarse::new(0, 0.1, 1.0);
    }
}
