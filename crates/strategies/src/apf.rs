//! APF (Adaptive Parameter Freezing, Chen et al., ICDCS'21): parameters
//! whose *effective perturbation* falls below a stability threshold are
//! considered converged and frozen — excluded from synchronization — for
//! additively-growing periods (TCP-style), unfreezing to re-check stability.
//!
//! Effective perturbation of a scalar is `|⟨u⟩| / ⟨|u|⟩`, the EMA-smoothed
//! ratio between the magnitude of the accumulated update and the accumulated
//! update magnitude: near 1 for a steadily-moving parameter, near 0 for one
//! zigzagging around a converged value.

use fedsu_fl::{AggregateOutcome, SyncStrategy};
use fedsu_tensor::simd;

/// Rounds a parameter must be observed before it may freeze.
const WARMUP_ROUNDS: usize = 3;
/// EMA decay for the perturbation statistics.
const EMA_DECAY: f32 = 0.9;
/// Freezing-period increment per consecutive stable check (rounds).
const PERIOD_STEP: u16 = 1;
/// Upper bound on the freezing period (rounds).
const MAX_PERIOD: u16 = 64;

/// The APF strategy. Its one setting is the stability threshold; the
/// perturbation EMAs decay by 0.9 a round, a parameter is observed for 3
/// rounds before it may freeze, and a stable parameter's freezing period
/// grows by one round per consecutive stable check, up to 64 rounds.
#[derive(Debug, Clone)]
pub struct Apf {
    /// Effective-perturbation threshold below which a parameter freezes.
    stability_threshold: f64,
    /// EMA of the per-round update, per scalar.
    ema_update: Vec<f32>,
    /// EMA of the absolute per-round update, per scalar.
    ema_abs_update: Vec<f32>,
    /// Rounds remaining in the current freeze (0 = unfrozen).
    freeze_remaining: Vec<u16>,
    /// Current freezing-period length (grows additively while stable).
    freeze_period: Vec<u16>,
    /// Rounds each scalar spent frozen (skip statistics).
    frozen_rounds: Vec<u64>,
    rounds_seen: usize,
    /// Scratch row of `aggregate`: the selected clients' mean, per scalar.
    mean: Vec<f32>,
}

impl Apf {
    /// Creates APF freezing parameters whose effective perturbation falls
    /// below `stability_threshold` (paper default 0.05, [`Apf::default`]).
    pub fn new(stability_threshold: f64) -> Self {
        Apf {
            stability_threshold,
            ema_update: Vec::new(),
            ema_abs_update: Vec::new(),
            freeze_remaining: Vec::new(),
            freeze_period: Vec::new(),
            frozen_rounds: Vec::new(),
            rounds_seen: 0,
            mean: Vec::new(),
        }
    }

    fn ensure_capacity(&mut self, n: usize) {
        self.mean.resize(n, 0.0);
        if self.ema_update.len() != n {
            self.ema_update.clear();
            self.ema_update.resize(n, 0.0);
            self.ema_abs_update.clear();
            self.ema_abs_update.resize(n, 0.0);
            self.freeze_remaining.clear();
            self.freeze_remaining.resize(n, 0);
            self.freeze_period.clear();
            self.freeze_period.resize(n, 0);
            self.frozen_rounds.clear();
            self.frozen_rounds.resize(n, 0);
        }
    }
}

impl Default for Apf {
    fn default() -> Self {
        Apf::new(0.05)
    }
}

impl SyncStrategy for Apf {
    fn name(&self) -> &str {
        "apf"
    }

    fn prepare_uploads_into(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        global: &[f32],
        out: &mut Vec<u64>,
    ) {
        self.ensure_capacity(global.len());
        let unfrozen = self.freeze_remaining.iter().filter(|&&r| r == 0).count();
        out.clear();
        out.resize(locals.len(), unfrozen as u64);
    }

    fn aggregate(
        &mut self,
        _round: usize,
        locals: &[Vec<f32>],
        selected: &[usize],
        _active: &[bool],
        global: &mut [f32],
    ) -> AggregateOutcome {
        self.ensure_capacity(global.len());
        let n = global.len();
        if selected.is_empty() {
            // Nothing usable arrived: hold the global, the EMAs and the
            // freeze counters (an average over nobody is not an update).
            return AggregateOutcome { broadcast_scalars: 0, synced_scalars: 0 };
        }
        let inv = 1.0 / selected.len() as f32;
        let theta = EMA_DECAY;
        let mut synced = 0usize;

        // The mean of every scalar, one contiguous row per selected client
        // (`Σ(local·inv)` in `selected` order, separate mul and add); frozen
        // scalars simply do not read theirs.
        let level = simd::simd_level();
        self.mean.fill(0.0);
        for &c in selected {
            let local: &[f32] = locals.get(c).map_or(&[], Vec::as_slice);
            assert_eq!(local.len(), n, "local/global length mismatch");
            simd::axpy_with(level, &mut self.mean, inv, local);
        }
        let warm = self.rounds_seen >= WARMUP_ROUNDS;
        let emas = self.ema_update.iter_mut().zip(self.ema_abs_update.iter_mut());
        let freeze = self.freeze_remaining.iter_mut().zip(self.freeze_period.iter_mut());
        let state = emas.zip(freeze).zip(self.frozen_rounds.iter_mut());
        for ((&avg, g), (((ema, ema_abs), (remaining, period)), frozen)) in
            self.mean.iter().zip(global.iter_mut()).zip(state)
        {
            if *remaining > 0 {
                // Frozen: hold the global value; local drift is discarded.
                *remaining -= 1;
                *frozen += 1;
                continue;
            }
            synced += 1;
            let u = avg - *g;
            *g = avg;
            *ema = theta * *ema + (1.0 - theta) * u;
            *ema_abs = theta * *ema_abs + (1.0 - theta) * u.abs();

            if warm {
                let perturbation = if *ema_abs > f32::EPSILON {
                    f64::from(ema.abs()) / f64::from(*ema_abs)
                } else {
                    0.0
                };
                if perturbation < self.stability_threshold {
                    // Stable: freeze for an additively-grown period.
                    *period = (*period + PERIOD_STEP).min(MAX_PERIOD);
                    *remaining = *period;
                } else {
                    // Unstable: reset the additive-increase state.
                    *period = 0;
                }
            }
        }
        self.rounds_seen += 1;
        AggregateOutcome { broadcast_scalars: synced, synced_scalars: synced }
    }

    fn state_bytes(&self) -> usize {
        self.ema_update.len() * std::mem::size_of::<f32>() * 2
            + self.freeze_remaining.len() * std::mem::size_of::<u16>() * 2
    }

    fn skip_fractions(&self) -> Option<Vec<f64>> {
        if self.rounds_seen == 0 {
            return None;
        }
        Some(
            self.frozen_rounds
                .iter()
                .map(|&f| f as f64 / self.rounds_seen as f64)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_round(apf: &mut Apf, locals: &[Vec<f32>], global: &mut [f32], round: usize) -> AggregateOutcome {
        let sel: Vec<usize> = (0..locals.len()).collect();
        apf.prepare_uploads_into(round, locals, global, &mut Vec::new());
        let active = vec![true; locals.len()];
        apf.aggregate(round, locals, &sel, &active, global)
    }

    /// Number of currently frozen scalars.
    fn frozen(apf: &Apf) -> usize {
        apf.freeze_remaining.iter().filter(|&&r| r > 0).count()
    }

    #[test]
    fn unfrozen_params_average_normally() {
        let mut apf = Apf::default();
        let locals = vec![vec![2.0, 4.0], vec![4.0, 6.0]];
        let mut global = vec![0.0, 0.0];
        let out = run_round(&mut apf, &locals, &mut global, 0);
        assert_eq!(global, vec![3.0, 5.0]);
        assert_eq!(out.synced_scalars, 2);
    }

    #[test]
    fn zigzagging_parameter_freezes_and_holds() {
        // Scalar 0 oscillates (converged); scalar 1 moves steadily.
        let mut apf = Apf::new(0.1);
        let mut global = vec![0.0, 0.0];
        let mut frozen_seen = false;
        for round in 0..30 {
            let osc = if round % 2 == 0 { 0.1 } else { -0.1 };
            let locals = vec![vec![global[0] + osc, global[1] + 1.0]];
            let out = run_round(&mut apf, &locals, &mut global, round);
            if out.synced_scalars < 2 {
                frozen_seen = true;
                // The moving scalar must never be the frozen one.
                assert!(out.synced_scalars >= 1);
            }
        }
        assert!(frozen_seen, "oscillating scalar should freeze");
        assert!(frozen(&apf) <= 1);
        // The steady scalar kept moving.
        assert!(global[1] > 20.0, "steady scalar froze wrongly: {}", global[1]);
    }

    #[test]
    fn freeze_period_grows_additively() {
        let mut apf = Apf::new(0.1);
        let mut global = vec![0.0];
        // Perfectly oscillating scalar: every check passes.
        let mut freezes = Vec::new();
        let mut prev_frozen = false;
        for round in 0..40 {
            let osc = if round % 2 == 0 { 0.1 } else { -0.1 };
            let locals = vec![vec![global[0] + osc]];
            let out = run_round(&mut apf, &locals, &mut global, round);
            let frozen = out.synced_scalars == 0;
            if frozen && !prev_frozen {
                freezes.push(round);
            }
            prev_frozen = frozen;
        }
        // Gaps between successive freeze-starts should grow.
        assert!(freezes.len() >= 2, "expected repeated freezing: {freezes:?}");
        let gaps: Vec<usize> = freezes.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.windows(2).all(|w| w[1] >= w[0]), "gaps should not shrink: {gaps:?}");
    }

    #[test]
    fn local_drift_of_frozen_params_is_discarded() {
        let mut apf = Apf::default();
        let mut global = vec![5.0];
        // Zero updates -> perturbation 0 -> freezes in the first warm round.
        let locals = vec![vec![5.0]];
        for round in 0..=WARMUP_ROUNDS {
            run_round(&mut apf, &locals, &mut global, round);
        }
        assert_eq!(frozen(&apf), 1);
        // Next round: client drifts wildly; frozen scalar must hold.
        let locals = vec![vec![100.0]];
        run_round(&mut apf, &locals, &mut global, WARMUP_ROUNDS + 1);
        assert_eq!(global, vec![5.0]);
    }

    #[test]
    fn uploads_count_only_unfrozen() {
        let mut apf = Apf::default();
        let mut global = vec![1.0, 2.0];
        let locals = vec![vec![1.0, 2.0]];
        for round in 0..=WARMUP_ROUNDS {
            run_round(&mut apf, &locals, &mut global, round); // both freeze once warm (zero updates)
        }
        let mut up = Vec::new();
        apf.prepare_uploads_into(WARMUP_ROUNDS + 1, &locals, &global, &mut up);
        assert_eq!(up, vec![0]);
    }

    #[test]
    fn skip_fractions_track_frozen_time() {
        let mut apf = Apf::default();
        assert!(apf.skip_fractions().is_none());
        let mut global = vec![0.0];
        let locals = vec![vec![0.0]];
        for round in 0..10 {
            run_round(&mut apf, &locals, &mut global, round);
        }
        let frac = apf.skip_fractions().unwrap()[0];
        assert!(frac > 0.3, "stagnant scalar should be frozen much of the time, got {frac}");
    }

    #[test]
    fn state_bytes_scale_with_model() {
        let mut apf = Apf::default();
        let mut global = vec![0.0; 100];
        let locals = vec![vec![0.0; 100]];
        run_round(&mut apf, &locals, &mut global, 0);
        assert_eq!(apf.state_bytes(), 100 * 4 * 2 + 100 * 2 * 2);
    }
}
