//! Regression-free linearity diagnosis (Sec. IV-A).
//!
//! A parameter updating linearly has a stable first-order difference
//! (gradient), so its *second-order* difference `g′_k = g_k − g_{k−1}`
//! oscillates around zero. Rather than fitting a regression over a history
//! window, FedSU smooths `g′` and `|g′|` with exponential moving averages
//! and tests the **second-order oscillation ratio**
//!
//! ```text
//! R = |⟨g′⟩_θ| / ⟨|g′|⟩_θ            (Eq. 2)
//! ```
//!
//! `R ≈ 0` when the signed second differences cancel (oscillation around 0,
//! i.e. linear updating) and `R ≈ 1` when they consistently point one way
//! (curvature). Memory cost is two floats per scalar — no history window.

/// Paired EMAs of a signal and of its absolute value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EmaPair {
    /// EMA of the signed signal, `⟨g′⟩_θ`.
    pub signed: f32,
    /// EMA of the magnitude, `⟨|g′|⟩_θ`.
    pub magnitude: f32,
}

impl EmaPair {
    /// Folds one observation in with decay `theta`
    /// (`⟨x⟩ ← θ·⟨x⟩ + (1−θ)·x`).
    pub fn observe(&mut self, value: f32, theta: f32) {
        self.signed = theta * self.signed + (1.0 - theta) * value;
        self.magnitude = theta * self.magnitude + (1.0 - theta) * value.abs();
    }

    /// The oscillation ratio `|⟨g′⟩| / ⟨|g′|⟩ ∈ [0, 1]`.
    ///
    /// When the magnitude EMA is (numerically) zero the signal has been
    /// identically zero — a perfectly stable gradient — so the ratio is 0
    /// (maximal linearity; the stagnating pattern is the special case the
    /// paper generalizes from).
    pub fn ratio(&self) -> f64 {
        if self.magnitude <= f32::EPSILON {
            0.0
        } else {
            (f64::from(self.signed.abs()) / f64::from(self.magnitude)).min(1.0)
        }
    }

    /// Eq. 2's decision value given the magnitude of the update the second
    /// differences ride on: 0 when their EMA magnitude is negligible
    /// relative to it (below `1e-3·|update|`), the raw [`ratio`] otherwise.
    /// The trajectory is then linear to within numerical noise — float
    /// rounding on an exactly-linear trajectory would otherwise produce an
    /// arbitrary ratio.
    ///
    /// [`ratio`]: EmaPair::ratio
    pub fn guarded_ratio(&self, update: f32) -> f64 {
        if self.magnitude <= 1e-3 * update.abs() {
            0.0
        } else {
            self.ratio()
        }
    }

    /// Resets both EMAs to zero (used when a parameter re-enters regular
    /// updating and its history is stale).
    pub fn reset(&mut self) {
        *self = EmaPair::default();
    }
}

/// Per-scalar oscillation-ratio diagnostic over a whole parameter vector.
///
/// Feed it the global parameter vector once per synchronized round via
/// [`observe_params`](OscillationDiagnostic::observe_params); it maintains
/// the first/second-order differences internally and exposes each scalar's
/// current ratio. The FedSU manager embeds the same arithmetic in its
/// round loop; this standalone form is the reference the manager is checked
/// against (`tests/properties.rs`,
/// `manager_and_standalone_diagnostic_agree_on_eq2`), and
/// `tests/linearity_validation.rs` drives it on synthetic series.
#[derive(Debug, Clone)]
pub struct OscillationDiagnostic {
    theta: f32,
    prev_value: Vec<f32>,
    prev_update: Vec<f32>,
    ema: Vec<EmaPair>,
    observations: usize,
}

impl OscillationDiagnostic {
    /// Creates a diagnostic for `n` scalars with EMA decay `theta`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < theta < 1`.
    pub fn new(n: usize, theta: f32) -> Self {
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        OscillationDiagnostic {
            theta,
            prev_value: vec![0.0; n],
            prev_update: vec![0.0; n],
            ema: vec![EmaPair::default(); n],
            observations: 0,
        }
    }

    /// Number of parameter vectors observed so far.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Observes a new (post-synchronization) parameter vector.
    ///
    /// The first observation seeds values, the second seeds first-order
    /// differences; ratios become meaningful from the third onward.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the diagnostic's size.
    pub fn observe_params(&mut self, params: &[f32]) {
        assert_eq!(params.len(), self.prev_value.len(), "parameter count changed");
        match self.observations {
            0 => self.prev_value.copy_from_slice(params),
            1 => {
                for ((u, &p), &v) in self.prev_update.iter_mut().zip(params).zip(&self.prev_value) {
                    *u = p - v;
                }
                self.prev_value.copy_from_slice(params);
            }
            _ => {
                let state = self.ema.iter_mut().zip(&mut self.prev_update);
                for ((&p, &v), (ema, u)) in params.iter().zip(&self.prev_value).zip(state) {
                    let g = p - v;
                    ema.observe(g - *u, self.theta);
                    *u = g;
                }
                self.prev_value.copy_from_slice(params);
            }
        }
        self.observations += 1;
    }

    /// Current oscillation ratio of scalar `j`, guarded against the last
    /// update's magnitude ([`EmaPair::guarded_ratio`]); `None` when `j` is
    /// out of range.
    pub fn ratio(&self, j: usize) -> Option<f64> {
        let ema = self.ema.get(j)?;
        self.prev_update.get(j).map(|&u| ema.guarded_ratio(u))
    }

    /// All ratios (allocates), with the same relative-magnitude guard as
    /// [`ratio`](OscillationDiagnostic::ratio).
    pub fn ratios(&self) -> Vec<f64> {
        self.ema.iter().zip(&self.prev_update).map(|(ema, &u)| ema.guarded_ratio(u)).collect()
    }

    /// Whether scalar `j` currently diagnoses as linear under threshold
    /// `t_r`, requiring at least 3 observations (never for an out-of-range
    /// `j`).
    pub fn is_linear(&self, j: usize, t_r: f64) -> bool {
        self.observations >= 3 && self.ratio(j).is_some_and(|r| r < t_r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ema_pair_tracks_signal() {
        let mut e = EmaPair::default();
        for _ in 0..100 {
            e.observe(1.0, 0.9);
        }
        assert!((e.signed - 1.0).abs() < 0.01);
        assert!((e.magnitude - 1.0).abs() < 0.01);
        assert!((e.ratio() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn oscillating_signal_has_small_ratio() {
        let mut e = EmaPair::default();
        for k in 0..200 {
            e.observe(if k % 2 == 0 { 0.1 } else { -0.1 }, 0.95);
        }
        assert!(e.ratio() < 0.05, "ratio {}", e.ratio());
    }

    #[test]
    fn zero_signal_is_maximally_linear() {
        let mut e = EmaPair::default();
        e.observe(0.0, 0.9);
        assert_eq!(e.ratio(), 0.0);
    }

    #[test]
    fn empty_window_ratio_is_zero_not_nan() {
        // Before any observation both EMA terms are zero: the raw ratio is
        // 0/0 and the documented sentinel is 0.0, never NaN.
        let e = EmaPair::default();
        assert_eq!(e.ratio(), 0.0);
        assert!(!e.ratio().is_nan());

        let d = OscillationDiagnostic::new(3, 0.9);
        for j in 0..3 {
            assert_eq!(d.ratio(j).unwrap(), 0.0, "scalar {j}");
            assert!(!d.ratio(j).unwrap().is_nan(), "scalar {j}");
        }
        assert!(d.ratios().iter().all(|r| r.is_finite()));
        assert!(!d.is_linear(0, 0.5), "needs >= 3 observations");
    }

    #[test]
    fn ratio_is_bounded() {
        let mut e = EmaPair::default();
        for v in [-1.0f32, 5.0, -0.1, 2.0, -7.0] {
            e.observe(v, 0.9);
            let r = e.ratio();
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut e = EmaPair::default();
        e.observe(3.0, 0.9);
        e.reset();
        assert_eq!(e, EmaPair::default());
    }

    #[test]
    fn linear_trajectory_diagnoses_linear() {
        // x_k = 0.5 - 0.01k: perfectly linear.
        let mut d = OscillationDiagnostic::new(1, 0.9);
        for k in 0..20 {
            d.observe_params(&[0.5 - 0.01 * k as f32]);
        }
        assert!(d.is_linear(0, 0.01), "ratio {}", d.ratio(0).unwrap());
    }

    #[test]
    fn quadratic_trajectory_diagnoses_nonlinear() {
        // x_k = k²·1e-3: constant positive curvature, g' constant ≠ 0.
        let mut d = OscillationDiagnostic::new(1, 0.9);
        for k in 0..20 {
            let k = k as f32;
            d.observe_params(&[k * k * 1e-3]);
        }
        assert!(d.ratio(0).unwrap() > 0.9, "ratio {}", d.ratio(0).unwrap());
        assert!(!d.is_linear(0, 0.01));
    }

    #[test]
    fn noisy_linear_beats_noisy_quadratic() {
        // With identical noise, the linear trajectory must diagnose more
        // linear than the quadratic one.
        let noise = |k: usize| ((k as f32 * 12.9898).sin() * 43758.547).fract() * 0.002 - 0.001;
        let mut lin = OscillationDiagnostic::new(1, 0.9);
        let mut quad = OscillationDiagnostic::new(1, 0.9);
        for k in 0..60 {
            lin.observe_params(&[-0.01 * k as f32 + noise(k)]);
            let kf = k as f32;
            quad.observe_params(&[kf * kf * 5e-4 + noise(k)]);
        }
        let (lin, quad) = (lin.ratio(0).unwrap(), quad.ratio(0).unwrap());
        assert!(lin < quad, "lin {lin} quad {quad}");
    }

    #[test]
    fn needs_three_observations() {
        let mut d = OscillationDiagnostic::new(1, 0.9);
        d.observe_params(&[0.0]);
        d.observe_params(&[0.1]);
        assert!(!d.is_linear(0, 1.0));
        d.observe_params(&[0.2]);
        assert!(d.is_linear(0, 1.0));
        assert_eq!(d.observations(), 3);
    }

    #[test]
    fn per_scalar_independence() {
        let mut d = OscillationDiagnostic::new(2, 0.9);
        for k in 0..20 {
            let kf = k as f32;
            d.observe_params(&[-0.01 * kf, kf * kf * 1e-3]);
        }
        assert!(d.ratio(0).unwrap() < 0.01);
        assert!(d.ratio(1).unwrap() > 0.9);
        let rs = d.ratios();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn bad_theta_panics() {
        OscillationDiagnostic::new(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "parameter count changed")]
    fn size_change_panics() {
        let mut d = OscillationDiagnostic::new(2, 0.9);
        d.observe_params(&[0.0]);
    }
}
