//! Learning-rate schedules.
//!
//! Theorem 1 of the paper guarantees FedSU's convergence when the
//! learning-rate sequence satisfies `Ση_k = ∞` and `Ση_k² / Ση_k → 0`
//! (Eq. 13), e.g. `η_k = O(1/√T)`. The schedules here cover the constant
//! rate the evaluation uses plus the decaying forms the theorem calls for.

/// A per-round learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LrSchedule {
    /// Constant learning rate (the paper's experimental setting).
    #[default]
    Constant,
    /// `η_k = base / sqrt(k + 1)` — satisfies Eq. 13.
    InvSqrt,
    /// Multiply by `gamma` every `every` rounds.
    Step {
        /// Rounds between decays.
        every: usize,
        /// Multiplicative decay factor (0 < gamma <= 1).
        gamma: f32,
    },
}

impl LrSchedule {
    /// The learning rate for `round` (0-based) given the base rate.
    ///
    /// # Panics
    ///
    /// Panics for `Step { every: 0, .. }`.
    pub fn lr_at(&self, base: f32, round: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::InvSqrt => base / (round.saturating_add(1) as f32).sqrt(),
            LrSchedule::Step { every, gamma } => {
                assert!(every > 0, "step schedule needs a positive period");
                let steps = round.checked_div(every).and_then(|q| i32::try_from(q).ok());
                base * gamma.powi(steps.unwrap_or(i32::MAX))
            }
        }
    }

    /// Checks Eq. 13 empirically over a horizon: `Ση_k²/Ση_k` must shrink
    /// as the horizon grows. Used by tests and the analysis module.
    pub fn eq13_ratio(&self, base: f32, horizon: usize) -> f64 {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for k in 0..horizon {
            let lr = f64::from(self.lr_at(base, k));
            sum += lr;
            sum_sq += lr * lr;
        }
        if sum == 0.0 {
            0.0
        } else {
            sum_sq / sum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant;
        assert_eq!(s.lr_at(0.1, 0), 0.1);
        assert_eq!(s.lr_at(0.1, 100), 0.1);
    }

    #[test]
    fn inv_sqrt_decays() {
        let s = LrSchedule::InvSqrt;
        assert_eq!(s.lr_at(0.1, 0), 0.1);
        assert!((s.lr_at(0.1, 3) - 0.05).abs() < 1e-6);
        assert!(s.lr_at(0.1, 99) < s.lr_at(0.1, 98));
    }

    #[test]
    fn step_decays_in_stairs() {
        let s = LrSchedule::Step { every: 10, gamma: 0.5 };
        assert_eq!(s.lr_at(0.4, 9), 0.4);
        assert_eq!(s.lr_at(0.4, 10), 0.2);
        assert_eq!(s.lr_at(0.4, 25), 0.1);
    }

    #[test]
    fn inv_sqrt_satisfies_eq13() {
        let s = LrSchedule::InvSqrt;
        let r100 = s.eq13_ratio(0.1, 100);
        let r10000 = s.eq13_ratio(0.1, 10_000);
        assert!(r10000 < r100, "ratio must shrink: {r100} vs {r10000}");
        assert!(r10000 < 0.01);
    }

    #[test]
    fn constant_violates_eq13() {
        let s = LrSchedule::Constant;
        let r100 = s.eq13_ratio(0.1, 100);
        let r10000 = s.eq13_ratio(0.1, 10_000);
        assert!((r100 - r10000).abs() < 1e-9, "constant ratio never shrinks");
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn zero_step_period_panics() {
        LrSchedule::Step { every: 0, gamma: 0.5 }.lr_at(0.1, 1);
    }
}
