//! Convergence analysis (Theorem 1).
//!
//! The paper proves that under β-smoothness (Assumption 1) and bounded
//! gradients (Assumption 2), FedSU's averaged squared gradient norm is
//! bounded by
//!
//! ```text
//!   4(F(x₀) − F(x*)) / Ση_k
//! + 4σ²β²T_S² · Ση_k³ / Ση_k
//! + 2σ²β    · Ση_k²  / Ση_k            (Eq. 4)
//! ```
//!
//! This module evaluates the bound for a learning-rate schedule so tests
//! (and users picking `T_S`) can check the convergence conditions of Eq. 13
//! numerically: the bound must vanish as `T → ∞` for admissible schedules,
//! and the middle term makes the `T_S`-dependence explicit — the knob the
//! paper's Fig. 10 shows breaking accuracy when loosened too far.

use fedsu_fl::LrSchedule;

/// Problem constants of Assumptions 1-2 plus the initial optimality gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemConstants {
    /// Smoothness constant β.
    pub beta: f64,
    /// Gradient bound σ (‖g‖ ≤ σ).
    pub sigma: f64,
    /// Initial gap `F(x₀) − F(x*)`.
    pub initial_gap: f64,
}

impl Default for ProblemConstants {
    fn default() -> Self {
        ProblemConstants { beta: 1.0, sigma: 1.0, initial_gap: 1.0 }
    }
}

/// The three terms of Eq. 4, separated so their relative magnitudes can be
/// inspected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceBound {
    /// Optimization term `4(F(x₀)−F(x*)) / Ση_k`.
    pub optimization_term: f64,
    /// Speculation-error term `4σ²β²T_S² Ση_k³ / Ση_k`.
    pub speculation_term: f64,
    /// Stochastic-gradient term `2σ²β Ση_k² / Ση_k`.
    pub noise_term: f64,
}

impl ConvergenceBound {
    /// The full right-hand side of Eq. 4.
    pub fn total(&self) -> f64 {
        self.optimization_term + self.speculation_term + self.noise_term
    }
}

/// Evaluates Theorem 1's bound after `t` rounds of the given schedule with
/// error-feedback threshold `t_s`.
///
/// # Panics
///
/// Panics if `t == 0` or `base_lr <= 0`.
pub fn theorem1_bound(
    constants: &ProblemConstants,
    schedule: LrSchedule,
    base_lr: f32,
    t: usize,
    t_s: f64,
) -> ConvergenceBound {
    assert!(t > 0, "need at least one round");
    assert!(base_lr > 0.0, "learning rate must be positive");
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut sum_cube = 0.0f64;
    for k in 0..t {
        let lr = f64::from(schedule.lr_at(base_lr, k));
        sum += lr;
        sum_sq += lr * lr;
        sum_cube += lr * lr * lr;
    }
    let sigma_sq = constants.sigma * constants.sigma;
    let beta = constants.beta;
    ConvergenceBound {
        optimization_term: 4.0 * constants.initial_gap / sum,
        speculation_term: 4.0 * sigma_sq * beta * beta * t_s * t_s * sum_cube / sum,
        noise_term: 2.0 * sigma_sq * beta * sum_sq / sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: ProblemConstants = ProblemConstants { beta: 1.0, sigma: 1.0, initial_gap: 1.0 };

    #[test]
    fn bound_vanishes_under_inv_sqrt_schedule() {
        // Eq. 13 admissible schedule: every term must shrink with T.
        let short = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 100, 1.0);
        let long = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 100_000, 1.0);
        assert!(long.total() < short.total(), "{} vs {}", long.total(), short.total());
        assert!(long.noise_term < short.noise_term);
        assert!(long.optimization_term < short.optimization_term);
    }

    #[test]
    fn constant_schedule_keeps_a_noise_floor() {
        // With constant lr the noise term converges to 2σ²βη, not to 0.
        let b = theorem1_bound(&C, LrSchedule::Constant, 0.1, 1_000_000, 1.0);
        assert!((b.noise_term - 2.0 * 0.1).abs() < 1e-6);
        assert!(b.optimization_term < 1e-4);
    }

    #[test]
    fn speculation_term_scales_quadratically_with_ts() {
        let b1 = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 1000, 1.0);
        let b10 = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 1000, 10.0);
        let ratio = b10.speculation_term / b1.speculation_term;
        assert!((ratio - 100.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn tighter_ts_never_worsens_the_bound() {
        for t_s in [0.1, 1.0, 10.0, 100.0] {
            let loose = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 500, t_s * 2.0);
            let tight = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 500, t_s);
            assert!(tight.total() <= loose.total());
        }
    }

    #[test]
    fn harder_problems_have_larger_bounds() {
        let easy = theorem1_bound(&C, LrSchedule::InvSqrt, 0.1, 500, 1.0);
        let hard = theorem1_bound(
            &ProblemConstants { beta: 4.0, sigma: 2.0, initial_gap: 10.0 },
            LrSchedule::InvSqrt,
            0.1,
            500,
            1.0,
        );
        assert!(hard.total() > easy.total());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        theorem1_bound(&C, LrSchedule::Constant, 0.1, 0, 1.0);
    }
}
