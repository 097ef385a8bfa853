//! Time-varying bandwidth traces.
//!
//! The paper throttles links to FedScale's *average* mobile bandwidth; real
//! mobile links fluctuate. These traces scale a client's bandwidth per
//! round so experiments can test sensitivity to network dynamics.

/// A deterministic per-(client, round) bandwidth multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BandwidthTrace {
    /// No variation (the paper's wondershaper setting).
    #[default]
    Constant,
    /// Sinusoidal diurnal-style variation around 1.0.
    Sinusoidal {
        /// Peak deviation from 1.0 (0 < amplitude < 1).
        amplitude: f64,
        /// Rounds per full cycle.
        period: usize,
    },
    /// Deterministic pseudo-random fluctuation in `[1-spread, 1+spread]`,
    /// decorrelated across clients.
    Jitter {
        /// Half-width of the fluctuation band (0 < spread < 1).
        spread: f64,
    },
}

impl BandwidthTrace {
    /// The bandwidth multiplier for `client` at `round` (always positive).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn factor(&self, client: usize, round: usize) -> f64 {
        match *self {
            BandwidthTrace::Constant => 1.0,
            BandwidthTrace::Sinusoidal { amplitude, period } => {
                assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0, 1)");
                assert!(period > 0, "period must be positive");
                // Phase-shift per client so peaks don't align.
                let phase = client as f64 * 0.7;
                1.0 + amplitude * ((round as f64 / period as f64) * std::f64::consts::TAU + phase).sin()
            }
            BandwidthTrace::Jitter { spread } => {
                assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
                // SplitMix64-style hash of (client, round) -> [0, 1).
                let mut z = (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round as u64);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                1.0 - spread + 2.0 * spread * u
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        assert_eq!(BandwidthTrace::Constant.factor(3, 17), 1.0);
    }

    #[test]
    fn sinusoid_stays_in_band_and_cycles() {
        let t = BandwidthTrace::Sinusoidal { amplitude: 0.3, period: 10 };
        for round in 0..50 {
            let f = t.factor(0, round);
            assert!((0.7..=1.3).contains(&f), "factor {f}");
        }
        // Periodicity.
        assert!((t.factor(0, 3) - t.factor(0, 13)).abs() < 1e-9);
        // Clients are phase-shifted.
        assert_ne!(t.factor(0, 0), t.factor(1, 0));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelated() {
        let t = BandwidthTrace::Jitter { spread: 0.4 };
        let mut values = Vec::new();
        for round in 0..100 {
            let f = t.factor(2, round);
            assert!((0.6..=1.4).contains(&f), "factor {f}");
            assert_eq!(f, t.factor(2, round), "deterministic");
            values.push(f);
        }
        // Not constant.
        assert!(values.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6));
        // Mean near 1 (unbiased).
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn bad_amplitude_panics() {
        BandwidthTrace::Sinusoidal { amplitude: 1.0, period: 5 }.factor(0, 0);
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn bad_spread_panics() {
        BandwidthTrace::Jitter { spread: 1.5 }.factor(0, 0);
    }
}
