//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are dropped).
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-quantile (`0 <= p <= 1`), by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics on an empty CDF or `p` outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty cdf");
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        let rank = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
    }

    /// `n` evenly-spaced `(value, cumulative_fraction)` points for printing
    /// a CDF curve.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n > 0, "need at least one point");
        if self.sorted.is_empty() {
            return Vec::new();
        }
        (1..=n)
            .map(|i| {
                let p = i as f64 / n as f64;
                (self.quantile(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_below_counts_inclusive() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.fraction_below(2.0), 0.5);
        assert_eq!(cdf.fraction_below(0.5), 0.0);
        assert_eq!(cdf.fraction_below(10.0), 1.0);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let cdf = Cdf::from_samples([3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.quantile(0.25), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
    }

    #[test]
    fn nans_are_dropped() {
        let cdf = Cdf::from_samples([f64::NAN, 1.0, f64::NAN]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn points_cover_the_distribution() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from));
        let pts = cdf.points(4);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[3], (100.0, 1.0));
        assert!(pts[0].0 <= pts[1].0 && pts[1].0 <= pts[2].0);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples([]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_below(1.0), 0.0);
        assert!(cdf.points(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty cdf")]
    fn quantile_of_empty_panics() {
        Cdf::from_samples([]).quantile(0.5);
    }
}
