//! Emulated cluster: per-client compute heterogeneity.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};

/// Static description of an emulated FL cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of FL clients.
    pub n_clients: usize,
    /// Sigma of the lognormal compute-speed factor across clients
    /// (0 = homogeneous devices).
    pub compute_sigma: f64,
}

impl ClusterConfig {
    /// Mirrors the paper's testbed shape at a configurable client count:
    /// modest device heterogeneity. Every client talks to the server over
    /// [`Link::fedscale_client`](crate::Link::fedscale_client).
    pub fn paper_like(n_clients: usize) -> Self {
        ClusterConfig { n_clients, compute_sigma: 0.25 }
    }
}

/// A realized cluster: the config plus each client's sampled compute factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    config: ClusterConfig,
    speed_factors: Vec<f64>,
}

impl Cluster {
    /// Samples per-client compute-speed factors deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_clients == 0`.
    pub fn build(config: &ClusterConfig, seed: u64) -> Self {
        assert!(config.n_clients > 0, "cluster needs at least one client");
        let mut rng = StdRng::seed_from_u64(seed);
        let factors = if config.compute_sigma > 0.0 {
            // A positive sigma always yields a valid distribution; a rejected
            // one degrades to homogeneous devices instead of aborting a run.
            LogNormal::new(0.0, config.compute_sigma).map_or_else(
                |_| vec![1.0; config.n_clients],
                |dist| (0..config.n_clients).map(|_| dist.sample(&mut rng)).collect(),
            )
        } else {
            vec![1.0; config.n_clients]
        };
        Cluster { config: config.clone(), speed_factors: factors }
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.config.n_clients
    }

    /// Client `i`'s compute-speed multiplier (1.0 = nominal device). An
    /// out-of-range `i` reads as a nominal device.
    pub fn speed_factor(&self, i: usize) -> f64 {
        self.speed_factors.get(i).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = ClusterConfig::paper_like(16);
        let a = Cluster::build(&cfg, 1);
        let b = Cluster::build(&cfg, 1);
        assert_eq!(a, b);
        let c = Cluster::build(&cfg, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_sigma_is_homogeneous() {
        let mut cfg = ClusterConfig::paper_like(4);
        cfg.compute_sigma = 0.0;
        let c = Cluster::build(&cfg, 0);
        for i in 0..4 {
            assert_eq!(c.speed_factor(i), 1.0);
        }
    }

    #[test]
    fn factors_are_positive_and_spread() {
        let c = Cluster::build(&ClusterConfig::paper_like(64), 7);
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for i in 0..64 {
            let f = c.speed_factor(i);
            assert!(f > 0.0);
            min = min.min(f);
            max = max.max(f);
        }
        assert!(max > min, "heterogeneous factors expected");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_cluster_panics() {
        let mut cfg = ClusterConfig::paper_like(1);
        cfg.n_clients = 0;
        Cluster::build(&cfg, 0);
    }
}
