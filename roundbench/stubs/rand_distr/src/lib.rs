//! Offline stand-in for the subset of `rand_distr` 0.4 that the FedSU
//! workspace calls: `Normal`, `LogNormal` and `Dirichlet` over `f64`
//! (see `../README.md` for why these stand-ins exist).

pub use rand::distributions::Distribution;
use rand::Rng;

/// Parameter rejected by a constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error;

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("invalid distribution parameter")
    }
}

impl std::error::Error for Error {}

/// Standard normal deviate (Marsaglia polar method).
fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// `N(mean, std_dev²)`; rejects a non-finite or negative `std_dev`.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if std_dev.is_finite() && std_dev >= 0.0 && mean.is_finite() {
            Ok(Normal { mean, std_dev })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * std_normal(rng)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// `exp(N(mu, sigma²))`; rejects a non-finite or negative `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, Error> {
        Normal::new(mu, sigma).map(|norm| LogNormal { norm })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// `Gamma(shape, 1)` deviate (Marsaglia–Tsang, with the `shape < 1` boost).
fn gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = std_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Symmetric Dirichlet distribution over the `size`-simplex.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alpha: f64,
    size: usize,
}

impl Dirichlet {
    /// `Dir(alpha · 1_size)`; rejects `alpha <= 0` and `size < 2`.
    pub fn new_with_size(alpha: f64, size: usize) -> Result<Self, Error> {
        if alpha.is_finite() && alpha > 0.0 && size >= 2 {
            Ok(Dirichlet { alpha, size })
        } else {
            Err(Error)
        }
    }
}

impl Distribution<Vec<f64>> for Dirichlet {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.size).map(|_| gamma(self.alpha, rng)).collect();
        let sum: f64 = out.iter().sum();
        for v in &mut out {
            *v /= sum;
        }
        out
    }
}
