//! Weight initialization.
//!
//! The initializer returns tensors whose entries are drawn uniformly from
//! `[-bound, bound]` with the Kaiming (He) bound for ReLU networks.

use crate::Tensor;
use rand::Rng;

/// Kaiming-uniform initialization: `bound = sqrt(6 / fan_in)`.
///
/// `fan_in` is the number of input connections per output unit (for a conv
/// layer, `in_channels * kernel * kernel`).
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn kaiming_uniform<R: Rng + ?Sized>(shape: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0f32 / fan_in as f32).sqrt();
    Tensor::rand_uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_bound_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let fan_in = 64;
        let bound = (6.0f32 / fan_in as f32).sqrt();
        let t = kaiming_uniform(&[32, 64], fan_in, &mut rng);
        assert!(t.data().iter().all(|&v| v.abs() <= bound));
        // Sanity: values are not all tiny (spread over the range).
        assert!(t.data().iter().any(|&v| v.abs() > bound * 0.5));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let ta = kaiming_uniform(&[8, 8], 8, &mut a);
        let tb = kaiming_uniform(&[8, 8], 8, &mut b);
        assert_eq!(ta.data(), tb.data());
    }
}
