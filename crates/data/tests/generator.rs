//! Pins the workspace's one generator. Every seeded result in the repository
//! (EXPERIMENTS.md, the roundbench checksums, the property tests' cases)
//! hangs off `rand::rngs::StdRng` and the three `rand_distr` distributions
//! as patched in from `roundbench/stubs/`; a changed stream or a skewed
//! sampler must fail here, not silently move those numbers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Dirichlet, Distribution, LogNormal, Normal};

const DRAWS: usize = 100_000;

#[test]
fn seed_42_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    let pinned: [u64; 8] = [
        0x1578_0b2e_0c2e_c716,
        0x6104_d986_6d11_3a7e,
        0xae17_5332_39e4_99a1,
        0xecb8_ad47_03b3_60a1,
        0xfde6_dc7f_e2ec_5e64,
        0xc50d_a531_0179_5238,
        0xb821_5485_5a65_ddb2,
        0xd99a_2743_ebe6_0087,
    ];
    assert_eq!(first, pinned, "{first:#018x?}");
}

#[test]
fn gen_range_respects_both_ends_of_half_open_and_inclusive_bounds() {
    let mut rng = StdRng::seed_from_u64(42);
    // Integers: a 4-value range must hit both ends and nothing outside.
    let mut seen_usize = [false; 4];
    let mut seen_u32 = [false; 4];
    for _ in 0..DRAWS {
        seen_usize[rng.gen_range(3usize..7) - 3] = true;
        seen_u32[(rng.gen_range(3u32..=6) - 3) as usize] = true;
        let _: u32 = rng.gen_range(0..=u32::MAX); // the whole domain is a legal inclusive range
    }
    assert_eq!((seen_usize, seen_u32), ([true; 4], [true; 4]));
    assert_eq!(rng.gen_range(5usize..6), 5);
    assert_eq!(rng.gen_range(5u32..=5), 5);
    // Floats: inside the bounds, the open end never reached, both ends approached.
    let (mut lo32, mut hi32, mut lo64, mut hi64) = (f32::MAX, f32::MIN, f64::MAX, f64::MIN);
    for _ in 0..DRAWS {
        let x = rng.gen_range(-2.0f32..3.0);
        let y = rng.gen_range(-2.0f64..=3.0);
        assert!((-2.0..3.0).contains(&x), "{x}");
        assert!((-2.0..=3.0).contains(&y), "{y}");
        (lo32, hi32) = (lo32.min(x), hi32.max(x));
        (lo64, hi64) = (lo64.min(y), hi64.max(y));
    }
    assert!(lo32 < -1.999 && hi32 > 2.999, "f32 draws span [{lo32}, {hi32}]");
    assert!(lo64 < -1.999 && hi64 > 2.999, "f64 draws span [{lo64}, {hi64}]");
    assert_eq!(rng.gen_range(1.5f64..=1.5), 1.5);
}

#[test]
fn shuffle_returns_a_permutation() {
    let mut rng = StdRng::seed_from_u64(42);
    for len in [0usize, 1, 2, 97] {
        let mut v: Vec<usize> = (0..len).collect();
        v.shuffle(&mut rng);
        let moved = v.iter().enumerate().filter(|&(i, &x)| i != x).count();
        assert!(len < 97 || moved > 80, "a 97-element shuffle moved only {moved}");
        v.sort_unstable();
        assert_eq!(v, (0..len).collect::<Vec<_>>());
    }
}

#[test]
fn normal_and_lognormal_have_the_stated_moments() {
    let mut rng = StdRng::seed_from_u64(42);
    let (mu, sigma) = (1.5f64, 0.75f64);
    let normal = Normal::new(mu, sigma).expect("valid parameters");
    let xs: Vec<f64> = (0..DRAWS).map(|_| normal.sample(&mut rng)).collect();
    let mean = xs.iter().sum::<f64>() / DRAWS as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / DRAWS as f64;
    assert!((mean - mu).abs() < 0.02 * sigma, "mean {mean}");
    assert!((var / (sigma * sigma) - 1.0).abs() < 0.03, "variance {var}");

    let log_normal = LogNormal::new(mu, sigma).expect("valid parameters");
    let mut ys: Vec<f64> = (0..DRAWS).map(|_| log_normal.sample(&mut rng)).collect();
    ys.sort_by(f64::total_cmp);
    let median = ys[DRAWS / 2];
    assert!(ys[0] > 0.0);
    assert!((median / mu.exp() - 1.0).abs() < 0.03, "median {median} vs e^mu {}", mu.exp());
}

/// Mean of each coordinate and mean of the largest coordinate over `rows` draws.
fn dirichlet_means(alpha: f64, k: usize, rows: usize, rng: &mut StdRng) -> (Vec<f64>, f64) {
    let dirichlet = Dirichlet::new_with_size(alpha, k).expect("valid parameters");
    let mut sums = vec![0.0f64; k];
    let mut max_sum = 0.0f64;
    for _ in 0..rows {
        let row = dirichlet.sample(rng);
        assert_eq!(row.len(), k);
        assert!(row.iter().all(|&p| p >= 0.0), "{row:?}");
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{row:?}");
        for (s, p) in sums.iter_mut().zip(&row) {
            *s += p;
        }
        max_sum += row.iter().copied().fold(0.0, f64::max);
    }
    (sums.iter().map(|s| s / rows as f64).collect(), max_sum / rows as f64)
}

#[test]
fn dirichlet_rows_are_distributions_and_alpha_controls_skew() {
    let mut rng = StdRng::seed_from_u64(42);
    let k = 5;
    let (skewed_means, skewed_max) = dirichlet_means(0.1, k, DRAWS / 5, &mut rng);
    let (flat_means, flat_max) = dirichlet_means(10.0, k, DRAWS / 5, &mut rng);
    for mean in skewed_means.iter().chain(&flat_means) {
        assert!((mean * k as f64 - 1.0).abs() < 0.02, "coordinate mean {mean} vs 1/{k}");
    }
    assert!(
        skewed_max > flat_max + 0.3,
        "largest share: alpha 0.1 {skewed_max} vs alpha 10 {flat_max}"
    );
}
