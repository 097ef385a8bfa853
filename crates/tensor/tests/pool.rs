//! Integration tests for the buffer pool: pooled scratch must be invisible
//! in kernel results, and checkout/return must stay balanced.

use fedsu_tensor::{matmul_into, pool, reference};
use std::sync::Mutex;

/// Serializes the tests in this binary: they share the global pool's
/// balance counter.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic pseudo-random data (splitmix64 bits mapped into [-1, 1)).
fn data(n: usize, mut seed: u64) -> Vec<f32> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.push(((z >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0);
    }
    out
}

#[test]
fn pooled_kernel_results_are_bit_identical_to_fresh_ones() {
    let _g = gate();
    let (m, k, n) = (33, 47, 29);
    let a = data(m * k, 1);
    let b = data(k * n, 2);
    let expect = reference::matmul(&a, &b, m, k, n);
    let mut fresh = vec![0.0f32; m * n];
    matmul_into(&a, &b, &mut fresh, m, k, n).unwrap();
    for (i, (f, e)) in fresh.iter().zip(&expect).enumerate() {
        assert_eq!(f.to_bits(), e.to_bits(), "fresh output diverged: elem {i}");
    }
    // Two passes: the second one runs on a recycled buffer that held the
    // first pass's results, proving zero-on-checkout works.
    for pass in 0..2 {
        let mut pooled = pool::take_f32_buf(m * n);
        assert!(pooled.iter().all(|v| v.to_bits() == 0), "checkout must zero recycled storage");
        matmul_into(&a, &b, &mut pooled, m, k, n).unwrap();
        for (i, (p, e)) in pooled.iter().zip(&expect).enumerate() {
            assert_eq!(p.to_bits(), e.to_bits(), "pooled output diverged: pass {pass} elem {i}");
        }
        pool::give_f32_buf(pooled);
    }
}

#[test]
fn takes_and_gives_balance() {
    let _g = gate();
    let before = pool::global().outstanding();

    let raw = pool::take_f32_buf(256);
    let dims = pool::take_usize_buf(4);
    assert_eq!(pool::global().outstanding(), before.wrapping_add(2), "each take counts once");
    pool::give_f32_buf(raw);
    pool::give_usize_buf(dims);
    assert_eq!(pool::global().outstanding(), before, "each give must balance its take");

    // Tensors recycle both their buffers.
    let t = pool::pooled_zeros(&[8, 8]);
    pool::recycle(t);
    assert_eq!(pool::global().outstanding(), before, "recycle must balance pooled_zeros");
}
