//! Integration tests for the buffer pool behind `Tensor`: pooled storage
//! must be invisible in kernel results, reused in place, and every tensor
//! built must be counted back when it drops.

use fedsu_tensor::{matmul_into, pool, reference, Tensor};
use std::sync::Mutex;

/// Serializes the tests in this binary: they share the global pool's
/// balance counter and free lists.
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
        let mut pooled = Tensor::zeros(&[m, n]);
        assert!(pooled.data().iter().all(|v| v.to_bits() == 0), "checkout must zero recycled storage");
        matmul_into(&a, &b, pooled.data_mut(), m, k, n).unwrap();
        for (i, (p, e)) in pooled.data().iter().zip(&expect).enumerate() {
            assert_eq!(p.to_bits(), e.to_bits(), "pooled output diverged: pass {pass} elem {i}");
        }
    }
}

/// Builds a tensor with `build`, then drops it: `outstanding()` moves up by
/// one and back.
fn counts_once(name: &str, build: impl FnOnce() -> Tensor) {
    let at = pool::global().outstanding();
    let t = build();
    assert_eq!(pool::global().outstanding(), at.wrapping_add(1), "{name}: building counts one checkout");
    drop(t);
    assert_eq!(pool::global().outstanding(), at, "{name}: dropping counts one return");
}

/// Every constructor counts one checkout and every drop one return, so
/// building and dropping a tensor leaves `outstanding()` where it was.
#[test]
fn takes_and_gives_balance() {
    let _g = gate();
    let before = pool::global().outstanding();
    let base = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
    counts_once("zeros", || Tensor::zeros(&[8, 8]));
    counts_once("from_vec", || Tensor::from_vec(vec![0.5; 6], &[2, 3]).unwrap());
    counts_once("From<Vec<f32>>", || Tensor::from(vec![1.5; 5]));
    counts_once("FromIterator", || (0..7).map(|v| v as f32).collect());
    counts_once("clone", || base.clone());
    counts_once("reshape", || base.reshape(&[2, 2]).unwrap());
    counts_once("add", || base.add(&base).unwrap());
    assert_eq!(pool::global().outstanding(), before.wrapping_add(1), "a live tensor counts once");
    drop(base);
    assert_eq!(pool::global().outstanding(), before);
}

/// A checkout served from a returned buffer reuses its storage without
/// growing it, whether the pool or an adopted `Vec` first allocated it.
#[test]
fn returned_buffers_are_reused_in_place() {
    let _g = gate();
    let t = Tensor::zeros(&[8, 8]);
    let ptr = t.data().as_ptr();
    drop(t);
    let again = Tensor::zeros(&[7, 9]); // 63 elements: the same class (64)
    assert_eq!(again.data().as_ptr(), ptr, "the dropped tensor's buffer comes back");
    assert!(again.data().iter().all(|&v| v == 0.0));
    drop(again);

    // Capacity 100 holds class 64 but not class 128.
    let adopted = Tensor::from_vec(vec![1.0; 100], &[100]).unwrap();
    let ptr = adopted.data().as_ptr();
    drop(adopted);
    let fits = Tensor::zeros(&[64]);
    assert_eq!(fits.data().as_ptr(), ptr, "an adopted buffer serves its floor class");
    assert!(fits.data().iter().all(|&v| v == 0.0));
}
