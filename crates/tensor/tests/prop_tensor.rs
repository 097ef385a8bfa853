//! Property tests for tensor algebra and the convolution helpers.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_cases::{check, ends_then_draw, vec_of, Rng, StdRng};
use fedsu_tensor::{
    col2im_into, im2col_into, matmul, matmul_transpose_a, matmul_transpose_b, ConvDims, Tensor,
};

const CASES: u64 = 256;

/// `len` floats uniform in `±bound`.
fn floats(rng: &mut StdRng, len: usize, bound: f32) -> Vec<f32> {
    vec_of(rng, len..=len, |r| r.gen_range(-bound..bound))
}

#[test]
fn add_commutes() {
    check("add_commutes", CASES, |rng| {
        for len in ends_then_draw(rng, 1..64) {
            let a = Tensor::from_slice(&floats(rng, len, 5.0));
            let b = Tensor::from_slice(&floats(rng, len, 5.0));
            let ab = a.add(&b).unwrap();
            let ba = b.add(&a).unwrap();
            assert_eq!(ab.data(), ba.data());
        }
    });
}

#[test]
fn sub_then_add_roundtrips() {
    check("sub_then_add_roundtrips", CASES, |rng| {
        for len in ends_then_draw(rng, 1..64) {
            let a = Tensor::from_slice(&floats(rng, len, 5.0));
            let b = Tensor::from_slice(&floats(rng, len, 5.0));
            let round = a.sub(&b).unwrap().add(&b).unwrap();
            for (x, y) in round.data().iter().zip(a.data()) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    });
}

#[test]
fn scale_is_linear() {
    check("scale_is_linear", CASES, |rng| {
        let k = rng.gen_range(-3.0f32..3.0);
        for len in ends_then_draw(rng, 1..64) {
            let a = Tensor::from_slice(&floats(rng, len, 5.0));
            let lhs = a.scale(k).sum();
            let rhs = k * a.sum();
            assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()));
        }
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check("matmul_distributes_over_addition", CASES, |rng| {
        let (m, k, n) =
            (rng.gen_range(1usize..6), rng.gen_range(1usize..6), rng.gen_range(1usize..6));
        let a = Tensor::from_vec(floats(rng, m * k, 10.0), &[m, k]).unwrap();
        let b = Tensor::from_vec(floats(rng, k * n, 10.0), &[k, n]).unwrap();
        let c = Tensor::from_vec(floats(rng, k * n, 10.0), &[k, n]).unwrap();
        let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    });
}

#[test]
fn transpose_kernels_agree_with_plain_matmul() {
    check("transpose_kernels_agree_with_plain_matmul", CASES, |rng| {
        let (m, k, n) =
            (rng.gen_range(1usize..5), rng.gen_range(1usize..5), rng.gen_range(1usize..5));
        // Build A [m,k] and B [k,n]; verify Aᵀ kernel on Aᵀ stored data and Bᵀ kernel likewise.
        let a_mat = Tensor::from_vec(floats(rng, m * k, 10.0), &[m, k]).unwrap();
        let b_mat = Tensor::from_vec(floats(rng, k * n, 10.0), &[k, n]).unwrap();
        let reference = matmul(&a_mat, &b_mat).unwrap();

        // Store A transposed ([k,m]) and use matmul_transpose_a.
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for j in 0..k {
                at[j * m + i] = a_mat.data()[i * k + j];
            }
        }
        let at = Tensor::from_vec(at, &[k, m]).unwrap();
        let via_ta = matmul_transpose_a(&at, &b_mat).unwrap();
        for (x, y) in via_ta.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-3);
        }

        // Store B transposed ([n,k]) and use matmul_transpose_b.
        let mut bt = vec![0.0f32; k * n];
        for i in 0..k {
            for j in 0..n {
                bt[j * k + i] = b_mat.data()[i * n + j];
            }
        }
        let bt = Tensor::from_vec(bt, &[n, k]).unwrap();
        let via_tb = matmul_transpose_b(&a_mat, &bt).unwrap();
        for (x, y) in via_tb.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    });
}

#[test]
fn im2col_col2im_adjoint() {
    check("im2col_col2im_adjoint", CASES, |rng| {
        let (c, h, w) =
            (rng.gen_range(1usize..3), rng.gen_range(3usize..8), rng.gen_range(3usize..8));
        let (kernel, stride, padding) =
            (rng.gen_range(1usize..4), rng.gen_range(1usize..3), rng.gen_range(0usize..2));
        let dims = ConvDims { in_channels: c, in_h: h, in_w: w, kernel, stride, padding };
        let x = floats(rng, c * h * w, 10.0);
        let mut cols = Vec::new();
        im2col_into(&x, &dims, &mut cols).unwrap();
        let y = floats(rng, dims.col_rows() * dims.col_cols(), 10.0);

        let lhs: f64 = cols.iter().zip(&y).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let mut back = vec![0.0f32; x.len()];
        col2im_into(&y, &mut back, &dims).unwrap();
        let rhs: f64 = x.iter().zip(&back).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()), "{lhs} vs {rhs}");
    });
}

#[test]
fn reshape_preserves_sum() {
    check("reshape_preserves_sum", CASES, |rng| {
        for len in ends_then_draw(rng, 1..64) {
            let a = Tensor::from_slice(&floats(rng, len, 5.0));
            let b = a.reshape(&[len, 1]).unwrap();
            assert_eq!(a.sum(), b.sum());
        }
    });
}
