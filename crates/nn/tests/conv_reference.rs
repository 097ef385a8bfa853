//! Cross-checks the im2col convolution against a naive direct convolution
//! reference, over randomized geometries.

// Tests and benches may unwrap: a panic here IS the failure report
// (mirrors allow-unwrap-in-tests in clippy.toml for non-#[test] helpers).
#![allow(clippy::unwrap_used)]

use fedsu_cases::{check, Rng};
use fedsu_nn::conv2d::Conv2d;
use fedsu_nn::{Layer, Param};
use fedsu_tensor::Tensor;

/// Geometry of the naive reference convolution (NCHW input, square kernel).
#[derive(Debug, Clone, Copy)]
struct NaiveConvGeom {
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

/// Direct (quadruple-loop) 2-D convolution over NCHW input.
fn naive_conv(input: &[f32], weight: &[f32], bias: &[f32], g: NaiveConvGeom) -> Vec<f32> {
    let NaiveConvGeom { batch, in_c, h, w, out_c, k, stride, pad } = g;
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut out = vec![0.0f32; batch * out_c * oh * ow];
    for n in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                    let iv = input
                                        [n * in_c * h * w + ic * h * w + iy as usize * w + ix as usize];
                                    let wv = weight[oc * in_c * k * k + ic * k * k + ky * k + kx];
                                    acc += iv * wv;
                                }
                            }
                        }
                    }
                    out[n * out_c * oh * ow + oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
    }
    out
}

#[test]
fn im2col_conv_matches_naive_reference() {
    check("im2col_conv_matches_naive_reference", 24, |rng| {
        let (batch, in_c) = (rng.gen_range(1usize..3), rng.gen_range(1usize..3));
        let (out_c, k) = (rng.gen_range(1usize..4), rng.gen_range(1usize..4));
        let (h, w) = (rng.gen_range(3usize..9), rng.gen_range(3usize..9));
        let (stride, pad) = (rng.gen_range(1usize..3), rng.gen_range(0usize..2));
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, rng).unwrap();
        let x = Tensor::rand_uniform(&[batch, in_c, h, w], -1.0, 1.0, rng);

        // Pull the layer's actual weights/bias through the Param visitor
        // (visit order: weight then bias).
        let mut buffers: Vec<Vec<f32>> = Vec::new();
        conv.visit_params(&mut |p: &Param| buffers.push(p.value.data().to_vec()));
        let bias = buffers.pop().unwrap();
        let weight = buffers.pop().unwrap();

        let fast = conv.forward(&x, false).unwrap();
        let geom = NaiveConvGeom { batch, in_c, h, w, out_c, k, stride, pad };
        let reference = naive_conv(x.data(), &weight, &bias, geom);
        assert_eq!(fast.len(), reference.len());
        for (a, b) in fast.data().iter().zip(&reference) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    });
}
