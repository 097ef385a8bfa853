//! 2-D convolution layer: direct kernels for stride-1 "same" convs,
//! im2col lowering for the rest.

use crate::layer::{Layer, Param};
use crate::{NnError, Result};
use fedsu_tensor::{
    col2im_into, conv_same_forward, conv_same_input_grad, conv_same_weight_grad, im2col_into,
    kaiming_uniform, matmul_into, matmul_transpose_a_into, matmul_transpose_b_into, ConvDims,
    SameConvScratch, Tensor,
};
use rand::Rng;

/// A 2-D convolution over `NCHW` inputs with square kernels.
///
/// Weights are stored as a matrix `[out_channels, in_channels * k * k]`.
/// The layer picks its path by geometry alone:
///
/// * a stride-1 "same" convolution ([`ConvDims::is_same`]: the CNN's two
///   5×5 convs, every stride-1 ResNet/DenseNet conv) runs the direct
///   kernels of `fedsu-tensor` per sample — forward, weight and bias
///   gradient, input gradient — which read the image and `dY` through a
///   zero-padded copy and never build a column matrix;
/// * a strided or shrinking convolution is lowered: one matmul against the
///   sample's `im2col` matrix forward; `dY·colsᵀ`, and `Wᵀ·dY` scattered
///   back by `col2im`, backward.
///
/// Both give every element the same chain (DESIGN.md §10). The backward
/// pass recomputes the padded copy (or the columns) from the cached input
/// rather than caching them per sample: kept columns fell out of L2 before
/// the backward read them, and measured slower as well as bigger on
/// roundbench's `train_cnn` (DESIGN.md §10). Scratch lives in the layer, so
/// steady-state forward/backward passes do no per-sample allocation.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_channels: usize,
    cached_input: Option<Tensor>,
    /// The direct path's scratch.
    same: SameConvScratch,
    /// im2col scratch of the lowering path, reused across samples and calls.
    cols: Vec<f32>,
    /// Column-gradient scratch of the lowering path's backward pass.
    dcols: Vec<f32>,
    /// Per-sample weight-gradient scratch of the lowering path's backward
    /// pass.
    dw: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero channels/kernel/stride.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::BadConfig(format!(
                "conv dims must be positive: in={in_channels} out={out_channels} k={kernel} s={stride}"
            )));
        }
        let fan_in = in_channels * kernel * kernel;
        let weight = kaiming_uniform(&[out_channels, fan_in], fan_in, rng);
        Ok(Conv2d {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            out_channels,
            kernel,
            stride,
            padding,
            in_channels,
            cached_input: None,
            same: SameConvScratch::default(),
            cols: Vec::new(),
            dcols: Vec::new(),
            dw: Vec::new(),
        })
    }

    fn dims_for(&self, input: &Tensor) -> Result<(usize, ConvDims)> {
        match input.shape() {
            &[batch, chans, in_h, in_w] if chans == self.in_channels => Ok((
                batch,
                ConvDims {
                    in_channels: self.in_channels,
                    in_h,
                    in_w,
                    kernel: self.kernel,
                    stride: self.stride,
                    padding: self.padding,
                },
            )),
            _ => Err(NnError::new_bad_input(
                "conv2d",
                format_args!("[batch, {}, h, w]", self.in_channels),
                input.shape(),
            )),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The backward pass: accumulates `dW` and `db`, and returns the input
    /// gradient only when `input_grad` is set — without it the per-sample
    /// input-gradient kernels are skipped.
    fn backward_impl(&mut self, grad_output: &Tensor, input_grad: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        let (batch, dims) = self.dims_for(&input)?;
        let (out_h, out_w) = (dims.out_h(), dims.out_w());
        let plane = out_h * out_w;
        let expected = [batch, self.out_channels, out_h, out_w];
        if grad_output.shape() != expected {
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad {expected:?}"),
                grad_output.shape(),
            ));
        }
        let sample_in = self.in_channels * dims.in_h * dims.in_w;
        let out_sample = self.out_channels * plane;
        let mut grad_in_t = input_grad.then(|| Tensor::zeros(input.shape()));
        let samples = input.data().chunks_exact(sample_in.max(1)).zip(grad_output.data().chunks_exact(out_sample.max(1)));
        for (n, (img, dy)) in samples.enumerate().take(batch) {
            let dx = grad_in_t.as_mut().and_then(|t| t.data_mut().get_mut(n * sample_in..(n + 1) * sample_in));
            if dims.is_same() {
                self.backward_same(img, dy, dx, &dims)?;
            } else {
                self.backward_lowered(img, dy, dx, &dims)?;
            }
        }
        Ok(grad_in_t)
    }

    /// One sample's backward on the direct path.
    fn backward_same(&mut self, img: &[f32], dy: &[f32], dx: Option<&mut [f32]>, dims: &ConvDims) -> Result<()> {
        conv_same_weight_grad(img, dy, self.weight.grad.data_mut(), self.bias.grad.data_mut(), dims, &mut self.same)?;
        if let Some(dx) = dx {
            conv_same_input_grad(dy, self.weight.value.data(), dx, dims, &mut self.same)?;
        }
        Ok(())
    }

    /// One sample's backward on the lowering path.
    fn backward_lowered(&mut self, img: &[f32], dy: &[f32], dx: Option<&mut [f32]>, dims: &ConvDims) -> Result<()> {
        let fan_in = dims.col_rows();
        let plane = dims.col_cols();
        im2col_into(img, dims, &mut self.cols)?;
        // dW += dY · colsᵀ
        self.dw.resize(self.out_channels * fan_in, 0.0);
        matmul_transpose_b_into(dy, &self.cols, &mut self.dw, self.out_channels, plane, fan_in)?;
        for (g, d) in self.weight.grad.data_mut().iter_mut().zip(&self.dw) {
            *g += d;
        }
        add_row_sums(self.bias.grad.data_mut(), dy, plane);
        let Some(dx) = dx else { return Ok(()) };
        // dcols = Wᵀ · dY, then scatter back to image space.
        self.dcols.resize(fan_in * plane, 0.0);
        matmul_transpose_a_into(self.weight.value.data(), dy, &mut self.dcols, self.out_channels, fan_in, plane)?;
        col2im_into(&self.dcols, dx, dims)?;
        Ok(())
    }
}

/// `acc[o] += rows[o]`'s sum for each row of `len` scalars, each sum the
/// `f32::sum` chain (ascending, from `−0.0`); four rows run side by side so
/// their chains overlap instead of waiting on each other.
fn add_row_sums(acc: &mut [f32], rows: &[f32], len: usize) {
    let Some(len) = std::num::NonZeroUsize::new(len) else { return };
    let mut quads = rows.chunks_exact(4 * len.get());
    let mut acc4 = acc.chunks_exact_mut(4);
    for (quad, acc) in (&mut quads).zip(&mut acc4) {
        let mut sums = [-0.0f32; 4];
        let (r01, r23) = quad.split_at(2 * len.get());
        let (r0, r1) = r01.split_at(len.get());
        let (r2, r3) = r23.split_at(len.get());
        for (((&a, &b), &c), &d) in r0.iter().zip(r1).zip(r2).zip(r3) {
            let [s0, s1, s2, s3] = &mut sums;
            (*s0, *s1, *s2, *s3) = (*s0 + a, *s1 + b, *s2 + c, *s3 + d);
        }
        for (a, s) in acc.iter_mut().zip(sums) {
            *a += s;
        }
    }
    for (a, row) in acc4.into_remainder().iter_mut().zip(quads.remainder().chunks_exact(len.get())) {
        *a += row.iter().sum::<f32>();
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let (batch, dims) = self.dims_for(input)?;
        let (out_h, out_w) = (dims.out_h(), dims.out_w());
        let plane = out_h * out_w;
        let fan_in = dims.col_rows();
        let sample_in = self.in_channels * dims.in_h * dims.in_w;
        let out_sample = self.out_channels * plane;
        let mut out_t = Tensor::zeros(&[batch, self.out_channels, out_h, out_w]);
        let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
        let samples = input.data().chunks_exact(sample_in.max(1)).zip(out_t.data_mut().chunks_exact_mut(out_sample.max(1)));
        for (img, dst) in samples.take(batch) {
            if dims.is_same() {
                conv_same_forward(img, weight, bias, dst, &dims, &mut self.same)?;
                continue;
            }
            im2col_into(img, &dims, &mut self.cols)?;
            // y = W · cols, written straight into the output sample.
            matmul_into(weight, &self.cols, dst, self.out_channels, fan_in, plane)?;
            for (drow, &b) in dst.chunks_exact_mut(plane).zip(bias) {
                for d in drow.iter_mut() {
                    *d += b;
                }
            }
        }
        if train {
            self.cached_input = Some(input.clone());
        }
        Ok(out_t)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        // `Some` whenever the input gradient is asked for.
        Ok(self.backward_impl(grad_output, true)?.unwrap_or_default())
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_impl(grad_output, false).map(drop)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_known_values_identity_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng).unwrap();
        conv.weight.value = Tensor::from_vec(vec![2.0], &[1, 1]).unwrap();
        conv.bias.value = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[2.5, 4.5, 6.5, 8.5]);
    }

    #[test]
    fn forward_known_values_3x3_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        conv.weight.value = Tensor::ones(&[1, 9]);
        conv.bias.value = Tensor::zeros(&[1]);
        // 2x2 all-ones image; padded 3x3 sums count the in-bounds pixels.
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn output_shape_with_stride() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        assert!(matches!(conv.forward(&x, true), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn finite_difference_gradient_check_weights_and_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);

        let y = conv.forward(&x, true).unwrap();
        let dy = Tensor::ones(y.shape());
        let dx = conv.backward(&dy).unwrap();
        let analytic_w = conv.weight.grad.clone();

        let eps = 1e-2f32;
        // Check a few weight coordinates.
        for idx in [0usize, 7, 17, 35] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x, true).unwrap().sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x, true).unwrap().sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = analytic_w.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * (1.0 + got.abs()),
                "weight idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
        // Check a few input coordinates.
        let mut x2 = x.clone();
        for idx in [0usize, 13, 31] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x2, true).unwrap().sum();
            x2.data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x2, true).unwrap().sum();
            x2.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * (1.0 + got.abs()),
                "input idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn finite_difference_gradient_check_same_5x5_wide() {
        // The CNN's geometry class on the direct path: a 5×5 "same" conv
        // with more output channels than one register holds.
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(2, 10, 5, 1, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 2, 6, 7], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        let dy = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
        let dx = conv.backward(&dy).unwrap();
        let (analytic_w, analytic_b) = (conv.weight.grad.clone(), conv.bias.grad.clone());
        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            let y = conv.forward(x, false).unwrap();
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        let close = |numeric: f32, got: f32, what: &str| {
            assert!((numeric - got).abs() < 0.05 * (1.0 + got.abs()), "{what}: numeric {numeric} vs analytic {got}");
        };
        for idx in [0usize, 24, 49, 123, 250, 499] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.weight.value.data_mut()[idx] = orig;
            close((lp - lm) / (2.0 * eps), analytic_w.data()[idx], &format!("weight {idx}"));
        }
        for idx in [0usize, 9] {
            let orig = conv.bias.value.data()[idx];
            conv.bias.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut conv, &x);
            conv.bias.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut conv, &x);
            conv.bias.value.data_mut()[idx] = orig;
            close((lp - lm) / (2.0 * eps), analytic_b.data()[idx], &format!("bias {idx}"));
        }
        let mut x2 = x.clone();
        for idx in [0usize, 6, 20, 41, 83, 167] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp = loss(&mut conv, &x2);
            x2.data_mut()[idx] = orig - eps;
            let lm = loss(&mut conv, &x2);
            x2.data_mut()[idx] = orig;
            close((lp - lm) / (2.0 * eps), dx.data()[idx], &format!("input {idx}"));
        }
    }

    #[test]
    fn row_sums_keep_each_rows_sum_chain() {
        // Seven rows: one group of four side by side, three one at a time;
        // −0.0 rows must stay −0.0 (the chain folds from −0.0).
        let len = 9;
        let mut rows: Vec<f32> = (0..7 * len).map(|i| ((i * 37 % 11) as f32 - 5.0) * 0.37).collect();
        rows[3] = f32::NAN;
        rows[2 * len..3 * len].fill(-0.0);
        rows[6 * len..].fill(-0.0);
        let start: Vec<f32> = vec![-0.0, 1.5, -0.0, 2.0, f32::INFINITY, -3.0, -0.0];
        let mut got = start.clone();
        add_row_sums(&mut got, &rows, len);
        for (o, (g, s)) in got.iter().zip(&start).enumerate() {
            let want = s + rows[o * len..(o + 1) * len].iter().sum::<f32>();
            assert!(g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()), "row {o}: {g} vs {want}");
        }
    }

    #[test]
    fn bias_gradient_counts_output_elements() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng).unwrap();
        let x = Tensor::ones(&[3, 1, 2, 2]); // batch 3, plane 4
        let y = conv.forward(&x, true).unwrap();
        conv.backward(&Tensor::ones(y.shape())).unwrap();
        // Each bias sees batch * plane = 12 gradient ones.
        assert_eq!(conv.bias.grad.data(), &[12.0, 12.0]);
    }
}
