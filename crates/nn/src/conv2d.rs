//! 2-D convolution layer (im2col formulation).

use crate::layer::{Layer, Param};
use crate::{NnError, Result};
use fedsu_tensor::{
    col2im_into, im2col_into, kaiming_uniform, matmul_into, matmul_transpose_a_into,
    matmul_transpose_b_into, pool, ConvDims, Tensor,
};
use rand::Rng;

/// A 2-D convolution over `NCHW` inputs with square kernels.
///
/// Weights are stored as a matrix `[out_channels, in_channels * k * k]` so
/// the forward pass is one matmul against the im2col matrix per sample. The
/// backward pass re-runs `im2col` on the cached input rather than caching the
/// (much larger) column matrices. At these sizes that is faster as well as
/// smaller: keeping each sample's columns from the forward instead was
/// measured on roundbench's `train_cnn` (3 alternating 12 s pairs on a
/// 2-vCPU host, results unchanged) at p50 11.64–12.08 ms against
/// 10.95–11.30 ms, and `peak_rss_mb` 59.7 against 48.4 — the cached columns
/// fall out of L2 before the backward reads them; that was measured before
/// the one-span-per-tap lowering made `im2col` about three times cheaper,
/// which only widens the margin. Column/gradient matrices
/// live in scratch buffers owned by the layer, so steady-state
/// forward/backward passes do no per-sample allocation.
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
    /// im2col scratch, reused across samples and calls.
    cols: Vec<f32>,
    /// Column-gradient scratch for the backward pass.
    dcols: Vec<f32>,
    /// Per-sample weight-gradient scratch for the backward pass.
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
    /// `Wᵀ·dY` product and `col2im` scatter are skipped.
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
            pool::recycle(input);
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad {expected:?}"),
                grad_output.shape(),
            ));
        }
        let fan_in = self.in_channels * self.kernel * self.kernel;
        let sample_in = self.in_channels * dims.in_h * dims.in_w;
        let out_sample = self.out_channels * plane;
        let mut grad_in_t = input_grad.then(|| pool::pooled_zeros(input.shape()));
        self.dw.resize(self.out_channels * fan_in, 0.0);
        if input_grad {
            self.dcols.resize(fan_in * plane, 0.0);
        }

        for n in 0..batch {
            let img = input.data().get(n * sample_in..(n + 1) * sample_in).unwrap_or(&[]);
            im2col_into(img, &dims, &mut self.cols)?;
            let dy = grad_output.data().get(n * out_sample..(n + 1) * out_sample).unwrap_or(&[]);
            // dW += dY · colsᵀ
            matmul_transpose_b_into(dy, &self.cols, &mut self.dw, self.out_channels, plane, fan_in)?;
            for (g, d) in self.weight.grad.data_mut().iter_mut().zip(&self.dw) {
                *g += d;
            }
            // db += row-sums of dY
            for (bg, dy_row) in self.bias.grad.data_mut().iter_mut().zip(dy.chunks_exact(plane)) {
                *bg += dy_row.iter().sum::<f32>();
            }
            let Some(grad_in) = grad_in_t.as_mut() else { continue };
            // dcols = Wᵀ · dY, then scatter back to image space.
            matmul_transpose_a_into(
                self.weight.value.data(),
                dy,
                &mut self.dcols,
                self.out_channels,
                fan_in,
                plane,
            )?;
            let dst = grad_in.data_mut().get_mut(n * sample_in..(n + 1) * sample_in).unwrap_or_default();
            col2im_into(&self.dcols, dst, &dims)?;
        }
        pool::recycle(input);
        Ok(grad_in_t)
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
        let fan_in = self.in_channels * self.kernel * self.kernel;
        let sample_in = self.in_channels * dims.in_h * dims.in_w;
        let out_sample = self.out_channels * plane;
        let mut out_t = pool::pooled_zeros(&[batch, self.out_channels, out_h, out_w]);
        let out = out_t.data_mut();

        for n in 0..batch {
            let img = input.data().get(n * sample_in..(n + 1) * sample_in).unwrap_or(&[]);
            im2col_into(img, &dims, &mut self.cols)?;
            let dst = out.get_mut(n * out_sample..(n + 1) * out_sample).unwrap_or_default();
            // y = W · cols, written straight into the output sample.
            matmul_into(self.weight.value.data(), &self.cols, dst, self.out_channels, fan_in, plane)?;
            for (drow, &b) in dst.chunks_exact_mut(plane).zip(self.bias.value.data()) {
                for d in drow.iter_mut() {
                    *d += b;
                }
            }
        }
        if train {
            let mut cached = pool::pooled_like(input);
            cached.data_mut().copy_from_slice(input.data());
            self.cached_input = Some(cached);
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
