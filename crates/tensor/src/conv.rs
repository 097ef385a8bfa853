//! Convolution helpers used by the convolution layers in `fedsu-nn`.
//!
//! A stride-1 "same" convolution (odd kernel, padding `(k − 1) / 2`: the
//! CNN's two convs and every stride-1 ResNet/DenseNet conv) runs directly:
//! [`conv_same_forward`], [`conv_same_weight_grad`] and
//! [`conv_same_input_grad`] read the image and `dY` in place, through a
//! zero-padded copy in [`SameConvScratch`], on the `conv_fwd`, `conv_dw`
//! and `conv_dx` rows of [`simd`]'s kernel table, and never build a column
//! matrix. Every element keeps the chain the lowering below gives it, so
//! the two paths agree bit for bit (DESIGN.md §10, §10.1).
//!
//! Every other geometry is lowered: `im2col` unrolls sliding windows of an
//! `NCHW` input into a matrix so that a 2-D convolution becomes a single
//! matrix multiplication; `col2im` scatter-adds a column matrix back into
//! image space (the adjoint of `im2col`, used in the backward pass). Both
//! move one output row per kernel tap at a time, and both come in slice
//! `_into` forms that write into caller-provided buffers, so per-sample
//! loops reuse one scratch allocation.

use crate::simd::SameConv;
use crate::{simd, Result, TensorError};

/// Geometry of a 2-D convolution, shared by forward and backward passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvDims {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
}

impl ConvDims {
    /// Output height after convolution.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the geometry is degenerate (kernel larger
    /// than padded input).
    pub fn out_h(&self) -> usize {
        debug_assert!(self.in_h + 2 * self.padding >= self.kernel);
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width after convolution.
    pub fn out_w(&self) -> usize {
        debug_assert!(self.in_w + 2 * self.padding >= self.kernel);
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Rows of the im2col matrix: `in_channels * kernel * kernel`.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Columns of the im2col matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Whether this is a stride-1 "same" convolution — an odd kernel with
    /// padding `(kernel − 1) / 2`, so the output is as large as the input —
    /// which the direct kernels ([`conv_same_forward`] and its two
    /// gradients) run.
    pub fn is_same(&self) -> bool {
        self.stride == 1 && self.kernel == 2 * self.padding + 1
    }

    fn validate(&self) -> Result<()> {
        if self.kernel == 0 || self.stride == 0 {
            return Err(TensorError::InvalidArgument(
                "conv kernel and stride must be non-zero".to_string(),
            ));
        }
        if self.in_h + 2 * self.padding < self.kernel || self.in_w + 2 * self.padding < self.kernel {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {} larger than padded input {}x{} (+2*{})",
                self.kernel, self.in_h, self.in_w, self.padding
            )));
        }
        Ok(())
    }

    fn check_image_len(&self, len: usize) -> Result<()> {
        let expected = self.in_channels * self.in_h * self.in_w;
        if len != expected {
            return Err(TensorError::LengthMismatch {
                len,
                shape: vec![self.in_channels, self.in_h, self.in_w],
            });
        }
        Ok(())
    }
}

/// Half-open range `lo..hi` of output columns whose input column
/// `ox·stride + kx − padding` lands inside `[0, in_w)` for tap column `kx`.
/// Outside this range a tap reads padding (gather) or writes nothing
/// (scatter), so the per-element bounds checks collapse to one range.
fn tap_col_range(dims: &ConvDims, kx: usize) -> (usize, usize) {
    if dims.in_w == 0 || dims.in_w + dims.padding <= kx {
        return (0, 0);
    }
    let lo = if dims.padding > kx { (dims.padding - kx).div_ceil(dims.stride) } else { 0 };
    let hi = ((dims.in_w - 1 + dims.padding - kx) / dims.stride + 1).min(dims.out_w());
    (lo.min(hi), hi)
}

/// Copies one kernel tap `(ky, kx)` of `chan` into its im2col row:
/// `out_row[oy·out_w + ox] = chan[iy, ix]` for every in-bounds input
/// position, leaving padded positions at their pre-zeroed value.
///
/// The in-bounds column window is computed analytically; at stride 1 it is a
/// contiguous input span, so the copy is a single `copy_from_slice` per
/// output row (pure data movement — trivially bit-identical).
fn gather_tap(chan: &[f32], out_row: &mut [f32], dims: &ConvDims, ky: usize, kx: usize) {
    let out_w = dims.out_w();
    let (lo, hi) = tap_col_range(dims, kx);
    for (oy, orow) in out_row.chunks_exact_mut(out_w).enumerate() {
        let Some(iy) = (oy * dims.stride + ky).checked_sub(dims.padding) else {
            continue;
        };
        if iy >= dims.in_h {
            continue;
        }
        let Some(irow) = chan.get(iy * dims.in_w..(iy + 1) * dims.in_w) else {
            continue;
        };
        let Some(dst) = orow.get_mut(lo..hi) else {
            continue;
        };
        let Some(ix0) = (lo * dims.stride + kx).checked_sub(dims.padding) else {
            continue;
        };
        if dims.stride == 1 {
            if let Some(src) = irow.get(ix0..ix0 + (hi - lo)) {
                dst.copy_from_slice(src);
            }
        } else {
            let src = irow.get(ix0..).unwrap_or(&[]);
            for (o, &v) in dst.iter_mut().zip(src.iter().step_by(dims.stride)) {
                *o = v;
            }
        }
    }
}

/// Scatter-adds one im2col row back onto its kernel tap `(ky, kx)` of
/// `chan`: the adjoint of [`gather_tap`], in the same traversal order.
///
/// At stride 1 the destination span is contiguous, so the inner loop rides
/// the dispatched [`simd::scatter_add_with`] lanes. The NaN-holding scatter
/// add is required (not plain `+=`): one image element accumulates taps
/// across several calls whose vector/remainder split shifts with `kx`, so
/// only an operand-order-independent add keeps every SIMD level bit-exact.
fn scatter_tap(chan: &mut [f32], in_row: &[f32], dims: &ConvDims, ky: usize, kx: usize, level: simd::SimdLevel) {
    let out_w = dims.out_w();
    let (lo, hi) = tap_col_range(dims, kx);
    for (oy, irow_vals) in in_row.chunks_exact(out_w).enumerate() {
        let Some(iy) = (oy * dims.stride + ky).checked_sub(dims.padding) else {
            continue;
        };
        if iy >= dims.in_h {
            continue;
        }
        let Some(dst_row) = chan.get_mut(iy * dims.in_w..(iy + 1) * dims.in_w) else {
            continue;
        };
        let Some(src) = irow_vals.get(lo..hi) else {
            continue;
        };
        let Some(ix0) = (lo * dims.stride + kx).checked_sub(dims.padding) else {
            continue;
        };
        if dims.stride == 1 {
            if let Some(dst) = dst_row.get_mut(ix0..ix0 + (hi - lo)) {
                simd::scatter_add_with(level, dst, src);
            }
        } else {
            let dst = dst_row.get_mut(ix0..).unwrap_or_default();
            for (d, &v) in dst.iter_mut().step_by(dims.stride).zip(src.iter()) {
                if !d.is_nan() {
                    *d += v;
                }
            }
        }
    }
}

/// Unrolls one image (`[C, H, W]`, flattened) into an im2col matrix of
/// shape `[C*k*k, out_h*out_w]`, written into `out`. The buffer is resized
/// and fully overwritten, so it can be reused across calls to avoid
/// per-forward allocations.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `image.len()` disagrees with
/// the geometry and [`TensorError::InvalidArgument`] for degenerate geometry.
pub fn im2col_into(image: &[f32], dims: &ConvDims, out: &mut Vec<f32>) -> Result<()> {
    dims.validate()?;
    dims.check_image_len(image.len())?;
    let cols = dims.col_cols();
    let rows = dims.col_rows();
    // Only the in-image elements are written, over a zero-filled buffer.
    out.clear();
    out.resize(rows * cols, 0.0);
    let plane = dims.in_h * dims.in_w;
    if plane > 0 {
        let mut tap_rows = out.chunks_exact_mut(cols);
        for chan in image.chunks_exact(plane) {
            for ky in 0..dims.kernel {
                for kx in 0..dims.kernel {
                    let Some(out_row) = tap_rows.next() else { continue };
                    gather_tap(chan, out_row, dims, ky, kx);
                }
            }
        }
    }
    crate::invariant::check_op_output("im2col", &[image], out);
    Ok(())
}

/// Scatter-adds an im2col-format matrix (`[C*k*k, out_h*out_w]`, flattened)
/// back into an image buffer of `[C, H, W]`. This is the adjoint of
/// [`im2col_into`], used to propagate gradients to the convolution input.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when either buffer length
/// disagrees with the geometry and [`TensorError::InvalidArgument`] for
/// degenerate geometry.
pub fn col2im_into(cols: &[f32], image: &mut [f32], dims: &ConvDims) -> Result<()> {
    dims.validate()?;
    let rows = dims.col_rows();
    let n_cols = dims.col_cols();
    if cols.len() != rows * n_cols {
        return Err(TensorError::LengthMismatch { len: cols.len(), shape: vec![rows, n_cols] });
    }
    dims.check_image_len(image.len())?;
    // `image` is mutated in place, so its pre-state must be classified as an
    // input *before* the scatter-add to keep the finite-kernel guard honest.
    let inputs_finite = crate::invariant::enabled()
        && cols.iter().chain(image.iter()).all(|v| v.is_finite());

    let plane = dims.in_h * dims.in_w;
    if plane > 0 && n_cols > 0 {
        let level = simd::simd_level();
        let mut tap_rows = cols.chunks_exact(n_cols);
        for chan in image.chunks_exact_mut(plane) {
            for ky in 0..dims.kernel {
                for kx in 0..dims.kernel {
                    let Some(in_row) = tap_rows.next() else { continue };
                    scatter_tap(chan, in_row, dims, ky, kx, level);
                }
            }
        }
    }
    if inputs_finite {
        crate::invariant::check_op_output("col2im", &[], image);
    }
    Ok(())
}

/// Scratch of the direct stride-1 "same" convolution kernels, reused
/// across samples and calls: after the first call at a geometry they
/// allocate nothing. Every buffer is rewritten before it is read, so a
/// stale value cannot leak from one call into the next.
#[derive(Debug, Default)]
pub struct SameConvScratch {
    /// The zero-padded image, or the padded input gradient.
    padded: Vec<f32>,
    /// The input gradient's `dY` in the padded frame.
    rows: Vec<f32>,
    /// The weight gradient's transposed `dY`.
    dyt: Vec<f32>,
    /// The input gradient's tap rows.
    taps: Vec<f32>,
}

impl ConvDims {
    /// The direct kernels' frame for `out_channels` output channels, after
    /// checking that this is a valid "same" geometry and that `image_len`
    /// is one sample's input.
    fn same_frame(&self, out_channels: usize, image_len: usize) -> Result<SameConv> {
        self.validate()?;
        self.check_image_len(image_len)?;
        if !self.is_same() {
            return Err(TensorError::InvalidArgument(format!(
                "direct conv needs stride 1 and padding (k-1)/2, got k={} s={} p={}",
                self.kernel, self.stride, self.padding
            )));
        }
        Ok(SameConv {
            in_channels: self.in_channels,
            out_channels,
            kernel: self.kernel,
            in_h: self.in_h,
            in_w: self.in_w,
        })
    }
}

fn check_buf(buf: &[f32], shape: &[usize]) -> Result<()> {
    if buf.len() != shape.iter().product::<usize>() {
        return Err(TensorError::LengthMismatch { len: buf.len(), shape: shape.to_vec() });
    }
    Ok(())
}

/// Writes `image` into `padded` as [`SameConv`]'s padded planes.
fn pad_into(image: &[f32], g: &SameConv, padded: &mut Vec<f32>) {
    let (plane, pw, p) = (g.plane(), g.width(), g.kernel / 2);
    padded.clear();
    padded.resize(g.in_channels * plane, 0.0);
    for (dst, src) in padded.chunks_exact_mut(plane).zip(image.chunks_exact(g.in_h * g.in_w)) {
        let interior = dst.get_mut(p * pw + p..).unwrap_or_default();
        for (d, s) in interior.chunks_mut(pw).zip(src.chunks_exact(g.in_w)) {
            if let Some(d) = d.get_mut(..g.in_w) {
                d.copy_from_slice(s);
            }
        }
    }
}

/// The forward of one sample of a stride-1 "same" convolution ([`ConvDims::is_same`]):
/// `out[o]` (`[out_channels, in_h, in_w]`, flattened) becomes `W·cols + b`
/// with `cols` the sample's `im2col` matrix, bit for bit — each element
/// `weight[o]`'s chain over the taps `(c, ky, kx)` in ascending order from
/// `+0.0`, a tap outside the image multiplying `+0.0`, then `+ bias[o]` —
/// without building `cols`. `weight` is `[out_channels, in_channels·k²]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when the geometry is not a
/// valid "same" convolution and [`TensorError::LengthMismatch`] when a
/// buffer length disagrees with it.
pub fn conv_same_forward(image: &[f32], weight: &[f32], bias: &[f32], out: &mut [f32], dims: &ConvDims, scratch: &mut SameConvScratch) -> Result<()> {
    let g = dims.same_frame(bias.len(), image.len())?;
    check_buf(weight, &[g.out_channels, g.fan_in()])?;
    check_buf(out, &[g.out_channels, g.in_h, g.in_w])?;
    pad_into(image, &g, &mut scratch.padded);
    simd::conv_fwd(out, weight, bias, &scratch.padded, g);
    crate::invariant::check_op_output("conv_same_forward", &[image, weight, bias], out);
    Ok(())
}

/// The weight and bias gradients of one sample of a stride-1 "same"
/// convolution ([`ConvDims::is_same`]): adds `dY·colsᵀ` to `wgrad`
/// (`[out_channels, in_channels·k²]`) and the sums of `dy`'s channel planes
/// to `bgrad` (`[out_channels]`), bit for bit as the lowering does — each
/// weight's chain over the output positions in ascending order from
/// `+0.0`, each bias's `f32::sum` of its plane — without building `cols`.
/// `dy` is `[out_channels, in_h, in_w]`, flattened.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when the geometry is not a
/// valid "same" convolution and [`TensorError::LengthMismatch`] when a
/// buffer length disagrees with it.
pub fn conv_same_weight_grad(image: &[f32], dy: &[f32], wgrad: &mut [f32], bgrad: &mut [f32], dims: &ConvDims, scratch: &mut SameConvScratch) -> Result<()> {
    let g = dims.same_frame(bgrad.len(), image.len())?;
    check_buf(wgrad, &[g.out_channels, g.fan_in()])?;
    check_buf(dy, &[g.out_channels, g.in_h, g.in_w])?;
    // The gradients are updated in place: their pre-state is an input of
    // the finite-kernel guard.
    let inputs_finite = crate::invariant::enabled()
        && [image, dy, &*wgrad, &*bgrad].iter().all(|buf| buf.iter().all(|v| v.is_finite()));
    pad_into(image, &g, &mut scratch.padded);
    scratch.dyt.resize(g.dyt_len(), 0.0);
    simd::conv_dw(wgrad, bgrad, dy, &scratch.padded, &mut scratch.dyt, g);
    if inputs_finite {
        crate::invariant::check_op_output("conv_same_weight_grad", &[], wgrad);
        crate::invariant::check_op_output("conv_same_weight_grad", &[], bgrad);
    }
    Ok(())
}

/// The input gradient of one sample of a stride-1 "same" convolution
/// ([`ConvDims::is_same`]): overwrites `dx` (`[in_channels, in_h, in_w]`,
/// flattened) with `col2im` of `Wᵀ·dY` scattered onto zeros, bit for bit —
/// each tap's chain over the output channels in ascending order from
/// `+0.0`, added in ascending tap order with `col2im`'s NaN-holding add, a
/// tap outside the image adding nothing — without building `Wᵀ·dY`.
/// `weight` is `[out_channels, in_channels·k²]` and `dy` `[out_channels,
/// in_h, in_w]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when the geometry is not a
/// valid "same" convolution and [`TensorError::LengthMismatch`] when a
/// buffer length disagrees with it.
pub fn conv_same_input_grad(dy: &[f32], weight: &[f32], dx: &mut [f32], dims: &ConvDims, scratch: &mut SameConvScratch) -> Result<()> {
    let fan_in = dims.col_rows();
    let g = dims.same_frame(weight.len().checked_div(fan_in).unwrap_or(0), dx.len())?;
    check_buf(weight, &[g.out_channels, fan_in])?;
    check_buf(dy, &[g.out_channels, g.in_h, g.in_w])?;
    let (lanes, plane, pw, p) = (g.lanes(), g.plane(), g.width(), g.kernel / 2);
    scratch.rows.clear();
    scratch.rows.resize(g.out_channels * lanes, 0.0);
    for (row, dy_plane) in scratch.rows.chunks_exact_mut(lanes).zip(dy.chunks_exact(g.in_h * g.in_w)) {
        for (dst, src) in row.chunks_mut(pw).zip(dy_plane.chunks_exact(g.in_w)) {
            if let Some(dst) = dst.get_mut(..g.in_w) {
                dst.copy_from_slice(src);
            }
        }
    }
    scratch.padded.clear();
    scratch.padded.resize(g.in_channels * plane, 0.0);
    scratch.taps.resize(g.taps_len(), 0.0);
    simd::conv_dx(&mut scratch.padded, weight, &scratch.rows, &mut scratch.taps, g);
    for (dst, src) in dx.chunks_exact_mut(g.in_h * g.in_w).zip(scratch.padded.chunks_exact(plane)) {
        let interior = src.get(p * pw + p..).unwrap_or(&[]);
        for (d, s) in dst.chunks_exact_mut(g.in_w).zip(interior.chunks(pw)) {
            if let Some(s) = s.get(..g.in_w) {
                d.copy_from_slice(s);
            }
        }
    }
    crate::invariant::check_op_output("conv_same_input_grad", &[dy, weight], dx);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn output_geometry() {
        let d = ConvDims { in_channels: 3, in_h: 28, in_w: 28, kernel: 5, stride: 1, padding: 2 };
        assert_eq!(d.out_h(), 28);
        assert_eq!(d.out_w(), 28);
        let d2 = ConvDims { in_channels: 1, in_h: 28, in_w: 28, kernel: 2, stride: 2, padding: 0 };
        assert_eq!(d2.out_h(), 14);
    }

    #[test]
    fn im2col_identity_kernel_no_padding() {
        // 1x1 kernel, stride 1, no padding: im2col is the identity layout.
        let d = ConvDims { in_channels: 2, in_h: 2, in_w: 2, kernel: 1, stride: 1, padding: 0 };
        let img: Vec<f32> = (1..=8).map(|v| v as f32).collect();
        let mut cols = Vec::new();
        im2col_into(&img, &d, &mut cols).unwrap();
        assert_eq!((d.col_rows(), d.col_cols()), (2, 4));
        assert_eq!(cols, img);
    }

    #[test]
    fn im2col_known_values_with_padding() {
        // 1 channel 2x2 image, 3x3 kernel, pad 1, stride 1 -> out 2x2.
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 3, stride: 1, padding: 1 };
        let img = [1.0, 2.0, 3.0, 4.0];
        let mut cols = Vec::new();
        im2col_into(&img, &d, &mut cols).unwrap();
        assert_eq!((d.col_rows(), d.col_cols(), cols.len()), (9, 4, 36));
        // Center tap (ky=1,kx=1) sees the original pixels.
        let center = &cols[4 * 4..5 * 4];
        assert_eq!(center, &[1.0, 2.0, 3.0, 4.0]);
        // Top-left tap (ky=0,kx=0): for out (0,0) it reads padded zero,
        // for out (1,1) it reads pixel (0,0)=1.
        let tl = &cols[0..4];
        assert_eq!(tl, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn im2col_into_reuses_and_fully_overwrites_the_buffer() {
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 1, stride: 1, padding: 0 };
        let mut buf = vec![f32::NAN; 64]; // stale, oversized scratch
        im2col_into(&[1.0, 2.0, 3.0, 4.0], &d, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0]);
        // Same buffer, different geometry: still exactly the fresh result.
        let d2 = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 3, stride: 1, padding: 1 };
        im2col_into(&[1.0, 2.0, 3.0, 4.0], &d2, &mut buf).unwrap();
        let mut fresh = Vec::new();
        im2col_into(&[1.0, 2.0, 3.0, 4.0], &d2, &mut fresh).unwrap();
        assert_eq!(buf, fresh);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let d = ConvDims { in_channels: 2, in_h: 5, in_w: 4, kernel: 3, stride: 2, padding: 1 };
        let x: Vec<f32> = (0..d.in_channels * d.in_h * d.in_w).map(|i| (i as f32 * 0.37).sin()).collect();
        let rows = d.col_rows();
        let cols_n = d.col_cols();
        let y: Vec<f32> = (0..rows * cols_n).map(|i| (i as f32 * 0.11).cos()).collect();

        let mut cx = Vec::new();
        im2col_into(&x, &d, &mut cx).unwrap();
        let lhs: f32 = cx.iter().zip(&y).map(|(a, b)| a * b).sum();

        let mut back = vec![0.0f32; x.len()];
        col2im_into(&y, &mut back, &d).unwrap();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();

        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_into_matches_tensor_form() {
        // A column matrix held as a `[C*k*k, out_h*out_w]` tensor scatters
        // from its data exactly as the brute-force reference does.
        let d = ConvDims { in_channels: 1, in_h: 3, in_w: 3, kernel: 2, stride: 1, padding: 0 };
        let vals: Vec<f32> = (0..d.col_rows() * d.col_cols()).map(|i| i as f32 * 0.5).collect();
        let yt = Tensor::from_vec(vals, &[d.col_rows(), d.col_cols()]).unwrap();
        let mut via_slice = vec![0.0f32; 9];
        col2im_into(yt.data(), &mut via_slice, &d).unwrap();
        assert_eq!(via_slice, col2im_ref(yt.data(), &d, vec![0.0; 9]));
    }

    /// Brute-force im2col: per-element bounds checks, no range analysis.
    fn im2col_ref(image: &[f32], d: &ConvDims) -> Vec<f32> {
        let (oh, ow) = (d.out_h(), d.out_w());
        let mut out = vec![0.0f32; d.col_rows() * d.col_cols()];
        let mut row = 0usize;
        for c in 0..d.in_channels {
            for ky in 0..d.kernel {
                for kx in 0..d.kernel {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                            let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                            if (0..d.in_h as isize).contains(&iy) && (0..d.in_w as isize).contains(&ix) {
                                out[row * d.col_cols() + oy * ow + ox] = image
                                    [c * d.in_h * d.in_w + iy as usize * d.in_w + ix as usize];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
        out
    }

    /// Brute-force col2im adjoint of [`im2col_ref`], scattered onto `img`.
    fn col2im_ref(cols: &[f32], d: &ConvDims, mut img: Vec<f32>) -> Vec<f32> {
        let (oh, ow) = (d.out_h(), d.out_w());
        let mut row = 0usize;
        for c in 0..d.in_channels {
            for ky in 0..d.kernel {
                for kx in 0..d.kernel {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * d.stride + ky) as isize - d.padding as isize;
                            let ix = (ox * d.stride + kx) as isize - d.padding as isize;
                            if (0..d.in_h as isize).contains(&iy) && (0..d.in_w as isize).contains(&ix) {
                                let dst = &mut img
                                    [c * d.in_h * d.in_w + iy as usize * d.in_w + ix as usize];
                                // Same NaN-holding rule as the production
                                // scatter (see `scatter_tap`).
                                if !dst.is_nan() {
                                    *dst += cols[row * d.col_cols() + oy * ow + ox];
                                }
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
        img
    }

    #[test]
    fn tap_kernels_bit_identical_to_bruteforce_across_levels() {
        // Geometry sweep of the per-row lowering: "same" convs (the CNN's
        // two, a plane narrower than the padding, odd widths), strided ones,
        // a stride-1 conv that shrinks, padding larger than kernel offsets;
        // inputs plant NaN/±inf/-0.0, in the image col2im scatters onto
        // too, so the copies/adds face the full IEEE surface.
        let geoms = [
            ConvDims { in_channels: 2, in_h: 5, in_w: 7, kernel: 3, stride: 1, padding: 1 },
            ConvDims { in_channels: 1, in_h: 9, in_w: 9, kernel: 3, stride: 2, padding: 1 },
            ConvDims { in_channels: 1, in_h: 4, in_w: 4, kernel: 2, stride: 2, padding: 0 },
            ConvDims { in_channels: 3, in_h: 6, in_w: 11, kernel: 5, stride: 1, padding: 2 },
            ConvDims { in_channels: 1, in_h: 3, in_w: 3, kernel: 3, stride: 3, padding: 2 },
            ConvDims { in_channels: 1, in_h: 1, in_w: 17, kernel: 1, stride: 1, padding: 0 },
            ConvDims { in_channels: 1, in_h: 28, in_w: 28, kernel: 5, stride: 1, padding: 2 },
            ConvDims { in_channels: 6, in_h: 14, in_w: 14, kernel: 5, stride: 1, padding: 2 },
            ConvDims { in_channels: 2, in_h: 3, in_w: 2, kernel: 5, stride: 1, padding: 2 },
            ConvDims { in_channels: 1, in_h: 6, in_w: 7, kernel: 3, stride: 1, padding: 0 },
        ];
        let specials = |i: usize, v: f32| match i % 19 {
            5 => f32::NAN,
            9 => -0.0,
            13 => f32::INFINITY,
            17 => f32::NEG_INFINITY,
            _ => v,
        };
        let prior = crate::simd_level();
        for d in &geoms {
            let img: Vec<f32> = (0..d.in_channels * d.in_h * d.in_w)
                .map(|i| specials(i, (i as f32 * 0.7).sin() * 10.0))
                .collect();
            let want_cols = im2col_ref(&img, d);
            let cols: Vec<f32> = (0..d.col_rows() * d.col_cols())
                .map(|i| specials(i, (i as f32 * 0.3).cos() * 10.0))
                .collect();
            let seed: Vec<f32> = (0..img.len()).map(|i| specials(i + 7, (i as f32 * 0.9).sin())).collect();
            let want_img = col2im_ref(&cols, d, seed.clone());
            use crate::SimdLevel;
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                if level > crate::hardware_simd_level() {
                    continue;
                }
                crate::set_simd_level(level);
                let mut got_cols = Vec::new();
                im2col_into(&img, d, &mut got_cols).unwrap();
                let mut got_img = seed.clone();
                col2im_into(&cols, &mut got_img, d).unwrap();
                for (i, (a, b)) in got_cols.iter().zip(&want_cols).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "im2col {level:?} {d:?} idx {i}");
                }
                for (i, (a, b)) in got_img.iter().zip(&want_img).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "col2im {level:?} {d:?} idx {i}");
                }
                // −0.0 scattered onto −0.0 stays −0.0: a wrapped column that
                // reached the image as `+0.0` would leave `+0.0` behind.
                let mut got_zero = vec![-0.0f32; img.len()];
                col2im_into(&vec![-0.0; cols.len()], &mut got_zero, d).unwrap();
                for (i, a) in got_zero.iter().enumerate() {
                    assert_eq!(a.to_bits(), (-0.0f32).to_bits(), "col2im of -0.0 {level:?} {d:?} idx {i}");
                }
            }
        }
        crate::set_simd_level(prior);
    }

    /// The chains the lowering gives one sample of a "same" conv, written
    /// out per element: `(y, dW, db, dX)` with `dW`/`db` added onto
    /// `wgrad`/`bgrad` and `dX` scattered onto zeros.
    fn same_conv_ref(img: &[f32], w: &[f32], b: &[f32], dy: &[f32], grads: (&[f32], &[f32]), d: &ConvDims) -> [Vec<f32>; 4] {
        let (cols, fan_in, n) = (im2col_ref(img, d), d.col_rows(), d.col_cols());
        let cout = b.len();
        let mut y = vec![0.0f32; cout * n];
        let (mut wgrad, mut bgrad) = (grads.0.to_vec(), grads.1.to_vec());
        let mut dcols = vec![0.0f32; fan_in * n];
        for o in 0..cout {
            for j in 0..n {
                let mut acc = 0.0f32;
                for t in 0..fan_in {
                    acc += w[o * fan_in + t] * cols[t * n + j];
                }
                y[o * n + j] = acc + b[o];
            }
            for t in 0..fan_in {
                let mut acc = 0.0f32;
                for j in 0..n {
                    acc += dy[o * n + j] * cols[t * n + j];
                }
                wgrad[o * fan_in + t] += acc;
            }
            bgrad[o] += dy[o * n..(o + 1) * n].iter().sum::<f32>();
        }
        for t in 0..fan_in {
            for j in 0..n {
                let mut acc = 0.0f32;
                for o in 0..cout {
                    acc += w[o * fan_in + t] * dy[o * n + j];
                }
                dcols[t * n + j] = acc;
            }
        }
        let dx = col2im_ref(&dcols, d, vec![0.0; img.len()]);
        [y, wgrad, bgrad, dx]
    }

    #[test]
    fn direct_kernels_bit_identical_to_bruteforce_across_levels() {
        // Every odd kernel the models use and one more, widths 1–33 (not
        // multiples of 8, and planes narrower than the padding), output
        // channel counts that are not multiples of 8, two samples
        // accumulating into the same gradients, and NaN/±inf/−0.0 planted
        // in the image, the weights and dY. Chains with two NaN operands
        // may keep either payload (DESIGN.md §10.1, tier 2), so NaN matches
        // NaN.
        let mut geoms: Vec<(ConvDims, usize)> = (1..=33usize)
            .map(|w| {
                let k = [1, 3, 5, 7][w % 4];
                let d = ConvDims { in_channels: 1 + w % 3, in_h: 1 + w * 7 % 5, in_w: w, kernel: k, stride: 1, padding: k / 2 };
                (d, [1, 3, 6, 9, 12, 17][w % 6])
            })
            .collect();
        for (cin, cout, k, h, w) in [(1, 6, 5, 28, 28), (6, 12, 5, 14, 14), (16, 16, 3, 4, 4), (8, 20, 3, 7, 7), (2, 9, 7, 2, 1), (3, 2, 5, 1, 2)] {
            geoms.push((ConvDims { in_channels: cin, in_h: h, in_w: w, kernel: k, stride: 1, padding: k / 2 }, cout));
        }
        let specials = |i: usize, v: f32| match i % 29 {
            5 => f32::NAN,
            9 => -0.0,
            13 => f32::INFINITY,
            17 => f32::NEG_INFINITY,
            _ => v,
        };
        let same_bits = |a: &[f32], b: &[f32], what: &str| {
            assert_eq!(a.len(), b.len(), "{what}: length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()), "{what}: idx {i}: {x} vs {y}");
            }
        };
        let prior = crate::simd_level();
        // One scratch for every geometry and level: nothing stale may leak.
        let mut scratch = SameConvScratch::default();
        for (g, &(d, cout)) in geoms.iter().enumerate() {
            assert!(d.is_same());
            let (fan_in, n, sample) = (d.col_rows(), d.col_cols(), d.in_channels * d.in_h * d.in_w);
            let plant = |len: usize, seed: usize, scale: f32| -> Vec<f32> {
                (0..len).map(|i| if g % 3 == 0 { (i as f32 * 0.7 + seed as f32).sin() * scale } else { specials(i + seed, (i as f32 * 0.7 + seed as f32).sin() * scale) }).collect()
            };
            let imgs = plant(2 * sample, 1, 3.0);
            let w = plant(cout * fan_in, 2, 1.0);
            let b = plant(cout, 3, 1.0);
            let dys = plant(2 * cout * n, 4, 2.0);
            let grads0 = (plant(cout * fan_in, 5, 1.0), plant(cout, 6, 1.0));
            for level in [crate::SimdLevel::Scalar, crate::SimdLevel::Avx2] {
                if level > crate::hardware_simd_level() {
                    continue;
                }
                crate::set_simd_level(level);
                let (mut want_w, mut want_b) = grads0.clone();
                let (mut got_w, mut got_b) = grads0.clone();
                for (img, dy) in imgs.chunks_exact(sample).zip(dys.chunks_exact(cout * n)) {
                    let [y, ww, wb, dx] = same_conv_ref(img, &w, &b, dy, (&want_w, &want_b), &d);
                    (want_w, want_b) = (ww, wb);
                    let mut got_y = vec![f32::NAN; cout * n];
                    conv_same_forward(img, &w, &b, &mut got_y, &d, &mut scratch).unwrap();
                    conv_same_weight_grad(img, dy, &mut got_w, &mut got_b, &d, &mut scratch).unwrap();
                    let mut got_dx = vec![f32::NAN; sample];
                    conv_same_input_grad(dy, &w, &mut got_dx, &d, &mut scratch).unwrap();
                    let what = format!("{level:?} {d:?} cout {cout}");
                    same_bits(&got_y, &y, &format!("forward {what}"));
                    same_bits(&got_w, &want_w, &format!("weight grad {what}"));
                    same_bits(&got_b, &want_b, &format!("bias grad {what}"));
                    same_bits(&got_dx, &dx, &format!("input grad {what}"));
                }
                // −0.0 onto −0.0: a bias sum folds from −0.0, so an all-−0.0
                // dY leaves a −0.0 bias gradient −0.0.
                let mut zero_b = vec![-0.0f32; cout];
                let mut zero_w = vec![-0.0f32; cout * fan_in];
                conv_same_weight_grad(&imgs[..sample], &vec![-0.0; cout * n], &mut zero_w, &mut zero_b, &d, &mut scratch).unwrap();
                assert!(zero_b.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()), "bias grad of -0.0 {level:?} {d:?}");
            }
        }
        crate::set_simd_level(prior);
    }

    #[test]
    fn direct_kernels_reject_other_geometry_and_lengths() {
        let mut s = SameConvScratch::default();
        let strided = ConvDims { in_channels: 1, in_h: 4, in_w: 4, kernel: 3, stride: 2, padding: 1 };
        assert!(!strided.is_same());
        assert!(conv_same_forward(&[0.0; 16], &[0.0; 9], &[0.0], &mut [0.0; 4], &strided, &mut s).is_err());
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 3, stride: 1, padding: 1 };
        assert!(conv_same_forward(&[0.0; 4], &[0.0; 8], &[0.0], &mut [0.0; 4], &d, &mut s).is_err());
        assert!(conv_same_forward(&[0.0; 4], &[0.0; 9], &[0.0], &mut [0.0; 3], &d, &mut s).is_err());
        assert!(conv_same_weight_grad(&[0.0; 4], &[0.0; 5], &mut [0.0; 9], &mut [0.0], &d, &mut s).is_err());
        assert!(conv_same_input_grad(&[0.0; 4], &[0.0; 9], &mut [0.0; 5], &d, &mut s).is_err());
    }

    #[test]
    fn invalid_geometry_rejected() {
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 5, stride: 1, padding: 0 };
        assert!(im2col_into(&[0.0; 4], &d, &mut Vec::new()).is_err());
        let d0 = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 0, stride: 1, padding: 0 };
        assert!(im2col_into(&[0.0; 4], &d0, &mut Vec::new()).is_err());
    }

    #[test]
    fn wrong_buffer_lengths_rejected() {
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 1, stride: 1, padding: 0 };
        assert!(im2col_into(&[0.0; 3], &d, &mut Vec::new()).is_err());
        assert!(col2im_into(&[0.0; 3], &mut [0.0; 4], &d).is_err());
        assert!(col2im_into(&[0.0; 4], &mut [0.0; 3], &d).is_err());
    }
}
