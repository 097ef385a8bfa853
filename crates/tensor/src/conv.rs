//! im2col/col2im helpers used by the convolution layers in `fedsu-nn`.
//!
//! `im2col` unrolls sliding windows of an `NCHW` input into a matrix so that
//! a 2-D convolution becomes a single matrix multiplication; `col2im`
//! scatter-adds a column matrix back into image space (the adjoint of
//! `im2col`, used in the backward pass).
//!
//! Both directions come in slice `_into` forms that write into
//! caller-provided buffers, so per-sample forward/backward loops can reuse
//! one scratch allocation instead of allocating a fresh column matrix per
//! call.
//!
//! A stride-1 "same" conv (`out_h == in_h`, `out_w == in_w`) moves each
//! kernel tap as one span: its im2col row is the channel plane shifted by
//! `(ky−p)·w + (kx−p)`, so the gather is one copy and the scatter one
//! NaN-holding add per tap, with the wrapped edge columns fixed up (zeroed,
//! or made `−0.0` before the add). Every other geometry moves one output
//! row at a time. Both give every element the same value and every image
//! element the same adds in the same order (DESIGN.md §10, §10.1).

use crate::{simd, Result, Tensor, TensorError};
use std::ops::Range;

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

    /// Whether every tap row is one shifted span of its channel plane:
    /// stride 1 with "same" output (`out_h == in_h`, `out_w == in_w`).
    /// Valid geometry only.
    fn is_same_stride1(&self) -> bool {
        self.stride == 1 && self.out_h() == self.in_h && self.out_w() == self.in_w
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

/// Where one tap `(ky, kx)` of a stride-1 "same" conv reads its plane.
/// Output position `o = oy·w + ox` of the tap row reads plane element
/// `o + lead − pad`, where `lead = ky·w + kx` and `pad = p·w + p`: the row
/// is the plane shifted by `(ky−p)·w + (kx−p)`.
#[derive(Debug)]
struct TapSpan {
    /// Output positions whose source row is inside the image:
    /// `y0·w..y1·w`.
    rows: Range<usize>,
    /// The part of `rows` whose shifted source lies inside the plane.
    span: Range<usize>,
    /// `lead` and `pad` above; `span.start + lead ≥ pad`.
    lead: usize,
    pad: usize,
    /// The output columns whose source column is outside the image: in the
    /// rows of `rows` they read a neighbouring image row (they wrap). At
    /// most `p` columns, on one side.
    wrapped: Range<usize>,
    w: usize,
}

impl TapSpan {
    fn new(dims: &ConvDims, ky: usize, kx: usize) -> TapSpan {
        let (h, w, p) = (dims.in_h, dims.in_w, dims.padding);
        let y0 = p.saturating_sub(ky).min(h);
        let y1 = (h + p).saturating_sub(ky).clamp(y0, h);
        let (lead, pad) = (ky * w + kx, p * w + p);
        let lo = (y0 * w).max(pad.saturating_sub(lead));
        let hi = (y1 * w).min((h * w + pad).saturating_sub(lead)).max(lo);
        // Columns `c0..c1` read inside the image; `kx < p` wraps on the
        // left, `kx > p` on the right.
        let c0 = p.saturating_sub(kx).min(w);
        let c1 = (w + p).saturating_sub(kx).clamp(c0, w);
        let wrapped = if c0 > 0 { 0..c0 } else { c1..w };
        TapSpan { rows: y0 * w..y1 * w, span: lo..hi, lead, pad, wrapped, w }
    }

    /// The plane positions the output positions `o..o + len` read.
    fn source(&self, o: usize, len: usize) -> Range<usize> {
        let start = o + self.lead - self.pad;
        start..start + len
    }

    /// Writes `value` at every wrapped position of `row` (a stretch of the
    /// tap row that starts at output position `from`), one column at a time
    /// down the rows: at most `p` strided stores per row.
    fn fill_wrapped(&self, row: &mut [f32], from: usize, value: f32) {
        let Some(step) = std::num::NonZeroUsize::new(self.w) else { return };
        for c in self.wrapped.clone() {
            // The first position of column `c` in `rows` at or after `from`.
            let first = self.rows.start + c;
            let first = first + from.saturating_sub(first).div_ceil(step.get()) * step.get();
            let end = self.rows.end.min(from + row.len());
            for pos in (first..end).step_by(step.get()) {
                if let Some(x) = row.get_mut(pos - from) {
                    *x = value;
                }
            }
        }
    }
}

/// Scratch length of one [`simd::scatter_add_with`] call of
/// [`scatter_tap_span`]: a tap row longer than this is scattered in pieces
/// (the CNN's planes, 784 and 196 long, take one).
const SPAN_CHUNK: usize = 1024;

/// [`gather_tap`] for a stride-1 "same" conv: one copy of the shifted
/// plane, then `+0.0` over the wrapped edge columns and the out-of-image
/// rows — every element of `out_row` is written, so the buffer needs no
/// zero-fill first.
fn gather_tap_span(chan: &[f32], out_row: &mut [f32], dims: &ConvDims, ky: usize, kx: usize) {
    let tap = TapSpan::new(dims, ky, kx);
    let span = tap.span.clone();
    if let (Some(dst), Some(src)) = (out_row.get_mut(span.clone()), chan.get(tap.source(span.start, span.len()))) {
        dst.copy_from_slice(src);
    }
    tap.fill_wrapped(out_row, 0, 0.0);
    let (top, bottom) = out_row.split_at_mut(tap.rows.end.min(out_row.len()));
    top.get_mut(..tap.rows.start).unwrap_or_default().fill(0.0);
    bottom.fill(0.0);
}

/// [`scatter_tap`] for a stride-1 "same" conv: one NaN-holding
/// [`simd::scatter_add_with`] of the tap row onto the shifted plane (per
/// [`SPAN_CHUNK`] positions). The row goes through `buf`, a copy whose
/// wrapped edge columns are `−0.0`: `x + (−0.0)` is `x` bit for bit for
/// every non-NaN `x` (`+0.0` would turn `x = −0.0` into `+0.0`), and the
/// scatter holds a NaN `x` unchanged, so the image elements those columns
/// land on receive nothing, and every other one receives exactly the add
/// of the per-row path.
fn scatter_tap_span(chan: &mut [f32], in_row: &[f32], dims: &ConvDims, ky: usize, kx: usize, level: simd::SimdLevel, buf: &mut [f32; SPAN_CHUNK]) {
    let tap = TapSpan::new(dims, ky, kx);
    let span = tap.span.clone();
    for start in span.clone().step_by(SPAN_CHUNK) {
        let end = (start + SPAN_CHUNK).min(span.end);
        let (Some(x), Some(src)) = (buf.get_mut(..end - start), in_row.get(start..end)) else { continue };
        x.copy_from_slice(src);
        tap.fill_wrapped(x, start, -0.0);
        if let Some(y) = chan.get_mut(tap.source(start, end - start)) {
            simd::scatter_add_with(level, y, x);
        }
    }
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
    // The span path writes every element; the per-row path only the
    // in-image ones, over a zero-filled buffer.
    let span = dims.is_same_stride1();
    if !span {
        out.clear();
    }
    out.resize(rows * cols, 0.0);
    let plane = dims.in_h * dims.in_w;
    if plane > 0 {
        let mut tap_rows = out.chunks_exact_mut(cols);
        for chan in image.chunks_exact(plane) {
            for ky in 0..dims.kernel {
                for kx in 0..dims.kernel {
                    let Some(out_row) = tap_rows.next() else { continue };
                    if span {
                        gather_tap_span(chan, out_row, dims, ky, kx);
                    } else {
                        gather_tap(chan, out_row, dims, ky, kx);
                    }
                }
            }
        }
    }
    crate::invariant::check_op_output("im2col", &[image], out);
    Ok(())
}

/// Unrolls one image (`[C, H, W]`, flattened) into an im2col matrix of shape
/// `[C*k*k, out_h*out_w]`.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when `image.len()` disagrees with
/// the geometry and [`TensorError::InvalidArgument`] for degenerate geometry.
pub fn im2col(image: &[f32], dims: &ConvDims) -> Result<Tensor> {
    let mut out = Vec::new();
    im2col_into(image, dims, &mut out)?;
    Tensor::from_vec(out, &[dims.col_rows(), dims.col_cols()])
}

/// Scatter-adds an im2col-format matrix (`[C*k*k, out_h*out_w]`, flattened)
/// back into an image buffer of `[C, H, W]`: the slice form of [`col2im`],
/// used by hot loops that keep the column matrix in a reused scratch buffer.
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
        let span = dims.is_same_stride1();
        let level = simd::simd_level();
        let mut buf = [0.0f32; SPAN_CHUNK];
        let mut tap_rows = cols.chunks_exact(n_cols);
        for chan in image.chunks_exact_mut(plane) {
            for ky in 0..dims.kernel {
                for kx in 0..dims.kernel {
                    let Some(in_row) = tap_rows.next() else { continue };
                    if span {
                        scatter_tap_span(chan, in_row, dims, ky, kx, level, &mut buf);
                    } else {
                        scatter_tap(chan, in_row, dims, ky, kx, level);
                    }
                }
            }
        }
    }
    if inputs_finite {
        crate::invariant::check_op_output("col2im", &[], image);
    }
    Ok(())
}

/// Scatter-adds an im2col-format matrix (`[C*k*k, out_h*out_w]`) back into an
/// image buffer of `[C, H, W]`. This is the adjoint of [`im2col`], used to
/// propagate gradients to the convolution input.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `cols` has the wrong shape and
/// [`TensorError::LengthMismatch`] when `image` has the wrong length.
pub fn col2im(cols: &Tensor, image: &mut [f32], dims: &ConvDims) -> Result<()> {
    dims.validate()?;
    let expected_shape = [dims.col_rows(), dims.col_cols()];
    if cols.shape() != expected_shape {
        return Err(TensorError::ShapeMismatch {
            left: cols.shape().to_vec(),
            right: expected_shape.to_vec(),
            op: "col2im",
        });
    }
    col2im_into(cols.data(), image, dims)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cols = im2col(&img, &d).unwrap();
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), img.as_slice());
    }

    #[test]
    fn im2col_known_values_with_padding() {
        // 1 channel 2x2 image, 3x3 kernel, pad 1, stride 1 -> out 2x2.
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 3, stride: 1, padding: 1 };
        let img = [1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&img, &d).unwrap();
        assert_eq!(cols.shape(), &[9, 4]);
        // Center tap (ky=1,kx=1) sees the original pixels.
        let center = &cols.data()[4 * 4..5 * 4];
        assert_eq!(center, &[1.0, 2.0, 3.0, 4.0]);
        // Top-left tap (ky=0,kx=0): for out (0,0) it reads padded zero,
        // for out (1,1) it reads pixel (0,0)=1.
        let tl = &cols.data()[0..4];
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
        let fresh = im2col(&[1.0, 2.0, 3.0, 4.0], &d2).unwrap();
        assert_eq!(buf.as_slice(), fresh.data());
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let d = ConvDims { in_channels: 2, in_h: 5, in_w: 4, kernel: 3, stride: 2, padding: 1 };
        let x: Vec<f32> = (0..d.in_channels * d.in_h * d.in_w).map(|i| (i as f32 * 0.37).sin()).collect();
        let rows = d.col_rows();
        let cols_n = d.col_cols();
        let y: Vec<f32> = (0..rows * cols_n).map(|i| (i as f32 * 0.11).cos()).collect();

        let cx = im2col(&x, &d).unwrap();
        let lhs: f32 = cx.data().iter().zip(&y).map(|(a, b)| a * b).sum();

        let yt = Tensor::from_vec(y, &[rows, cols_n]).unwrap();
        let mut back = vec![0.0f32; x.len()];
        col2im(&yt, &mut back, &d).unwrap();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();

        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_into_matches_tensor_form() {
        let d = ConvDims { in_channels: 1, in_h: 3, in_w: 3, kernel: 2, stride: 1, padding: 0 };
        let vals: Vec<f32> = (0..d.col_rows() * d.col_cols()).map(|i| i as f32 * 0.5).collect();
        let yt = Tensor::from_vec(vals.clone(), &[d.col_rows(), d.col_cols()]).unwrap();
        let mut via_tensor = vec![0.0f32; 9];
        col2im(&yt, &mut via_tensor, &d).unwrap();
        let mut via_slice = vec![0.0f32; 9];
        col2im_into(&vals, &mut via_slice, &d).unwrap();
        assert_eq!(via_tensor, via_slice);
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
        // Geometry sweep covering the stride-1 "same" span path (the CNN's
        // two convs, a plane narrower than the padding, odd widths), the
        // per-row path (strided, and a stride-1 conv that shrinks), padding
        // larger than kernel offsets; inputs plant NaN/±inf/-0.0, in the
        // image col2im scatters onto too, so the copies/adds face the full
        // IEEE surface.
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

    #[test]
    fn invalid_geometry_rejected() {
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 5, stride: 1, padding: 0 };
        assert!(im2col(&[0.0; 4], &d).is_err());
        let d0 = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 0, stride: 1, padding: 0 };
        assert!(im2col(&[0.0; 4], &d0).is_err());
    }

    #[test]
    fn wrong_buffer_lengths_rejected() {
        let d = ConvDims { in_channels: 1, in_h: 2, in_w: 2, kernel: 1, stride: 1, padding: 0 };
        assert!(im2col(&[0.0; 3], &d).is_err());
        let cols = Tensor::zeros(&[1, 4]);
        let mut img = vec![0.0; 3];
        assert!(col2im(&cols, &mut img, &d).is_err());
        assert!(col2im_into(&[0.0; 3], &mut [0.0; 4], &d).is_err());
        assert!(col2im_into(&[0.0; 4], &mut [0.0; 3], &d).is_err());
    }
}
