//! Pooling layers: max pooling, average pooling, and global average pooling.

use crate::layer::Layer;
use crate::{NnError, Result};
use fedsu_tensor::{pool, Tensor};

/// The `[n, c, h, w]` dims of a pooling input with a non-empty plane.
fn nchw(input: &Tensor, layer: &str) -> Result<[usize; 4]> {
    match *input.shape() {
        [n, c, h, w] if h > 0 && w > 0 => Ok([n, c, h, w]),
        _ => Err(NnError::new_bad_input(layer, format_args!("[batch, c, h, w]"), input.shape())),
    }
}

/// The `[n, c, h, w]` dims of a `k`-window pooling input: a non-empty
/// plane whose sides `k` divides.
fn windowed_nchw(input: &Tensor, k: usize, layer: &str) -> Result<[usize; 4]> {
    let dims = nchw(input, layer)?;
    let [_, _, h, w] = dims;
    if h % k != 0 || w % k != 0 {
        return Err(NnError::new_bad_input(
            layer,
            format_args!("spatial dims divisible by {k}"),
            input.shape(),
        ));
    }
    Ok(dims)
}

/// Checks out a pool-backed copy of `shape` so steady rounds reuse the
/// same small vector instead of re-allocating it every forward pass.
fn cache_shape(shape: &[usize]) -> Vec<usize> {
    let mut cached = pool::take_usize_buf(shape.len());
    cached.copy_from_slice(shape);
    cached
}

/// One step of a max-pool window scan: the `(value, flat index)` kept after
/// `next`. The later value replaces the kept one only where it is greater,
/// or a NaN after a number; a tie keeps the earlier, and so does a kept NaN.
fn max_step(best: (f32, usize), next: (f32, usize)) -> (f32, usize) {
    if best.0.is_nan() || next.0 <= best.0 {
        best
    } else {
        next
    }
}

/// [`max_step`] where neither value is NaN: one compare and a select.
fn max_step_numbers(best: (f32, usize), next: (f32, usize)) -> (f32, usize) {
    if next.0 > best.0 {
        next
    } else {
        best
    }
}

/// Non-overlapping max pooling with square window `k` and stride `k`.
///
/// Input spatial dims must be divisible by `k`. Each window's output is its
/// first maximum in row-major order, or its first NaN; backward routes the
/// window's gradient to that element.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    cached: Option<(Vec<usize>, Vec<usize>)>, // (input shape, argmax flat indices)
}

impl MaxPool2d {
    /// Creates a max-pool layer with window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d { k, cached: None }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let k = self.k;
        let [n, c, h, w] = windowed_nchw(input, k, self.name())?;
        let (oh, ow) = (h / k, w / k);
        let mut out = pool::pooled_zeros(&[n, c, oh, ow]);
        let mut arg = pool::take_usize_buf(n * c * oh * ow);
        // Each window is scanned row by row, left to right, from its own
        // first element: a tie keeps the first maximum in that order, and
        // the first NaN wins (see `max_step`).
        let planes = input.data().chunks_exact(h * w);
        let outs = out.data_mut().chunks_exact_mut(oh * ow).zip(arg.chunks_exact_mut(oh * ow));
        for (img, (plane, (oplane, aplane))) in planes.zip(outs).enumerate() {
            let obands = oplane.chunks_exact_mut(ow).zip(aplane.chunks_exact_mut(ow));
            for (oy, (band, (orow, arow))) in plane.chunks_exact(k * w).zip(obands).enumerate() {
                let band_start = (img * h + oy * k) * w;
                // A band without NaN (every band, in training that has not
                // diverged) takes the one-compare step; it agrees with
                // `max_step` wherever no NaN is seen.
                let nan = band.iter().fold(false, |any, v| any | v.is_nan());
                if let (2, false, Some((r0, r1))) = (k, nan, band.split_at_checked(w)) {
                    // The paper CNN's window, straight-line.
                    let cells = r0.chunks_exact(2).zip(r1.chunks_exact(2)).zip(orow.iter_mut().zip(arow.iter_mut()));
                    for (ox, ((top, bottom), (o, a))) in cells.enumerate() {
                        let (&[t0, t1], &[b0, b1]) = (top, bottom) else { continue };
                        let i = band_start + 2 * ox;
                        let best = max_step_numbers(max_step_numbers((t0, i), (t1, i + 1)), (b0, i + w));
                        (*o, *a) = max_step_numbers(best, (b1, i + w + 1));
                    }
                    continue;
                }
                for (ox, (o, a)) in orow.iter_mut().zip(arow.iter_mut()).enumerate() {
                    let mut window = band.chunks_exact(w).enumerate().flat_map(|(dy, row)| {
                        let start = band_start + dy * w;
                        (ox * k..(ox + 1) * k).zip(row.get(ox * k..).unwrap_or(&[])).map(move |(x, &v)| (v, start + x))
                    });
                    let Some(first) = window.next() else { continue };
                    (*o, *a) = window.fold(first, max_step);
                }
            }
        }
        if train {
            self.cached = Some((cache_shape(input.shape()), arg));
        } else {
            pool::give_usize_buf(arg);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (in_shape, arg) = self
            .cached
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        if grad_output.len() != arg.len() {
            let expected = arg.len();
            pool::give_usize_buf(arg);
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {expected} elements"),
                grad_output.shape(),
            ));
        }
        let mut grad_in = pool::pooled_zeros(&in_shape);
        let gd = grad_in.data_mut();
        // Every index was taken from a window of the `in_shape` input.
        for (g, &idx) in grad_output.data().iter().zip(&arg) {
            if let Some(slot) = gd.get_mut(idx) {
                *slot += g;
            }
        }
        pool::give_usize_buf(arg);
        pool::give_usize_buf(in_shape);
        Ok(grad_in)
    }
}

/// Non-overlapping average pooling with square window `k` and stride `k`.
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    cached_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        AvgPool2d { k, cached_shape: None }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        "avgpool2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let k = self.k;
        let [n, c, h, w] = windowed_nchw(input, k, self.name())?;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = pool::pooled_zeros(&[n, c, oh, ow]);
        // Each window sums row by row, left to right, from `+0.0`.
        let planes = input.data().chunks_exact(h * w);
        for (plane, oplane) in planes.zip(out.data_mut().chunks_exact_mut(oh * ow)) {
            for (band, orow) in plane.chunks_exact(k * w).zip(oplane.chunks_exact_mut(ow)) {
                for (ox, o) in orow.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for row in band.chunks_exact(w) {
                        for &v in row.iter().skip(ox * k).take(k) {
                            acc += v;
                        }
                    }
                    *o = acc * inv;
                }
            }
        }
        if train {
            self.cached_shape = Some(cache_shape(input.shape()));
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let in_shape = self
            .cached_shape
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        let k = self.k;
        let [n, c, h, w] = *in_shape.as_slice() else {
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_missing_forward(self.name()));
        };
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let gd = grad_output.data();
        if gd.len() != n * c * oh * ow {
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {} elements", n * c * oh * ow),
                grad_output.shape(),
            ));
        }
        let mut grad_in = pool::pooled_zeros(&in_shape);
        let gplanes = grad_in.data_mut().chunks_exact_mut(h * w);
        for (gplane, dplane) in gplanes.zip(gd.chunks_exact(oh * ow)) {
            for (band, drow) in gplane.chunks_exact_mut(k * w).zip(dplane.chunks_exact(ow)) {
                for row in band.chunks_exact_mut(w) {
                    for (window, &g) in row.chunks_exact_mut(k).zip(drow) {
                        let g = g * inv;
                        for v in window {
                            *v += g;
                        }
                    }
                }
            }
        }
        pool::give_usize_buf(in_shape);
        Ok(grad_in)
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        "globalavgpool"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let [n, c, h, w] = nchw(input, self.name())?;
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        let mut out = pool::pooled_zeros(&[n, c]);
        // `out` holds exactly the `n * c` plane means.
        for (o, p) in out.data_mut().iter_mut().zip(input.data().chunks_exact(plane)) {
            *o = p.iter().sum::<f32>() * inv;
        }
        if train {
            self.cached_shape = Some(cache_shape(input.shape()));
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let in_shape = self
            .cached_shape
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        let [n, c, h, w] = *in_shape.as_slice() else {
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_missing_forward(self.name()));
        };
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        if grad_output.len() != n * c {
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {} elements", n * c),
                grad_output.shape(),
            ));
        }
        let mut grad_in = pool::pooled_zeros(&in_shape);
        for (p, &g) in grad_in.data_mut().chunks_exact_mut(plane).zip(grad_output.data()) {
            p.fill(g * inv);
        }
        pool::give_usize_buf(in_shape);
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_known() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0], &[1, 1, 4, 4]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        p.forward(&x, true).unwrap();
        let dx = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap()).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    /// A window with no number above `−inf` routes its gradient inside
    /// itself, and a NaN anywhere in a window is its output.
    #[test]
    fn maxpool_all_nan_and_all_neg_inf_windows_route_inside_themselves() {
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        for k in [2usize, 3] {
            // Four windows side by side: finite, all NaN, all −inf, and
            // −inf with one NaN in its last row.
            let w = 4 * k;
            let mut x = vec![0.0f32; k * w];
            for (i, v) in x.iter_mut().enumerate() {
                let (row, window) = (i / w, i % w / k);
                *v = match window {
                    0 => i as f32,
                    1 => nan,
                    2 => ninf,
                    _ if row == k - 1 && i % k == 1 => nan,
                    _ => ninf,
                };
            }
            let mut p = MaxPool2d::new(k);
            let y = p.forward(&Tensor::from_vec(x, &[1, 1, k, w]).unwrap(), true).unwrap();
            let y = y.data();
            assert_eq!(y[0], ((k - 1) * w + k - 1) as f32, "k={k}");
            assert!(y[1].is_nan() && y[3].is_nan(), "k={k}: {y:?}");
            assert_eq!(y[2], ninf, "k={k}");
            let dx = p.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 1, 4]).unwrap()).unwrap();
            let mut want = vec![0.0f32; k * w];
            want[(k - 1) * w + k - 1] = 1.0;
            want[k] = 2.0; // the all-NaN window's first element
            want[2 * k] = 3.0; // the all-−inf window's first element
            want[(k - 1) * w + 3 * k + 1] = 4.0; // the NaN
            assert_eq!(dx.data(), want.as_slice(), "k={k}");

            // Without a NaN in the band: a finite window and an all-−inf one.
            let x: Vec<f32> = (0..k * 2 * k).map(|i| if i % (2 * k) < k { -(i as f32) } else { ninf }).collect();
            let mut p = MaxPool2d::new(k);
            let y = p.forward(&Tensor::from_vec(x, &[1, 1, k, 2 * k]).unwrap(), true).unwrap();
            assert_eq!(y.data(), &[-0.0, ninf], "k={k}");
            assert_eq!(y.data()[0].to_bits(), (-0.0f32).to_bits(), "k={k}: the window's first maximum");
            let dx = p.backward(&Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]).unwrap()).unwrap();
            let mut want = vec![0.0f32; k * 2 * k];
            want[0] = 1.0;
            want[k] = 2.0;
            assert_eq!(dx.data(), want.as_slice(), "k={k}");
        }
    }

    #[test]
    fn maxpool_rejects_indivisible_dims() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 3, 4]);
        assert!(p.forward(&x, true).is_err());
    }

    #[test]
    fn avgpool_forward_and_backward() {
        let mut p = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[4.0]);
        let dx = p.backward(&Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap()).unwrap();
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 25.0]);
        let dx = p.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap()).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut p = MaxPool2d::new(2);
        assert!(p.backward(&Tensor::ones(&[1, 1, 1, 1])).is_err());
        let mut a = AvgPool2d::new(2);
        assert!(a.backward(&Tensor::ones(&[1, 1, 1, 1])).is_err());
        let mut g = GlobalAvgPool::new();
        assert!(g.backward(&Tensor::ones(&[1, 1])).is_err());
    }

    #[test]
    fn maxpool_gradient_is_conservative() {
        // Sum of routed gradient equals sum of incoming gradient.
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|v| (v as f32 * 0.7).sin()).collect(), &[1, 1, 4, 4]).unwrap();
        p.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let dx = p.backward(&dy).unwrap();
        assert!((dx.sum() - dy.sum()).abs() < 1e-6);
    }
}
