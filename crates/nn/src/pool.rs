//! Pooling layers: max pooling, average pooling, and global average pooling.

use crate::layer::Layer;
use crate::{NnError, Result};
use fedsu_tensor::{pool, Tensor};

fn check_nchw(input: &Tensor, layer: &str) -> Result<(usize, usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(NnError::new_bad_input(
            layer,
            format_args!("[batch, c, h, w]"),
            input.shape(),
        ));
    }
    let s = input.shape();
    Ok((s[0], s[1], s[2], s[3]))
}

/// Checks out a pool-backed copy of `shape` so steady rounds reuse the
/// same small vector instead of re-allocating it every forward pass.
fn cache_shape(shape: &[usize]) -> Vec<usize> {
    let mut cached = pool::take_usize_buf(shape.len());
    cached.copy_from_slice(shape);
    cached
}

/// Non-overlapping max pooling with square window `k` and stride `k`.
///
/// Input spatial dims must be divisible by `k`.
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
        let (n, c, h, w) = check_nchw(input, self.name())?;
        if h % self.k != 0 || w % self.k != 0 {
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("spatial dims divisible by {}", self.k),
                input.shape(),
            ));
        }
        let (oh, ow) = (h / self.k, w / self.k);
        let mut out = pool::pooled_zeros(&[n, c, oh, ow]);
        let mut arg = pool::take_usize_buf(n * c * oh * ow);
        let data = input.data();
        let od = out.data_mut();
        for img in 0..n * c {
            let base = img * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for dy in 0..self.k {
                        for dx in 0..self.k {
                            let idx = base + (oy * self.k + dy) * w + ox * self.k + dx;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = img * oh * ow + oy * ow + ox;
                    od[o] = best;
                    arg[o] = best_idx;
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
        for (g, &idx) in grad_output.data().iter().zip(&arg) {
            gd[idx] += g;
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
        let (n, c, h, w) = check_nchw(input, self.name())?;
        if h % self.k != 0 || w % self.k != 0 {
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("spatial dims divisible by {}", self.k),
                input.shape(),
            ));
        }
        let (oh, ow) = (h / self.k, w / self.k);
        let inv = 1.0 / (self.k * self.k) as f32;
        let mut out = pool::pooled_zeros(&[n, c, oh, ow]);
        let data = input.data();
        let od = out.data_mut();
        for img in 0..n * c {
            let base = img * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for dy in 0..self.k {
                        for dx in 0..self.k {
                            acc += data[base + (oy * self.k + dy) * w + ox * self.k + dx];
                        }
                    }
                    od[img * oh * ow + oy * ow + ox] = acc * inv;
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
        let (h, w) = (in_shape[2], in_shape[3]);
        let (oh, ow) = (h / self.k, w / self.k);
        let inv = 1.0 / (self.k * self.k) as f32;
        let gd = grad_output.data();
        let images = in_shape[0] * in_shape[1];
        if gd.len() != images * oh * ow {
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {} elements", images * oh * ow),
                grad_output.shape(),
            ));
        }
        let mut grad_in = pool::pooled_zeros(&in_shape);
        let gi = grad_in.data_mut();
        for img in 0..images {
            let base = img * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[img * oh * ow + oy * ow + ox] * inv;
                    for dy in 0..self.k {
                        for dx in 0..self.k {
                            gi[base + (oy * self.k + dy) * w + ox * self.k + dx] += g;
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
        let (n, c, h, w) = check_nchw(input, self.name())?;
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        let mut out = pool::pooled_zeros(&[n, c]);
        let od = out.data_mut();
        // `od` holds exactly the `n * c` plane means.
        for (img, o) in od.iter_mut().enumerate() {
            *o = input.data()[img * plane..(img + 1) * plane].iter().sum::<f32>() * inv;
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
        let plane = in_shape[2] * in_shape[3];
        let inv = 1.0 / plane as f32;
        let images = in_shape[0] * in_shape[1];
        if grad_output.len() != images {
            pool::give_usize_buf(in_shape);
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {images} elements"),
                grad_output.shape(),
            ));
        }
        let mut grad_in = pool::pooled_zeros(&in_shape);
        let gi = grad_in.data_mut();
        for img in 0..images {
            let g = grad_output.data()[img] * inv;
            for v in &mut gi[img * plane..(img + 1) * plane] {
                *v = g;
            }
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
