//! Composite blocks: ResNet residual blocks and DenseNet dense blocks /
//! transitions, each implemented as a [`Layer`] with a hand-written backward
//! pass through the branch structure.

use crate::activation::Relu;
use crate::conv2d::Conv2d;
use crate::groupnorm::GroupNorm;
use crate::layer::{Layer, Param};
use crate::pool::AvgPool2d;
use crate::{NnError, Result};
use fedsu_tensor::{pool, Tensor};
use rand::Rng;

/// Concatenates two `NCHW` tensors along the channel axis.
fn concat_channels(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (n, ca, cb, h, w) = match (a.shape(), b.shape()) {
        (&[n, ca, h, w], &[nb, cb, hb, wb])
            if [nb, hb, wb] == [n, h, w] && ca > 0 && cb > 0 && h > 0 && w > 0 =>
        {
            (n, ca, cb, h, w)
        }
        _ => {
            return Err(NnError::new_bad_input(
                "concat_channels",
                format_args!("[batch, c, h, w] matching {:?} but for c", a.shape()),
                b.shape(),
            ))
        }
    };
    let plane = h * w;
    let mut out = pool::pooled_zeros(&[n, ca + cb, h, w]);
    let parts = a.data().chunks_exact(ca * plane).zip(b.data().chunks_exact(cb * plane));
    for (dst, (sa, sb)) in out.data_mut().chunks_exact_mut((ca + cb) * plane).zip(parts) {
        let (da, db) = dst.split_at_mut(ca * plane);
        da.copy_from_slice(sa);
        db.copy_from_slice(sb);
    }
    Ok(out)
}

/// Splits a channel-concatenated gradient back into its first `ca`
/// channels and the rest.
fn split_channels(g: &Tensor, ca: usize) -> Result<(Tensor, Tensor)> {
    let (n, c, h, w) = match *g.shape() {
        [n, c, h, w] if 0 < ca && ca < c && h > 0 && w > 0 => (n, c, h, w),
        _ => {
            return Err(NnError::new_bad_input(
                "split_channels",
                format_args!("[batch, c > {ca}, h, w]"),
                g.shape(),
            ))
        }
    };
    let cb = c - ca;
    let plane = h * w;
    let mut ga = pool::pooled_zeros(&[n, ca, h, w]);
    let mut gb = pool::pooled_zeros(&[n, cb, h, w]);
    let parts = ga.data_mut().chunks_exact_mut(ca * plane);
    let parts = parts.zip(gb.data_mut().chunks_exact_mut(cb * plane));
    for (src, (da, db)) in g.data().chunks_exact(c * plane).zip(parts) {
        let (sa, sb) = src.split_at(ca * plane);
        da.copy_from_slice(sa);
        db.copy_from_slice(sb);
    }
    Ok((ga, gb))
}

/// A ResNet-style basic residual block:
/// `out = relu(gn2(conv2(relu(gn1(conv1(x))))) + skip(x))`,
/// where `skip` is the identity or a strided 1×1 conv + GroupNorm when the
/// shape changes.
pub struct ResidualBlock {
    conv1: Conv2d,
    gn1: GroupNorm,
    relu1: Relu,
    conv2: Conv2d,
    gn2: GroupNorm,
    downsample: Option<(Conv2d, GroupNorm)>,
    out_mask: Option<Vec<bool>>,
    /// Retired mask allocation, reused by the next forward pass.
    spare: Vec<bool>,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("downsample", &self.downsample.is_some())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_channels -> out_channels` with the
    /// given stride on the first convolution. A projection shortcut is added
    /// automatically when `stride != 1` or the channel counts differ.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the child layers.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        groups: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, rng)?;
        let gn1 = GroupNorm::new(out_channels, groups)?;
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, rng)?;
        let gn2 = GroupNorm::new(out_channels, groups)?;
        let downsample = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, rng)?,
                GroupNorm::new(out_channels, groups)?,
            ))
        } else {
            None
        };
        Ok(ResidualBlock {
            conv1,
            gn1,
            relu1: Relu::new(),
            conv2,
            gn2,
            downsample,
            out_mask: None,
            spare: Vec::new(),
        })
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        "residual_block"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut main = self.conv1.forward(input, train)?;
        main = self.gn1.forward(&main, train)?;
        main = self.relu1.forward(&main, train)?;
        main = self.conv2.forward(&main, train)?;
        main = self.gn2.forward(&main, train)?;
        let skip = match &mut self.downsample {
            Some((conv, gn)) => {
                let s = conv.forward(input, train)?;
                let normed = gn.forward(&s, train)?;
                pool::recycle(s);
                normed
            }
            None => {
                let mut copy = pool::pooled_like(input);
                copy.data_mut().copy_from_slice(input.data());
                copy
            }
        };
        let mut out = main.add(&skip)?;
        pool::recycle(main);
        pool::recycle(skip);
        if train {
            let mut mask = std::mem::take(&mut self.spare);
            mask.clear();
            mask.extend(out.data().iter().map(|&v| v > 0.0));
            self.out_mask = Some(mask);
        }
        out.map_in_place(|v| v.max(0.0));
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .out_mask
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        if mask.len() != grad_output.len() {
            let expected = mask.len();
            self.spare = mask;
            return Err(NnError::new_bad_input(
                self.name(),
                format_args!("grad with {expected} elements"),
                grad_output.shape(),
            ));
        }
        let mut g = pool::pooled_like(grad_output);
        for ((o, &gv), &m) in g.data_mut().iter_mut().zip(grad_output.data()).zip(&mask) {
            *o = if m { gv } else { 0.0 };
        }
        self.spare = mask;

        // Main branch.
        let mut gm = self.gn2.backward(&g)?;
        gm = self.conv2.backward(&gm)?;
        gm = self.relu1.backward(&gm)?;
        gm = self.gn1.backward(&gm)?;
        let gx_main = self.conv1.backward(&gm)?;

        // Skip branch.
        let gx_skip = match &mut self.downsample {
            Some((conv, gn)) => {
                let gs = gn.backward(&g)?;
                let gx = conv.backward(&gs)?;
                pool::recycle(gs);
                pool::recycle(g);
                gx
            }
            None => g,
        };
        let gx = gx_main.add(&gx_skip)?;
        pool::recycle(gx_main);
        pool::recycle(gx_skip);
        Ok(gx)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params_mut(f);
        self.gn1.visit_params_mut(f);
        self.conv2.visit_params_mut(f);
        self.gn2.visit_params_mut(f);
        if let Some((conv, gn)) = &mut self.downsample {
            conv.visit_params_mut(f);
            gn.visit_params_mut(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params(f);
        self.gn1.visit_params(f);
        self.conv2.visit_params(f);
        self.gn2.visit_params(f);
        if let Some((conv, gn)) = &self.downsample {
            conv.visit_params(f);
            gn.visit_params(f);
        }
    }
}

/// One DenseNet layer: `out = concat(x, conv3x3(relu(gn(x))))`, adding
/// `growth` channels.
pub struct DenseLayer {
    gn: GroupNorm,
    relu: Relu,
    conv: Conv2d,
    in_channels: usize,
}

impl std::fmt::Debug for DenseLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseLayer").field("in_channels", &self.in_channels).finish()
    }
}

impl DenseLayer {
    /// Creates a dense layer adding `growth` channels on top of
    /// `in_channels`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the child layers.
    pub fn new<R: Rng + ?Sized>(in_channels: usize, growth: usize, groups: usize, rng: &mut R) -> Result<Self> {
        Ok(DenseLayer {
            gn: GroupNorm::new(in_channels, groups)?,
            relu: Relu::new(),
            conv: Conv2d::new(in_channels, growth, 3, 1, 1, rng)?,
            in_channels,
        })
    }
}

impl Layer for DenseLayer {
    fn name(&self) -> &str {
        "dense_layer"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut f = self.gn.forward(input, train)?;
        f = self.relu.forward(&f, train)?;
        f = self.conv.forward(&f, train)?;
        concat_channels(input, &f)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (g_direct, g_new) = split_channels(grad_output, self.in_channels)?;
        let mut g = self.conv.backward(&g_new)?;
        pool::recycle(g_new);
        let next = self.relu.backward(&g)?;
        pool::recycle(std::mem::replace(&mut g, next));
        let next = self.gn.backward(&g)?;
        pool::recycle(std::mem::replace(&mut g, next));
        let gx = g_direct.add(&g)?;
        pool::recycle(g_direct);
        pool::recycle(g);
        Ok(gx)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gn.visit_params_mut(f);
        self.conv.visit_params_mut(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.gn.visit_params(f);
        self.conv.visit_params(f);
    }
}

/// DenseNet transition: `avgpool2(conv1x1(relu(gn(x))))`, halving spatial
/// dims and mapping to `out_channels`.
pub struct Transition {
    gn: GroupNorm,
    relu: Relu,
    conv: Conv2d,
    pool: AvgPool2d,
}

impl std::fmt::Debug for Transition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transition").finish()
    }
}

impl Transition {
    /// Creates a transition from `in_channels` to `out_channels`.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the child layers.
    pub fn new<R: Rng + ?Sized>(in_channels: usize, out_channels: usize, groups: usize, rng: &mut R) -> Result<Self> {
        Ok(Transition {
            gn: GroupNorm::new(in_channels, groups)?,
            relu: Relu::new(),
            conv: Conv2d::new(in_channels, out_channels, 1, 1, 0, rng)?,
            pool: AvgPool2d::new(2),
        })
    }
}

impl Layer for Transition {
    fn name(&self) -> &str {
        "transition"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = self.gn.forward(input, train)?;
        x = self.relu.forward(&x, train)?;
        x = self.conv.forward(&x, train)?;
        self.pool.forward(&x, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = self.pool.backward(grad_output)?;
        g = self.conv.backward(&g)?;
        g = self.relu.backward(&g)?;
        self.gn.backward(&g)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gn.visit_params_mut(f);
        self.conv.visit_params_mut(f);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.gn.visit_params(f);
        self.conv.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let b = Tensor::from_vec((100..104).map(|v| v as f32).collect(), &[1, 1, 2, 2]).unwrap();
        let c = concat_channels(&a, &b).unwrap();
        assert_eq!(c.shape(), &[1, 3, 2, 2]);
        let (a2, b2) = split_channels(&c, 2).unwrap();
        assert_eq!(a2.data(), a.data());
        assert_eq!(b2.data(), b.data());
    }

    #[test]
    fn residual_identity_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = ResidualBlock::new(4, 4, 1, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        let dx = block.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn residual_downsample_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = ResidualBlock::new(4, 8, 2, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 4, 8, 8], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        let dx = block.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn residual_output_is_nonnegative() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = ResidualBlock::new(2, 2, 1, 1, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -2.0, 2.0, &mut rng);
        let y = block.forward(&x, false).unwrap();
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn residual_finite_difference_gradient() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut block = ResidualBlock::new(2, 2, 1, 1, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let wts: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.31).cos()).collect();

        let y = block.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(wts.clone(), y.shape()).unwrap();
        let dx = block.backward(&dy).unwrap();

        let eps = 1e-2f32;
        let mut x2 = x.clone();
        for idx in [0usize, 9, 25] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp: f32 = block.forward(&x2, true).unwrap().data().iter().zip(&wts).map(|(a, b)| a * b).sum();
            x2.data_mut()[idx] = orig - eps;
            let lm: f32 = block.forward(&x2, true).unwrap().data().iter().zip(&wts).map(|(a, b)| a * b).sum();
            x2.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * (1.0 + got.abs()),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn dense_layer_grows_channels() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut dl = DenseLayer::new(4, 3, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 4, 4, 4], -1.0, 1.0, &mut rng);
        let y = dl.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 7, 4, 4]);
        // The first `in_channels` channels pass through unchanged.
        assert_eq!(&y.data()[..16], &x.data()[..16]);
        let dx = dl.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn dense_layer_finite_difference_gradient() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut dl = DenseLayer::new(2, 2, 1, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let out_len = 4 * 3 * 3;
        let wts: Vec<f32> = (0..out_len).map(|i| ((i as f32) * 0.17).sin()).collect();

        let y = dl.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(wts.clone(), y.shape()).unwrap();
        let dx = dl.backward(&dy).unwrap();

        let eps = 1e-2f32;
        let mut x2 = x.clone();
        for idx in [0usize, 8, 17] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp: f32 = dl.forward(&x2, true).unwrap().data().iter().zip(&wts).map(|(a, b)| a * b).sum();
            x2.data_mut()[idx] = orig - eps;
            let lm: f32 = dl.forward(&x2, true).unwrap().data().iter().zip(&wts).map(|(a, b)| a * b).sum();
            x2.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.05 * (1.0 + got.abs()),
                "idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn transition_halves_spatial_dims() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = Transition::new(6, 3, 2, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[2, 6, 8, 8], -1.0, 1.0, &mut rng);
        let y = t.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
        let dx = t.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn blocks_report_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = ResidualBlock::new(4, 8, 2, 2, &mut rng).unwrap();
        let mut n = 0;
        block.visit_params(&mut |p| n += p.len());
        // conv1 w+b, gn1 g+b, conv2 w+b, gn2 g+b, downsample conv w+b + gn g+b
        let expected = (4 * 8 * 9 + 8) + (8 + 8) + (8 * 8 * 9 + 8) + (8 + 8) + (4 * 8 + 8) + (8 + 8);
        assert_eq!(n, expected);
    }
}
