//! Group normalization (Wu & He, 2018).
//!
//! GroupNorm is used where the original architectures use BatchNorm: it is
//! batch-size independent and has no cross-client running statistics, which
//! makes it the standard normalization choice in federated-learning research
//! (see DESIGN.md §3 for the substitution note).

use crate::layer::{Layer, Param};
use crate::{NnError, Result};
use fedsu_tensor::{pool, Tensor};

const EPS: f32 = 1e-5;

struct Cache {
    input: Tensor,
    plane: usize,      // h * w of `input`
    mean: Vec<f32>,    // per (sample, group)
    inv_std: Vec<f32>, // per (sample, group)
}

/// Group normalization over `NCHW` inputs with learnable per-channel
/// `gamma`/`beta`.
pub struct GroupNorm {
    gamma: Param,
    beta: Param,
    channels: usize,
    groups: usize,
    cache: Option<Cache>,
}

impl std::fmt::Debug for GroupNorm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupNorm")
            .field("channels", &self.channels)
            .field("groups", &self.groups)
            .finish()
    }
}

impl GroupNorm {
    /// Creates a GroupNorm layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when `groups` does not divide
    /// `channels` or either is zero.
    pub fn new(channels: usize, groups: usize) -> Result<Self> {
        if channels == 0 || groups == 0 || !channels.is_multiple_of(groups) {
            return Err(NnError::BadConfig(format!(
                "groupnorm needs groups | channels, got {groups} groups for {channels} channels"
            )));
        }
        Ok(GroupNorm {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            channels,
            groups,
            cache: None,
        })
    }
}

impl Layer for GroupNorm {
    fn name(&self) -> &str {
        "groupnorm"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let plane = match *input.shape() {
            [_, c, h, w] if c == self.channels && h > 0 && w > 0 => h * w,
            _ => {
                return Err(NnError::new_bad_input(
                    self.name(),
                    format_args!("[batch, {}, h, w]", self.channels),
                    input.shape(),
                ))
            }
        };
        let n = input.len() / (self.channels * plane);
        let cpg = self.channels / self.groups; // channels per group
        let group_size = cpg * plane;
        let data = input.data();
        let mut out_t = pool::pooled_zeros(input.shape());
        let mut means = pool::take_f32_buf(n * self.groups);
        let mut inv_stds = pool::take_f32_buf(n * self.groups);

        // Groups are contiguous and run (sample, group) in the order the
        // statistics are stored; the affine parameters repeat per sample.
        let gammas = self.gamma.value.data().chunks_exact(cpg);
        let affine = gammas.zip(self.beta.value.data().chunks_exact(cpg)).cycle();
        let stats = means.iter_mut().zip(inv_stds.iter_mut());
        let outs = out_t.data_mut().chunks_exact_mut(group_size);
        let groups = data.chunks_exact(group_size).zip(outs).zip(stats);
        for (((xs, os), (mean_slot, inv_std_slot)), (gams, bets)) in groups.zip(affine) {
            let mean = xs.iter().sum::<f32>() / group_size as f32;
            let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / group_size as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            *mean_slot = mean;
            *inv_std_slot = inv_std;
            let channels = xs.chunks_exact(plane).zip(os.chunks_exact_mut(plane));
            for ((xc, oc), (&gam, &bet)) in channels.zip(gams.iter().zip(bets)) {
                for (o, &x) in oc.iter_mut().zip(xc) {
                    *o = (x - mean) * inv_std * gam + bet;
                }
            }
        }
        if train {
            let mut cached = pool::pooled_like(input);
            cached.data_mut().copy_from_slice(data);
            self.cache = Some(Cache { input: cached, plane, mean: means, inv_std: inv_stds });
        } else {
            pool::give_f32_buf(means);
            pool::give_f32_buf(inv_stds);
        }
        Ok(out_t)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::new_missing_forward(self.name()))?;
        let input = &cache.input;
        if grad_output.shape() != input.shape() {
            let err = NnError::new_bad_input(
                self.name(),
                format_args!("grad {:?}", input.shape()),
                grad_output.shape(),
            );
            let Cache { input, mean, inv_std, .. } = cache;
            pool::recycle(input);
            pool::give_f32_buf(mean);
            pool::give_f32_buf(inv_std);
            return Err(err);
        }
        let plane = cache.plane;
        let cpg = self.channels / self.groups;
        let group_len = cpg * plane;
        let group_size = group_len as f32;
        let mut grad_in_t = pool::pooled_zeros(input.shape());

        let gammas = self.gamma.value.data();
        let (dgammas, dbetas) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        let stats = cache.mean.chunks_exact(self.groups);
        let stats = stats.zip(cache.inv_std.chunks_exact(self.groups));
        let sample_len = self.channels * plane;
        let samples = input.data().chunks_exact(sample_len);
        let samples = samples.zip(grad_output.data().chunks_exact(sample_len));
        let samples = samples.zip(grad_in_t.data_mut().chunks_exact_mut(sample_len));
        for (((xs, gs), dxs), (means, inv_stds)) in samples.zip(stats) {
            let params = gammas.chunks_exact(cpg).zip(dgammas.chunks_exact_mut(cpg));
            let params = params.zip(dbetas.chunks_exact_mut(cpg));
            let groups = xs.chunks_exact(group_len).zip(gs.chunks_exact(group_len));
            let groups = groups.zip(dxs.chunks_exact_mut(group_len));
            let groups = groups.zip(means.iter().zip(inv_stds));
            for ((((xg, gg), dxg), (&mean, &inv_std)), ((gams, dgams), dbets)) in groups.zip(params)
            {
                // First pass: accumulate the two group-level sums of the
                // standard normalization backward formula, plus per-channel
                // gamma/beta gradients.
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                let channels = xg.chunks_exact(plane).zip(gg.chunks_exact(plane));
                let channel_params = gams.iter().zip(dgams).zip(dbets);
                for ((xc, gc), ((&gam, dgam), dbet)) in channels.zip(channel_params) {
                    let mut dgamma = 0.0f32;
                    let mut dbeta = 0.0f32;
                    for (&x, &dy) in xc.iter().zip(gc) {
                        let xhat = (x - mean) * inv_std;
                        dgamma += dy * xhat;
                        dbeta += dy;
                        let dxhat = dy * gam;
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xhat;
                    }
                    *dgam += dgamma;
                    *dbet += dbeta;
                }

                // Second pass: dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat))
                let channels = xg.chunks_exact(plane).zip(gg.chunks_exact(plane));
                for (((xc, gc), dxc), &gam) in channels.zip(dxg.chunks_exact_mut(plane)).zip(gams) {
                    for ((dx, &x), &dy) in dxc.iter_mut().zip(xc).zip(gc) {
                        let xhat = (x - mean) * inv_std;
                        let dxhat = dy * gam;
                        *dx = inv_std
                            * (dxhat - sum_dxhat / group_size - xhat * sum_dxhat_xhat / group_size);
                    }
                }
            }
        }
        let Cache { input, mean, inv_std, .. } = cache;
        pool::recycle(input);
        pool::give_f32_buf(mean);
        pool::give_f32_buf(inv_std);
        Ok(grad_in_t)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn forward_normalizes_each_group() {
        let mut gn = GroupNorm::new(2, 2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 2, 2, 2]).unwrap();
        let y = gn.forward(&x, true).unwrap();
        // Each group (channel here) should be ~zero-mean, unit-variance.
        for ch in 0..2 {
            let s = &y.data()[ch * 4..(ch + 1) * 4];
            let mean: f32 = s.iter().sum::<f32>() / 4.0;
            let var: f32 = s.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut gn = GroupNorm::new(1, 1).unwrap();
        gn.gamma.value.fill(2.0);
        gn.beta.value.fill(1.0);
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[1, 1, 2, 2]).unwrap();
        let y = gn.forward(&x, true).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-5); // beta shifts the mean
    }

    #[test]
    fn invalid_groups_rejected() {
        assert!(GroupNorm::new(6, 4).is_err());
        assert!(GroupNorm::new(0, 1).is_err());
        assert!(GroupNorm::new(4, 0).is_err());
    }

    #[test]
    fn finite_difference_gradient_check() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut gn = GroupNorm::new(4, 2).unwrap();
        for v in gn.gamma.value.data_mut() {
            *v = rng.gen_range(0.5..1.5);
        }
        let x = Tensor::rand_uniform(&[2, 4, 3, 3], -1.0, 1.0, &mut rng);

        // Loss = weighted sum of outputs (weights make the check non-trivial).
        let wts: Vec<f32> = (0..x.len()).map(|i| ((i as f32) * 0.13).sin()).collect();
        let loss = |gn: &mut GroupNorm, x: &Tensor| -> f32 {
            let y = gn.forward(x, true).unwrap();
            y.data().iter().zip(&wts).map(|(a, b)| a * b).sum()
        };

        let y = gn.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(wts.clone(), y.shape()).unwrap();
        let dx = gn.backward(&dy).unwrap();
        let dgamma = gn.gamma.grad.clone();

        let eps = 1e-2f32;
        let mut x2 = x.clone();
        for idx in [0usize, 17, 40, 65] {
            let orig = x2.data()[idx];
            x2.data_mut()[idx] = orig + eps;
            let lp = loss(&mut gn, &x2);
            x2.data_mut()[idx] = orig - eps;
            let lm = loss(&mut gn, &x2);
            x2.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dx.data()[idx];
            assert!(
                (numeric - got).abs() < 0.02 * (1.0 + got.abs()),
                "input idx {idx}: numeric {numeric} vs analytic {got}"
            );
        }
        for ch in 0..4 {
            let orig = gn.gamma.value.data()[ch];
            gn.gamma.value.data_mut()[ch] = orig + eps;
            let lp = loss(&mut gn, &x);
            gn.gamma.value.data_mut()[ch] = orig - eps;
            let lm = loss(&mut gn, &x);
            gn.gamma.value.data_mut()[ch] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let got = dgamma.data()[ch];
            assert!(
                (numeric - got).abs() < 0.02 * (1.0 + got.abs()),
                "gamma {ch}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut gn = GroupNorm::new(2, 1).unwrap();
        assert!(gn.backward(&Tensor::ones(&[1, 2, 1, 1])).is_err());
    }
}
