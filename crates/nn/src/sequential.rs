//! Sequential container.

use crate::layer::{Layer, Param};
use crate::Result;
use fedsu_tensor::{pool, Tensor};

/// A container running child layers in order; the workhorse model type.
///
/// ```
/// use fedsu_nn::{Sequential, Layer};
/// use fedsu_nn::activation::Relu;
/// use fedsu_tensor::Tensor;
///
/// # fn main() -> Result<(), fedsu_nn::NnError> {
/// let mut net = Sequential::new("demo");
/// net.push(Relu::new());
/// let y = net.forward(&Tensor::from_slice(&[-1.0, 2.0]).reshape(&[1, 2])?, false)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field("layers", &self.layers.iter().map(|l| l.name().to_string()).collect::<Vec<_>>())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential { name: name.into(), layers: Vec::new() }
    }

    /// Creates an empty container with room for `layers` children, so model
    /// builders that push in a loop never regrow the layer list.
    pub fn with_capacity(name: impl Into<String>, layers: usize) -> Self {
        Sequential { name: name.into(), layers: Vec::with_capacity(layers) }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of scalar parameters (recursively).
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            let mut out = pool::pooled_like(input);
            out.data_mut().copy_from_slice(input.data());
            return Ok(out);
        };
        let mut x = first.forward(input, train)?;
        for layer in layers {
            let next = layer.forward(&x, train)?;
            // The intermediate activation is dead once the next layer has
            // consumed it; hand its storage back to the pool.
            pool::recycle(std::mem::replace(&mut x, next));
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        match backward_through(&mut self.layers, grad_output)? {
            Some(g) => Ok(g),
            None => {
                let mut out = pool::pooled_like(grad_output);
                out.data_mut().copy_from_slice(grad_output.data());
                Ok(out)
            }
        }
    }

    /// Every layer runs `backward` except the first, which runs
    /// `backward_params`: the model's input gradient is never computed.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let g = backward_through(rest, grad_output)?;
        first.backward_params(g.as_ref().unwrap_or(grad_output))?;
        if let Some(g) = g {
            pool::recycle(g);
        }
        Ok(())
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params_mut(f);
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }
}

/// Runs `backward` through `layers`, last to first, handing each
/// intermediate gradient back to the pool once the next layer has consumed
/// it. `None` when there are no layers.
fn backward_through(layers: &mut [Box<dyn Layer>], grad_output: &Tensor) -> Result<Option<Tensor>> {
    let mut layers = layers.iter_mut().rev();
    let Some(last) = layers.next() else {
        return Ok(None);
    };
    let mut g = last.backward(grad_output)?;
    for layer in layers {
        let next = layer.backward(&g)?;
        pool::recycle(std::mem::replace(&mut g, next));
    }
    Ok(Some(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_sequential_is_identity() {
        let mut s = Sequential::new("empty");
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(s.forward(&x, true).unwrap().data(), x.data());
        assert_eq!(s.backward(&x).unwrap().data(), x.data());
        assert!(s.is_empty());
    }

    #[test]
    fn composes_layers_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new("mlp");
        s.push(Dense::new(2, 4, &mut rng).unwrap());
        s.push(Relu::new());
        s.push(Dense::new(4, 3, &mut rng).unwrap());
        assert_eq!(s.len(), 3);
        let x = Tensor::rand_uniform(&[5, 2], -1.0, 1.0, &mut rng);
        let y = s.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        let dx = s.backward(&Tensor::ones(&[5, 3])).unwrap();
        assert_eq!(dx.shape(), &[5, 2]);
    }

    #[test]
    fn param_count_sums_children() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new("mlp");
        s.push(Dense::new(2, 4, &mut rng).unwrap()); // 8 + 4
        s.push(Dense::new(4, 3, &mut rng).unwrap()); // 12 + 3
        assert_eq!(s.num_params(), 27);
    }

    #[test]
    fn visit_order_is_stable() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new("mlp");
        s.push(Dense::new(2, 4, &mut rng).unwrap());
        s.push(Dense::new(4, 3, &mut rng).unwrap());
        let mut lens = Vec::new();
        s.visit_params(&mut |p| lens.push(p.len()));
        assert_eq!(lens, vec![8, 4, 12, 3]);
    }
}
