//! # fedsu-nn
//!
//! A small layer-based neural-network library with hand-written backward
//! passes, built on `fedsu-tensor`. It provides every architecture the
//! FedSU paper evaluates — the 2-conv CNN, ResNet-18-style residual
//! networks, and DenseNet-121-style densely-connected networks — plus the
//! SGD optimizer (with weight decay) and softmax cross-entropy loss used in
//! the paper's training setup.
//!
//! ## Design
//!
//! * Every [`Layer`] caches whatever it needs during `forward` and consumes
//!   it in `backward`; gradients accumulate into per-parameter buffers.
//! * Parameters are reachable in a stable, deterministic order through
//!   [`Layer::visit_params_mut`], which is what lets the FL sync strategies
//!   treat a whole model as one flat `f32` vector (exactly the per-scalar
//!   granularity FedSU's predictability mask requires).
//! * Normalization uses GroupNorm rather than BatchNorm: it is
//!   batch-independent and standard practice in federated-learning research,
//!   where BatchNorm's running statistics are ill-defined across non-IID
//!   clients (see DESIGN.md §3).
//!
//! ```
//! use fedsu_nn::{models, loss::softmax_cross_entropy, optim::Sgd, Layer};
//! use fedsu_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), fedsu_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = models::mlp(&[4, 8, 3], &mut rng)?;
//! let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng);
//! let logits = model.forward(&x, true)?;
//! let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2])?;
//! model.backward(&grad)?;
//! Sgd::new(0.05).step(&mut model)?;
//! assert!(loss.is_finite());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod activation;
pub mod blocks;
pub mod conv2d;
pub mod dense;
/// Error types.
pub mod error;
pub mod flat;
pub mod flatten;
pub mod groupnorm;
pub mod layer;
pub mod loss;
pub mod models;
pub mod optim;
pub mod pool;
pub mod sequential;

pub use error::NnError;
pub use layer::{Layer, Param};
pub use sequential::Sequential;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
