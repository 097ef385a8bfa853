//! # fedsu-data
//!
//! Synthetic federated datasets and the non-IID partitioner used by the
//! FedSU reproduction.
//!
//! The paper evaluates on EMNIST, FMNIST and CIFAR-10. Those corpora are not
//! available offline, so this crate generates *class-prototype* image
//! datasets of identical tensor shape and comparable difficulty profile:
//! each class is a low-dimensional manifold (an interpolation between two
//! random prototypes) plus Gaussian pixel noise, so SGD shows the same
//! converge-then-plateau per-parameter trajectories the paper's mechanism
//! exploits (see DESIGN.md §3 for the substitution argument).
//!
//! Client data skew follows the paper exactly: a Dirichlet(α) allocation of
//! each class across clients (Hsu et al., 2019), with α = 1 as the paper's
//! default "modest non-IID" level.
//!
//! ```
//! use fedsu_data::{SyntheticConfig, dirichlet_partition};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = SyntheticConfig::emnist_like().samples_per_class(20).build(&mut rng);
//! let parts = dirichlet_partition(data.labels(), 4, 1.0, &mut rng);
//! assert_eq!(parts.len(), 4);
//! assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), data.len());
//! ```

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod dataset;
mod loader;
mod partition;
mod synthetic;

pub use dataset::InMemoryDataset;
pub use loader::Batcher;
pub use partition::{dirichlet_partition, label_distribution};
pub use synthetic::SyntheticConfig;
