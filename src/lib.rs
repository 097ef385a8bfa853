//! # fedsu-repro
//!
//! Umbrella crate of the FedSU reproduction: re-exports every subsystem and
//! provides the [`scenario`] toolkit that examples, integration tests and
//! the benchmark harness share to assemble paper-shaped experiments in a
//! few lines.
//!
//! ```
//! use fedsu_repro::scenario::{Scenario, ModelKind, StrategyKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut experiment = Scenario::new(ModelKind::Mlp)
//!     .clients(4)
//!     .rounds(3)
//!     .build(StrategyKind::FedSu)?;
//! let result = experiment.run(None)?;
//! assert_eq!(result.rounds.len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod scenario;

pub use fedsu_core as core;
pub use fedsu_data as data;
pub use fedsu_fl as fl;
pub use fedsu_metrics as metrics;
pub use fedsu_netsim as netsim;
pub use fedsu_nn as nn;
pub use fedsu_strategies as strategies;
pub use fedsu_tensor as tensor;
pub use fedsu_transport as transport;
