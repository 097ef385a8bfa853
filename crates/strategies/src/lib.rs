//! # fedsu-strategies
//!
//! The three baseline synchronization strategies the FedSU paper compares
//! against (Sec. VI-A):
//!
//! * [`FedAvg`] — full-model synchronization every round (McMahan et al.);
//! * [`Cmfl`] — a client withholds its whole update when too few of its
//!   update directions agree with the previous global update (Luping et
//!   al., ICDCS'19; a fixed relevance threshold of 0.8);
//! * [`Apf`] — per-parameter adaptive freezing: parameters whose effective
//!   perturbation falls below a stability threshold are frozen for
//!   additively-growing periods (Chen et al., ICDCS'21; default threshold
//!   0.05).
//!
//! Two extension baselines go beyond the paper: [`Qsgd`] (stochastic
//! quantization to 15 levels, the compression family of Sec. II-B) and
//! [`TopK`] (magnitude sparsification of a quarter of the model with
//! residual feedback).
//!
//! APF's stability threshold is the only setting among them; every other
//! value each baseline runs at is a constant of its module.
//!
//! All of them implement [`fedsu_fl::SyncStrategy`] and can be plugged into
//! [`fedsu_fl::Experiment`] interchangeably with FedSU itself.

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod apf;
mod cmfl;
mod fedavg;
mod qsgd;
mod topk;

pub use apf::Apf;
pub use cmfl::Cmfl;
pub use fedavg::FedAvg;
pub use qsgd::Qsgd;
pub use topk::TopK;
