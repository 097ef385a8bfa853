//! # fedsu-strategies
//!
//! The three baseline synchronization strategies the FedSU paper compares
//! against (Sec. VI-A):
//!
//! * [`FedAvg`] — full-model synchronization every round (McMahan et al.);
//! * [`Cmfl`] — a client withholds its whole update when too few of its
//!   update directions agree with the previous global update (Luping et
//!   al., ICDCS'19; default relevance threshold 0.8);
//! * [`Apf`] — per-parameter adaptive freezing: parameters whose effective
//!   perturbation falls below a stability threshold are frozen for
//!   additively-growing periods (Chen et al., ICDCS'21; default threshold
//!   0.05).
//!
//! Two extension baselines go beyond the paper: [`Qsgd`] (stochastic
//! quantization, the compression family of Sec. II-B) and [`TopK`]
//! (magnitude sparsification with residual feedback).
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

pub use apf::{Apf, ApfConfig};
pub use cmfl::{Cmfl, CmflConfig};
pub use fedavg::FedAvg;
pub use qsgd::{Qsgd, QsgdConfig};
pub use topk::{TopK, TopKConfig};
