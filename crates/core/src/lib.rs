//! # fedsu-core
//!
//! The paper's primary contribution: **Federated Learning with Speculative
//! Updating** (FedSU, ICDCS 2025).
//!
//! FedSU observes that during federated training most scalar parameters
//! spend long stretches evolving *linearly* — their per-round update is
//! nearly constant. Borrowing the idea of speculative execution from CPU
//! design, FedSU stops synchronizing such parameters and instead refines
//! them with the *predicted* (last profiled) per-round update, falling back
//! to regular synchronization as soon as reality diverges from the
//! prediction.
//!
//! The three mechanisms (Sec. IV of the paper), each implemented here:
//!
//! 1. **Linearity diagnosis** ([`diagnosis`]): the *second-order
//!    oscillation ratio* `R = |⟨g′⟩_θ| / ⟨|g′|⟩_θ` (Eq. 2), an EMA-smoothed,
//!    regression-free test of whether the second-order parameter difference
//!    oscillates around zero. `R < T_R` ⇒ the parameter updates linearly.
//! 2. **Speculative updating** ([`manager`]): parameters flagged in the
//!    *predictability mask* skip synchronization; after local training
//!    their value is replaced by the predicted one (masked replacement).
//! 3. **Error feedback** ([`manager`]): each client accumulates the local
//!    prediction error; when a parameter's *no-checking period* expires the
//!    errors are aggregated and the feedback signal `S = |Σe| / |g|`
//!    (Eq. 3) either extends the period by one round (`S < T_S`) or demotes
//!    the parameter to regular updating.
//!
//! `T_R`, `T_S` and an exit-correction switch are the only settings
//! ([`FedSuConfig`]); the EMA decay, the no-checking schedule and the
//! diagnosis warm-up are fixed constants of [`manager`].
//!
//! The ablation variants of Sec. VI-D are configuration points of the same
//! manager: [`FedSu::variant_v1`] (linearity diagnosis, fixed speculation
//! period, no error feedback) and [`FedSu::variant_v2`] (random speculation
//! entry, no diagnosis, no feedback). So is decision granularity
//! ([`FedSu::chunked`]): Sec. III-A argues that the decisions must be made
//! independently for each parameter, and the same state machine deciding
//! once per block of scalars is how the `ablation_granularity` bench
//! measures that argument.
//!
//! ```
//! use fedsu_core::{FedSu, FedSuConfig};
//! use fedsu_fl::SyncStrategy;
//!
//! let mut fedsu = FedSu::new(FedSuConfig::default());
//! // Drive it like the FL runtime would: two clients, a 3-scalar model.
//! let locals = vec![vec![1.0, 2.0, 3.0], vec![1.2, 2.2, 3.2]];
//! let mut global = vec![0.0, 0.0, 0.0];
//! let mut uploads = Vec::new();
//! fedsu.prepare_uploads_into(0, &locals, &global, &mut uploads);
//! let out = fedsu.aggregate(0, &locals, &[0, 1], &[true, true], &mut global);
//! assert_eq!(out.synced_scalars, 3);
//! assert_eq!(global, vec![1.1, 2.1, 3.1]); // plain averaging until linearity appears
//! ```

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod analysis;
pub mod diagnosis;
pub mod join;
pub mod manager;

pub use analysis::{theorem1_bound, ConvergenceBound, ProblemConstants};
pub use diagnosis::{EmaPair, OscillationDiagnostic};
pub use join::JoinState;
pub use manager::{FedSu, FedSuConfig, MaskEvent, MaskEventKind, RoundStats};
