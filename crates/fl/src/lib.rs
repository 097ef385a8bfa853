//! # fedsu-fl
//!
//! The emulated federated-learning runtime the FedSU paper's evaluation
//! runs on: a FedAvg-style round loop (pull → local SGD iterations → push →
//! aggregate), the [`SyncStrategy`] trait that FedAvg/CMFL/APF/FedSU plug
//! into, exact per-scalar communication accounting, the paper's
//! earliest-70% participation rule (via `fedsu-netsim`), and participant
//! dynamicity (clients joining/leaving mid-run).
//!
//! ## Execution model
//!
//! The paper deploys one process per EC2 node and replicates the
//! FedSU_Manager state on every client (masks are identical across clients
//! because they are derived from post-synchronization global values). This
//! runtime exploits exactly that replication argument: strategy state that
//! the paper replicates per-client is held once, while genuinely per-client
//! quantities (local models, data partitions, error accumulators) are kept
//! per client. Bytes on the wire are counted as if the state were
//! physically distributed — which is what the paper measures.

#![warn(missing_docs)]
// Wire bytes and emulated time must never wrap or truncate silently: an
// integer narrowing goes through `try_from`, a float rounding carries an
// `allow` that says why it is meant.
#![deny(clippy::cast_possible_truncation)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]
// Byte totals, counts and seeds never wrap silently: each integer op says
// whether it wraps, saturates or is checked (unit tests are exempt).
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

pub mod client;
/// Error types.
pub mod error;
pub mod experiment;
pub mod message;
pub mod record;
pub mod schedule;
pub mod server;
pub mod strategy;

pub use client::{Client, ClientConfig};
pub use error::FlError;
pub use experiment::{DefenseConfig, Experiment, ExperimentConfig, RoundHook};
pub use fedsu_netsim::FaultConfig;
pub use message::{bytes_with_retries, retransmitted_bytes, scalars_to_bytes, BYTES_PER_SCALAR};
pub use record::{ExperimentResult, RoundRecord};
pub use schedule::LrSchedule;
pub use server::Server;
pub use strategy::{AggregateOutcome, SyncStrategy};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, FlError>;
