//! # fedsu-netsim
//!
//! A deterministic stand-in for the paper's 128-node EC2 testbed
//! (`c6i.large` clients throttled to 13.7 Mbps with wondershaper, one
//! `c5a.8xlarge` server on a 10 Gbps link — Sec. VI-A).
//!
//! The paper's headline metrics — per-round time, total time-to-accuracy —
//! are functions of per-round communication volume and compute time. This
//! crate models exactly those quantities:
//!
//! * a [`Link`] turns bytes into seconds (`latency + bytes·8 / bandwidth`);
//! * a [`Cluster`] assigns every client a lognormal compute-speed factor
//!   (device heterogeneity);
//! * [`RoundTimer`] computes each client's finish time
//!   (`download + compute + upload`) and implements the paper's
//!   participation rule: the server proceeds once the earliest 70% of
//!   clients have returned.
//!
//! ```
//! use fedsu_netsim::{Cluster, ClusterConfig, FaultPenalties, RoundTimer};
//!
//! let cluster = Cluster::build(&ClusterConfig::paper_like(8), 42);
//! let timer = RoundTimer::new(&cluster, 0.7);
//! // Round 0, everyone present, nothing slowed down or retried.
//! let unfaulted = FaultPenalties { time_factor: &[1.0; 8], extra_secs: &[0.0; 8] };
//! let outcome =
//!     timer.round_faulty(0, &[1.0; 8], &[1_000_000; 8], &[1_000_000; 8], &[true; 8], unfaulted);
//! assert_eq!(outcome.selected.len(), 6); // round(70% of 8)
//! assert!(outcome.duration_secs > 0.0);
//! ```

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

mod cluster;
mod faults;
mod link;
mod round;

pub use cluster::{Cluster, ClusterConfig};
pub use faults::{FaultConfig, WireFrame, CRASH_DOWN_ROUNDS, SLOWDOWN_FACTOR, WIRE_DELAY_DEPTH};
pub use link::Link;
pub use round::{FaultPenalties, RoundOutcomeTiming, RoundTimer};
