//! # fedsu-transport
//!
//! The paper implements client↔server communication with RPyC (remote
//! Python calls). This crate is the Rust stand-in: typed FL messages with a
//! compact, versioned wire encoding, carried by reliable sessions over
//! channel-based endpoints that actually move the encoded bytes between
//! threads and count them — so a FedAvg run over real threads can be checked
//! bit-for-bit against the in-process emulation (see the workspace's
//! `tests/wire_parity.rs`).
//!
//! The `fedsu-fl` runtime deliberately does *not* route its inner loop
//! through this transport (the emulation counts bytes analytically, which
//! is what the paper measures); the transport exists to demonstrate that
//! the message protocol is complete and self-consistent — and that it
//! survives an actively hostile wire.
//!
//! The crate is a small stack, each layer written once and addressed by
//! peer index — in a star a client is a server with one peer (the server,
//! at index 0):
//!
//! * [`LocalBus`] endpoints move opaque frames between threads and count
//!   bytes ([`Link`] is the seam, and the only way bytes leave an endpoint;
//!   it takes `&mut self`, so an endpoint has one owner and no lock);
//! * [`Chaos`] optionally decorates a link with a seeded [`FaultConfig`]'s
//!   wire faults — drop, corruption, duplication, reordering, delay —
//!   every decision a pure hash of `(client, round epoch, seq, attempt)`,
//!   shared with the emulator's fault model;
//! * [`ClientSession`] / [`ServerSession`], two faces of one state
//!   machine and the only path a [`Message`] takes, restore exactly-once
//!   delivery on top with acks, bounded deterministic retransmission,
//!   `(epoch, seq)` dedup, and stale-epoch rejection, reporting [`ReliabilityStats`] whose `retransmitted_bytes`
//!   matches the fl runtime's per-round accounting;
//! * [`Star`] runs the lockstep FL round loop over all three, written once:
//!   a broadcast, one reply per client, a fold in client-index order, and
//!   the end-of-run linger on both sides.
//!
//! ```
//! use fedsu_transport::{Message, SparseValues};
//!
//! let msg = Message::Update { round: 3, client: 1, values: SparseValues::dense(vec![1.0, 2.0]) };
//! let bytes = msg.encode();
//! assert_eq!(Message::decode(&bytes).unwrap(), msg);
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

mod bus;
mod chaos;
mod cursor;
mod message;
mod session;
mod star;

pub use bus::{BusError, ClientEndpoint, Link, LocalBus, ServerEndpoint, TransportStats};
pub use chaos::{Chaos, ChaosStats};
pub use fedsu_netsim::{FaultConfig, WireFrame};
pub use message::{DecodeError, Message, QuantizedValues, SparseValues};
pub use session::{
    ClientSession, Envelope, EnvelopeError, FrameKind, ReliabilityStats, ServerSession,
    SessionConfig, SessionError, ENVELOPE_OVERHEAD,
};
pub use star::{Star, StarError, StarRun, StarServer};
