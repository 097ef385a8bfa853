//! Offline stand-in for `serde`. The FedSU workspace derives `Serialize` /
//! `Deserialize` on its records but ships no serialiser, so marker traits
//! and derives that expand to nothing are enough to build every product
//! crate (see `../README.md`).

/// Marker for serialisable types.
pub trait Serialize {}

/// Marker for deserialisable types.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
