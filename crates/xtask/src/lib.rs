//! Workspace automation for the FedSU reproduction: the kernel perf ratchet
//! ([`benchcheck`], `cargo run -p fedsu-xtask -- bench-check`).
//!
//! Panics, truncating casts and unchecked accounting arithmetic are clippy
//! denials in the library crates, a blocking `Receiver::recv` is a
//! `clippy.toml` disallowed method, and a send after `drop` is a rustc
//! error; `tests/fixtures.rs` shows each check firing on a seeded fixture.
//! See DESIGN.md §9.
//! Deliberately std-only: the ratchet builds in seconds offline.

pub mod benchcheck;
