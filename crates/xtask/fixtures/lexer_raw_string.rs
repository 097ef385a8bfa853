//! No finding: hazard text in raw strings is data.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

pub const RAW: &str = r#"total_bytes += wire_bytes; let job = rx.recv();"#;
// A quote-hash sequence a naive scanner takes for the terminator.
pub const HASHES: &str = r##"upload_bytes * 2 "# still inside " sim_time_ms + 1"##;
pub const BYTES: &[u8] = br#"total_bytes + retry_bytes"#;
