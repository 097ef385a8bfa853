//! No finding: hazard text in doc comments is prose.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// Never write `total_bytes += retry_bytes`; use `checked_add`.
/// ```
/// let wire_bytes = upload_bytes + download_bytes;
/// let frame = inbox.recv();
/// ```
pub fn documented() {}
