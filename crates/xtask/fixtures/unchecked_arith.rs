//! One finding, the bare `+=` (line 5); checked, saturating and float are fine.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
pub fn account(upload_bytes: u64, retry_bytes: u64) -> u64 {
    let mut total_bytes = upload_bytes;
    total_bytes += retry_bytes;
    total_bytes
}

pub fn account_checked(upload_bytes: u64, retry_bytes: u64) -> (Option<u64>, u64) {
    (upload_bytes.checked_add(retry_bytes), upload_bytes.saturating_add(retry_bytes))
}

pub fn sim_clock(sim_time: f64, round_secs: f64) -> f64 {
    sim_time + round_secs
}
