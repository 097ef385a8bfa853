//! Lexer fixture: hazards inside doc comments must yield ZERO diagnostics.
//! Not compiled — consumed by `crates/xtask/tests/fixtures.rs`.

/// Never write `total_bytes += retry_bytes` here; use `checked_add`.
/// A `(scalars * 4) as u32` byte count would also be wrong: truncation.
///
/// ```
/// let wire_bytes = upload_bytes + download_bytes; // doc-test code is doc text to us
/// let narrow_bytes = wire_bytes as u32;
/// ```
fn documented() -> u32 {
    42
}

//! (trailing inner doc mention of `sim_time_ms * 2` for good measure)
