//! Lexer fixture: hazard names inside raw strings must yield ZERO
//! diagnostics. Not compiled — consumed by `crates/xtask/tests/fixtures.rs`.

fn describe() -> &'static str {
    r#"let wire_bytes = (scalars * 4) as u32; total_bytes += wire_bytes;"#
}

fn describe_hashes() -> &'static str {
    // Raw string with extra hashes, containing a quote-hash sequence that a
    // naive scanner would treat as the terminator.
    r##"upload_bytes * 2 "# still inside " sim_time_ms + 1"##
}

fn byte_raw() -> &'static [u8] {
    br#"total_bytes + retry_bytes"#
}
