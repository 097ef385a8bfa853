//! Lexer fixture: hazards inside `#[cfg(test)]` items must yield ZERO
//! diagnostics. Not compiled — consumed by `crates/xtask/tests/fixtures.rs`.

fn library_code() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn bare_accounting_arithmetic_in_tests_is_fine() {
        let total_bytes = 4u64;
        let doubled = total_bytes + total_bytes;
        let narrow_bytes = doubled as u32;
        assert!(doubled == 8 && narrow_bytes == 8);
    }
}

#[cfg(any(test, feature = "bench-helpers"))]
fn helper_with_bare_arithmetic(upload_bytes: u64, retries: u64) -> u64 {
    upload_bytes * retries
}
