//! Accounting arithmetic in `#[cfg(test)]` code (line 8), under the gate.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

#[cfg(test)]
mod tests {
    // Clippy skips `#[test]` bodies on its own, but not their helpers.
    fn doubled(total_bytes: u64) -> u64 {
        total_bytes + total_bytes
    }

    #[test]
    fn bare_accounting_arithmetic_in_tests_is_fine() {
        assert_eq!(doubled(4), 8);
    }
}
