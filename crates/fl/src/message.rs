//! Communication accounting.
//!
//! The paper's evaluated quantity is bytes on the wire; masks are replicated
//! client-side, so only parameter *values* are transmitted for mask-derived
//! sparse updates (4 bytes per `f32` scalar). These helpers keep that
//! accounting in one place.

/// Wire size of one `f32` scalar.
pub const BYTES_PER_SCALAR: u64 = 4;

/// Converts a scalar count to wire bytes.
pub fn scalars_to_bytes(scalars: usize) -> u64 {
    u64::try_from(scalars).unwrap_or(u64::MAX).saturating_mul(BYTES_PER_SCALAR)
}

/// Wire bytes actually spent uploading `bytes` when the transfer succeeded
/// on the `attempts`-th try (every lost attempt retransmits the payload).
/// `attempts == 1` is the fault-free case and costs exactly `bytes`.
pub fn bytes_with_retries(bytes: u64, attempts: u32) -> u64 {
    bytes.saturating_mul(u64::from(attempts.max(1)))
}

/// The retransmission *overhead* of a transfer that succeeded on the
/// `attempts`-th try: payload bytes re-sent after the first attempt,
/// i.e. `bytes × (attempts − 1)`. This is the single definition shared by
/// the emulation's `RoundRecord::retransmitted_bytes` and the wire
/// session layer's `ReliabilityStats::retransmitted_bytes`
/// (`fedsu-transport`), so the two accountings stay comparable.
pub fn retransmitted_bytes(bytes: u64, attempts: u32) -> u64 {
    // Saturating like the session-layer counters it mirrors: overhead
    // accounting must never be the thing that panics a round.
    bytes.saturating_mul(u64::from(attempts.max(1).saturating_sub(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_byte_conversion() {
        assert_eq!(scalars_to_bytes(10), 40);
        assert_eq!(scalars_to_bytes(0), 0);
    }

    #[test]
    fn retry_bytes_accounting() {
        assert_eq!(bytes_with_retries(100, 1), 100);
        assert_eq!(bytes_with_retries(100, 3), 300);
        // Attempt counts below 1 are clamped: a successful upload happened.
        assert_eq!(bytes_with_retries(100, 0), 100);
    }

    #[test]
    fn retransmitted_bytes_is_the_overhead_of_bytes_with_retries() {
        for bytes in [0u64, 1, 100, 1 << 40] {
            for attempts in [0u32, 1, 2, 3, 7] {
                assert_eq!(
                    retransmitted_bytes(bytes, attempts),
                    bytes_with_retries(bytes, attempts) - bytes,
                    "bytes={bytes} attempts={attempts}"
                );
            }
        }
        assert_eq!(retransmitted_bytes(100, 1), 0, "fault-free transfers retransmit nothing");
        assert_eq!(retransmitted_bytes(100, 3), 200);
    }
}
