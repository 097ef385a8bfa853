//! Opt-in allocation accounting for the steady-state round loop.
//!
//! What a round allocates is measured here, not guessed from source: the
//! root crate's `tests/alloc_budget.rs` pins the exact per-round counts,
//! reading [`snapshot`] from a round hook. The **`alloc-stats` cargo
//! feature** compiles in a counting
//! [`#[global_allocator]`](std::alloc::GlobalAlloc) that forwards to
//! [`System`](std::alloc::System) and bumps two relaxed atomics per
//! allocation. Off by default, so release binaries keep the plain system
//! allocator; the root crate's dev-dependency turns it on for every test
//! target, and roundbench's manifest turns it on too. Without it every
//! counter stays at zero and [`counting_compiled`] reports `false`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Total allocation calls since process start (feature-gated; else 0).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested since process start (feature-gated; else 0).
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `true` when the crate was built with the `alloc-stats` feature, i.e. the
/// counting global allocator is actually installed and [`snapshot`] moves.
/// Tests that assert on allocator traffic should skip when this is `false`.
pub const fn counting_compiled() -> bool {
    cfg!(feature = "alloc-stats")
}

/// A point-in-time reading of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocation calls observed so far (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Delta relative to an `earlier` snapshot, saturating at zero so a
    /// misordered pair never wraps.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Reads the current process-wide counters. Always zero unless the
/// `alloc-stats` feature is enabled (see [`counting_compiled`]).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(feature = "alloc-stats")]
mod counting {
    use super::{ALLOCS, BYTES, Ordering};
    use std::alloc::{GlobalAlloc, Layout, System};

    /// Panic-free widening of an allocation size for the byte tally (usize
    /// is at most 64 bits on every supported target; saturate if not).
    fn widen(n: usize) -> u64 {
        u64::try_from(n).unwrap_or(u64::MAX)
    }

    /// [`System`] wrapper that tallies every allocation into relaxed atomics.
    struct CountingAllocator;

    // Reviewed opt-out from the workspace `unsafe_code = "deny"` lint:
    // `GlobalAlloc` is an inherently unsafe trait and this impl adds no
    // pointer manipulation of its own — every method forwards verbatim to
    // `System` and only touches two atomics on the side, preserving the
    // safety contract the caller already upholds for `System`.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(widen(layout.size()), Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(widen(layout.size()), Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A grow-or-shrink counts as one fresh allocation of the new
            // size: that is what an arena refactor would have to absorb.
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(widen(new_size), Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[allow(unsafe_code)] // the attribute expansion references the unsafe trait impl
    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_see_the_traffic_between_them() {
        // With the feature off the counters stay at zero and the delta is
        // the (still valid) zero record.
        let before = snapshot();
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        let after = snapshot();
        let traffic = after.since(&before);
        if counting_compiled() {
            assert!(traffic.allocs >= 1, "a Vec collect must hit the counting allocator");
            assert!(traffic.bytes >= 1024 * 8);
        } else {
            assert_eq!(traffic, AllocSnapshot::default());
        }
        // since() saturates instead of wrapping on misordered snapshots.
        assert_eq!(before.since(&after), AllocSnapshot::default());
    }
}
