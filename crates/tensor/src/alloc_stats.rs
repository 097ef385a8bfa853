//! Opt-in allocation accounting for the steady-state round loop.
//!
//! What a round allocates is measured here, not guessed from source: the
//! root crate's `tests/alloc_budget.rs` pins the exact per-round counts.
//! There are two independent switches:
//!
//! * the **`alloc-stats` cargo feature** compiles in a counting
//!   [`#[global_allocator]`](std::alloc::GlobalAlloc) that forwards to
//!   [`System`](std::alloc::System) and bumps two relaxed atomics per
//!   allocation. Off by default, so release binaries keep the plain system
//!   allocator; the root crate's dev-dependency turns it on for every test
//!   target, and roundbench's manifest turns it on too. Without it every
//!   counter stays at zero and [`counting_compiled`] reports `false`.
//! * the **`FEDSU_ALLOC_STATS` environment variable** (or [`set_enabled`])
//!   arms per-round *reporting*: the `fedsu-fl` experiment loop marks a round
//!   boundary after each `RoundRecord` and the deltas land in a process-global
//!   log readable via [`rounds`].
//!
//! The allocator itself never consults the environment — reading an
//! environment variable allocates, and doing that inside `alloc` would
//! recurse. Counting is unconditional once compiled in; only the round
//! bookkeeping is gated.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Total allocation calls since process start (feature-gated; else 0).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested since process start (feature-gated; else 0).
static BYTES: AtomicU64 = AtomicU64::new(0);

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Per-round log: the snapshot at the last mark plus the recorded deltas.
static ROUND_LOG: Mutex<RoundLog> = Mutex::new(RoundLog { mark: AllocSnapshot { allocs: 0, bytes: 0 }, rounds: Vec::new() });

struct RoundLog {
    mark: AllocSnapshot,
    rounds: Vec<RoundAlloc>,
}

/// `true` when per-round allocation reporting is armed, either via the
/// `FEDSU_ALLOC_STATS` environment variable (`1` or `true`) or a prior
/// [`set_enabled`] call. The environment is consulted once and cached.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => {
            let on = std::env::var("FEDSU_ALLOC_STATS")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces per-round reporting on or off, overriding the environment.
///
/// Exists so tests can arm the bookkeeping deterministically instead of
/// mutating process-global environment variables under a multithreaded
/// test runner.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

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

/// Allocation delta attributed to one experiment round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundAlloc {
    /// Round index as reported by the experiment loop.
    pub round: usize,
    /// Allocation calls between the two surrounding round marks.
    pub allocs: u64,
    /// Bytes requested between the two surrounding round marks.
    pub bytes: u64,
}

/// Clears the round log and re-bases the mark at the current counters.
///
/// Call once immediately before a run whose rounds should be attributed;
/// `capacity_hint` pre-reserves the log so steady-state marks do not grow it.
pub fn begin_run(capacity_hint: usize) {
    let mut log = ROUND_LOG.lock().unwrap_or_else(|p| p.into_inner());
    log.rounds.clear();
    log.rounds.reserve(capacity_hint);
    log.mark = snapshot();
}

/// Records the allocation delta since the previous mark (or [`begin_run`])
/// as belonging to `round`, re-bases the mark, and returns the delta.
///
/// The log append itself happens *after* the delta is read, so the (at most
/// one, usually zero thanks to the `begin_run` reservation) bookkeeping
/// allocation is charged to the following round, never the reported one.
pub fn mark_round(round: usize) -> RoundAlloc {
    let now = snapshot();
    let mut log = ROUND_LOG.lock().unwrap_or_else(|p| p.into_inner());
    let delta = now.since(&log.mark);
    let rec = RoundAlloc { round, allocs: delta.allocs, bytes: delta.bytes };
    log.rounds.push(rec);
    log.mark = snapshot();
    rec
}

/// Returns a copy of the per-round deltas recorded since [`begin_run`].
pub fn rounds() -> Vec<RoundAlloc> {
    ROUND_LOG.lock().unwrap_or_else(|p| p.into_inner()).rounds.clone()
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

    // One test, not several: the round log and the reporting switch are
    // process-global, so phases must run in a fixed order rather than race
    // across test threads (same discipline as `invariant::tests`).
    #[test]
    fn marks_partition_the_counter_stream() {
        set_enabled(true);
        assert!(enabled());
        begin_run(4);

        // Charge some traffic to round 0; with the feature off the counters
        // stay at zero and the delta is the (still valid) zero record.
        let before = snapshot();
        let v: Vec<u64> = (0..1024).collect();
        assert_eq!(v.len(), 1024);
        let after = snapshot();
        let traffic = after.since(&before);

        let r0 = mark_round(0);
        assert_eq!(r0.round, 0);
        assert!(r0.allocs >= traffic.allocs, "round delta must cover observed traffic");
        assert!(r0.bytes >= traffic.bytes);
        if counting_compiled() {
            assert!(traffic.allocs >= 1, "a Vec collect must hit the counting allocator");
            assert!(traffic.bytes >= 1024 * 8);
        } else {
            assert_eq!(traffic, AllocSnapshot::default());
        }

        let r1 = mark_round(1);
        assert_eq!(r1.round, 1);
        let log = rounds();
        assert_eq!(log.len(), 2);
        assert_eq!(log.first().copied(), Some(r0));
        assert_eq!(log.get(1).copied(), Some(r1));

        // since() saturates instead of wrapping on misordered snapshots.
        assert_eq!(before.since(&after), AllocSnapshot::default());

        begin_run(0);
        assert!(rounds().is_empty(), "begin_run clears the log");
        set_enabled(false);
        assert!(!enabled());
    }
}
