//! The process's core count.
//!
//! Kernels in this crate run serially on the calling thread: the one fork-join
//! in the workspace is `fedsu-fl`'s client fan-out, which spreads clients
//! (not kernel rows) across [`hardware_threads`] scoped threads. This crate
//! spawns no thread.

use std::sync::OnceLock;

static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

/// The number of hardware threads this process may run on, read once per
/// process on first use and cached from then on.
///
/// This is the one owner of the core count: `fedsu-fl`'s client fan-out
/// reads it here. `std::thread::available_parallelism` is too costly to call
/// per round: on Linux it re-reads the cgroup CPU quota and calls
/// `sched_getaffinity` each time (4 heap allocations and tens of
/// microseconds).
///
/// Because the value is read once, a process that narrows its CPU affinity
/// must do so before its first call; later affinity changes are not seen.
/// Falls back to `1` when the count cannot be determined.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place the core count is read; every caller shares this cached value"
)]
pub fn hardware_threads() -> usize {
    *HARDWARE_THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The number of threads a kernel call runs on: always `1`, since kernels
/// are serial. Kept for roundbench's environment line.
pub fn kernel_threads() -> usize {
    1
}
