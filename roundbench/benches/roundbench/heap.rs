//! Keeping freed memory in the heap for the length of a run.
//!
//! The round loop allocates and frees buffers of a few hundred kilobytes
//! every round (`join_state()` on `fleet_fedsgd`). With glibc's default
//! settings what that costs depends on where in the heap the buffer happens
//! to lie: at the top, every free hands the pages back to the kernel and the
//! next round faults them in again; under something else, it does not. The
//! set-up that is timed once a second between rounds moves that something,
//! so the median `fleet_fedsgd` round stepped from 2.0 to 2.2–2.4 ms at a
//! random point of every second run (all of it inside `core.join_state`,
//! with the disturbance probe reading the same), and ten runs spread 13 %.
//! With the two settings below no memory goes back during a run, the step
//! is gone and ten runs spread 2 %. The price: `peak_rss_mb` counts freed
//! memory that glibc would have returned (`fleet_fedsgd` 16.7 MiB instead of
//! 13.8), on both sides of every comparison.

#![allow(unsafe_code)]

/// Tells the allocator, on the first call, to serve every request below
/// 32 MiB from the heap (the most glibc accepts) and never to shrink the
/// heap. Returns whether both settings were taken.
pub fn keep_freed_memory() -> bool {
    static KEPT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *KEPT.get_or_init(set)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn set() -> bool {
    // `mallopt(3)` of the libc every Rust program on this target links.
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers by value and changes settings of
    // the allocator under its own lock.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
}

/// Other allocators have no such settings; their numbers are their own.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn set() -> bool {
    false
}
