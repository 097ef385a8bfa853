//! Narrowing the calling thread to one CPU. The product sizes its client
//! fan-out and its kernel pool by `std::thread::available_parallelism`,
//! which on Linux counts the CPUs of the calling thread's affinity mask, so
//! this is how a workload is run on one CPU with no option added to the
//! product. The benchmark's foreign calls live here and in `heap.rs`.

#![allow(unsafe_code)]

/// Narrows the calling thread's affinity (inherited by every thread it
/// spawns afterwards) to the highest-numbered CPU it is allowed on; CPU 0
/// is left alone because it services most interrupts. Returns whether the
/// thread now runs on exactly one CPU.
#[cfg(target_os = "linux")]
pub fn narrow_to_one_cpu() -> bool {
    // The libc every Rust program on Linux already links; the masks are
    // `cpu_set_t` (1024 bits), and pid 0 means the calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) == 0 }
}

/// Other systems: only correct where there is one CPU to begin with.
#[cfg(not(target_os = "linux"))]
pub fn narrow_to_one_cpu() -> bool {
    std::thread::available_parallelism().is_ok_and(|p| p.get() == 1)
}
