//! Size-classed, sharded buffer pool backing the steady round loop.
//!
//! The FedSU round loop used to re-allocate its tensors, masks, and
//! staging buffers every round; `tests/alloc_budget.rs` now pins what a
//! steady round allocates, exactly.
//! This module is the fix: a process-wide [`BufferPool`] of reusable
//! `f32`/`usize` buffers, organised as power-of-two size classes
//! inside independently locked shards. Hot paths check a buffer out,
//! use it, and return it; after warm-up the loop runs on recycled
//! capacity instead of fresh allocations.
//!
//! ## Invariants
//!
//! * **Zero-on-checkout.** Every buffer handed out is zero-filled to the
//!   requested length before the caller sees it, so a pooled buffer is
//!   observationally identical to a fresh `vec![0.0; len]` and every
//!   bit-for-bit determinism contract (zero-fault `RoundRecord`s, wire
//!   parity) holds with the pool on.
//! * **Per-thread shards.** Each thread takes a shard round-robin on its
//!   first checkout and keeps it, so concurrently training clients rarely
//!   share a shard lock, and a buffer recycled by a thread is the first
//!   one it gets back.
//! * **No poisoning.** Shard locks recover from poisoning with
//!   [`std::sync::Mutex::into_inner`]-style recovery, so a client that
//!   panics mid-round can never wedge the pool.
//! * **Bounded retention.** Each size class keeps at most a handful of
//!   free buffers per shard; surplus returns fall through to the
//!   allocator, so the pool's high-water memory is bounded.
//!
//! A buffer that dies in a panic is simply freed by the normal `Vec`
//! drop; the pool forgets it and the [`BufferPool::outstanding`] balance
//! reflects that the checkout was never returned.

use crate::tensor::{from_parts, Tensor};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Shards, shared round-robin by every thread.
const NUM_SHARDS: usize = 8;

/// Power-of-two size classes per shard (class `c` holds buffers of
/// capacity up to `2^c` elements); requests beyond the last class bypass
/// the pool entirely.
const NUM_CLASSES: usize = 32;

/// Free buffers retained per (shard, class, type); surplus returns are
/// dropped so pool memory stays bounded.
const PER_CLASS_CAP: usize = 4;

/// Free lists for one shard. Buffers are binned by the size class of
/// their *capacity*, so a recycled buffer can serve any request in its
/// class (growing in place at most once, after which the capacity
/// sticks).
struct Shard {
    f32s: [Vec<Vec<f32>>; NUM_CLASSES],
    usizes: [Vec<Vec<usize>>; NUM_CLASSES],
}

/// The process-wide sharded buffer pool. Obtain it via [`global`].
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    /// Wrapping balance of checkouts minus returns (all element types).
    balance: AtomicU64,
}

static POOL: OnceLock<BufferPool> = OnceLock::new();

/// Round-robin cursor assigning threads to shards.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` means "not assigned yet".
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// One-time construction of the pool (runs on first use).
fn new_pool() -> BufferPool {
    let mut shards = Vec::with_capacity(NUM_SHARDS);
    for _ in 0..NUM_SHARDS {
        shards.push(Mutex::new(Shard {
            f32s: std::array::from_fn(|_| Vec::new()),
            usizes: std::array::from_fn(|_| Vec::new()),
        }));
    }
    BufferPool { shards, balance: AtomicU64::new(0) }
}

/// The process-wide pool.
pub fn global() -> &'static BufferPool {
    POOL.get_or_init(new_pool)
}

/// The calling thread's shard, assigned round-robin on first use.
fn my_shard() -> usize {
    SHARD.with(|s| {
        let assigned = s.get();
        if assigned != usize::MAX {
            return assigned;
        }
        let next = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
        let idx = next % NUM_SHARDS;
        s.set(idx);
        idx
    })
}

/// Size class for a length/capacity: index of the covering power of two.
fn class_of(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// Allocator fallback for an `f32` pool miss (one-time per warm-up).
fn new_f32_storage(len: usize) -> Vec<f32> {
    Vec::with_capacity(len)
}

/// Allocator fallback for a `usize` pool miss.
fn new_usize_storage(len: usize) -> Vec<usize> {
    Vec::with_capacity(len)
}

impl BufferPool {
    /// Locks shard `idx` (poison-recovering); `None` only for an
    /// out-of-range index, which callers treat as a pool miss.
    fn lock_shard(&self, idx: usize) -> Option<MutexGuard<'_, Shard>> {
        let slot = self.shards.get(idx)?;
        Some(match slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        })
    }

    /// Checks out a zero-filled `f32` buffer of exactly `len` elements.
    pub fn take_f32(&self, len: usize) -> Vec<f32> {
        self.balance.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.pop_f32(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    fn pop_f32(&self, len: usize) -> Vec<f32> {
        if let Some(mut shard) = self.lock_shard(my_shard()) {
            if let Some(free) = shard.f32s.get_mut(class_of(len)) {
                if let Some(buf) = free.pop() {
                    return buf;
                }
            }
        }
        new_f32_storage(len)
    }

    /// Returns an `f32` buffer to the calling thread's shard. Buffers
    /// beyond the largest size class, or arriving at a full class, are
    /// dropped.
    pub fn give_f32(&self, buf: Vec<f32>) {
        self.balance.fetch_sub(1, Ordering::Relaxed);
        if let Some(mut shard) = self.lock_shard(my_shard()) {
            if let Some(free) = shard.f32s.get_mut(class_of(buf.capacity())) {
                if free.len() < PER_CLASS_CAP {
                    if free.capacity() < PER_CLASS_CAP {
                        free.reserve_exact(PER_CLASS_CAP);
                    }
                    free.push(buf);
                }
            }
        }
    }

    /// Checks out a zero-filled `usize` buffer of exactly `len` elements.
    pub fn take_usize(&self, len: usize) -> Vec<usize> {
        self.balance.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.pop_usize(len);
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    fn pop_usize(&self, len: usize) -> Vec<usize> {
        if let Some(mut shard) = self.lock_shard(my_shard()) {
            if let Some(free) = shard.usizes.get_mut(class_of(len)) {
                if let Some(buf) = free.pop() {
                    return buf;
                }
            }
        }
        new_usize_storage(len)
    }

    /// Returns a `usize` buffer to the calling thread's shard.
    pub fn give_usize(&self, buf: Vec<usize>) {
        self.balance.fetch_sub(1, Ordering::Relaxed);
        if let Some(mut shard) = self.lock_shard(my_shard()) {
            if let Some(free) = shard.usizes.get_mut(class_of(buf.capacity())) {
                if free.len() < PER_CLASS_CAP {
                    if free.capacity() < PER_CLASS_CAP {
                        free.reserve_exact(PER_CLASS_CAP);
                    }
                    free.push(buf);
                }
            }
        }
    }

    /// Wrapping balance of checkouts minus returns across all buffer
    /// types. Balanced code leaves this unchanged; tests use it to prove
    /// every checkout comes back.
    pub fn outstanding(&self) -> u64 {
        self.balance.load(Ordering::Relaxed)
    }
}

/// Checks out a zero-filled `f32` buffer from the global pool.
pub fn take_f32_buf(len: usize) -> Vec<f32> {
    global().take_f32(len)
}

/// Returns an `f32` buffer to the global pool.
pub fn give_f32_buf(buf: Vec<f32>) {
    global().give_f32(buf);
}

/// Checks out a zero-filled `usize` buffer from the global pool.
pub fn take_usize_buf(len: usize) -> Vec<usize> {
    global().take_usize(len)
}

/// Returns a `usize` buffer to the global pool.
pub fn give_usize_buf(buf: Vec<usize>) {
    global().give_usize(buf);
}

/// A zero-filled tensor of `shape` whose data and shape buffers both come
/// from the global pool — the pooled equivalent of `Tensor::zeros`.
pub fn pooled_zeros(shape: &[usize]) -> Tensor {
    let pool = global();
    let mut len = 1usize;
    for &d in shape {
        len = len.saturating_mul(d);
    }
    let data = pool.take_f32(len);
    let mut dims = pool.take_usize(shape.len());
    dims.copy_from_slice(shape);
    from_parts(data, dims)
}

/// A zero-filled pooled tensor with the same shape as `t`.
pub fn pooled_like(t: &Tensor) -> Tensor {
    pooled_zeros(t.shape())
}

/// Recycles a tensor: both its data and shape buffers go back to the
/// pool. Works for any tensor, pooled or not.
pub fn recycle(t: Tensor) {
    let (data, dims) = t.into_parts();
    let pool = global();
    pool.give_f32(data);
    pool.give_usize(dims);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_covers_boundaries() {
        assert_eq!(class_of(0), 0);
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(2), 1);
        assert_eq!(class_of(3), 2);
        assert_eq!(class_of(4), 2);
        assert_eq!(class_of(5), 3);
        assert_eq!(class_of(1024), 10);
    }

    #[test]
    fn checkout_is_zero_filled_even_after_dirty_return() {
        let pool = global();
        let mut buf = pool.take_f32(16);
        buf.fill(7.25);
        pool.give_f32(buf);
        // Same thread, same shard, same class: we get the dirty buffer
        // back, and it must come back zeroed.
        let again = pool.take_f32(16);
        assert_eq!(again.len(), 16);
        assert!(again.iter().all(|&v| v == 0.0));
        pool.give_f32(again);
    }

    #[test]
    fn different_lengths_share_a_class_and_stay_exact() {
        let pool = global();
        let a = pool.take_f32(100);
        pool.give_f32(a);
        let b = pool.take_f32(120); // same class (128), longer request
        assert_eq!(b.len(), 120);
        assert!(b.iter().all(|&v| v == 0.0));
        pool.give_f32(b);
    }

    // The balance is one counter per pool, so an equality on it only holds
    // where nothing else touches the pool: these two use a private one (the
    // other tests in this binary share `global()` on other threads). The
    // `global()` balance is checked in its own process by `tests/pool.rs`.
    #[test]
    fn outstanding_tracks_balance() {
        let pool = new_pool();
        let before = pool.outstanding();
        let a = pool.take_f32(8);
        let b = pool.take_usize(4);
        assert_eq!(pool.outstanding(), before.wrapping_add(2));
        pool.give_f32(a);
        pool.give_usize(b);
        assert_eq!(pool.outstanding(), before);
    }

    #[test]
    fn pooled_zeros_matches_tensor_zeros() {
        let p = pooled_zeros(&[3, 4]);
        let z = Tensor::zeros(&[3, 4]);
        assert_eq!(p, z);
        recycle(p);
    }

    #[test]
    fn recycle_then_pooled_like_reuses_capacity() {
        let t = pooled_zeros(&[8, 8]);
        let cap_probe = pooled_like(&t);
        recycle(t);
        recycle(cap_probe);
        let u = pooled_zeros(&[8, 8]);
        assert_eq!(u.len(), 64);
        assert!(u.data().iter().all(|&v| v == 0.0));
        recycle(u);
    }

    #[test]
    fn oversized_returns_are_dropped_not_hoarded() {
        let pool = new_pool();
        // Fill a class beyond its cap; the pool must not grow unboundedly
        // (we can only observe that gives still balance and takes work).
        let before = pool.outstanding();
        let mut held = Vec::with_capacity(PER_CLASS_CAP + 3);
        for _ in 0..PER_CLASS_CAP + 3 {
            held.push(pool.take_f32(64));
        }
        for buf in held {
            pool.give_f32(buf);
        }
        assert_eq!(pool.outstanding(), before);
    }
}
