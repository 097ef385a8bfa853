//! Size-classed, sharded buffer pool: the allocator behind every
//! [`Tensor`](crate::Tensor).
//!
//! Every `Tensor` constructor checks its data and shape buffers out of the
//! process-wide [`BufferPool`], and dropping a tensor gives both back. So a
//! steady round loop runs on the storage of the tensors the previous round
//! dropped, with no call site managing buffers by hand;
//! `tests/alloc_budget.rs` pins what a steady round still allocates,
//! exactly.
//!
//! ## Invariants
//!
//! * **Fully written on checkout.** A buffer is handed out empty, and every
//!   constructor writes each of its elements (zeros, a fill value, a copy)
//!   before the tensor exists, so a pooled tensor is observationally
//!   identical to a fresh one and every bit-for-bit determinism contract
//!   (zero-fault `RoundRecord`s, wire parity) holds with the pool on.
//! * **Checkouts never grow.** Size class `c` holds buffers whose capacity
//!   is at least `2^c`. A returned buffer joins the largest class its
//!   capacity holds (a `Vec` adopted by [`crate::Tensor::from_vec`]
//!   included); a checkout of `len` draws from the smallest class holding
//!   `len`, and a miss allocates that class's full capacity.
//! * **`outstanding()` counts live tensors.** Building a tensor, by any
//!   constructor, counts one checkout and dropping it counts one return.
//! * **Drop never panics.** Each thread takes a shard round-robin on its
//!   first checkout and keeps it, so concurrently training clients rarely
//!   share a lock and a thread gets back what it returned; a tensor's
//!   checkout and its return each take that lock once. A buffer
//!   returned during thread teardown (the shard lookup is gone), one of
//!   zero capacity, one past the last class, or one arriving at a full
//!   class falls to the allocator. Shard locks recover from poisoning, so
//!   a client that panics mid-round cannot wedge the pool.
//! * **Bounded retention.** Each class keeps at most `PER_CLASS_CAP` (4) free
//!   buffers per shard and element type.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Shards, shared round-robin by every thread.
const NUM_SHARDS: usize = 8;

/// Power-of-two size classes per shard; requests beyond the last class
/// bypass the pool entirely.
const NUM_CLASSES: usize = 32;

/// Free buffers retained per (shard, class, type); surplus returns are
/// dropped so pool memory stays bounded.
const PER_CLASS_CAP: usize = 4;

/// One element type's free lists: `lists[c]` holds buffers whose capacity
/// is at least `2^c`.
type FreeLists<T> = [Vec<Vec<T>>; NUM_CLASSES];

/// Free lists for one shard.
struct Shard {
    f32s: FreeLists<f32>,
    usizes: FreeLists<usize>,
}

/// The process-wide sharded buffer pool. Obtain it via [`global`].
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    /// Wrapping balance of tensors built minus tensors dropped.
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

/// The class a checkout of `len` elements draws from: the smallest power of
/// two holding `len`. `None` for an empty request (it needs no storage) and
/// past the last class.
fn checkout_class(len: usize) -> Option<usize> {
    let class = len.checked_next_power_of_two()?.trailing_zeros() as usize;
    (len > 0 && class < NUM_CLASSES).then_some(class)
}

/// The class a returned buffer joins: the largest power of two its
/// capacity holds. `None` for zero capacity and past the last class.
fn return_class(capacity: usize) -> Option<usize> {
    let class = capacity.checked_ilog2()? as usize;
    (class < NUM_CLASSES).then_some(class)
}

/// Pops a buffer that holds `len` elements without growing, if `lists`
/// has one.
fn pop<T>(lists: &mut FreeLists<T>, len: usize) -> Option<Vec<T>> {
    lists.get_mut(checkout_class(len)?)?.pop()
}

/// Files `buf`, emptied, under its class, unless the class is full or
/// there is none; then it falls to the allocator.
fn file<T>(lists: &mut FreeLists<T>, mut buf: Vec<T>) {
    let Some(free) = return_class(buf.capacity()).and_then(|class| lists.get_mut(class)) else {
        return;
    };
    if free.len() < PER_CLASS_CAP {
        if free.capacity() < PER_CLASS_CAP {
            free.reserve_exact(PER_CLASS_CAP);
        }
        buf.clear();
        free.push(buf);
    }
}

/// A fresh buffer for a pool miss: the whole capacity of `len`'s class.
fn allocate<T>(len: usize) -> Vec<T> {
    Vec::with_capacity(checkout_class(len).map_or(len, |class| 1 << class))
}

impl BufferPool {
    /// Runs `f` on the calling thread's shard (assigned round-robin on
    /// first use, lock poison-recovering); `None` once the thread's shard
    /// lookup is gone, which callers treat as a pool miss.
    fn with_shard<R>(&self, f: impl FnOnce(&mut Shard) -> R) -> Option<R> {
        let idx = SHARD
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS);
                }
                s.get()
            })
            .ok()?;
        let mut shard = self.shards.get(idx)?.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut shard))
    }

    /// A new tensor's buffers, under one lock: an empty data buffer that
    /// holds `len` elements without growing, and a copy of `shape`. Counts
    /// the tensor as one checkout.
    pub(crate) fn checkout(&self, len: usize, shape: &[usize]) -> (Vec<f32>, Vec<usize>) {
        self.balance.fetch_add(1, Ordering::Relaxed);
        let (data, dims) = self
            .with_shard(|shard| (pop(&mut shard.f32s, len), pop(&mut shard.usizes, shape.len())))
            .unwrap_or_default();
        let mut dims = dims.unwrap_or_else(|| allocate(shape.len()));
        dims.extend_from_slice(shape);
        (data.unwrap_or_else(|| allocate(len)), dims)
    }

    /// Takes a dropped tensor's buffers back under one lock, counting one
    /// return.
    pub(crate) fn give_back(&self, data: Vec<f32>, shape: Vec<usize>) {
        self.balance.fetch_sub(1, Ordering::Relaxed);
        self.with_shard(|shard| {
            file(&mut shard.f32s, data);
            file(&mut shard.usizes, shape);
        });
    }

    /// Wrapping balance of tensors built minus tensors dropped: the live
    /// tensors, from the pool's first use. Code that drops what it builds
    /// leaves it unchanged.
    pub fn outstanding(&self) -> u64 {
        self.balance.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn class_of_covers_boundaries() {
        assert_eq!(checkout_class(0), None);
        assert_eq!(checkout_class(1), Some(0));
        assert_eq!(checkout_class(2), Some(1));
        assert_eq!(checkout_class(3), Some(2));
        assert_eq!(checkout_class(4), Some(2));
        assert_eq!(checkout_class(5), Some(3));
        assert_eq!(checkout_class(1024), Some(10));
        assert_eq!(checkout_class((1 << 31) + 1), None);
        assert_eq!(return_class(0), None);
        assert_eq!(return_class(1), Some(0));
        assert_eq!(return_class(3), Some(1));
        assert_eq!(return_class(4), Some(2));
        assert_eq!(return_class(1023), Some(9));
        assert_eq!(return_class(1024), Some(10));
        assert_eq!(return_class(1 << 32), None);
    }

    #[test]
    fn checkout_is_zero_filled_even_after_dirty_return() {
        // Same thread, same shard, same class: the dirty buffer is usually
        // the one handed back, and it must come back zeroed.
        drop(Tensor::full(&[16], 7.25));
        let again = Tensor::zeros(&[16]);
        assert_eq!(again.len(), 16);
        assert!(again.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zeros_from_a_dirty_pool_match_fresh_zeros() {
        drop(Tensor::full(&[3, 4], 1.5));
        let z = Tensor::zeros(&[3, 4]);
        assert_eq!(z, Tensor::from_vec(vec![0.0; 12], &[3, 4]).unwrap());
    }

    // The tests below that compare pointers or the balance use a private
    // pool: the other tests in this binary share `global()` and, on other
    // threads, possibly this thread's shard. The `global()` balance and
    // buffer reuse through the `Tensor` API are checked in their own
    // process by `tests/pool.rs`.
    #[test]
    fn different_lengths_share_a_class_and_stay_exact() {
        let pool = new_pool();
        let (a, dims) = pool.checkout(100, &[100]);
        assert_eq!(a.capacity(), 128, "a miss allocates the whole class");
        let ptr = a.as_ptr();
        pool.give_back(a, dims);
        let (b, _) = pool.checkout(120, &[120]); // same class (128), longer request
        assert_eq!(b.as_ptr(), ptr, "the returned buffer serves the checkout");
        assert_eq!(b.capacity(), 128, "without growing");
        assert!(b.is_empty());
    }

    #[test]
    fn outstanding_tracks_balance() {
        let pool = new_pool();
        let before = pool.outstanding();
        let (data, dims) = pool.checkout(8, &[2, 4]);
        assert_eq!(dims, [2, 4]);
        assert_eq!(pool.outstanding(), before.wrapping_add(1), "one tensor, one checkout");
        pool.give_back(data, dims);
        assert_eq!(pool.outstanding(), before);
    }

    #[test]
    fn adopted_buffers_serve_their_floor_class() {
        let pool = new_pool();
        // An adopted buffer of capacity 100 joins class 64: it can serve a
        // checkout of 64 without growing, but not one of 65.
        let adopted = vec![1.0f32; 100];
        let ptr = adopted.as_ptr();
        let (_, dims) = pool.checkout(0, &[100]);
        pool.give_back(adopted, dims);
        let (wider, _) = pool.checkout(65, &[65]);
        assert_ne!(wider.as_ptr(), ptr);
        let (fits, _) = pool.checkout(64, &[64]);
        assert_eq!(fits.as_ptr(), ptr);
        assert_eq!(fits.capacity(), 100);
    }

    #[test]
    fn oversized_returns_are_dropped_not_hoarded() {
        let pool = new_pool();
        let held: Vec<_> = (0..PER_CLASS_CAP + 3).map(|_| pool.checkout(64, &[64])).collect();
        for (data, dims) in held {
            pool.give_back(data, dims);
        }
        // Nothing else uses this pool: one shard holds the returns.
        let kept: usize = pool.shards.iter().map(|s| s.lock().unwrap().f32s[6].len()).sum();
        assert_eq!(kept, PER_CLASS_CAP);
        // Zero-capacity buffers are not pooled at all.
        let (_, dims) = pool.checkout(0, &[0]);
        pool.give_back(Vec::new(), dims);
        let empty: usize = pool.shards.iter().map(|s| s.lock().unwrap().f32s[0].len()).sum();
        assert_eq!(empty, 0);
    }
}
