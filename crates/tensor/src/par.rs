//! Persistent worker pool and kernel thread-count control.
//!
//! The matmul kernels in this crate can split their output rows across a
//! process-wide pool of worker threads. The pool is spawned once, on first
//! parallel dispatch, and reused for every subsequent kernel call — no
//! per-call thread spawning, no dependencies beyond `std`.
//!
//! ## Determinism contract
//!
//! Parallel dispatch partitions *output rows*: every output element is
//! computed by exactly one task, with exactly the same accumulation order as
//! the serial kernel. Results are therefore bit-identical at every thread
//! count, so the setting below is a pure performance knob — it can never
//! change what an experiment computes.
//!
//! ## Thread-count policy
//!
//! [`set_kernel_threads`] installs the policy (`0` = auto, `1` = serial,
//! `n` = split across up to `n` tasks). When nothing has been set
//! explicitly, the `FEDSU_KERNEL_THREADS` environment variable is consulted
//! once, on first use. Auto resolves to [`hardware_threads`], the core count
//! read once per process. The federated runtime composes this with its own
//! client-level parallelism: `fedsu-fl` forces the kernel setting to `1`
//! while it is already training clients on separate threads, so the two
//! layers never oversubscribe the machine.
//!
//! ## Failure policy
//!
//! A panicking job must not hang or poison the pool: workers run jobs under
//! `catch_unwind`, and [`run_chunks`] reports lost chunks back to the caller
//! as `None` so the dispatching kernel can recompute them inline. A degraded
//! pool can cost throughput, never correctness.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A pool job: computes one output chunk and returns it with its index.
pub(crate) type ChunkJob = Box<dyn FnOnce() -> (usize, Vec<f32>) + Send + 'static>;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Sentinel meaning "no explicit setting yet": the environment is consulted
/// on first use.
const UNSET: usize = usize::MAX;

/// Upper bound on both the worker count and the thread setting; far above
/// any sensible CPU count, it only exists to keep the partition arithmetic
/// comfortable.
const MAX_THREADS: usize = 256;

/// Workers spawned into the persistent pool (bounded by the hardware).
const MAX_WORKERS: usize = 16;

static SETTING: AtomicUsize = AtomicUsize::new(UNSET);

/// The dispatch queue the pool shares with its workers: a plain deque under
/// a mutex, with a condvar to park idle workers. Unlike the previous
/// mpsc-under-mutex design, no guard is ever held across a blocking channel
/// operation — workers release the queue lock while parked (`Condvar::wait`
/// does so atomically), and dispatchers enqueue fully-built jobs under a
/// brief lock and notify after releasing it.
struct JobQueue {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

struct Pool {
    shared: Arc<JobQueue>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

static HARDWARE_THREADS: OnceLock<usize> = OnceLock::new();

/// The number of hardware threads this process may run on, read once per
/// process on first use and cached from then on.
///
/// This is the one owner of the core count: the kernels' auto policy, the
/// worker pool's size and `fedsu-fl`'s client fan-out all read it here.
/// `std::thread::available_parallelism` is too costly to call per kernel:
/// on Linux it re-reads the cgroup CPU quota and calls `sched_getaffinity`
/// each time (4 heap allocations and tens of microseconds), more than a
/// small matmul's arithmetic.
///
/// Because the value is read once, a process that narrows its CPU affinity
/// must do so before its first tensor call; later affinity changes are not
/// seen. Falls back to `1` when the count cannot be determined.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place the core count is read; every caller shares this cached value"
)]
pub fn hardware_threads() -> usize {
    *HARDWARE_THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Parses a `FEDSU_KERNEL_THREADS` value; anything unparsable means auto.
fn resolve_env(value: Option<&str>) -> usize {
    value.and_then(|v| v.trim().parse::<usize>().ok()).unwrap_or(0).min(MAX_THREADS)
}

fn setting() -> usize {
    let raw = SETTING.load(Ordering::SeqCst);
    if raw != UNSET {
        return raw;
    }
    let from_env = resolve_env(std::env::var("FEDSU_KERNEL_THREADS").ok().as_deref());
    // First resolution wins; racing threads agree because the environment
    // cannot change between their reads.
    let _ = SETTING.compare_exchange(UNSET, from_env, Ordering::SeqCst, Ordering::SeqCst);
    SETTING.load(Ordering::SeqCst)
}

/// Installs the kernel thread-count policy: `0` = auto (one task per
/// hardware thread, as counted once by [`hardware_threads`]), `1` = serial,
/// `n` = split across up to `n` tasks.
///
/// Because parallel kernels are bit-identical to serial ones, changing this
/// at any point is always safe — it affects speed only.
pub fn set_kernel_threads(n: usize) {
    SETTING.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

/// The raw configured policy (`0` = auto), after environment resolution.
/// Used by callers that need to save and restore the setting.
pub fn kernel_threads_setting() -> usize {
    setting()
}

/// The effective number of kernel-level tasks a parallel dispatch will use.
/// Resolves `0` (auto) to the cached [`hardware_threads`] count, capped at
/// the pool size, so every policy costs one atomic load per call.
pub fn kernel_threads() -> usize {
    match setting() {
        0 => hardware_threads().clamp(1, MAX_WORKERS),
        n => n,
    }
}

fn worker_loop(idx: usize, shared: &Arc<JobQueue>) {
    // Each worker owns a private buffer-pool shard: anything it checks out
    // or recycles stays thread-local, so kernels never contend on a shard.
    crate::pool::pin_shard(idx);
    loop {
        let job = {
            let mut guard = match shared.queue.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            loop {
                if let Some(job) = guard.pop_front() {
                    break job;
                }
                // Parking releases the queue lock atomically; a spurious
                // wake-up just re-checks the deque.
                guard = match shared.ready.wait(guard) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        // A panicking job must not take the worker down with it; the
        // dispatcher notices the missing chunk and recomputes it inline.
        drop(catch_unwind(AssertUnwindSafe(job)));
    }
}

/// One-time pool construction (runs on first parallel dispatch).
fn new_worker_pool() -> Pool {
    let target = hardware_threads().clamp(1, MAX_WORKERS);
    let shared = Arc::new(JobQueue {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });
    let mut spawned = 0usize;
    for idx in 0..target {
        let shared = Arc::clone(&shared);
        let builder = std::thread::Builder::new().name(format!("fedsu-kernel-{idx}"));
        if builder.spawn(move || worker_loop(idx, &shared)).is_ok() {
            spawned += 1;
        }
    }
    Pool { shared, workers: spawned }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(new_worker_pool)
}

/// Runs `jobs` on the worker pool, collecting each chunk under the index the
/// job reports. Chunks whose job was lost (worker panic, failed scheduling)
/// come back as `None`; the caller recomputes those inline, so pool failures
/// degrade throughput, never correctness. Jobs must not dispatch nested pool
/// work (the kernels never do), or a full pool could deadlock on itself.
pub(crate) fn run_chunks(jobs: Vec<ChunkJob>) -> Vec<Option<Vec<f32>>> {
    let mut slots: Vec<Option<Vec<f32>>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    if jobs.is_empty() {
        return slots;
    }
    let pool = pool();
    if pool.workers == 0 {
        // No worker could ever be spawned: run everything inline.
        for job in jobs {
            let (idx, chunk) = job();
            if let Some(slot) = slots.get_mut(idx) {
                *slot = Some(chunk);
            }
        }
        return slots;
    }
    let (tx, rx) = channel::<(usize, Vec<f32>)>();
    // Wrap every job before touching the queue: the lock below protects only
    // the `push`es, and the result sends happen on worker threads with no
    // dispatcher lock in sight.
    let wrapped: Vec<Job> = jobs
        .into_iter()
        .map(|job| {
            let tx = tx.clone();
            let wrapped: Job = Box::new(move || {
                let (idx, chunk) = job();
                // A send can only fail if the dispatcher stopped listening;
                // the chunk then stays `None` and the caller recomputes it.
                let _ = tx.send((idx, chunk));
            });
            wrapped
        })
        .collect();
    {
        let mut queue = match pool.shared.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        queue.extend(wrapped);
    }
    // Notify with the lock released so woken workers can take it immediately.
    pool.shared.ready.notify_all();
    // Once the local sender is dropped, `recv` ends as soon as every job has
    // either reported or been dropped by a panicking worker — no hangs.
    drop(tx);
    #[allow(
        clippy::disallowed_methods,
        reason = "the dispatcher is not a pool worker: it blocks until its own jobs report"
    )]
    while let Ok((idx, chunk)) = rx.recv() {
        if let Some(slot) = slots.get_mut(idx) {
            *slot = Some(chunk);
        }
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::TryLockError;

    #[test]
    fn env_resolution_rules() {
        assert_eq!(resolve_env(None), 0);
        assert_eq!(resolve_env(Some("")), 0);
        assert_eq!(resolve_env(Some("garbage")), 0);
        assert_eq!(resolve_env(Some("4")), 4);
        assert_eq!(resolve_env(Some(" 8 ")), 8);
        assert_eq!(resolve_env(Some("999999")), MAX_THREADS);
    }

    #[test]
    fn setting_roundtrip_and_effective_count() {
        let prior = kernel_threads_setting();
        set_kernel_threads(3);
        assert_eq!(kernel_threads_setting(), 3);
        assert_eq!(kernel_threads(), 3);
        set_kernel_threads(0);
        assert!(kernel_threads() >= 1);
        set_kernel_threads(prior);
    }

    #[test]
    fn run_chunks_returns_every_chunk() {
        let jobs: Vec<ChunkJob> = (0..8)
            .map(|idx| {
                let job: ChunkJob = Box::new(move || (idx, vec![idx as f32; 3]));
                job
            })
            .collect();
        let out = run_chunks(jobs);
        assert_eq!(out.len(), 8);
        for (idx, slot) in out.into_iter().enumerate() {
            assert_eq!(slot, Some(vec![idx as f32; 3]));
        }
    }

    #[test]
    fn run_chunks_survives_a_panicking_job() {
        let jobs: Vec<ChunkJob> = (0..3)
            .map(|idx| {
                let job: ChunkJob = Box::new(move || {
                    assert!(idx != 1, "injected job failure");
                    (idx, vec![1.0])
                });
                job
            })
            .collect();
        let out = run_chunks(jobs);
        assert_eq!(out.len(), 3);
        assert!(out.first().is_some_and(Option::is_some));
        assert!(out.get(1).is_some_and(Option::is_none), "lost chunk must surface as None");
        assert!(out.get(2).is_some_and(Option::is_some));
        // The pool must still be serviceable after the panic.
        let jobs: Vec<ChunkJob> = vec![Box::new(|| (0, vec![2.0]))];
        assert_eq!(run_chunks(jobs), vec![Some(vec![2.0])]);
    }

    #[test]
    fn oversubscribed_dispatch_wakes_parked_workers_every_round() {
        // Regression for the mpsc-under-mutex dispatch this queue replaced:
        // a worker could park inside `recv()` while holding the shared
        // receiver lock, so every wake-up serialized through that mutex and
        // a lost notification could wedge dispatch. Repeated rounds with
        // more jobs than workers exercise the full park/notify cycle; every
        // chunk must come back on every round.
        for round in 0..32usize {
            let jobs: Vec<ChunkJob> = (0..MAX_WORKERS + 3)
                .map(|idx| {
                    let job: ChunkJob = Box::new(move || (idx, vec![(round * idx) as f32]));
                    job
                })
                .collect();
            let out = run_chunks(jobs);
            assert_eq!(out.len(), MAX_WORKERS + 3);
            for (idx, slot) in out.into_iter().enumerate() {
                assert_eq!(slot, Some(vec![(round * idx) as f32]), "round {round} chunk {idx}");
            }
        }
    }

    /// Whether the pool's queue lock can be taken within 1,000 tries. A
    /// lock held by the calling thread never can; another worker's brief
    /// pop or a dispatcher's push releases it within a few yields.
    fn queue_lock_is_free() -> bool {
        (0..1_000).any(|_| {
            let free = !matches!(pool().shared.queue.try_lock(), Err(TryLockError::WouldBlock));
            if !free {
                std::thread::yield_now();
            }
            free
        })
    }

    #[test]
    fn jobs_run_with_the_queue_unlocked() {
        // Lock order: a worker releases the queue lock before it runs a job,
        // so a job (a kernel chunk that checks out pool buffers, say) never
        // runs under it and other workers keep popping.
        for round in 0..8usize {
            let jobs: Vec<ChunkJob> = (0..MAX_WORKERS + 3)
                .map(|idx| {
                    let job: ChunkJob = Box::new(move || (idx, vec![f32::from(queue_lock_is_free())]));
                    job
                })
                .collect();
            for (idx, slot) in run_chunks(jobs).into_iter().enumerate() {
                assert_eq!(slot, Some(vec![1.0]), "round {round} job {idx} ran under the queue lock");
            }
        }
    }

    #[test]
    fn concurrent_dispatches_do_not_interfere() {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let jobs: Vec<ChunkJob> = (0..4)
                        .map(|idx| {
                            let job: ChunkJob = Box::new(move || (idx, vec![idx as f32]));
                            job
                        })
                        .collect();
                    let out = run_chunks(jobs);
                    for (idx, slot) in out.into_iter().enumerate() {
                        assert_eq!(slot, Some(vec![idx as f32]));
                    }
                });
            }
        });
    }
}
