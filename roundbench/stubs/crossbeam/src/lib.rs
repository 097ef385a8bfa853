//! Offline stand-in for the subset of `crossbeam` 0.8 that the FedSU
//! workspace calls, built on `std`: unbounded channels (std's `mpsc` has
//! been the crossbeam list channel since Rust 1.67) and scoped threads with
//! crossbeam's `spawn(|scope| ..)` / `Result`-returning `scope` shape (see
//! `../README.md`).

/// Multi-producer channels.
pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

/// Scoped threads.
pub mod thread {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Handle for spawning threads that may borrow from the caller's stack.
    #[derive(Debug)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of a scoped thread.
    #[derive(Debug)]
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread; `Err` carries its panic payload.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread inside the scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope; every thread spawned in it is joined before
    /// this returns. `Err` when `f` or an un-joined thread panicked.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}
