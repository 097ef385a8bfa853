//! Offline stand-in for `parking_lot::Mutex`: a `std::sync::Mutex` whose
//! `lock` never reports poisoning, which is the only part of the crate the
//! FedSU workspace calls (see `../README.md`).

pub use std::sync::MutexGuard;

/// Mutual exclusion without lock poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
