//! Offline stand-in for the `parking_lot` crate.
//!
//! This workspace builds without network access, so the small API subset it
//! uses (non-poisoning `RwLock` / `Mutex` with `read()` / `write()` /
//! `lock()` returning guards directly) is provided here on top of
//! `std::sync`. Poisoned locks are transparently recovered — matching
//! parking_lot's no-poisoning semantics.

#![forbid(unsafe_code)]

use std::sync::{Mutex as StdMutex, RwLock as StdRwLock};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A reader-writer lock that never poisons.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(StdRwLock<T>);

impl<T> RwLock<T> {
    /// Create a new lock around `value`.
    pub fn new(value: T) -> RwLock<T> {
        RwLock(StdRwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A mutual-exclusion lock that never poisons.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex around `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        assert_eq!(*l.read(), 1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn mutex_locks() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }
}
