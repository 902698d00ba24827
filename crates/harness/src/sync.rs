//! Poison-tolerant locking helpers.
//!
//! `Mutex::lock().unwrap()` turns one panicked holder into a permanent
//! denial of service: the mutex is poisoned and every later `lock()` returns
//! `Err`, so the daemon's request path panics forever after a single worker
//! crash.  None of the workspace's guarded state relies on cross-field
//! invariants that a mid-update panic could torn-write (queues, caches and
//! counters are each updated through single `&mut` calls), so recovering the
//! guard is always sound here.  The `lock-discipline` rule of `ds-lint`
//! enforces that every lock goes through these helpers.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Locks `mutex`, recovering the guard when a previous holder panicked.
pub fn lock_infallible<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that recovers the guard from poisoning, so a panicked
/// producer cannot wedge consumers parked on the condition.
pub fn wait_infallible<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] that recovers the guard from poisoning, so a
/// panicked producer cannot wedge consumers parked on the condition.
pub fn wait_timeout_infallible<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_infallible_recovers_from_poison() {
        let mutex = Mutex::new(7u32);
        // Poison it: panic while holding the guard.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison the mutex");
        }));
        assert!(result.is_err());
        assert!(mutex.is_poisoned());
        // A plain lock().unwrap() would now panic; the helper recovers.
        let mut guard = lock_infallible(&mutex);
        *guard += 1;
        assert_eq!(*guard, 8);
    }

    #[test]
    fn wait_infallible_returns_once_notified() {
        let state = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let notifier = {
            let state = std::sync::Arc::clone(&state);
            std::thread::spawn(move || {
                *lock_infallible(&state.0) = true;
                state.1.notify_all();
            })
        };
        let mut ready = lock_infallible(&state.0);
        while !*ready {
            ready = wait_infallible(&state.1, ready);
        }
        drop(ready);
        notifier.join().unwrap();
    }

    #[test]
    fn wait_timeout_infallible_times_out_normally() {
        let mutex = Mutex::new(());
        let condvar = Condvar::new();
        let guard = lock_infallible(&mutex);
        let (_guard, result) = wait_timeout_infallible(&condvar, guard, Duration::from_millis(1));
        assert!(result.timed_out());
    }
}
