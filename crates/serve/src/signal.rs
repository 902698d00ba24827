//! Graceful-shutdown signals: SIGINT / SIGTERM set a process-wide flag that
//! the daemon's run loop polls.
//!
//! The handler itself does the only async-signal-safe thing possible — a
//! relaxed atomic store — and everything else (queue drain, store flush)
//! happens on the main thread.  The `signal(2)` registration is the one
//! unavoidable FFI call in the workspace, confined to this module.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set once SIGINT or SIGTERM has been received.
pub static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::SHUTDOWN_REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX `signal(2)`: registering a plain function handler is all the
        // daemon needs, and it avoids depending on the layout of `sigaction`.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_signal as *const () as usize;
        // SAFETY: `signal(2)` is called with valid signal numbers and the
        // address of an `extern "C" fn(i32)` whose ABI matches the handler
        // type the kernel expects.  The handler itself only performs a
        // relaxed-to-SeqCst atomic store, which is async-signal-safe (no
        // allocation, no locking, no FFI re-entry).  Replacing a previous
        // disposition is the intent, so the returned old handler is
        // deliberately discarded.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Installs the SIGINT/SIGTERM handlers (no-op on non-Unix targets, where
/// only `POST /shutdown` triggers graceful shutdown).
pub fn install_handlers() {
    #[cfg(unix)]
    imp::install();
}
