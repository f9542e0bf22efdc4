//! Minimal, dependency-free signal hookup: SIGTERM/SIGINT set a
//! process-wide flag that the accept loop polls, funneling operator
//! signals into the **same graceful-drain path** as an in-band
//! `shutdown` request (`DESIGN.md` §14). No handler logic beyond one
//! atomic store — everything interesting happens on normal threads.
//!
//! This is the one place in the crate that needs `unsafe`: registering
//! a C signal handler against the libc that `std` already links. On
//! non-Unix targets installation is a no-op and the in-band `shutdown`
//! request is the only drain trigger.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler on SIGTERM/SIGINT; never cleared.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has arrived since
/// [`install_handlers`] was called.
pub(crate) fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;
    use std::sync::Once;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    #[allow(unsafe_code)]
    mod ffi {
        // `std` already links libc; declaring `signal` here avoids a
        // libc crate dependency. `sighandler_t` is a function pointer
        // (or SIG_DFL/SIG_IGN integers) on every Unix libc.
        extern "C" {
            pub fn signal(
                signum: i32,
                handler: extern "C" fn(i32),
            ) -> extern "C" fn(i32);
        }
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        super::SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Registers the handlers exactly once per process; later calls
    /// are no-ops (many in-process servers may start and stop).
    #[allow(unsafe_code)]
    pub(crate) fn install_handlers() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            // SAFETY: `signal` is async-signal-safe to call from the
            // main thread at startup; the handler does nothing beyond
            // one atomic store, which is on POSIX's async-signal-safe
            // list.
            unsafe {
                ffi::signal(SIGTERM, on_signal);
                ffi::signal(SIGINT, on_signal);
            }
        });
    }
}

#[cfg(not(unix))]
mod imp {
    /// Non-Unix: no signal hookup; the in-band `shutdown` request is
    /// the only drain trigger.
    pub(crate) fn install_handlers() {}
}

pub(crate) use imp::install_handlers;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_flag_starts_clear() {
        install_handlers();
        install_handlers();
        // The flag is process-wide and never cleared, so no test may
        // raise it: every in-process daemon of a sibling test would
        // drain.
        assert!(!shutdown_requested());
    }
}
