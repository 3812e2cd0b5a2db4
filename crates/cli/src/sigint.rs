//! Ctrl-C handling via cooperative cancellation.
//!
//! The CLI does not pull in a signal-handling crate; on Unix it registers a
//! handler through the C `signal(2)` entry point declared here directly.
//! The handler does the only async-signal-safe thing possible — one atomic
//! store through a process-global [`CancellationToken`] — and every miner
//! observes the token at its next budget check, unwinds cleanly and lets
//! the CLI print the partial result before exiting with code 130.
//!
//! A second Ctrl-C while the first is still being honored falls back to the
//! default disposition (process termination), so a wedged run can always be
//! killed.

use interval_core::CancellationToken;
use std::sync::OnceLock;

static TOKEN: OnceLock<CancellationToken> = OnceLock::new();

/// Installs the SIGINT handler (idempotent) and returns the token it flips.
///
/// On non-Unix platforms this returns a token nothing ever cancels.
pub fn install() -> CancellationToken {
    let token = TOKEN.get_or_init(CancellationToken::new).clone();
    #[expect(
        unsafe_code,
        reason = "registering the handler is the CLI's one FFI call"
    )]
    #[cfg(unix)]
    // SAFETY: `signal` is the C library entry point with the documented
    // signature, so the FFI call itself is sound. The registered handler
    // must restrict itself to async-signal-safe operations because it can
    // interrupt the process at any instruction — including inside malloc —
    // so it must not allocate, lock, or panic. `handle_sigint` honors this:
    // it performs one relaxed-ordering atomic store through the token and
    // re-registers a disposition, both async-signal-safe (POSIX
    // signal-safety(7)). The `TOKEN` cell is initialized by
    // `get_or_init` above *before* this registration, so the handler can
    // never observe an uninitialized cell, and `OnceLock::get` on the
    // initialized cell is a non-blocking read (no lock is taken once set).
    unsafe {
        signal(SIGINT, handle_sigint as *const () as usize);
    }
    token
}

#[cfg(unix)]
const SIGINT: i32 = 2;

#[cfg(unix)]
const SIG_DFL: usize = 0;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn handle_sigint(_signum: i32) {
    if let Some(token) = TOKEN.get() {
        token.cancel();
    }
    // Restore the default disposition: the *next* Ctrl-C kills the process
    // outright instead of re-requesting a cancellation already under way.
    #[expect(
        unsafe_code,
        reason = "restoring the default disposition is the same FFI call"
    )]
    // SAFETY: we are executing *inside* a signal handler, where only
    // async-signal-safe calls are permitted; `signal()` is on the POSIX
    // signal-safety(7) list, takes no locks and allocates nothing. SIG_DFL
    // is a constant disposition, not a callable, so no further handler code
    // runs after this line.
    unsafe {
        signal(SIGINT, SIG_DFL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_returns_the_same_token() {
        let a = install();
        let b = install();
        assert!(!a.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled(), "both handles must share one flag");
    }
}
