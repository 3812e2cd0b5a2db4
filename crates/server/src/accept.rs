//! The accept loop and the in-process server handle.
//!
//! This module is the server crate's **only** sanctioned `thread::spawn`
//! site (clippy's `disallowed_methods` lint rejects any other): one thread
//! per accepted connection, plus the background server thread behind
//! [`ServerHandle`].
//! Every handle is retained and joined — finished connections are reaped
//! each loop iteration, and the drain joins whatever is left, so a panic
//! in a connection thread can never be silently detached.
//!
//! The listener runs non-blocking and the loop sleeps in short ticks so it
//! can observe both the [`CancellationToken`] (SIGINT) and the
//! `SHUTDOWN`-request flag within milliseconds without a wakeup channel.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use interval_core::CancellationToken;

use crate::{conn, DrainReport, Server, ServerConfig, Shared};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Runs the accept loop to completion; see [`Server::run`].
pub(crate) fn run_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    token: CancellationToken,
) -> std::io::Result<DrainReport> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !token.is_cancelled() && !shared.shutdown_requested.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((sock, _peer)) => {
                shared.counters.note_connection();
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one thread per connection, retained and joined at drain: the service tier's sanctioned spawn site"
                )]
                conns.push(thread::spawn(move || conn::serve(sock, shared)));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) =>
            {
                thread::sleep(ACCEPT_TICK);
            }
            // Transient accept failures (e.g. the peer resetting before the
            // handshake finished) should not take the server down.
            Err(_) => thread::sleep(ACCEPT_TICK),
        }
        // Reap connections that already finished so the handle list stays
        // proportional to *live* connections, not lifetime connections.
        let (done, live): (Vec<_>, Vec<_>) = conns.into_iter().partition(|h| h.is_finished());
        conns = live;
        for handle in done {
            let _ = handle.join();
        }
    }
    // Drain: stop serving, join every connection, then close every stream.
    shared.draining.store(true, Ordering::Relaxed);
    drop(listener);
    for handle in conns {
        let _ = handle.join();
    }
    let streams = shared.registry.drain_all();
    Ok(DrainReport {
        streams,
        counters: shared.counters.snapshot(),
    })
}

/// A server running on a background thread, for tests and benchmarks that
/// need an in-process endpoint with a clean shutdown path.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    token: CancellationToken,
    thread: JoinHandle<std::io::Result<DrainReport>>,
}

impl ServerHandle {
    /// Binds `addr` (use `127.0.0.1:0` for a free port) and runs the
    /// server on a background thread.
    pub fn launch(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(addr, config)?;
        let addr = server.local_addr()?;
        let token = CancellationToken::new();
        let run_token = token.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the ServerHandle background thread, retained and joined: the service tier's sanctioned spawn site"
        )]
        let thread = thread::spawn(move || server.run(run_token));
        Ok(ServerHandle {
            addr,
            token,
            thread,
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests a drain (as SIGINT would) and waits for the report.
    pub fn shutdown(self) -> std::io::Result<DrainReport> {
        self.token.cancel();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}
