//! The filesystem surface the WAL writes through, plus retry-with-bounded-
//! backoff for transient errors and (under `cfg(test)` or the
//! `fault-injection` feature) a deterministic faulty-filesystem shim.
//!
//! The WAL never touches `std::fs` directly: it is generic over [`WalFs`],
//! so crash-point tests swap in `FaultyFs` to inject short writes,
//! interrupted syscalls, fsync failures, bit flips at chosen offsets and a
//! hard "disk dies after N bytes" cliff — all deterministic, no timing or
//! randomness involved.
//!
//! This module is the workspace's sanctioned home for durability clock
//! reads: the backoff deadline below is the one place wall-clock time is
//! consulted (clippy's `disallowed_methods` lint rejects any other).

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// One open, append-only WAL segment file.
pub trait WalFile {
    /// Appends bytes, returning how many were accepted (may be short).
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize>;
    /// Durably flushes everything appended so far to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The handful of filesystem operations the WAL needs, as a trait so the
/// fault-injection shim can sit between the log and the disk.
pub trait WalFs {
    /// The segment file handle type.
    type File: WalFile;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Opens `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Self::File>;
    /// Reads a whole segment file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Lists the files directly under `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Deletes a reclaimed segment file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem: `std::fs` with `sync_all` durability.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl WalFile for fs::File {
    fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.write(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

impl WalFs for StdFs {
    type File = fs::File;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn open_append(&self, path: &Path) -> io::Result<fs::File> {
        fs::OpenOptions::new().create(true).append(true).open(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_file() {
                files.push(path);
            }
        }
        Ok(files)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// Bounded retry for transient write errors.
///
/// Interrupted syscalls (`EINTR`) retry immediately without consuming an
/// attempt; every other error backs off exponentially from `base_delay`.
/// Both the attempt count and total wall-clock time are capped — on
/// exhaustion the last error is returned and the caller (the stream's
/// journal) degrades gracefully rather than killing ingestion.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts before giving up (1 = no retries).
    pub max_attempts: u32,
    /// First backoff delay; doubles per failed attempt.
    pub base_delay: Duration,
    /// Hard wall-clock ceiling across all attempts and sleeps.
    pub max_elapsed: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_elapsed: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — failures surface immediately.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_elapsed: Duration::ZERO,
        }
    }
}

/// Runs `op` under `policy`, bumping `retries` once per extra attempt.
pub fn retry_io<T>(
    policy: &RetryPolicy,
    retries: &mut u64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the WAL's retry loop bounds its exponential backoff by elapsed wall time: durability's one sanctioned clock read"
    )]
    let started = Instant::now();
    let mut delay = policy.base_delay;
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {
                // EINTR: the syscall did nothing; go straight back in. The
                // elapsed ceiling still bounds a pathological interrupt
                // storm.
                if started.elapsed() >= policy.max_elapsed {
                    return Err(err);
                }
                *retries += 1;
            }
            Err(err) => {
                attempt += 1;
                if attempt >= policy.max_attempts || started.elapsed() + delay >= policy.max_elapsed
                {
                    return Err(err);
                }
                *retries += 1;
                thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
        }
    }
}

/// Writes all of `bytes`, retrying transient errors and resuming short
/// writes where they left off.
pub fn write_all_retrying<F: WalFile>(
    file: &mut F,
    mut bytes: &[u8],
    policy: &RetryPolicy,
    retries: &mut u64,
) -> io::Result<()> {
    while !bytes.is_empty() {
        let written = retry_io(policy, retries, || file.append(bytes))?;
        if written == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "device accepted no bytes",
            ));
        }
        bytes = bytes.get(written..).unwrap_or(&[]);
    }
    Ok(())
}

#[cfg(any(test, feature = "fault-injection"))]
#[expect(
    clippy::unwrap_used,
    reason = "test-only fault shim: its lock is poisoned only when a test thread has already panicked"
)]
mod faults {
    //! Deterministic fault injection. Faults are expressed against the
    //! *global appended byte offset*, so a test can name an exact crash
    //! point ("the disk dies 173 bytes in") independent of how the writer
    //! batches its writes. Written bytes still land in real files — minus
    //! whatever the plan withholds — so recovery reads exactly what a real
    //! crash would have left on disk.

    use super::*;
    use std::sync::{Arc, Mutex};

    /// What the fake disk should do, all deterministic.
    #[derive(Debug, Default, Clone)]
    pub struct FaultPlan {
        /// The disk dies after accepting this many bytes: the append that
        /// crosses the boundary is torn exactly at it, and every later
        /// operation fails.
        pub crash_after_bytes: Option<u64>,
        /// The first N `sync()` calls fail (use `u32::MAX` for "always").
        pub fail_syncs: u32,
        /// The first N appends return `ErrorKind::Interrupted` untouched.
        pub interrupt_first_appends: u32,
        /// Appends accept at most this many bytes (forces short writes).
        pub short_write_cap: Option<usize>,
        /// `(global byte offset, bit index 0..8)` flips applied to bytes as
        /// they are written.
        pub flip_bits: Vec<(u64, u8)>,
        /// Every append fails outright (a dead disk from the start).
        pub fail_appends: bool,
    }

    #[derive(Debug, Default)]
    struct FaultState {
        plan: FaultPlan,
        written: u64,
        crashed: bool,
        syncs_failed: u32,
        appends_interrupted: u32,
    }

    /// A [`WalFs`] that injects the faults described by a [`FaultPlan`]
    /// while passing everything else through to the real filesystem.
    /// Clones share the same fault state, and reads are never faulted —
    /// recovery sees whatever physically landed.
    #[derive(Debug, Clone)]
    pub struct FaultyFs {
        state: Arc<Mutex<FaultState>>,
    }

    impl FaultyFs {
        /// A faulty filesystem following `plan`.
        pub fn new(plan: FaultPlan) -> Self {
            FaultyFs {
                state: Arc::new(Mutex::new(FaultState {
                    plan,
                    ..FaultState::default()
                })),
            }
        }

        /// Total bytes the fake disk has accepted.
        pub fn bytes_written(&self) -> u64 {
            self.state.lock().unwrap().written
        }

        /// Whether the `crash_after_bytes` cliff has been hit.
        pub fn crashed(&self) -> bool {
            self.state.lock().unwrap().crashed
        }
    }

    /// A segment file on the faulty disk.
    #[derive(Debug)]
    pub struct FaultyFile {
        inner: fs::File,
        state: Arc<Mutex<FaultState>>,
    }

    impl WalFile for FaultyFile {
        fn append(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let mut state = self.state.lock().unwrap();
            if state.crashed {
                return Err(io::Error::other("injected: disk is dead"));
            }
            if state.plan.fail_appends {
                return Err(io::Error::other("injected: append failure"));
            }
            if state.appends_interrupted < state.plan.interrupt_first_appends {
                state.appends_interrupted += 1;
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected: interrupted syscall",
                ));
            }
            let mut take = bytes.len();
            if let Some(cap) = state.plan.short_write_cap {
                take = take.min(cap.max(1));
            }
            if let Some(cliff) = state.plan.crash_after_bytes {
                let room = cliff.saturating_sub(state.written);
                if (take as u64) > room {
                    take = room as usize;
                    state.crashed = true;
                }
            }
            if take == 0 {
                return Err(io::Error::other("injected: disk died mid-write"));
            }
            let mut chunk = bytes[..take].to_vec();
            for &(offset, bit) in &state.plan.flip_bits {
                if offset >= state.written && offset < state.written + take as u64 {
                    chunk[(offset - state.written) as usize] ^= 1 << (bit % 8);
                }
            }
            self.inner.write_all(&chunk)?;
            state.written += take as u64;
            Ok(take)
        }

        fn sync(&mut self) -> io::Result<()> {
            let mut state = self.state.lock().unwrap();
            if state.crashed {
                return Err(io::Error::other("injected: disk is dead"));
            }
            if state.syncs_failed < state.plan.fail_syncs {
                state.syncs_failed += 1;
                return Err(io::Error::other("injected: fsync failure"));
            }
            self.inner.sync_all()
        }
    }

    impl WalFs for FaultyFs {
        type File = FaultyFile;

        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            StdFs.create_dir_all(dir)
        }

        fn open_append(&self, path: &Path) -> io::Result<FaultyFile> {
            Ok(FaultyFile {
                inner: StdFs.open_append(path)?,
                state: Arc::clone(&self.state),
            })
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            StdFs.read(path)
        }

        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            StdFs.list(dir)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            StdFs.remove_file(path)
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
pub use faults::{FaultPlan, FaultyFs};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "durability-io-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn retry_recovers_from_transient_errors() {
        let mut retries = 0u64;
        let mut failures_left = 2;
        let result = retry_io(&RetryPolicy::default(), &mut retries, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(io::Error::other("transient"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let mut retries = 0u64;
        let mut calls = 0u32;
        let result: io::Result<()> = retry_io(&RetryPolicy::default(), &mut retries, || {
            calls += 1;
            Err(io::Error::other("permanent"))
        });
        assert!(result.is_err());
        assert_eq!(calls, RetryPolicy::default().max_attempts);
    }

    #[test]
    fn interrupted_syscalls_retry_without_consuming_attempts() {
        let dir = temp_dir("eintr");
        let fs = FaultyFs::new(FaultPlan {
            interrupt_first_appends: 10,
            ..FaultPlan::default()
        });
        let mut file = fs.open_append(&dir.join("seg")).unwrap();
        let mut retries = 0u64;
        write_all_retrying(&mut file, b"hello", &RetryPolicy::default(), &mut retries).unwrap();
        assert_eq!(retries, 10);
        assert_eq!(StdFs.read(&dir.join("seg")).unwrap(), b"hello");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_writes_resume_where_they_left_off() {
        let dir = temp_dir("short");
        let fs = FaultyFs::new(FaultPlan {
            short_write_cap: Some(3),
            ..FaultPlan::default()
        });
        let mut file = fs.open_append(&dir.join("seg")).unwrap();
        let mut retries = 0u64;
        write_all_retrying(
            &mut file,
            b"0123456789",
            &RetryPolicy::default(),
            &mut retries,
        )
        .unwrap();
        assert_eq!(StdFs.read(&dir.join("seg")).unwrap(), b"0123456789");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_cliff_tears_the_write_exactly_at_the_boundary() {
        let dir = temp_dir("cliff");
        let fs = FaultyFs::new(FaultPlan {
            crash_after_bytes: Some(7),
            ..FaultPlan::default()
        });
        let mut file = fs.open_append(&dir.join("seg")).unwrap();
        let mut retries = 0u64;
        let err = write_all_retrying(&mut file, b"0123456789", &RetryPolicy::none(), &mut retries)
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(fs.crashed());
        assert_eq!(StdFs.read(&dir.join("seg")).unwrap(), b"0123456");
        // The disk stays dead.
        assert!(file.append(b"more").is_err());
        assert!(file.sync().is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_land_at_the_requested_offsets() {
        let dir = temp_dir("flip");
        let fs = FaultyFs::new(FaultPlan {
            flip_bits: vec![(1, 0), (4, 7)],
            ..FaultPlan::default()
        });
        let mut file = fs.open_append(&dir.join("seg")).unwrap();
        let mut retries = 0u64;
        write_all_retrying(&mut file, &[0u8; 6], &RetryPolicy::default(), &mut retries).unwrap();
        assert_eq!(
            StdFs.read(&dir.join("seg")).unwrap(),
            vec![0, 1, 0, 0, 0x80, 0]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_failures_are_injected_then_clear() {
        let dir = temp_dir("sync");
        let fs = FaultyFs::new(FaultPlan {
            fail_syncs: 2,
            ..FaultPlan::default()
        });
        let mut file = fs.open_append(&dir.join("seg")).unwrap();
        assert!(file.sync().is_err());
        assert!(file.sync().is_err());
        assert!(file.sync().is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
