//! The pluggable storage layer the runtime composes: a [`StateStore`]
//! trait with an [`InMemoryStore`] no-op backend and a [`DurableStore`]
//! built from the group-commit job log plus full-fidelity shard
//! snapshots.
//!
//! Protocol, from the shard worker's point of view:
//!
//! 1. `recover()` once at startup — returns the last shard snapshot (if
//!    any) plus the verified job-log tail to replay, and repairs a torn
//!    tail in place;
//! 2. per job: `append(tenant, record)` *before* executing it;
//! 3. per drained queue batch: `commit()` — **one** fsync covering every
//!    job appended since the previous commit (the group commit that
//!    amortizes the ~ms sync across the batch);
//! 4. occasionally: `snapshot(tenants)` at a safe point — writes the
//!    shard snapshot atomically and truncates the job log.
//!
//! The worker answers clients only after step 3, so the acknowledged
//! prefix is always a subset of the durable prefix.

use crate::joblog::{JobGroup, JobLog, JobRecord};
use crate::shardsnap::{ShardSnapshot, TenantSnapshot};
use crate::{PersistError, Result};
use std::path::{Path, PathBuf};

/// Monotonic counters a store exposes for the runtime's stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Job records appended (durable backends only).
    pub appends: u64,
    /// fsyncs issued (group commits for the batching backend).
    pub syncs: u64,
    /// Shard snapshots written.
    pub snapshots: u64,
    /// Wall-clock nanoseconds spent inside fsync (cumulative over
    /// `syncs`) — the telemetry layer's ground truth for how much of a
    /// batch's latency the group commit actually bought.
    pub sync_nanos: u64,
}

/// What a store hands back at startup.
#[derive(Debug)]
pub struct ShardRecovery {
    /// The last durable shard snapshot, if one exists.
    pub snapshot: Option<ShardSnapshot>,
    /// Verified job groups to replay on top of the snapshot, in order.
    pub tail: Vec<JobGroup>,
    /// Description of a torn tail that was cut and repaired, if any.
    pub torn: Option<String>,
}

/// The storage contract a runtime shard programs against.
pub trait StateStore: Send {
    /// Read back durable state and prepare the store for appending. Must
    /// be called exactly once, before any append.
    fn recover(&mut self) -> Result<ShardRecovery>;
    /// Stage one job intent: an in-memory append that the next
    /// [`StateStore::commit`] makes durable.
    fn append(&mut self, tenant: u64, record: &JobRecord) -> Result<()>;
    /// Make everything appended since the last commit durable (one
    /// fsync). No-op when nothing is staged.
    fn commit(&mut self) -> Result<()>;
    /// Write a full shard snapshot at the current sequence and truncate
    /// the job log. Callers must only do this at a safe point (no open
    /// transactions) and after a `commit`.
    fn snapshot(&mut self, tenants: &[TenantSnapshot]) -> Result<()>;
    /// Accept or refuse dropping one tenant's RAM engine (tenant
    /// eviction). The caller keeps `snap` in RAM either way; an `Err`
    /// refuses the eviction and the tenant stays resident. The default
    /// accepts and writes nothing: a durable home's copy of an evicted
    /// tenant is already its last full snapshot plus the job log, since
    /// every full snapshot includes the evicted tenants and only a full
    /// snapshot truncates the log.
    fn evict_tenant(&mut self, snap: &TenantSnapshot) -> Result<()> {
        let _ = snap;
        Ok(())
    }
    /// Durable groups accumulated since the last snapshot (drives the
    /// runtime's periodic-compaction policy).
    fn groups_since_snapshot(&self) -> u64;
    /// Whether this store survives a process crash.
    fn is_durable(&self) -> bool;
    /// Counter snapshot for stats reporting.
    fn counters(&self) -> StoreCounters;
}

/// The no-op backend: tenants live only in RAM, exactly the pre-durable
/// runtime behaviour.
#[derive(Debug, Default)]
pub struct InMemoryStore;

impl StateStore for InMemoryStore {
    fn recover(&mut self) -> Result<ShardRecovery> {
        Ok(ShardRecovery {
            snapshot: None,
            tail: Vec::new(),
            torn: None,
        })
    }
    fn append(&mut self, _tenant: u64, _record: &JobRecord) -> Result<()> {
        Ok(())
    }
    fn commit(&mut self) -> Result<()> {
        Ok(())
    }
    fn snapshot(&mut self, _tenants: &[TenantSnapshot]) -> Result<()> {
        Ok(())
    }
    fn groups_since_snapshot(&self) -> u64 {
        0
    }
    fn is_durable(&self) -> bool {
        false
    }
    fn counters(&self) -> StoreCounters {
        StoreCounters::default()
    }
}

/// The durable backend: `jobs.wal` (group-commit job log) plus
/// `snap.chi` (full-fidelity shard snapshot) in one shard directory.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    log: Option<JobLog>,
    snap_seq: u64,
    counters: StoreCounters,
}

impl DurableStore {
    /// Open a store rooted at `dir` (created if missing). Appending is
    /// refused until [`StateStore::recover`] has run.
    pub fn open(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            log: None,
            snap_seq: 0,
            counters: StoreCounters::default(),
        })
    }

    /// The job-log path inside the shard directory.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join("jobs.wal")
    }

    /// The snapshot path inside the shard directory.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snap.chi")
    }

    fn log_mut(&mut self) -> Result<&mut JobLog> {
        self.log
            .as_mut()
            .ok_or_else(|| PersistError::Corrupt("store used before recover()".into()))
    }
}

impl StateStore for DurableStore {
    fn recover(&mut self) -> Result<ShardRecovery> {
        let snapshot = ShardSnapshot::read(&self.snapshot_path())?;
        self.snap_seq = snapshot.as_ref().map_or(0, |s| s.seq);
        let log_path = self.log_path();
        let outcome = JobLog::read(&log_path, self.snap_seq + 1)?;
        JobLog::repair(&log_path, &outcome)?;
        let next_seq = self.snap_seq + 1 + outcome.groups.len() as u64;
        self.log = Some(JobLog::open_append(&log_path, next_seq)?);
        // the log (and this shard directory) may have just been created:
        // make both entries durable before the first acknowledged group.
        // Directory syncs stay out of `counters`, which count log syncs.
        crate::sync_parent(&log_path)?;
        crate::sync_parent(&self.dir)?;
        Ok(ShardRecovery {
            snapshot,
            tail: outcome.groups,
            torn: outcome.torn,
        })
    }

    fn append(&mut self, tenant: u64, record: &JobRecord) -> Result<()> {
        self.log_mut()?.stage(tenant, record);
        self.counters.appends += 1;
        Ok(())
    }

    fn commit(&mut self) -> Result<()> {
        let started = std::time::Instant::now();
        if self.log_mut()?.sync()?.is_some() {
            self.counters.syncs += 1;
            self.counters.sync_nanos += started.elapsed().as_nanos() as u64;
        }
        Ok(())
    }

    fn snapshot(&mut self, tenants: &[TenantSnapshot]) -> Result<()> {
        // seal anything still staged so the snapshot sequence is exact
        self.commit()?;
        let seq = self.log_mut()?.next_seq() - 1;
        let snap = ShardSnapshot {
            seq,
            tenants: tenants.to_vec(),
        };
        // `write` returns only once the rename is durable in the
        // directory, so the truncation below can never outlive it
        snap.write(&self.snapshot_path())?;
        self.log_mut()?.truncate(seq + 1)?;
        self.snap_seq = seq;
        self.counters.snapshots += 1;
        Ok(())
    }

    fn groups_since_snapshot(&self) -> u64 {
        self.log
            .as_ref()
            .map_or(0, |l| l.next_seq().saturating_sub(self.snap_seq + 1))
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn counters(&self) -> StoreCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chimera-persist-store-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_is_inert() {
        let mut s = InMemoryStore;
        let rec = s.recover().unwrap();
        assert!(rec.snapshot.is_none() && rec.tail.is_empty() && rec.torn.is_none());
        s.append(1, &JobRecord::Begin).unwrap();
        s.commit().unwrap();
        s.snapshot(&[]).unwrap();
        assert!(!s.is_durable());
        assert_eq!(s.counters(), StoreCounters::default());
    }

    #[test]
    fn append_before_recover_is_refused() {
        let dir = tmpdir("norec");
        let mut s = DurableStore::open(&dir).unwrap();
        assert!(s.append(1, &JobRecord::Begin).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut s = DurableStore::open(&dir).unwrap();
            s.recover().unwrap();
            s.append(1, &JobRecord::Begin).unwrap();
            s.append(2, &JobRecord::Commit).unwrap();
            s.commit().unwrap();
            s.append(1, &JobRecord::Rollback).unwrap();
            s.commit().unwrap();
            let c = s.counters();
            assert_eq!((c.appends, c.syncs), (3, 2));
            assert!(c.sync_nanos > 0, "syncs happened, so sync time accrued");
            assert_eq!(s.groups_since_snapshot(), 2);
        }
        let mut s = DurableStore::open(&dir).unwrap();
        let rec = s.recover().unwrap();
        assert!(rec.snapshot.is_none() && rec.torn.is_none());
        assert_eq!(rec.tail.len(), 2);
        assert_eq!(
            rec.tail[0].jobs,
            vec![(1, JobRecord::Begin), (2, JobRecord::Commit)]
        );
        assert_eq!(rec.tail[1].jobs, vec![(1, JobRecord::Rollback)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_and_recovery_resumes() {
        let dir = tmpdir("snap");
        {
            let mut s = DurableStore::open(&dir).unwrap();
            s.recover().unwrap();
            s.append(1, &JobRecord::Begin).unwrap();
            s.commit().unwrap();
            s.snapshot(&[]).unwrap();
            assert_eq!(s.groups_since_snapshot(), 0);
            s.append(1, &JobRecord::Commit).unwrap();
            s.commit().unwrap();
            assert_eq!(s.groups_since_snapshot(), 1);
        }
        let mut s = DurableStore::open(&dir).unwrap();
        let rec = s.recover().unwrap();
        let snap = rec.snapshot.expect("snapshot present");
        assert_eq!(snap.seq, 1);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].seq, 2);
        assert_eq!(rec.tail[0].jobs, vec![(1, JobRecord::Commit)]);
        let _ = fs::remove_dir_all(&dir);
    }

    fn tsnap_of(tenant: u64, jobs_applied: u64) -> TenantSnapshot {
        TenantSnapshot {
            tenant,
            jobs_applied,
            job_errors: 0,
            last_error: None,
            objects: vec![],
            next_oid: 0,
            cut: 0,
            trigger_sources: vec![],
            stats: [0; 6],
        }
    }

    #[test]
    fn in_memory_evict_is_a_noop() {
        let mut s = InMemoryStore;
        s.evict_tenant(&tsnap_of(1, 0)).unwrap();
        assert_eq!(s.counters(), StoreCounters::default());
    }

    #[test]
    fn durable_evict_writes_nothing() {
        let dir = tmpdir("evict");
        let mut s = DurableStore::open(&dir).unwrap();
        s.recover().unwrap();
        s.append(5, &JobRecord::Begin).unwrap();
        s.commit().unwrap();
        let files = || {
            let mut names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let (before, counters) = (files(), s.counters());
        s.evict_tenant(&tsnap_of(5, 1)).unwrap();
        assert_eq!(files(), before, "eviction creates no file");
        assert_eq!(s.counters(), counters, "and neither appends nor syncs");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_repaired_on_recover() {
        let dir = tmpdir("torn");
        {
            let mut s = DurableStore::open(&dir).unwrap();
            s.recover().unwrap();
            s.append(1, &JobRecord::Begin).unwrap();
            s.commit().unwrap();
            s.append(1, &JobRecord::Commit).unwrap();
            s.commit().unwrap();
        }
        let log = dir.join("jobs.wal");
        let full = fs::read(&log).unwrap();
        fs::write(&log, &full[..full.len() - 3]).unwrap(); // tear group 2
        let mut s = DurableStore::open(&dir).unwrap();
        let rec = s.recover().unwrap();
        assert!(rec.torn.is_some());
        assert_eq!(rec.tail.len(), 1);
        // appended groups continue the repaired sequence
        s.append(2, &JobRecord::Begin).unwrap();
        s.commit().unwrap();
        drop(s);
        let mut s = DurableStore::open(&dir).unwrap();
        let rec = s.recover().unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.tail.len(), 2);
        assert_eq!(rec.tail[1].jobs, vec![(2, JobRecord::Begin)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
