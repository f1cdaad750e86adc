//! [`ChaosStore`]: a [`StateStore`] wrapper driven by a [`FaultPlan`].
//!
//! Faults surface as `PersistError::Io` with kinds the runtime's
//! transient/permanent classifier distinguishes: `Interrupted` for
//! retryable injections, `Other` for permanent ones. The torn-commit
//! injection performs the wrapped commit *before* reporting failure —
//! the ambiguous-outcome case real fsync errors leave behind — which is
//! safe to retry because committing with nothing staged is a no-op.
//!
//! `recover()` is deliberately not intercepted: recovery faults are the
//! crash oracle's domain (`tests/durable_recovery.rs` corrupts real
//! files); this wrapper targets the steady-state write path.

use crate::plan::{FaultPlan, StorageFault, StoreOp};
use chimera_persist::{
    JobRecord, PersistError, Result, ShardRecovery, StateStore, StoreCounters, TenantSnapshot,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared observation surface: how many faults a [`ChaosStore`] actually
/// injected, per class. Tests hold a clone of the `Arc` and assert the
/// run exercised what the plan scheduled.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    transient: AtomicU64,
    permanent: AtomicU64,
    torn: AtomicU64,
}

impl ChaosCounters {
    /// Transient faults injected so far.
    pub fn transient(&self) -> u64 {
        self.transient.load(Ordering::Relaxed)
    }
    /// Permanent faults injected so far (every post-breakage call counts).
    pub fn permanent(&self) -> u64 {
        self.permanent.load(Ordering::Relaxed)
    }
    /// Torn/ambiguous commits injected so far.
    pub fn torn(&self) -> u64 {
        self.torn.load(Ordering::Relaxed)
    }
    /// Total injections of any class.
    pub fn total(&self) -> u64 {
        self.transient() + self.permanent() + self.torn()
    }
}

/// A fault-injecting [`StateStore`] wrapper (see module docs).
pub struct ChaosStore {
    inner: Box<dyn StateStore>,
    plan: FaultPlan,
    counters: Arc<ChaosCounters>,
}

impl ChaosStore {
    /// Wrap `inner`, injecting faults according to `plan`.
    pub fn new(inner: Box<dyn StateStore>, plan: FaultPlan) -> ChaosStore {
        ChaosStore::with_counters(inner, plan, Arc::new(ChaosCounters::default()))
    }

    /// Like [`ChaosStore::new`], reporting injections into a shared
    /// counter block the caller keeps a handle to.
    pub fn with_counters(
        inner: Box<dyn StateStore>,
        plan: FaultPlan,
        counters: Arc<ChaosCounters>,
    ) -> ChaosStore {
        ChaosStore {
            inner,
            plan,
            counters,
        }
    }

    /// The injection counters (same block handed to `with_counters`).
    pub fn counters_handle(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.counters)
    }

    /// Consult the plan for `op`; `Err` carries the injected failure.
    /// For [`StorageFault::Torn`] the caller must run the real operation
    /// first — hence the closure-free two-step shape in `commit`. Torn
    /// never reaches here: it is commit-only, enforced by
    /// [`FaultPlan::fail_nth`] and [`ChaosRates`]'s shape.
    fn inject(&mut self, op: StoreOp, what: &str) -> std::result::Result<(), PersistError> {
        match self.plan.next(op) {
            None => Ok(()),
            Some(StorageFault::Transient) => {
                self.counters.transient.fetch_add(1, Ordering::Relaxed);
                Err(transient(what))
            }
            Some(StorageFault::Permanent) => {
                self.counters.permanent.fetch_add(1, Ordering::Relaxed);
                Err(permanent(what))
            }
            Some(StorageFault::Torn) => {
                unreachable!("FaultPlan never schedules Torn for {op:?}")
            }
        }
    }
}

fn transient(what: &str) -> PersistError {
    PersistError::Io(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("chaos: injected transient {what} fault"),
    ))
}

fn permanent(what: &str) -> PersistError {
    PersistError::Io(std::io::Error::other(format!(
        "chaos: injected permanent {what} fault"
    )))
}

impl StateStore for ChaosStore {
    fn recover(&mut self) -> Result<ShardRecovery> {
        self.inner.recover()
    }

    fn append(&mut self, tenant: u64, record: &JobRecord) -> Result<()> {
        self.inject(StoreOp::Append, "append")?;
        self.inner.append(tenant, record)
    }

    fn commit(&mut self) -> Result<()> {
        match self.plan.next(StoreOp::Commit) {
            None => self.inner.commit(),
            Some(StorageFault::Transient) => {
                self.counters.transient.fetch_add(1, Ordering::Relaxed);
                Err(transient("commit"))
            }
            Some(StorageFault::Permanent) => {
                self.counters.permanent.fetch_add(1, Ordering::Relaxed);
                Err(permanent("commit"))
            }
            Some(StorageFault::Torn) => {
                // the ambiguous commit: data lands, the caller hears failure
                self.inner.commit()?;
                self.counters.torn.fetch_add(1, Ordering::Relaxed);
                Err(transient("commit (torn: data is durable)"))
            }
        }
    }

    fn snapshot(&mut self, tenants: &[TenantSnapshot]) -> Result<()> {
        self.inject(StoreOp::Snapshot, "snapshot")?;
        self.inner.snapshot(tenants)
    }

    fn evict_tenant(&mut self, snap: &TenantSnapshot) -> Result<()> {
        self.inject(StoreOp::Evict, "evict")?;
        self.inner.evict_tenant(snap)
    }

    fn groups_since_snapshot(&self) -> u64 {
        self.inner.groups_since_snapshot()
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_persist::DurableStore;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chimera-chaos-store-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &std::path::Path) -> Box<dyn StateStore> {
        Box::new(DurableStore::open(dir).unwrap())
    }

    #[test]
    fn transient_commit_fails_once_then_retry_lands_the_group() {
        let dir = tmpdir("transient");
        let plan = FaultPlan::none().fail_nth(StoreOp::Commit, 0, StorageFault::Transient);
        let mut s = ChaosStore::new(durable(&dir), plan);
        let counters = s.counters_handle();
        s.recover().unwrap();
        s.append(1, &JobRecord::Begin).unwrap();
        let err = s.commit().unwrap_err();
        assert!(err.is_transient(), "injected kind must classify transient");
        s.commit().unwrap(); // the guaranteed retry
        assert_eq!(counters.transient(), 1);
        drop(s);
        // the group is on disk
        let mut s = DurableStore::open(&dir).unwrap();
        let rec = s.recover().unwrap();
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].jobs, vec![(1, JobRecord::Begin)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_commit_reports_failure_but_data_is_durable() {
        let dir = tmpdir("torn");
        let plan = FaultPlan::none().fail_nth(StoreOp::Commit, 0, StorageFault::Torn);
        let mut s = ChaosStore::new(durable(&dir), plan);
        let counters = s.counters_handle();
        s.recover().unwrap();
        s.append(7, &JobRecord::Commit).unwrap();
        let err = s.commit().unwrap_err();
        assert!(err.is_transient());
        assert_eq!(counters.torn(), 1);
        drop(s);
        let mut s = DurableStore::open(&dir).unwrap();
        let rec = s.recover().unwrap();
        assert_eq!(rec.tail.len(), 1, "the 'failed' commit actually landed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_evict_is_refused_then_accepted_without_writing() {
        let dir = tmpdir("evict");
        let plan = FaultPlan::none().fail_nth(StoreOp::Evict, 0, StorageFault::Transient);
        let mut s = ChaosStore::new(durable(&dir), plan);
        let counters = s.counters_handle();
        s.recover().unwrap();
        s.append(3, &JobRecord::Begin).unwrap();
        s.commit().unwrap();
        let snap = TenantSnapshot {
            tenant: 3,
            jobs_applied: 1,
            job_errors: 0,
            last_error: None,
            objects: vec![],
            next_oid: 0,
            cut: 0,
            trigger_sources: vec![],
            stats: [0; 6],
        };
        let files = || std::fs::read_dir(&dir).unwrap().count();
        let before = (files(), s.counters());
        let err = s.evict_tenant(&snap).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(counters.transient(), 1);
        s.evict_tenant(&snap).unwrap(); // the plan's forced-ok follow-up
        assert_eq!(counters.transient(), 1, "the follow-up is accepted");
        assert_eq!(
            (files(), s.counters()),
            before,
            "an eviction writes nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_fault_breaks_every_subsequent_op() {
        let dir = tmpdir("permanent");
        let plan = FaultPlan::none().fail_nth(StoreOp::Commit, 0, StorageFault::Permanent);
        let mut s = ChaosStore::new(durable(&dir), plan);
        s.recover().unwrap();
        s.append(1, &JobRecord::Begin).unwrap();
        let err = s.commit().unwrap_err();
        assert!(!err.is_transient(), "permanent kind must not classify transient");
        assert!(s.commit().is_err());
        assert!(s.append(1, &JobRecord::Begin).is_err());
        assert!(s.snapshot(&[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
