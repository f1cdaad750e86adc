//! The admission pool: per-tenant staged FIFO queues plus the
//! ready-tenant scheduler that shard workers claim work from.
//!
//! Submission no longer pushes into a per-shard channel owned by one
//! worker. Instead every job is *staged* on its tenant's own FIFO queue
//! inside this pool, and the tenant — not the job — is the unit of
//! scheduling: a tenant with staged jobs and no worker currently running
//! it is **ready**, and sits in the ready deque of its *home shard* (the
//! stable hash placement that still owns its durable state). Workers
//! claim ready tenants: their own shard's deque first and, under
//! [`Scheduler::LoadAware`], the front of another shard's deque when
//! their own is empty — **work stealing of whole tenants**. A claimed
//! tenant is marked running until its worker releases it, so per-tenant
//! serial order is structural: at most one worker ever holds a tenant,
//! and it drains that tenant's queue strictly FIFO.
//!
//! Backpressure is accounted against the tenant's *home shard*: each
//! home shard admits at most `queue_capacity` staged jobs, and a full
//! home either sheds or blocks the submitter exactly like the old
//! per-shard bounded channel did. Capacity is freed when a worker claims
//! the jobs into a batch (the moment the old design dequeued them), not
//! when they finish executing.

use crate::runtime::{Backpressure, Scheduler};
use crate::shard::Envelope;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One tenant's staged jobs plus its scheduling state. Present in the
/// map only while the tenant has staged jobs or a worker holds it.
struct TenantQueue {
    jobs: VecDeque<Envelope>,
    /// Claimed by a worker right now (never in a ready deque while set).
    running: bool,
    /// Home shard index (cached `home_of`).
    home: usize,
}

/// The scheduling state, all under one mutex. Contention is per
/// batch/claim, not per engine operation, so a single lock is cheap
/// relative to job execution.
struct Sched {
    tenants: HashMap<u64, TenantQueue>,
    /// Ready tenants per home shard: in a deque iff `!running` and the
    /// tenant has staged jobs.
    ready: Vec<VecDeque<u64>>,
    /// Staged (admitted, unclaimed) jobs per home shard — the
    /// backpressure gauge.
    staged: Vec<u64>,
    /// Jobs admitted per home shard (the flush barrier's target).
    submitted: Vec<u64>,
    /// Jobs retired per home shard.
    processed: Vec<u64>,
    /// Set at shutdown: claims drain what is staged, then workers exit.
    closed: bool,
    /// Threads parked on each condvar. A futex `notify` is a syscall
    /// even when no thread waits, so the job path signals only when one
    /// does: workers in [`Pool::claim`] on `work`, blocked submitters on
    /// `space`, flush barriers on `drained`.
    idle_workers: usize,
    blocked_submitters: usize,
    flushers: usize,
}

/// A claimed batch: one tenant, exclusively held, with up to
/// `queue_capacity` of its oldest staged jobs. The claiming worker must
/// call [`Pool::release`] exactly once when done.
pub(crate) struct Claim {
    pub tenant: u64,
    /// The tenant's home shard (where its durable state lives).
    pub home: usize,
    pub batch: Vec<Envelope>,
    /// Was this tenant homed on a different shard than the claiming
    /// worker's own?
    pub stolen: bool,
}

/// Why [`Pool::submit`] refused a job.
pub(crate) enum SubmitRefused {
    /// Home shard full under [`Backpressure::Shed`].
    Shed,
    /// The pool is closed (runtime shut down).
    Closed,
}

/// A consistent snapshot of the pool's per-home-shard accounting.
pub(crate) struct PoolProgress {
    pub submitted: Vec<u64>,
    pub processed: Vec<u64>,
    pub staged: Vec<u64>,
}

pub(crate) struct Pool {
    sched: Mutex<Sched>,
    /// Workers wait here for a claimable tenant (or shutdown).
    work: Condvar,
    /// Blocked submitters wait here for home-shard capacity.
    space: Condvar,
    /// The flush barrier waits here for `processed == submitted`.
    drained: Condvar,
    mode: Scheduler,
    capacity: usize,
    /// Jobs shed per home shard (full queue under [`Backpressure::Shed`],
    /// plus any shutdown shortfall moved here by [`Pool::reconcile`]).
    pub shed: Vec<AtomicU64>,
    /// Submissions that found their home shard full and had to wait
    /// under [`Backpressure::Block`], per home shard.
    pub blocked: Vec<AtomicU64>,
}

impl Pool {
    pub(crate) fn new(homes: usize, capacity: usize, mode: Scheduler) -> Pool {
        Pool {
            sched: Mutex::new(Sched {
                tenants: HashMap::new(),
                ready: (0..homes).map(|_| VecDeque::new()).collect(),
                staged: vec![0; homes],
                submitted: vec![0; homes],
                processed: vec![0; homes],
                closed: false,
                idle_workers: 0,
                blocked_submitters: 0,
                flushers: 0,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            drained: Condvar::new(),
            mode,
            capacity,
            shed: (0..homes).map(|_| AtomicU64::new(0)).collect(),
            blocked: (0..homes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stage one job on its tenant's queue, subject to the home shard's
    /// capacity and the configured backpressure policy.
    pub(crate) fn submit(
        &self,
        home: usize,
        tenant: u64,
        env: Envelope,
        backpressure: Backpressure,
    ) -> Result<(), SubmitRefused> {
        use std::sync::atomic::Ordering::Relaxed;
        let mut s = self.lock();
        if s.closed {
            return Err(SubmitRefused::Closed);
        }
        if s.staged[home] as usize >= self.capacity {
            match backpressure {
                Backpressure::Shed => {
                    self.shed[home].fetch_add(1, Relaxed);
                    return Err(SubmitRefused::Shed);
                }
                Backpressure::Block => {
                    // counted once per submission that had to wait, like
                    // the old channel's full-queue path
                    self.blocked[home].fetch_add(1, Relaxed);
                    while s.staged[home] as usize >= self.capacity {
                        if s.closed {
                            return Err(SubmitRefused::Closed);
                        }
                        s.blocked_submitters += 1;
                        s = self.space.wait(s).unwrap_or_else(PoisonError::into_inner);
                        s.blocked_submitters -= 1;
                    }
                }
            }
        }
        s.submitted[home] += 1;
        s.staged[home] += 1;
        let q = s.tenants.entry(tenant).or_insert_with(|| TenantQueue {
            jobs: VecDeque::new(),
            running: false,
            home,
        });
        q.jobs.push_back(env);
        // empty→nonempty while unclaimed: the tenant becomes ready
        let newly_ready = !q.running && q.jobs.len() == 1;
        if newly_ready {
            s.ready[home].push_back(tenant);
        }
        let wake = newly_ready && s.idle_workers > 0;
        drop(s);
        if wake {
            self.wake_worker();
        }
        Ok(())
    }

    /// Signal parked workers that one tenant turned claimable. Under
    /// [`Scheduler::Pinned`] only the tenant's home worker may claim it,
    /// and a single wake could land on a worker that cannot (a lost
    /// wakeup), so it broadcasts; worker counts are small. Under
    /// [`Scheduler::LoadAware`] any worker can claim it, so one wake
    /// does.
    fn wake_worker(&self) {
        match self.mode {
            Scheduler::Pinned => self.work.notify_all(),
            Scheduler::LoadAware => self.work.notify_one(),
        }
    }

    /// Claim the next ready tenant for `worker`: its own shard's deque
    /// first; another shard's under [`Scheduler::LoadAware`] (and during
    /// the shutdown drain regardless of mode, so no staged job strands
    /// behind an already-exited worker). Blocks until work is available;
    /// `None` once the pool is closed and every ready deque is empty.
    pub(crate) fn claim(&self, worker: usize) -> Option<Claim> {
        let mut s = self.lock();
        loop {
            let steal_ok = self.mode == Scheduler::LoadAware || s.closed;
            let homes = s.ready.len();
            let mut found: Option<usize> = None;
            if !s.ready[worker].is_empty() {
                found = Some(worker);
            } else if steal_ok {
                for off in 1..homes {
                    let victim = (worker + off) % homes;
                    if !s.ready[victim].is_empty() {
                        found = Some(victim);
                        break;
                    }
                }
            }
            match found {
                Some(deque) => {
                    let tenant = s.ready[deque].pop_front().expect("checked non-empty");
                    let q = s
                        .tenants
                        .get_mut(&tenant)
                        .expect("ready tenant has a queue");
                    debug_assert!(!q.running && !q.jobs.is_empty());
                    q.running = true;
                    let home = q.home;
                    let n = q.jobs.len().min(self.capacity);
                    let batch: Vec<Envelope> = q.jobs.drain(..n).collect();
                    s.staged[home] -= batch.len() as u64;
                    let wake = s.blocked_submitters > 0;
                    drop(s);
                    if wake {
                        // claiming freed home-shard capacity
                        self.space.notify_all();
                    }
                    return Some(Claim {
                        tenant,
                        home,
                        batch,
                        stolen: home != worker,
                    });
                }
                None => {
                    if s.closed {
                        return None;
                    }
                    s.idle_workers += 1;
                    s = self.work.wait(s).unwrap_or_else(PoisonError::into_inner);
                    s.idle_workers -= 1;
                }
            }
        }
    }

    /// Claim a tenant that is *idle* — no staged jobs, no worker holding
    /// it — for the eviction path. An idle tenant has no pool entry at
    /// all, so "claiming" it means inserting a running-marked entry with
    /// an empty queue: submissions that race in behind the claim stage
    /// jobs without readying the tenant, exactly as they would behind a
    /// worker's claim. Returns `false` (claim refused) if the tenant has
    /// any pool presence — staged work means it is not cold enough to
    /// evict. The caller must finish with [`Pool::release`]`(tenant,
    /// home, 0)`, which re-readies anything staged meanwhile (whose claim
    /// then rehydrates the tenant) or removes the empty entry.
    pub(crate) fn try_claim_idle(&self, tenant: u64, home: usize) -> bool {
        let mut s = self.lock();
        if s.closed || s.tenants.contains_key(&tenant) {
            return false;
        }
        s.tenants.insert(
            tenant,
            TenantQueue {
                jobs: VecDeque::new(),
                running: true,
                home,
            },
        );
        true
    }

    /// Release a claimed tenant after its batch retired and before its
    /// replies go out: bump the home shard's processed count, mark the
    /// tenant claimable again and re-enqueue it if jobs were staged
    /// behind the batch.
    pub(crate) fn release(&self, tenant: u64, home: usize, retired: u64) {
        let mut s = self.lock();
        s.processed[home] += retired;
        let mut requeue = false;
        if let Some(q) = s.tenants.get_mut(&tenant) {
            q.running = false;
            if q.jobs.is_empty() {
                s.tenants.remove(&tenant);
            } else {
                s.ready[home].push_back(tenant);
                requeue = true;
            }
        }
        let wake_worker = requeue && s.idle_workers > 0;
        // a flush barrier only returns once everything is drained, so
        // waking it any earlier would be a wasted syscall
        let wake_flush = s.flushers > 0 && drained(&s);
        drop(s);
        if wake_worker {
            self.wake_worker();
        }
        if wake_flush {
            self.drained.notify_all();
        }
    }

    /// The flush barrier: wait until every home shard's `processed` has
    /// caught up with its `submitted`. `workers_gone` is polled while
    /// waiting; when it reports no live worker is left to make progress,
    /// the wait fails.
    pub(crate) fn flush(&self, workers_gone: impl Fn() -> bool) -> Result<(), ()> {
        let mut s = self.lock();
        while !drained(&s) {
            if workers_gone() {
                return Err(());
            }
            s.flushers += 1;
            let (guard, _) = self
                .drained
                .wait_timeout(s, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
            s.flushers -= 1;
        }
        Ok(())
    }

    /// Close the pool: no further submissions are admitted, workers
    /// drain what is staged and then exit their claim loops.
    pub(crate) fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        drop(s);
        self.work.notify_all();
        self.space.notify_all();
        self.drained.notify_all();
    }

    /// Post-join reconciliation: with every worker gone, whatever is
    /// still staged can never run — move the shortfall into the shed
    /// counters (visibly discarded, exactly like the old design's
    /// abandoned-queue accounting) and make `processed == submitted`.
    pub(crate) fn reconcile(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut s = self.lock();
        for home in 0..s.submitted.len() {
            if s.processed[home] < s.submitted[home] {
                let lost = s.submitted[home] - s.processed[home];
                self.shed[home].fetch_add(lost, Relaxed);
                s.processed[home] = s.submitted[home];
            }
            s.staged[home] = 0;
            s.ready[home].clear();
        }
        s.tenants.clear();
        drop(s);
        self.drained.notify_all();
    }

    /// Snapshot the per-home-shard accounting for stats.
    pub(crate) fn progress(&self) -> PoolProgress {
        let s = self.lock();
        PoolProgress {
            submitted: s.submitted.clone(),
            processed: s.processed.clone(),
            staged: s.staged.clone(),
        }
    }
}

fn drained(s: &Sched) -> bool {
    s.submitted
        .iter()
        .zip(&s.processed)
        .all(|(submitted, processed)| processed >= submitted)
}

#[cfg(test)]
mod tests {
    //! Lost-wakeup checks for the waiter-gated condvars: each parked
    //! thread must be woken by the event meant to wake it, in both
    //! scheduler modes. Every wait is watchdogged, so a lost wakeup
    //! fails the test instead of hanging it.

    use super::*;
    use crate::runtime::{Job, TenantId};
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::Instant;

    const WATCHDOG: Duration = Duration::from_secs(5);
    const MODES: [Scheduler; 2] = [Scheduler::LoadAware, Scheduler::Pinned];

    fn env(tenant: u64) -> Envelope {
        Envelope {
            tenant: TenantId(tenant),
            job: Job::Begin,
            reply: None,
            queued_at: None,
        }
    }

    /// Spin (no sleeping) until `parked` holds under the pool lock.
    fn until(pool: &Pool, parked: impl Fn(&Sched) -> bool) {
        let deadline = Instant::now() + WATCHDOG;
        while !parked(&pool.lock()) {
            assert!(Instant::now() < deadline, "thread never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_parked_worker_wakes_for_a_newly_ready_tenant() {
        for mode in MODES {
            let pool = Arc::new(Pool::new(2, 4, mode));
            let (tx, rx) = channel();
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let (pool, tx) = (Arc::clone(&pool), tx.clone());
                    std::thread::spawn(move || {
                        tx.send((w, pool.claim(w).map(|c| c.tenant))).unwrap();
                    })
                })
                .collect();
            until(&pool, |s| s.idle_workers == 2);
            // homed on shard 1: under Pinned only worker 1 may take it
            pool.submit(1, 7, env(7), Backpressure::Block).ok().unwrap();
            let (w, claimed) = rx.recv_timeout(WATCHDOG).expect("lost wakeup");
            assert_eq!(claimed, Some(7), "{mode:?}");
            if mode == Scheduler::Pinned {
                assert_eq!(w, 1);
            }
            pool.close();
            let (_, rest) = rx.recv_timeout(WATCHDOG).expect("close wakes the rest");
            assert_eq!(rest, None);
            for h in workers {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn a_parked_worker_wakes_when_a_release_requeues_its_tenant() {
        for mode in MODES {
            let pool = Arc::new(Pool::new(2, 4, mode));
            pool.submit(1, 7, env(7), Backpressure::Block).ok().unwrap();
            let held = pool.claim(1).expect("ready");
            let (tx, rx) = channel();
            let worker = {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || tx.send(pool.claim(1).map(|c| c.batch.len())).unwrap())
            };
            until(&pool, |s| s.idle_workers == 1);
            // staged behind the held batch: not ready, so no wake yet
            pool.submit(1, 7, env(7), Backpressure::Block).ok().unwrap();
            pool.release(held.tenant, held.home, 1);
            assert_eq!(
                rx.recv_timeout(WATCHDOG).expect("lost wakeup"),
                Some(1),
                "{mode:?}"
            );
            worker.join().unwrap();
        }
    }

    #[test]
    fn a_blocked_submitter_wakes_when_a_claim_frees_capacity() {
        for mode in MODES {
            let pool = Arc::new(Pool::new(1, 1, mode));
            pool.submit(0, 1, env(1), Backpressure::Block).ok().unwrap();
            let (tx, rx) = channel();
            let submitter = {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let admitted = pool.submit(0, 2, env(2), Backpressure::Block).is_ok();
                    tx.send(admitted).unwrap();
                })
            };
            until(&pool, |s| s.blocked_submitters == 1);
            let claim = pool.claim(0).expect("ready");
            assert!(rx.recv_timeout(WATCHDOG).expect("lost wakeup"), "{mode:?}");
            submitter.join().unwrap();
            pool.release(claim.tenant, claim.home, 1);
        }
    }

    #[test]
    fn a_flush_waiter_wakes_on_the_release_that_drains() {
        // a lost `drained` wake is hidden by the barrier's 50 ms poll, so
        // the barrier must return before that poll could fire. A lost
        // wake misses it in every round; the best of three rounds keeps
        // one slow scheduling slice on a loaded host from failing it
        for mode in MODES {
            let pool = Arc::new(Pool::new(2, 4, mode));
            let mut best = Duration::MAX;
            for round in 0..3 {
                pool.submit(1, round, env(round), Backpressure::Block)
                    .ok()
                    .unwrap();
                let claim = pool.claim(1).expect("ready");
                let (tx, rx) = channel();
                let flusher = {
                    let pool = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        let started = Instant::now();
                        let drained = pool.flush(|| false);
                        tx.send((drained, started.elapsed())).unwrap();
                    })
                };
                until(&pool, |s| s.flushers == 1);
                pool.release(claim.tenant, claim.home, 1);
                let (drained, took) = rx.recv_timeout(WATCHDOG).expect("flush never returned");
                assert_eq!(drained, Ok(()));
                best = best.min(took);
                flusher.join().unwrap();
            }
            assert!(
                best < Duration::from_millis(50),
                "{mode:?}: flush returned after {best:?}, its poll interval, not on the wake"
            );
        }
    }
}
