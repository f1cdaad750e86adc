//! Shard workers and the shared tenant fabric they operate on.
//!
//! Since the load-aware scheduling refactor a "shard" is two separate
//! things that used to be fused:
//!
//! - a **home shard** ([`Home`]): the durable half — one [`StateStore`]
//!   per home, plus its WAL/snapshot counters. A tenant's home is the
//!   stable SplitMix64 placement ([`home_of`]), so the on-disk layout
//!   (`shard-<i>/` directories) and every recovery semantic are
//!   unchanged from the hash-pinned design.
//! - a **worker**: one of `shards` identical threads running the claim
//!   loop. Workers pull *ready tenants* from the admission pool
//!   ([`crate::pool::Pool`]) — their own home's deque first, any other
//!   home's under [`crate::runtime::Scheduler::LoadAware`] (a *steal*) —
//!   and run the claimed tenant's next batch to completion.
//!
//! Tenant engines live in a shared registry ([`Tenants`]) behind
//! per-tenant locks. Exclusion is structural: the pool hands a tenant to
//! at most one worker at a time, so per-tenant serial order needs no
//! worker-affinity — any worker may run the batch.
//!
//! A claimed batch is processed in three phases. Under a durable store:
//! **append** every job's intent record to the tenant's *home* store
//! (one store-lock hold), **execute** the jobs against the tenant
//! engine, then **commit** — the batch shares one fsync (group commit)
//! and replies only go out after it, so an acknowledged job is always
//! durable. Batches from different tenants homed on the same store
//! interleave safely: the store lock serializes appends and commits, and
//! an in-flight count keeps snapshot/truncation away from records whose
//! batch has not committed yet.

use crate::pool::Pool;
use crate::runtime::{Job, JobId, JobOutcome, JobReply, JobSummary, TenantId};
use chimera_exec::{Engine, EngineConfig, EngineStats};
use chimera_lifecycle::{LifecycleConfig, ResidencyLru};
use chimera_model::{ObjectStore, Schema};
use chimera_persist::{JobRecord, StateStore, TenantSnapshot};
use chimera_rules::CompiledRule;
use chimera_telemetry::{Counter as TelCounter, Gauge as TelGauge, Stage, Telemetry, TraceKind};
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One staged job, addressed to a tenant. `reply`, when present, is the
/// job's completion slot: the worker sends exactly one [`JobReply`]
/// after retiring the job (never blocking — the slot is a capacity-1
/// channel and a vanished receiver is ignored).
pub(crate) struct Envelope {
    pub tenant: TenantId,
    pub job: Job,
    pub reply: Option<(JobId, SyncSender<JobReply>)>,
    /// Admission timestamp for the telemetry queue-wait histogram.
    /// `None` when telemetry is off — the clock is never read then.
    pub queued_at: Option<std::time::Instant>,
}

/// The stable tenant→home-shard placement: a SplitMix64 finalizer over
/// the raw id, so dense id ranges still spread evenly. This is a *home*
/// (durable-state owner and backpressure bucket), not an execution pin —
/// under load-aware scheduling any worker may run the tenant.
pub(crate) fn home_of(tenant: u64, homes: usize) -> usize {
    let mut z = tenant.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % homes as u64) as usize
}

/// One tenant's engine plus its bookkeeping.
pub(crate) struct TenantSlot {
    pub engine: Engine,
    pub job_errors: u64,
    pub last_error: Option<String>,
    /// Jobs durably logged *and* applied to this tenant (snapshot
    /// `jobs_applied` + logged-tail position). The recovery oracle uses
    /// this to know exactly how many of a tenant's jobs survived a crash.
    pub jobs_applied: u64,
    /// Tenant-local trigger definitions, as source text, in definition
    /// order — re-applied verbatim when the tenant is rebuilt from a
    /// snapshot.
    pub trigger_sources: Vec<String>,
}

/// The shared tenant registry: every live tenant engine, each behind its
/// own lock. The registry lock is only ever held to look up or create a
/// slot's `Arc` — never while a slot lock is held — so inspection
/// (`with_tenant`, `stats`) interleaves cleanly with workers mid-batch.
pub(crate) struct Tenants {
    map: Mutex<HashMap<u64, Arc<Mutex<TenantSlot>>>>,
}

impl Tenants {
    pub fn new() -> Tenants {
        Tenants {
            map: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<Mutex<TenantSlot>>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get(&self, tenant: u64) -> Option<Arc<Mutex<TenantSlot>>> {
        self.lock().get(&tenant).cloned()
    }

    fn get_or_create(&self, tenant: u64, ctx: &WorkerCtx) -> Arc<Mutex<TenantSlot>> {
        let mut map = self.lock();
        if let Some(arc) = map.get(&tenant) {
            return Arc::clone(arc);
        }
        ctx.tel.gauge_add(TelGauge::TenantsResident, 1);
        Arc::clone(
            map.entry(tenant)
                .or_insert_with(|| Arc::new(Mutex::new(fresh_slot(ctx)))),
        )
    }

    pub fn insert(&self, tenant: u64, slot: TenantSlot) {
        self.lock().insert(tenant, Arc::new(Mutex::new(slot)));
    }

    fn remove(&self, tenant: u64) {
        self.lock().remove(&tenant);
    }

    /// Resident engines (evicted tenants are not counted — they have no
    /// engine in RAM).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Snapshot the registry's `(tenant, slot)` pairs (the slots are not
    /// locked — callers lock each as needed).
    pub fn arcs(&self) -> Vec<(u64, Arc<Mutex<TenantSlot>>)> {
        self.lock().iter().map(|(&t, a)| (t, Arc::clone(a))).collect()
    }
}

/// One home shard's durable half: the store plus its published counters.
pub(crate) struct Home {
    pub index: usize,
    pub durable: bool,
    pub store: Mutex<StoreSlot>,
    /// Published store counters (set, not accumulated, from
    /// [`StateStore::counters`] after every committed batch, plus the
    /// `base_*` carry below).
    pub wal_appends: AtomicU64,
    pub wal_syncs: AtomicU64,
    pub snapshots: AtomicU64,
    /// Counter carry from stores retired by [`reopen_home`]: a
    /// replacement store restarts its own counters at zero, so the
    /// retired store's totals are folded in here to keep the published
    /// numbers monotone across a reopen.
    pub base_appends: AtomicU64,
    pub base_syncs: AtomicU64,
    pub base_snapshots: AtomicU64,
    /// Cumulative wall-clock nanoseconds the store spent inside fsync
    /// (published like the other store counters, with a `base_` carry).
    pub wal_sync_nanos: AtomicU64,
    pub base_sync_nanos: AtomicU64,
    /// Transient store faults absorbed by the bounded retry loop
    /// ([`with_retry`]) instead of poisoning the home.
    pub store_retries: AtomicU64,
    /// Set once, after startup recovery.
    pub recovered_tenants: AtomicU64,
    pub replayed_jobs: AtomicU64,
    /// Tenants homed here whose engines were evicted from RAM: their
    /// authoritative state until the next claim rehydrates them.
    /// Eviction trades an engine for its smaller snapshot form, like a
    /// swapped-out page, and writes nothing to disk. On a durable home a
    /// crash recovers an evicted tenant from the last full snapshot
    /// (which folds this map in) plus the job log, which only a full
    /// snapshot truncates.
    /// Parked behind an `Arc`, so a rehydration or an inspection takes a
    /// handle, not a copy.
    pub evicted: Mutex<HashMap<u64, Arc<TenantSnapshot>>>,
    /// Lifetime eviction / rehydration counts for this home.
    pub evictions: AtomicU64,
    pub rehydrations: AtomicU64,
}

/// The lock-protected mutable state of one home store.
pub(crate) struct StoreSlot {
    pub store: Box<dyn StateStore>,
    /// A failed append/commit/snapshot poisons the home's durability:
    /// jobs homed here keep being answered (with this error) but nothing
    /// executes without durability.
    pub poisoned: Option<String>,
    /// Batches that have appended records but not yet committed them.
    /// Snapshot/truncation only runs at zero, so it can never drop
    /// another batch's uncommitted intent records.
    pub inflight: u64,
}

impl Home {
    pub fn new(index: usize, store: Box<dyn StateStore>) -> Home {
        Home {
            index,
            durable: store.is_durable(),
            store: Mutex::new(StoreSlot {
                store,
                poisoned: None,
                inflight: 0,
            }),
            wal_appends: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            base_appends: AtomicU64::new(0),
            base_syncs: AtomicU64::new(0),
            base_snapshots: AtomicU64::new(0),
            wal_sync_nanos: AtomicU64::new(0),
            base_sync_nanos: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            recovered_tenants: AtomicU64::new(0),
            replayed_jobs: AtomicU64::new(0),
            evicted: Mutex::new(HashMap::new()),
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
        }
    }

    /// Lock the evicted-tenant map.
    pub fn evicted_lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<TenantSnapshot>>> {
        self.evicted.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the home store (rank: before the registry, the evicted map
    /// and any tenant slot).
    pub fn lock(&self) -> MutexGuard<'_, StoreSlot> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Bounded retry for store operations: a fault the
/// [`chimera_persist::PersistError::is_transient`] classifier deems
/// retryable gets up to [`STORE_RETRY_LIMIT`] further attempts with
/// doubling backoff (1/2/4 ms) before the error escalates to the
/// caller's poisoning path. The sleep happens with the store lock held —
/// deliberate: a store that is failing *should* backpressure every
/// batch homed on it rather than let them race into the same fault.
const STORE_RETRY_LIMIT: u32 = 3;

fn with_retry<T>(
    home: &Home,
    ctx: &WorkerCtx,
    mut op: impl FnMut() -> chimera_persist::Result<T>,
) -> chimera_persist::Result<T> {
    let mut backoff_ms = 1u64;
    for _ in 0..STORE_RETRY_LIMIT {
        match op() {
            Err(e) if e.is_transient() => {
                home.store_retries.fetch_add(1, Ordering::Relaxed);
                ctx.tel.count(ctx.worker, TelCounter::StoreRetries, 1);
                // home-scoped events record into the *home's* ring (not
                // the worker's), so one noisy neighbor can't flush the
                // postmortem trail of a victim home — see
                // tests in chimera-telemetry and the PR-9 follow-up note
                ctx.tel
                    .trace(home.index, TraceKind::StoreRetried, home.index as u64, 0);
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                backoff_ms *= 2;
            }
            other => return other,
        }
    }
    op()
}

/// Runtime-global error/panic counters (tenant-attributed, so no longer
/// meaningful per worker).
#[derive(Default)]
pub(crate) struct Counters {
    pub errors: AtomicU64,
    pub panics: AtomicU64,
}

/// One worker thread's execution counters.
#[derive(Default)]
pub(crate) struct WorkerStats {
    /// Jobs this worker executed (batches it claimed, summed).
    pub executed: AtomicU64,
    /// Claims of tenants homed on a *different* shard than this worker.
    pub steals: AtomicU64,
}

/// What one home's startup recovery found.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardRecoveryStats {
    pub tenants_recovered: u64,
    pub jobs_replayed: u64,
    pub torn: Option<String>,
    /// Every tenant recovery touched, least recently active first: the
    /// snapshot's tenants in snapshot order, then each tenant by its
    /// last job in the tail.
    pub recency: Vec<u64>,
}

/// The runtime's trigger set, compiled once in `Runtime::recover`:
/// every tenant engine installs these same `Arc`s, in this order.
pub(crate) type RuleSet = Arc<[Arc<CompiledRule>]>;

/// Everything a worker (or startup recovery) needs to build and run
/// tenant engines.
pub(crate) struct WorkerCtx {
    schema: Schema,
    rules: RuleSet,
    engine_cfg: EngineConfig,
    /// The runtime's telemetry handle ([`Telemetry::off`] when disabled
    /// and during startup recovery).
    tel: Telemetry,
    /// This worker's index — selects the telemetry shard bank.
    worker: usize,
}

impl WorkerCtx {
    pub fn new(
        schema: Schema,
        rules: RuleSet,
        engine_cfg: EngineConfig,
        tel: Telemetry,
        worker: usize,
    ) -> Self {
        WorkerCtx {
            schema,
            rules,
            engine_cfg,
            tel,
            worker,
        }
    }
}

/// The shared fabric every worker thread operates on: the admission
/// pool, the tenant registry, the home shards, and the counters.
#[derive(Clone)]
pub(crate) struct Fabric {
    pub pool: Arc<Pool>,
    pub tenants: Arc<Tenants>,
    pub homes: Arc<Vec<Home>>,
    pub counters: Arc<Counters>,
    pub workers: Arc<Vec<WorkerStats>>,
    pub schema: Schema,
    pub rules: RuleSet,
    pub engine_cfg: EngineConfig,
    pub snapshot_every: u64,
    pub telemetry: Telemetry,
    /// The residency budget (default unbounded: the whole lifecycle
    /// path is skipped).
    pub lifecycle: LifecycleConfig,
    /// Tenant recency, maintained on the claim-release path while a
    /// budget is configured. Guarded by one mutex: touches are O(1) and
    /// happen once per *batch*, not per job, so contention is noise.
    pub lru: Arc<Mutex<ResidencyLru>>,
}

/// Spawn one worker thread running the claim loop until the pool closes.
pub(crate) fn spawn_worker(index: usize, fabric: Fabric) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("chimera-shard-{index}"))
        .spawn(move || run_worker(index, fabric))
        .expect("spawn shard worker thread")
}

/// The claim loop: pull a ready tenant from the pool, run its batch
/// against the tenant's home store, release the tenant, answer the
/// batch, repeat. Exits when the pool is closed and drained (runtime
/// shutdown).
fn run_worker(index: usize, fabric: Fabric) {
    let ctx = WorkerCtx::new(
        fabric.schema.clone(),
        Arc::clone(&fabric.rules),
        fabric.engine_cfg.clone(),
        fabric.telemetry.clone(),
        index,
    );
    let me = &fabric.workers[index];
    while let Some(claim) = fabric.pool.claim(index) {
        if claim.stolen {
            me.steals.fetch_add(1, Ordering::Relaxed);
        }
        let retired = claim.batch.len() as u64;
        ctx.tel.count(index, TelCounter::Batches, 1);
        // claim traces are home-scoped (a hot tenant floods its *own*
        // home's ring, never a victim's)
        ctx.tel
            .trace(claim.home, TraceKind::JobClaimed, claim.tenant, retired);
        if rehydrate_if_evicted(&fabric, &ctx, claim.tenant, claim.home)
            && fabric.lifecycle.is_bounded()
        {
            // the rehydration grew the working set by one; shed a cold
            // tenant *now* so residency overshoots the budget only by
            // the claims currently in flight, not until the next release
            enforce_residency(&fabric, &ctx);
        }
        let pending = run_batch(
            &fabric.homes[claim.home],
            fabric.homes.len(),
            &fabric.tenants,
            &fabric.counters,
            &ctx,
            claim.batch,
            fabric.snapshot_every,
        );
        me.executed.fetch_add(retired, Ordering::Relaxed);
        // count the batch as processed before its replies go out, so a
        // caller holding a reply never reads `stats()` without its job
        fabric.pool.release(claim.tenant, claim.home, retired);
        answer_all(&ctx, pending);
        if fabric.lifecycle.is_bounded() {
            note_activity(&fabric, claim.tenant, claim.home);
            enforce_residency(&fabric, &ctx);
        }
    }
}

/// If the claimed tenant was evicted, rebuild its engine from the home's
/// evicted snapshot *before* the batch runs — so the batch path
/// (`get_or_create`, per-job locks, replay) never observes a missing
/// tenant and callers see eviction only as this restore's latency
/// (recorded in the `rehydrate` histogram). Claim exclusivity plus the
/// pool guard inside [`try_evict`] make this race-free against other
/// workers' eviction/rehydration: nobody evicts a claimed tenant, and
/// nobody else rehydrates one. Against concurrent *snapshots* the
/// registry/evicted-map handover is published under the home store lock
/// (see below). Returns whether an engine was rebuilt (so the caller
/// can re-enforce the budget).
fn rehydrate_if_evicted(fabric: &Fabric, ctx: &WorkerCtx, tenant: u64, home_idx: usize) -> bool {
    if fabric.tenants.get(tenant).is_some() {
        return false;
    }
    let home = &fabric.homes[home_idx];
    let snap = home.evicted_lock().get(&tenant).cloned();
    let Some(snap) = snap else { return false };
    let started = ctx.tel.start();
    match restore_tenant(&snap, ctx) {
        Ok(slot) => {
            let bytes = approx_slot_bytes(&slot);
            // Publish the evicted→resident transition while holding the
            // home store lock. [`maybe_snapshot`] (and [`reopen_home`])
            // collect the resident set via `tenants.arcs()` and fold the
            // evicted map under that same lock, and so does
            // `Runtime::stats`; without it a full snapshot racing this
            // window could observe the tenant in *neither* set, omit it
            // and truncate the job log — permanently losing the tenant's
            // durable state. Under the lock the snapshot sees either
            // "still evicted" or "already resident", both correct.
            // Inside the critical section insert-before-remove keeps
            // lockless inspection from seeing the tenant in neither
            // place. (Lock order store→registry→evicted matches the
            // batch append path and `try_evict`.)
            {
                let _store = home.lock();
                fabric.tenants.insert(tenant, slot);
                home.evicted_lock().remove(&tenant);
            }
            home.rehydrations.fetch_add(1, Ordering::Relaxed);
            if fabric.lifecycle.is_bounded() {
                lru_lock(fabric).touch(tenant, home_idx, bytes);
            }
            ctx.tel.record_since(ctx.worker, Stage::Rehydrate, started);
            ctx.tel.count(ctx.worker, TelCounter::Rehydrations, 1);
            ctx.tel.gauge_add(TelGauge::TenantsResident, 1);
            ctx.tel
                .trace(home_idx, TraceKind::TenantRehydrated, tenant, home_idx as u64);
            return true;
        }
        Err(e) => {
            // Should be unreachable — the snapshot came from a healthy
            // engine we froze ourselves. If it does happen, preserve
            // state (the snapshot stays in the evicted map) and poison
            // the home so the batch is answered with typed refusals
            // instead of running against a fresh empty engine.
            let mut slot = home.lock();
            slot.poisoned = Some(format!("tenant {tenant} rehydration failed: {e}"));
            ctx.tel.count(ctx.worker, TelCounter::Poisonings, 1);
            ctx.tel
                .trace(home_idx, TraceKind::HomePoisoned, home.index as u64, 0);
        }
    }
    false
}

/// Approximate resident footprint of a tenant: relative pressure for
/// the bytes budget, not accounting. Only the live event tail is
/// resident (the dropped prefix costs nothing), and a tenant at rest has
/// none.
pub(crate) fn approx_slot_bytes(slot: &TenantSlot) -> u64 {
    let sources: u64 = slot.trigger_sources.iter().map(|s| s.len() as u64).sum();
    1024 + slot.engine.store().len() as u64 * 256
        + slot.engine.event_base().live_len() as u64 * 64
        + sources
}

fn lru_lock(fabric: &Fabric) -> MutexGuard<'_, ResidencyLru> {
    fabric.lru.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Mark the released tenant most-recently-active. The slot is
/// `try_lock`ed for the size estimate; if another worker already
/// re-claimed the tenant it is hot by definition and the stale estimate
/// stands.
fn note_activity(fabric: &Fabric, tenant: u64, home: usize) {
    let bytes = match fabric.tenants.get(tenant) {
        Some(arc) => match arc.try_lock() {
            Ok(slot) => approx_slot_bytes(&slot),
            Err(_) => return, // re-claimed already: hot, leave as-is
        },
        None => {
            // The tenant left the registry outside `try_evict` — a
            // mid-job panic drops the whole engine. Drop its LRU entry
            // too: a phantom entry's bytes would keep `over_budget`
            // true forever, making every release evict real (colder)
            // tenants until the stale id happened to age into the
            // candidate window. (`try_evict` removes its own LRU entry,
            // so this is the only leak path.)
            lru_lock(fabric).remove(tenant);
            return;
        }
    };
    lru_lock(fabric).touch(tenant, home, bytes);
}

/// How many cold candidates one enforcement round examines before giving
/// up (busy or refusing candidates stay in the LRU and are retried on a
/// later release).
const EVICT_CANDIDATES: usize = 32;

/// Post-release residency enforcement: while the working set exceeds the
/// budget, evict coldest-first. Best-effort by design — a candidate
/// mid-transaction, with staged jobs, on a poisoned home, or whose home
/// store refuses the eviction is simply *skipped* (refuse-and-retain;
/// nothing is ever dropped to satisfy the budget), so a transient
/// overshoot of at most the number of in-flight claims is possible.
/// Only tenants present in the LRU are candidates: every path that makes
/// a tenant resident while bounded also touches the LRU (release via
/// [`note_activity`], rehydration, the recovery seed loop in
/// `Runtime::recover`), so under the construction-fixed
/// [`LifecycleConfig`] no resident engine is ever invisible here.
pub(crate) fn enforce_residency(fabric: &Fabric, ctx: &WorkerCtx) {
    loop {
        let candidates = {
            let lru = lru_lock(fabric);
            if !fabric
                .lifecycle
                .over_budget(fabric.tenants.len(), lru.total_bytes())
            {
                return;
            }
            lru.coldest(EVICT_CANDIDATES)
        };
        let evicted_one = candidates
            .into_iter()
            .any(|(tenant, home)| try_evict(fabric, ctx, tenant, home));
        if !evicted_one {
            return; // nothing evictable right now; later releases retry
        }
    }
}

/// Try to evict one idle tenant: claim it idle in the pool (fails if it
/// is running or has staged jobs), freeze its engine into a snapshot,
/// ask the home store to accept the eviction via
/// [`StateStore::evict_tenant`] (**one** attempt, no retry loop —
/// eviction is optional work, so a refusal means refuse-and-retain,
/// never a poisoning), then drop the RAM engine and park the snapshot in
/// the home's evicted map. Returns whether an engine was actually
/// dropped.
fn try_evict(fabric: &Fabric, ctx: &WorkerCtx, tenant: u64, home_idx: usize) -> bool {
    let home = &fabric.homes[home_idx];
    if !fabric.pool.try_claim_idle(tenant, home_idx) {
        return false; // running or has staged jobs
    }
    // Look the slot up only under the idle claim, which no eviction or
    // rehydration can overlap. A handle taken before the claim may be a
    // slot that another worker has since evicted and rehydrated as a new
    // one: freezing that stale engine would park a snapshot missing every
    // job run since, and drop the live slot.
    let Some(arc) = fabric.tenants.get(tenant) else {
        // evicted meanwhile, or gone some other way (tenant panic): drop
        // the stale entry
        lru_lock(fabric).remove(tenant);
        fabric.pool.release(tenant, home_idx, 0);
        return false;
    };
    // lock order matches maybe_snapshot: store slot, then tenant slot
    let mut evicted = false;
    {
        let mut store = home.lock();
        if store.poisoned.is_none() {
            let slot = arc.lock().unwrap_or_else(PoisonError::into_inner);
            if !slot.engine.in_transaction() {
                let snap = snapshot_tenant(tenant, &slot);
                if store.store.evict_tenant(&snap).is_ok() {
                    drop(slot);
                    home.evicted_lock().insert(tenant, Arc::new(snap));
                    fabric.tenants.remove(tenant);
                    lru_lock(fabric).remove(tenant);
                    home.evictions.fetch_add(1, Ordering::Relaxed);
                    ctx.tel.count(ctx.worker, TelCounter::Evictions, 1);
                    ctx.tel.gauge_add(TelGauge::TenantsResident, -1);
                    ctx.tel
                        .trace(home_idx, TraceKind::TenantEvicted, tenant, home_idx as u64);
                    evicted = true;
                }
            }
        }
        if evicted {
            publish_counters(home, &*store.store);
        }
    }
    // a job submitted while we held the idle claim was queued, not
    // readied; release re-readies it (and its claim will rehydrate)
    fabric.pool.release(tenant, home_idx, 0);
    evicted
}

/// One processed envelope, parked until the batch's group commit before
/// its reply goes out.
struct Pending {
    reply: Option<(JobId, SyncSender<JobReply>)>,
    tenant: TenantId,
    outcome: JobOutcome,
    /// Was this job staged into the store (and must therefore be demoted
    /// if the batch's commit fails)?
    logged: bool,
}

/// What phase 1 decided for each envelope.
enum Disposition {
    /// Test gate: park the worker, outside every lock.
    Gate,
    /// Refused before execution: the home's store is unavailable
    /// (poisoned home / failed append), answered with the typed
    /// [`JobOutcome::RefusedDurability`].
    Refuse(String),
    /// Execute; `logged` records whether its intent was appended.
    Run { logged: bool },
}

/// Run one claimed batch: append (durable homes), execute, group-commit,
/// and return the outcomes for [`answer_all`]. All jobs belong to one
/// tenant, held exclusively by this worker, so execution order *is* the
/// tenant's submission order.
fn run_batch(
    home: &Home,
    homes: usize,
    tenants: &Tenants,
    counters: &Counters,
    ctx: &WorkerCtx,
    batch: Vec<Envelope>,
    snapshot_every: u64,
) -> Vec<Pending> {
    let tel = &ctx.tel;
    // queue wait: admission → claim, one sample per staged job
    for env in &batch {
        tel.record_since(ctx.worker, Stage::QueueWait, env.queued_at);
    }

    // phase 1 — stage every loggable job's intent record into the home
    // store, in batch order, under one store-lock hold
    let mut appended_any = false;
    let plans: Vec<Disposition> = if home.durable {
        let append_started = tel.start();
        let mut slot = home.lock();
        let plans = batch
            .iter()
            .map(|env| {
                if matches!(env.job, Job::Gate { .. }) {
                    return Disposition::Gate;
                }
                if let Some(msg) = &slot.poisoned {
                    // A poisoned home refuses everything *except*
                    // `Rollback`: without it a tenant caught
                    // mid-transaction by the poisoning could never
                    // return to the committed-only state
                    // `reopen_shard_store` requires. The rollback runs
                    // unlogged — the store is dead, and recovery replays
                    // a log whose last group never included this
                    // transaction's commit anyway. Gated on residency: an
                    // *evicted* tenant is by construction outside any
                    // transaction, so running its rollback would only
                    // conjure a fresh empty engine that shadows the
                    // parked snapshot.
                    if matches!(env.job, Job::Rollback) && tenants.get(env.tenant.0).is_some() {
                        return Disposition::Run { logged: false };
                    }
                    return Disposition::Refuse(msg.clone());
                }
                match job_record(&env.job) {
                    Some(record) => {
                        match with_retry(home, ctx, || slot.store.append(env.tenant.0, &record)) {
                            Ok(()) => {
                                appended_any = true;
                                Disposition::Run { logged: true }
                            }
                            Err(e) => {
                                let msg = format!("shard store failed: {e}");
                                slot.poisoned = Some(msg.clone());
                                tel.count(ctx.worker, TelCounter::Poisonings, 1);
                                tel.trace(
                                    home.index,
                                    TraceKind::HomePoisoned,
                                    home.index as u64,
                                    0,
                                );
                                Disposition::Refuse(msg)
                            }
                        }
                    }
                    None => Disposition::Run { logged: false },
                }
            })
            .collect();
        if appended_any {
            slot.inflight += 1;
        }
        drop(slot);
        tel.record_since(ctx.worker, Stage::Append, append_started);
        plans
    } else {
        batch
            .iter()
            .map(|env| {
                if matches!(env.job, Job::Gate { .. }) {
                    Disposition::Gate
                } else {
                    Disposition::Run { logged: false }
                }
            })
            .collect()
    };

    // phase 2 — execute, store lock released (a long job never blocks
    // the home's other tenants from appending their own batches)
    let mut pending = Vec::with_capacity(plans.len());
    for (env, plan) in batch.into_iter().zip(plans) {
        let (outcome, logged) = match plan {
            Disposition::Gate => {
                // test instrumentation: park outside every lock so
                // stats/inspection stay reachable while the worker waits
                if let Job::Gate { entered, release } = env.job {
                    entered.wait();
                    release.wait();
                }
                (JobOutcome::Done(JobSummary::default()), false)
            }
            Disposition::Refuse(msg) => (
                refuse(home, tenants, counters, ctx, env.tenant.0, msg),
                false,
            ),
            Disposition::Run { logged } => {
                let exec_started = tel.start();
                let outcome =
                    run_job(tenants, counters, ctx, env.tenant.0, env.job, home.durable);
                tel.record_since(ctx.worker, Stage::Execute, exec_started);
                (outcome, logged)
            }
        };
        pending.push(Pending {
            reply: env.reply,
            tenant: env.tenant,
            outcome,
            logged,
        });
    }

    // phase 3 — the group commit: one fsync for every job staged above
    let mut demote: Option<String> = None;
    if home.durable {
        let mut slot = home.lock();
        if appended_any {
            slot.inflight -= 1;
            if let Some(msg) = &slot.poisoned {
                // a later append in this very batch poisoned the home
                // after earlier jobs had already staged: the commit is
                // skipped, so those jobs' group never fsynced — their
                // successes must be demoted exactly as if the commit
                // call itself had failed
                demote = Some(msg.clone());
            } else {
                let commit_started = tel.start();
                let committed = with_retry(home, ctx, || slot.store.commit());
                tel.record_since(ctx.worker, Stage::Commit, commit_started);
                if let Err(e) = committed {
                    let msg = format!("shard store failed: {e}");
                    slot.poisoned = Some(msg.clone());
                    tel.count(ctx.worker, TelCounter::Poisonings, 1);
                    tel.trace(home.index, TraceKind::HomePoisoned, home.index as u64, 0);
                    demote = Some(msg);
                }
            }
        }
        publish_counters(home, &*slot.store);
        if slot.poisoned.is_none() && snapshot_every > 0 && slot.inflight == 0 {
            maybe_snapshot(&mut slot, home, homes, tenants, snapshot_every, ctx);
        }
    }
    // the batch's durability is not established — demote its successes
    // to the typed refusal, through refuse() so per-tenant error
    // bookkeeping matches every other refusal path. Honesty note: the
    // effects *ran* in RAM and, if the commit was torn (data landed,
    // error reported), may even be durable; the refusal promises only
    // "not acknowledged as durable", which is the strongest claim an
    // ambiguous fsync failure allows. (Outside the store lock: refuse()
    // takes tenant locks.)
    if let Some(msg) = demote {
        for p in &mut pending {
            if p.logged && p.outcome.is_done() {
                p.outcome = refuse(home, tenants, counters, ctx, p.tenant.0, msg.clone());
                tel.count(ctx.worker, TelCounter::Demotions, 1);
                tel.trace(
                    home.index,
                    TraceKind::JobDemoted,
                    p.tenant.0,
                    home.index as u64,
                );
            }
        }
    }
    pending
}

/// Answer a retired batch's jobs, in batch order.
fn answer_all(ctx: &WorkerCtx, pending: Vec<Pending>) {
    let reply_started = ctx.tel.start();
    for p in pending {
        answer(p.reply, p.tenant, p.outcome);
    }
    ctx.tel.record_since(ctx.worker, Stage::Reply, reply_started);
}

/// Record a store-refusal against the tenant's bookkeeping (the slot is
/// created if this is the tenant's first job, mirroring engine errors)
/// and answer it with the typed [`JobOutcome::RefusedDurability`] a
/// client can distinguish from an engine error.
fn refuse(
    home: &Home,
    tenants: &Tenants,
    counters: &Counters,
    ctx: &WorkerCtx,
    tenant: u64,
    msg: String,
) -> JobOutcome {
    if tenants.get(tenant).is_none() {
        // An *evicted* tenant reaches here when its home is poisoned
        // (rehydration is skipped by a poisoning mid-batch, or failed and
        // caused it). Book the error on the parked snapshot rather than
        // `get_or_create` — a fresh empty slot would shadow the real
        // state the snapshot still holds.
        //
        // Accepted divergence: every path that reaches an evicted
        // tenant has the home poisoned, so this bookkeeping reaches disk
        // only through a later full snapshot (after a reopen). A crash
        // before then restores the pre-refusal error count
        // (`restored_errors` / `tenant_errors()` under-count these
        // refusals after recovery). That is the same claim demotion
        // already makes — error *counters* are observability, not
        // replayed state; the job log and object state never diverge.
        let mut evicted = home.evicted_lock();
        if let Some(snap) = evicted.get_mut(&tenant) {
            let snap = Arc::make_mut(snap);
            snap.job_errors += 1;
            snap.last_error = Some(msg.clone());
            counters.errors.fetch_add(1, Ordering::Relaxed);
            return JobOutcome::RefusedDurability(msg);
        }
    }
    let arc = tenants.get_or_create(tenant, ctx);
    let mut slot = arc.lock().unwrap_or_else(PoisonError::into_inner);
    slot.job_errors += 1;
    slot.last_error = Some(msg.clone());
    counters.errors.fetch_add(1, Ordering::Relaxed);
    JobOutcome::RefusedDurability(msg)
}

/// Run one (non-gate) job against its tenant engine, taking the
/// per-tenant lock for the duration. Shared verbatim between live
/// processing and startup replay, so a replayed job reproduces exactly
/// the live bookkeeping — errors, panics and `jobs_applied` included.
fn run_job(
    tenants: &Tenants,
    counters: &Counters,
    ctx: &WorkerCtx,
    tenant: u64,
    job: Job,
    counted: bool,
) -> JobOutcome {
    let arc = tenants.get_or_create(tenant, ctx);
    let mut slot = arc.lock().unwrap_or_else(PoisonError::into_inner);
    if counted && job_record(&job).is_some() {
        slot.jobs_applied += 1;
    }
    let before = slot.engine.stats();
    let schema = &ctx.schema;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| apply(&mut slot, schema, job)));
    match result {
        Ok(Ok(())) => JobOutcome::Done(JobSummary::delta(before, slot.engine.stats())),
        Ok(Err(msg)) => {
            slot.job_errors += 1;
            slot.last_error = Some(msg.clone());
            counters.errors.fetch_add(1, Ordering::Relaxed);
            JobOutcome::Error(msg)
        }
        Err(_) => {
            // mid-job panic: the engine's invariants are suspect,
            // drop the whole tenant rather than serve from it
            drop(slot);
            tenants.remove(tenant);
            ctx.tel.gauge_add(TelGauge::TenantsResident, -1);
            counters.panics.fetch_add(1, Ordering::Relaxed);
            JobOutcome::Panicked
        }
    }
}

/// Deliver a job's completion notification, if one was requested. The
/// slot has capacity 1 and receives exactly this send, so `try_send`
/// cannot find it full; a receiver that lost interest is ignored.
fn answer(reply: Option<(JobId, SyncSender<JobReply>)>, tenant: TenantId, outcome: JobOutcome) {
    if let Some((job, tx)) = reply {
        let _ = tx.try_send(JobReply {
            job,
            tenant,
            outcome,
        });
    }
}

/// A fresh tenant slot: an engine with the runtime's compiled rule set
/// installed (shared, not recompiled: the tenant owns only the rules'
/// stamps and plan scratchpads).
fn fresh_slot(ctx: &WorkerCtx) -> TenantSlot {
    let mut engine = Engine::with_config(ctx.schema.clone(), ctx.engine_cfg.clone());
    install_rules(&mut engine, &ctx.rules);
    TenantSlot {
        engine,
        job_errors: 0,
        last_error: None,
        jobs_applied: 0,
        trigger_sources: Vec::new(),
    }
}

/// Install the runtime's rule set on a new engine.
fn install_rules(engine: &mut Engine, rules: &RuleSet) {
    for rule in rules.iter() {
        engine
            .install_rule(Arc::clone(rule))
            .expect("runtime rule set is validated at construction");
    }
}

/// Run one job against a tenant slot. Engine errors come back as their
/// display string (the runtime's error currency); trigger-source jobs
/// parse, lower and define atomically — on any failure the definitions
/// already made by *this job* are dropped again.
fn apply(slot: &mut TenantSlot, schema: &Schema, job: Job) -> Result<(), String> {
    match job {
        Job::Begin => slot.engine.begin().map_err(|e| e.to_string()),
        Job::ExecBlock(ops) => slot
            .engine
            .exec_block(&ops)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Job::RaiseExternal(events) => slot
            .engine
            .raise_external(&events)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Job::Commit => slot.engine.commit().map_err(|e| e.to_string()),
        Job::Rollback => slot.engine.rollback().map_err(|e| e.to_string()),
        Job::DefineTriggerSource(src) => {
            apply_trigger_source(&mut slot.engine, schema, &src)?;
            slot.trigger_sources.push(src);
            Ok(())
        }
        Job::Gate { .. } => unreachable!("gates are handled by the worker loop, not a tenant"),
    }
}

/// Parse and define a trigger-source job: all of its declarations or
/// none (a partial failure drops the ones this job already defined).
fn apply_trigger_source(engine: &mut Engine, schema: &Schema, src: &str) -> Result<(), String> {
    let decls = chimera_lang::parse_trigger_decls(src, schema).map_err(|e| e.to_string())?;
    let mut defined: Vec<String> = Vec::with_capacity(decls.len());
    for decl in &decls {
        let result = decl
            .lower(schema)
            .map_err(|e| e.to_string())
            .and_then(|def| {
                let name = def.name.clone();
                engine
                    .define_trigger(def)
                    .map(|()| name)
                    .map_err(|e| e.to_string())
            });
        match result {
            Ok(name) => defined.push(name),
            Err(msg) => {
                for name in defined.iter().rev() {
                    let _ = engine.drop_trigger(name);
                }
                return Err(msg);
            }
        }
    }
    Ok(())
}

/// The durable form of a job, or `None` for the one job that is never
/// logged (a test gate).
fn job_record(job: &Job) -> Option<JobRecord> {
    match job {
        Job::Begin => Some(JobRecord::Begin),
        Job::ExecBlock(ops) => Some(JobRecord::ExecBlock(ops.clone())),
        Job::RaiseExternal(events) => Some(JobRecord::RaiseExternal(events.clone())),
        Job::Commit => Some(JobRecord::Commit),
        Job::Rollback => Some(JobRecord::Rollback),
        Job::DefineTriggerSource(src) => Some(JobRecord::DefineTriggerSource(src.clone())),
        Job::Gate { .. } => None,
    }
}

fn job_from_record(rec: JobRecord) -> Job {
    match rec {
        JobRecord::Begin => Job::Begin,
        JobRecord::ExecBlock(ops) => Job::ExecBlock(ops),
        JobRecord::RaiseExternal(events) => Job::RaiseExternal(events),
        JobRecord::Commit => Job::Commit,
        JobRecord::Rollback => Job::Rollback,
        JobRecord::DefineTriggerSource(src) => Job::DefineTriggerSource(src),
    }
}

/// Publish the store's counters into the home's atomics. The `base_*`
/// carry (totals of stores retired by [`reopen_home`]) keeps the
/// published numbers monotone across a store replacement.
fn publish_counters(home: &Home, store: &dyn StateStore) {
    let c = store.counters();
    home.wal_appends.store(
        home.base_appends.load(Ordering::Relaxed) + c.appends,
        Ordering::Relaxed,
    );
    home.wal_syncs.store(
        home.base_syncs.load(Ordering::Relaxed) + c.syncs,
        Ordering::Relaxed,
    );
    home.snapshots.store(
        home.base_snapshots.load(Ordering::Relaxed) + c.snapshots,
        Ordering::Relaxed,
    );
    home.wal_sync_nanos.store(
        home.base_sync_nanos.load(Ordering::Relaxed) + c.sync_nanos,
        Ordering::Relaxed,
    );
}

/// Startup recovery for one home: read its store back, rebuild every
/// snapshotted tenant bit-identically into the shared registry, then
/// replay the job-log tail through the exact live processing path
/// (errors and panics included). Runs on the constructing thread, before
/// any worker exists, so no locks are contended.
pub(crate) fn recover_home(
    home: &Home,
    tenants: &Tenants,
    counters: &Counters,
    ctx: &WorkerCtx,
) -> Result<ShardRecoveryStats, String> {
    let mut slot = home.lock();
    let rec = slot.store.recover().map_err(|e| e.to_string())?;
    let mut stats = ShardRecoveryStats {
        torn: rec.torn,
        ..ShardRecoveryStats::default()
    };
    // each tenant's last activity: its place in the snapshot, then the
    // index of its last tail job after that
    let mut last_active: HashMap<u64, usize> = HashMap::new();
    // restored error bookkeeping feeds the aggregate counter so stats
    // stay consistent across a restart
    if let Some(snap) = rec.snapshot {
        let mut restored_errors: u64 = 0;
        for ts in &snap.tenants {
            let restored = restore_tenant(ts, ctx)?;
            restored_errors += restored.job_errors;
            tenants.insert(ts.tenant, restored);
            last_active.insert(ts.tenant, last_active.len());
            stats.tenants_recovered += 1;
        }
        counters
            .errors
            .fetch_add(restored_errors, Ordering::Relaxed);
    }
    let mut at = last_active.len();
    for group in rec.tail {
        for (tenant, record) in group.jobs {
            let job = job_from_record(record);
            run_job(tenants, counters, ctx, tenant, job, true);
            stats.jobs_replayed += 1;
            last_active.insert(tenant, at);
            at += 1;
        }
    }
    let mut recency: Vec<(usize, u64)> = last_active.into_iter().map(|(t, i)| (i, t)).collect();
    recency.sort_unstable();
    stats.recency = recency.into_iter().map(|(_, t)| t).collect();
    home.recovered_tenants
        .store(stats.tenants_recovered, Ordering::Relaxed);
    home.replayed_jobs
        .store(stats.jobs_replayed, Ordering::Relaxed);
    publish_counters(home, &*slot.store);
    Ok(stats)
}

/// Rebuild one tenant from its snapshot: restored store → engine at rest
/// with its clock at the cut → the runtime's compiled rules (installed,
/// not recompiled) → tenant trigger sources (parsed and compiled for this
/// tenant) → engine stats. Installation stamps each rule at the cut,
/// which is exactly the state the snapshotted tenant's last transaction
/// end reset it to.
pub(crate) fn restore_tenant(ts: &TenantSnapshot, ctx: &WorkerCtx) -> Result<TenantSlot, String> {
    let objects = ts.objects.clone();
    let os = ObjectStore::restore(objects, ts.next_oid)
        .map_err(|e| format!("tenant {}: {e}", ts.tenant))?;
    let mut engine =
        Engine::with_restored_store(ctx.schema.clone(), os, ts.cut, ctx.engine_cfg.clone());
    install_rules(&mut engine, &ctx.rules);
    for src in &ts.trigger_sources {
        apply_trigger_source(&mut engine, &ctx.schema, src)
            .map_err(|e| format!("tenant {}: snapshotted trigger source failed: {e}", ts.tenant))?;
    }
    engine.restore_stats(EngineStats {
        blocks: ts.stats[0],
        events: ts.stats[1],
        considerations: ts.stats[2],
        executions: ts.stats[3],
        commits: ts.stats[4],
        rollbacks: ts.stats[5],
    });
    Ok(TenantSlot {
        engine,
        job_errors: ts.job_errors,
        last_error: ts.last_error.clone(),
        jobs_applied: ts.jobs_applied,
        trigger_sources: ts.trigger_sources.clone(),
    })
}

/// Capture one tenant's state for the home snapshot or an eviction.
/// Every caller passes a tenant outside a transaction, which the engine
/// leaves at rest: no live occurrence, every rule reset at `now`. That is
/// what makes the cut, the objects and the trigger sources the whole of
/// its detection state.
fn snapshot_tenant(tenant: u64, slot: &TenantSlot) -> TenantSnapshot {
    let engine = &slot.engine;
    let eb = engine.event_base();
    let now = eb.now();
    debug_assert!(
        !engine.in_transaction()
            && eb.live_len() == 0
            && engine.rules().iter().all(|(_, st)| {
                !st.triggered
                    && !st.witness
                    && [st.last_consideration, st.last_consumption, st.checked_upto] == [now; 3]
            }),
        "tenant {tenant} snapshotted outside its rest state"
    );
    let store = engine.store();
    let stats = engine.stats();
    TenantSnapshot {
        tenant,
        jobs_applied: slot.jobs_applied,
        job_errors: slot.job_errors,
        last_error: slot.last_error.clone(),
        objects: store.snapshot_objects().into_iter().cloned().collect(),
        next_oid: store.next_oid_counter(),
        cut: eb.cut(),
        trigger_sources: slot.trigger_sources.clone(),
        stats: [
            stats.blocks,
            stats.events,
            stats.considerations,
            stats.executions,
            stats.commits,
            stats.rollbacks,
        ],
    }
}

/// Periodic compaction: when enough groups have accumulated since the
/// last snapshot *and* every tenant homed here is uncontended and
/// outside a transaction (the object-store snapshot only reflects
/// committed state — an open transaction is recovered by replaying the
/// log instead), write a home snapshot and truncate the job log. Called
/// with the store lock held and `inflight == 0`, so no other batch has
/// uncommitted records the truncation could drop; any tenant-lock
/// contention just defers to a later batch.
fn maybe_snapshot(
    slot: &mut StoreSlot,
    home: &Home,
    homes: usize,
    tenants: &Tenants,
    snapshot_every: u64,
    ctx: &WorkerCtx,
) {
    if slot.store.groups_since_snapshot() < snapshot_every {
        return;
    }
    let all = tenants.arcs();
    let mut guards = Vec::new();
    for (tenant, arc) in &all {
        if home_of(*tenant, homes) != home.index {
            continue;
        }
        let Ok(guard) = arc.try_lock() else {
            return; // a worker is mid-batch on this tenant; try later
        };
        if guard.engine.in_transaction() {
            return; // not a safe point; try again after a later batch
        }
        guards.push((*tenant, guard));
    }
    let mut snaps: Vec<TenantSnapshot> = guards
        .iter()
        .map(|(tenant, guard)| snapshot_tenant(*tenant, guard))
        .collect();
    drop(guards);
    fold_evicted(home, &mut snaps);
    snaps.sort_by_key(|t| t.tenant);
    let count = snaps.len() as u64;
    match with_retry(home, ctx, || slot.store.snapshot(&snaps)) {
        Ok(()) => {
            ctx.tel.count(ctx.worker, TelCounter::Snapshots, 1);
            ctx.tel
                .trace(home.index, TraceKind::SnapshotTaken, home.index as u64, count);
        }
        Err(e) => {
            slot.poisoned = Some(format!("shard store failed: {e}"));
            ctx.tel.count(ctx.worker, TelCounter::Poisonings, 1);
            ctx.tel
                .trace(home.index, TraceKind::HomePoisoned, home.index as u64, 0);
        }
    }
    publish_counters(home, &*slot.store);
}

/// Fold the home's parked eviction snapshots into a full-snapshot set:
/// evicted tenants are as much a part of the home's state as resident
/// ones, and since eviction writes nothing to disk, the full snapshot
/// is their only durable copy once it truncates the job log. Both
/// callers hold the home store lock across `tenants.arcs()` and this
/// fold, and eviction and rehydration publish their handovers under that
/// same lock, so every tenant homed here is guaranteed to appear in at
/// least one of the two sets — a snapshot can never silently omit a
/// tenant mid-handover. A tenant seen in both places
/// (insert-before-remove inside the handover) keeps the resident copy —
/// never older.
fn fold_evicted(home: &Home, snaps: &mut Vec<TenantSnapshot>) {
    let resident: HashSet<u64> = snaps.iter().map(|t| t.tenant).collect();
    let evicted = home.evicted_lock();
    snaps.extend(
        evicted
            .values()
            .filter(|s| !resident.contains(&s.tenant))
            .map(|s| TenantSnapshot::clone(s)),
    );
}

/// Replace a home's store with a freshly built one — the operator path
/// for recovering a poisoned home without restarting the runtime.
///
/// Requirements, all checked: no batch may be mid-flight on the store
/// (`inflight == 0`) and every tenant homed here must be uncontended and
/// outside a transaction — call `Runtime::flush` first and the
/// conditions hold trivially (a poisoned home refuses new work, so the
/// quiesced state is stable).
///
/// The replacement store's `recover()` is run to position its log, but
/// its contents are *ignored*: the live in-RAM tenants are authoritative
/// and a full home snapshot is written into the new store before it goes
/// live. Honesty note: jobs that were demoted when the old store's
/// commit failed have still executed in RAM, so after a reopen their
/// effects become durable via that snapshot — the demotion's claim was
/// "not acknowledged as durable at completion time", never "rolled
/// back".
pub(crate) fn reopen_home(
    home: &Home,
    homes: usize,
    tenants: &Tenants,
    mut store: Box<dyn StateStore>,
    tel: &Telemetry,
) -> Result<(), String> {
    let mut slot = home.lock();
    if slot.inflight != 0 {
        return Err(format!(
            "home shard {} has a batch mid-flight; flush the runtime first",
            home.index
        ));
    }
    store.recover().map_err(|e| e.to_string())?;
    let all = tenants.arcs();
    let mut guards = Vec::new();
    for (tenant, arc) in &all {
        if home_of(*tenant, homes) != home.index {
            continue;
        }
        let Ok(guard) = arc.try_lock() else {
            return Err(format!(
                "tenant {tenant} is busy on another worker; flush the runtime first"
            ));
        };
        if guard.engine.in_transaction() {
            return Err(format!(
                "tenant {tenant} has an open transaction; commit or roll it back first \
                 (only committed state can be snapshotted into the replacement store)"
            ));
        }
        guards.push((*tenant, guard));
    }
    let mut snaps: Vec<TenantSnapshot> = guards
        .iter()
        .map(|(tenant, guard)| snapshot_tenant(*tenant, guard))
        .collect();
    drop(guards);
    fold_evicted(home, &mut snaps);
    snaps.sort_by_key(|t| t.tenant);
    store.snapshot(&snaps).map_err(|e| e.to_string())?;
    // fold the retired store's totals into the carry so published
    // counters stay monotone, then swap and clear the poison
    let old = slot.store.counters();
    home.base_appends.fetch_add(old.appends, Ordering::Relaxed);
    home.base_syncs.fetch_add(old.syncs, Ordering::Relaxed);
    home.base_snapshots.fetch_add(old.snapshots, Ordering::Relaxed);
    home.base_sync_nanos.fetch_add(old.sync_nanos, Ordering::Relaxed);
    slot.store = store;
    slot.poisoned = None;
    publish_counters(home, &*slot.store);
    tel.trace(home.index, TraceKind::StoreReopened, home.index as u64, 0);
    Ok(())
}
