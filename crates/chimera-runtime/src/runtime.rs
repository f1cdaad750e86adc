//! The multi-tenant runtime: tenant→home placement, job submission with
//! backpressure, the load-aware scheduler, the flush barrier, and
//! aggregate stats.

use crate::pool::{Pool, SubmitRefused};
use crate::shard::{
    approx_slot_bytes, enforce_residency, home_of, recover_home, reopen_home, restore_tenant,
    spawn_worker, Counters, Envelope, Fabric, Home, RuleSet, Tenants, WorkerCtx, WorkerStats,
};
use crate::stats::{RuntimeStats, ShardStats};
use chimera_exec::{EngineConfig, EngineStats, Op};
use chimera_lifecycle::{LifecycleConfig, ResidencyLru};
use chimera_model::{ClassId, Oid, Schema};
use chimera_persist::{DurableStore, InMemoryStore, StateStore};
use chimera_rules::table::RuleError;
use chimera_rules::{CompiledRule, TriggerDef};
use chimera_telemetry::{Gauge, Telemetry};
use std::collections::HashSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A tenant identity. Tenants are *homed* on shards by a mixed hash of
/// the raw id (dense id ranges still spread evenly); the home owns the
/// tenant's durable state and backpressure budget, while execution may
/// move to any worker under the load-aware scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// A runtime-unique job identity, allocated by
/// [`Runtime::submit_with_reply`] and echoed in the job's [`JobReply`].
/// Ids are issued from one monotone counter across all tenants, so they
/// also order submissions runtime-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// What one completed job did to its tenant engine: the engine-counter
/// delta across the job. `events` is the occurrences the job appended to
/// the tenant's Event Base; `considerations`/`executions` summarize the
/// trigger firings the job provoked (rules considered, actions run) —
/// the per-job view a networked client cannot reconstruct from aggregate
/// stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSummary {
    /// Event occurrences the job appended.
    pub events: u64,
    /// Rules considered (conditions evaluated) while reacting to the job.
    pub considerations: u64,
    /// Rule actions executed while reacting to the job.
    pub executions: u64,
}

impl JobSummary {
    /// The engine-counter delta across one job.
    pub(crate) fn delta(before: EngineStats, after: EngineStats) -> JobSummary {
        JobSummary {
            events: after.events - before.events,
            considerations: after.considerations - before.considerations,
            executions: after.executions - before.executions,
        }
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The engine operation succeeded.
    Done(JobSummary),
    /// The engine operation failed; the message is the engine error
    /// (also recorded in the tenant's error bookkeeping).
    Error(String),
    /// The job was refused because its home shard's durable store is
    /// unavailable: the store failed an append/commit/snapshot beyond
    /// the bounded transient-retry budget and the home's durability is
    /// *poisoned*. Tenants homed on other shards are unaffected; this
    /// tenant's jobs keep being answered — with this typed refusal — so
    /// no submission ever hangs or leaks. The message is the original
    /// store error. Repair path: [`Runtime::reopen_shard_store`].
    ///
    /// A job demoted here at group-commit time *did* execute in RAM; the
    /// refusal claims only that durability was not acknowledged (the
    /// strongest claim an ambiguous fsync failure allows).
    RefusedDurability(String),
    /// The job panicked mid-flight; the tenant's engine was discarded.
    Panicked,
}

impl JobOutcome {
    /// Did the job succeed?
    pub fn is_done(&self) -> bool {
        matches!(self, JobOutcome::Done(_))
    }
}

/// A per-job completion notification, delivered through the reply slot
/// returned by [`Runtime::submit_with_reply`] once the job is retired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReply {
    /// The id [`Runtime::submit_with_reply`] returned for the job.
    pub job: JobId,
    /// The tenant the job ran for.
    pub tenant: TenantId,
    /// How the job ended.
    pub outcome: JobOutcome,
}

/// One unit of tenant work, executed on the tenant's own engine in
/// submission order. Mirrors the engine's transaction surface.
#[derive(Debug, Clone)]
pub enum Job {
    /// `Engine::begin`.
    Begin,
    /// `Engine::exec_block` — one non-interruptible transaction line.
    ExecBlock(Vec<Op>),
    /// `Engine::raise_external` — a block of external occurrences.
    RaiseExternal(Vec<(ClassId, u32, Oid)>),
    /// `Engine::commit` (drains the tenant's deferred rules first).
    Commit,
    /// `Engine::rollback`.
    Rollback,
    /// Tenant-local trigger definitions, on top of the runtime-wide set
    /// installed at engine creation, as concrete source text parsed and
    /// lowered on the shard worker. All of the job's declarations are
    /// defined or none. The source line is what the job log records and
    /// a tenant snapshot carries, and recovery and rehydration re-parse
    /// it deterministically.
    DefineTriggerSource(String),
    /// Test instrumentation: the worker waits on `entered` (proving it
    /// has claimed this job), then on `release`. Lets tests fill a
    /// queue deterministically while one worker is parked.
    #[doc(hidden)]
    Gate {
        /// The worker arrives here first.
        entered: Arc<Barrier>,
        /// ... and parks here until the test releases it.
        release: Arc<Barrier>,
    },
}

/// What to do when a tenant's home shard has `queue_capacity` jobs
/// staged already.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitter until a worker claims staged jobs (counted in
    /// [`RuntimeStats::submits_blocked`]).
    Block,
    /// Reject the job with [`RuntimeError::Shed`] (counted in
    /// [`RuntimeStats::jobs_shed`]).
    Shed,
}

/// How workers pick the next tenant to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Each worker only claims tenants homed on its own shard — the
    /// static hash placement of the pre-pool design. Nothing measures
    /// it now; it stays for strict placement (cache-affinity setups)
    /// and as one of the schedulers the equivalence suites draw. One
    /// hot (or hash-colliding) home saturates one worker while others
    /// idle.
    Pinned,
    /// Workers claim their own home's ready tenants first and *steal*
    /// whole ready tenants from other homes' deques when their own is
    /// empty. Per-tenant serial order is unaffected (a tenant is held
    /// by at most one worker); only placement changes. This is the
    /// default: a skewed tenant population keeps every worker busy.
    #[default]
    LoadAware,
}

/// Durable-storage tuning for [`StorageMode::Durable`]. A durable home
/// shard always group-commits: one fsync per claimed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory for the runtime's durable state. Each home shard
    /// gets its own subdirectory (`shard-<i>/`), plus a `meta.chi` file
    /// at the root pinning the shard count (tenant→home placement is a
    /// hash, so reopening with a different count would scatter tenants).
    pub dir: PathBuf,
    /// Write a shard snapshot and truncate the job log after this many
    /// durable groups (`0` = never compact).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Group-commit durability rooted at `dir`, compacting every 1024
    /// groups.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 1024,
        }
    }
}

/// Where tenant state lives.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// RAM only — a restart loses every tenant (the pre-durability
    /// behaviour, still the fastest and the default).
    #[default]
    InMemory,
    /// Job-log + snapshot persistence per home shard; tenants survive a
    /// crash and are rebuilt by [`Runtime::recover`].
    Durable(DurabilityConfig),
}

/// A hook applied to every home shard's store as it is built: the seam
/// fault-injection layers (`chimera-chaos`'s `ChaosStore`) use to wrap
/// stores without the runtime knowing anything about them. The function
/// receives the home-shard index and the freshly built store and returns
/// the store the shard actually uses; [`Runtime::reopen_shard_store`]
/// re-applies it to replacement stores, so a wrapped runtime stays
/// wrapped across a repair.
#[derive(Clone)]
pub struct StoreWrap(pub Arc<StoreWrapFn>);

/// The signature a [`StoreWrap`] hook implements: home-shard index plus
/// the freshly built store, returning the store the shard actually uses.
pub type StoreWrapFn = dyn Fn(usize, Box<dyn StateStore>) -> Box<dyn StateStore> + Send + Sync;

impl StoreWrap {
    /// Wrap a plain closure.
    pub fn new(
        f: impl Fn(usize, Box<dyn StateStore>) -> Box<dyn StateStore> + Send + Sync + 'static,
    ) -> StoreWrap {
        StoreWrap(Arc::new(f))
    }
}

impl fmt::Debug for StoreWrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StoreWrap(..)")
    }
}

/// Runtime construction knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker-thread count; also the home-shard count for placement,
    /// backpressure and durable storage. Clamped to at least 1.
    pub shards: usize,
    /// Bounded number of staged (admitted, unclaimed) jobs per home
    /// shard. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// How workers pick tenants: load-aware stealing (default) or
    /// strict home pinning.
    pub scheduler: Scheduler,
    /// Configuration of every tenant engine.
    pub engine: EngineConfig,
    /// Where tenant state lives (in RAM, or on disk behind the
    /// group-commit job log).
    pub storage: StorageMode,
    /// Optional wrapper applied to every home shard's store as it is
    /// built (fault injection, instrumentation). `None` — the default —
    /// uses the stores as built.
    pub store_wrap: Option<StoreWrap>,
    /// Enable the telemetry layer: per-worker stage histograms
    /// (queue-wait, append, execute, commit, reply), counters and the
    /// postmortem trace ring, all readable via [`Runtime::telemetry`].
    /// `false` — the default — keeps the hot path at its un-instrumented
    /// cost: every telemetry call is a single `None` check and the clock
    /// is never read.
    pub telemetry: bool,
    /// Tenant residency budget. The default
    /// ([`LifecycleConfig::unbounded`]) keeps every tenant engine in RAM
    /// forever — the pre-lifecycle behaviour, with the whole eviction
    /// path compiled down to one boolean check per batch. A bounded
    /// config makes workers evict the coldest idle tenants past the
    /// budget: their engines are frozen into snapshots kept in RAM by
    /// their home and dropped, then rebuilt transparently on their next
    /// claimed job; [`Runtime::recover`] also ends within it. The budget is
    /// fixed for the runtime's life — it is read once at construction
    /// (the recency LRU is only maintained while bounded), so changing
    /// it requires rebuilding the runtime; see [`LifecycleConfig`].
    pub lifecycle: LifecycleConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: 4,
            queue_capacity: 64,
            backpressure: Backpressure::Block,
            scheduler: Scheduler::LoadAware,
            engine: EngineConfig::default(),
            storage: StorageMode::InMemory,
            store_wrap: None,
            telemetry: false,
            lifecycle: LifecycleConfig::default(),
        }
    }
}

/// What [`Runtime::recover`] found on disk, aggregated over the shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tenants rebuilt from shard snapshots.
    pub tenants_recovered: u64,
    /// Logged jobs re-applied on top of the snapshots.
    pub jobs_replayed: u64,
    /// Torn job-log tails that were cut and repaired (at most one per
    /// shard; each entry describes the cut).
    pub torn_tails: Vec<String>,
}

/// Runtime-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A trigger in the runtime-wide set failed validation.
    InvalidTrigger(RuleError),
    /// The job was shed: the tenant's home shard had `queue_capacity`
    /// jobs staged under the [`Backpressure::Shed`] policy.
    Shed {
        /// Tenant whose job was rejected.
        tenant: TenantId,
    },
    /// The worker threads are gone (the runtime is shut down, or a
    /// worker thread was killed).
    WorkerGone,
    /// The durable storage layer failed (open, recovery, or a
    /// shard-count mismatch against the directory's meta file).
    Persist(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidTrigger(e) => write!(f, "invalid runtime trigger: {e}"),
            RuntimeError::Shed { tenant } => {
                write!(f, "job for tenant {} shed: shard queue full", tenant.0)
            }
            RuntimeError::WorkerGone => write!(f, "shard worker thread is gone"),
            RuntimeError::Persist(msg) => write!(f, "durable storage error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The sharded multi-tenant runtime. See the crate docs for the
/// architecture; in short: `submit` stages a tenant's job in the
/// admission pool against the tenant's home shard, workers claim ready
/// tenants (stealing across homes under [`Scheduler::LoadAware`]) and
/// run their batches, `flush` waits for every staged job to retire, and
/// `stats` aggregates.
///
/// The handle is `Sync`: feeder threads submit through a shared
/// reference (see `examples/concurrent_feeds.rs`).
pub struct Runtime {
    fabric: Fabric,
    handles: Vec<Option<JoinHandle<()>>>,
    config: RuntimeConfig,
    next_job: AtomicU64,
}

impl Runtime {
    /// Build a runtime over `schema`. `triggers` is validated and
    /// compiled once, here; every tenant engine — created on the
    /// tenant's first job, rehydrated, or recovered — installs that same
    /// compiled set and owns only its rule stamps and plan scratchpads.
    ///
    /// With [`StorageMode::Durable`] this *is* recovery: any tenants
    /// already on disk are rebuilt before the first job is served (use
    /// [`Runtime::recover`] to also see what was found).
    pub fn new(
        schema: Schema,
        triggers: Vec<TriggerDef>,
        config: RuntimeConfig,
    ) -> Result<Runtime, RuntimeError> {
        Runtime::recover(schema, triggers, config).map(|(rt, _)| rt)
    }

    /// Build a runtime and report what its storage layer recovered:
    /// tenants rebuilt from snapshots, logged jobs replayed on top, and
    /// any torn log tail that was cut. In-memory runtimes recover
    /// nothing and report an empty [`RecoveryReport`]. Under a bounded
    /// [`RuntimeConfig::lifecycle`] the least recently active recovered
    /// tenants are evicted down to the budget before any worker starts.
    pub fn recover(
        schema: Schema,
        triggers: Vec<TriggerDef>,
        config: RuntimeConfig,
    ) -> Result<(Runtime, RecoveryReport), RuntimeError> {
        let rules = compile_rules(triggers).map_err(RuntimeError::InvalidTrigger)?;
        let shard_count = config.shards.max(1);
        let capacity = config.queue_capacity.max(1);

        let mut homes = Vec::with_capacity(shard_count);
        let mut snapshot_every = 0;
        for i in 0..shard_count {
            let (store, snap_every) =
                make_store(&config.storage, config.store_wrap.as_ref(), shard_count, i)?;
            snapshot_every = snap_every;
            homes.push(Home::new(i, store));
        }

        // recovery runs here, on the constructing thread, home by home —
        // the registry is fully rebuilt before any worker exists
        let tenants = Arc::new(Tenants::new());
        let counters = Arc::new(Counters::default());
        // recovery is deliberately unmeasured (Telemetry::off): its jobs
        // replay before any worker or client exists, so folding them into
        // the live stage histograms would only skew the first snapshot
        let recovery_ctx = WorkerCtx::new(
            schema.clone(),
            Arc::clone(&rules),
            config.engine.clone(),
            Telemetry::off(),
            0,
        );
        let mut report = RecoveryReport::default();
        // (distance from its home's most recently active tenant, tenant)
        let mut recency: Vec<(usize, u64)> = Vec::new();
        for home in &homes {
            let stats = recover_home(home, &tenants, &counters, &recovery_ctx)
                .map_err(RuntimeError::Persist)?;
            report.tenants_recovered += stats.tenants_recovered;
            report.jobs_replayed += stats.jobs_replayed;
            if let Some(torn) = stats.torn {
                report.torn_tails.push(format!("shard {}: {torn}", home.index));
            }
            let n = stats.recency.len();
            recency.extend(
                stats
                    .recency
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| (n - i, t)),
            );
        }
        // least recently active first, homes interleaved by rank
        recency.sort_by_key(|&(rank, _)| std::cmp::Reverse(rank));

        let fabric = Fabric {
            pool: Arc::new(Pool::new(shard_count, capacity, config.scheduler)),
            tenants,
            homes: Arc::new(homes),
            counters,
            workers: Arc::new((0..shard_count).map(|_| WorkerStats::default()).collect()),
            schema,
            rules,
            engine_cfg: config.engine.clone(),
            snapshot_every,
            telemetry: if config.telemetry {
                Telemetry::new(shard_count)
            } else {
                Telemetry::off()
            },
            lifecycle: config.lifecycle,
            lru: Arc::new(Mutex::new(ResidencyLru::new())),
        };
        // recovery ran before the LRU existed: seed it from the rebuilt
        // registry in each tenant's order of last activity, then evict
        // the coldest down to the budget through the workers' own path
        // (still unmeasured), so the runtime starts within it
        if fabric.lifecycle.is_bounded() {
            {
                let mut lru = fabric.lru.lock().unwrap_or_else(PoisonError::into_inner);
                for (_, tenant) in recency {
                    if let Some(arc) = fabric.tenants.get(tenant) {
                        let slot = arc.lock().unwrap_or_else(PoisonError::into_inner);
                        lru.touch(
                            tenant,
                            home_of(tenant, shard_count),
                            approx_slot_bytes(&slot),
                        );
                    }
                }
            }
            enforce_residency(&fabric, &recovery_ctx);
        }
        fabric
            .telemetry
            .gauge_add(Gauge::TenantsResident, fabric.tenants.len() as i64);
        let handles = (0..shard_count)
            .map(|i| Some(spawn_worker(i, fabric.clone())))
            .collect();
        Ok((
            Runtime {
                fabric,
                handles,
                config,
                next_job: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// The storage mode the runtime was built with.
    pub fn storage(&self) -> &StorageMode {
        &self.config.storage
    }

    /// The runtime's telemetry handle: stage histograms, counters,
    /// gauges and the postmortem trace ring. With
    /// [`RuntimeConfig::telemetry`] off this is the no-op
    /// [`Telemetry::off`] handle — `snapshot()` returns a disabled
    /// [`chimera_telemetry::MetricsSnapshot`] and `recent()` is empty.
    /// The net layer shares this same handle, so one snapshot covers
    /// runtime *and* server-side series.
    pub fn telemetry(&self) -> &Telemetry {
        &self.fabric.telemetry
    }

    /// Number of shards (worker threads / home shards).
    pub fn shard_count(&self) -> usize {
        self.fabric.homes.len()
    }

    /// The schema every tenant engine is built over.
    pub fn schema(&self) -> &Schema {
        &self.fabric.schema
    }

    /// The *home* shard of a tenant (stable for the runtime's life): the
    /// owner of its durable state and backpressure budget. Under
    /// [`Scheduler::LoadAware`] execution may happen on any worker;
    /// under [`Scheduler::Pinned`] the home's worker is also the only
    /// executor.
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        home_of(tenant.0, self.fabric.homes.len())
    }

    /// Submit one job for a tenant. Stages it in the admission pool
    /// (preserving per-tenant FIFO order); a home shard at capacity
    /// blocks or sheds per the configured [`Backpressure`].
    /// Fire-and-forget: outcomes surface only through the per-tenant
    /// error bookkeeping and the aggregate stats — use
    /// [`Runtime::submit_with_reply`] for a per-job completion.
    pub fn submit(&self, tenant: TenantId, job: Job) -> Result<(), RuntimeError> {
        self.submit_inner(tenant, job, None)
    }

    /// Submit one job and get a per-job completion path back: a
    /// [`JobId`] plus a capacity-1 reply slot on which the claiming
    /// worker delivers exactly one [`JobReply`] — success with the job's
    /// engine-counter summary, the engine error message, or a panic
    /// notice — once the job is retired. Blocking on the receiver
    /// observes the job's completion *without* the flush-and-poll dance;
    /// dropping the receiver turns the job back into fire-and-forget.
    ///
    /// A shed or worker-gone submission fails here, at submit time, and
    /// no reply is ever delivered for it.
    pub fn submit_with_reply(
        &self,
        tenant: TenantId,
        job: Job,
    ) -> Result<(JobId, Receiver<JobReply>), RuntimeError> {
        let id = JobId(self.next_job.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = sync_channel(1);
        self.submit_inner(tenant, job, Some((id, tx)))?;
        Ok((id, rx))
    }

    fn submit_inner(
        &self,
        tenant: TenantId,
        job: Job,
        reply: Option<(JobId, SyncSender<JobReply>)>,
    ) -> Result<(), RuntimeError> {
        let home = self.shard_of(tenant);
        let env = Envelope {
            tenant,
            job,
            reply,
            queued_at: self.fabric.telemetry.start(),
        };
        match self
            .fabric
            .pool
            .submit(home, tenant.0, env, self.config.backpressure)
        {
            Ok(()) => Ok(()),
            Err(SubmitRefused::Shed) => Err(RuntimeError::Shed { tenant }),
            Err(SubmitRefused::Closed) => Err(RuntimeError::WorkerGone),
        }
    }

    /// Convenience: `submit(tenant, Job::Begin)`.
    pub fn begin(&self, tenant: TenantId) -> Result<(), RuntimeError> {
        self.submit(tenant, Job::Begin)
    }
    /// Convenience: `submit(tenant, Job::ExecBlock(ops))`.
    pub fn exec_block(&self, tenant: TenantId, ops: Vec<Op>) -> Result<(), RuntimeError> {
        self.submit(tenant, Job::ExecBlock(ops))
    }
    /// Convenience: `submit(tenant, Job::RaiseExternal(events))`.
    pub fn raise_external(
        &self,
        tenant: TenantId,
        events: Vec<(ClassId, u32, Oid)>,
    ) -> Result<(), RuntimeError> {
        self.submit(tenant, Job::RaiseExternal(events))
    }
    /// Convenience: `submit(tenant, Job::Commit)`.
    pub fn commit(&self, tenant: TenantId) -> Result<(), RuntimeError> {
        self.submit(tenant, Job::Commit)
    }
    /// Convenience: `submit(tenant, Job::Rollback)`.
    pub fn rollback(&self, tenant: TenantId) -> Result<(), RuntimeError> {
        self.submit(tenant, Job::Rollback)
    }
    /// Convenience: `submit(tenant, Job::DefineTriggerSource(src))`.
    pub fn define_trigger_source(
        &self,
        tenant: TenantId,
        src: impl Into<String>,
    ) -> Result<(), RuntimeError> {
        self.submit(tenant, Job::DefineTriggerSource(src.into()))
    }

    /// The flush barrier: wait until every job accepted so far has been
    /// processed. A job counts as processed just before its reply is
    /// sent, so a caller that needs a reply waits on its receiver.
    /// Errors with [`RuntimeError::WorkerGone`] if a worker thread died
    /// with jobs still staged.
    pub fn flush(&self) -> Result<(), RuntimeError> {
        let gone = || {
            self.handles
                .iter()
                .any(|h| h.as_ref().is_none_or(|w| w.is_finished()))
        };
        self.fabric
            .pool
            .flush(gone)
            .map_err(|()| RuntimeError::WorkerGone)
    }

    /// Run `f` over a tenant's engine. Returns `None` for a tenant that
    /// has never submitted a job (no engine exists). Takes the tenant's
    /// slot lock, so it serializes against the workers between jobs —
    /// call [`Runtime::flush`] first for a quiesced view.
    ///
    /// An *evicted* tenant is inspectable too: `f` runs over a throwaway
    /// engine rebuilt from the tenant's parked snapshot — a read-only
    /// peek that does **not** rehydrate (only a claimed job does).
    pub fn with_tenant<R>(
        &self,
        tenant: TenantId,
        f: impl FnOnce(&chimera_exec::Engine) -> R,
    ) -> Option<R> {
        if let Some(slot) = self.fabric.tenants.get(tenant.0) {
            let slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            return Some(f(&slot.engine));
        }
        let home = &self.fabric.homes[self.shard_of(tenant)];
        let snap = home.evicted_lock().get(&tenant.0).cloned()?;
        let ctx = WorkerCtx::new(
            self.fabric.schema.clone(),
            Arc::clone(&self.fabric.rules),
            self.config.engine.clone(),
            Telemetry::off(),
            0,
        );
        let slot = restore_tenant(&snap, &ctx).ok()?;
        Some(f(&slot.engine))
    }

    /// A tenant's job-error bookkeeping: `(errors, last error message)`.
    /// `None` for tenants without an engine. Works on evicted tenants
    /// (read from the parked snapshot).
    pub fn tenant_errors(&self, tenant: TenantId) -> Option<(u64, Option<String>)> {
        if let Some(slot) = self.fabric.tenants.get(tenant.0) {
            let slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            return Some((slot.job_errors, slot.last_error.clone()));
        }
        let home = &self.fabric.homes[self.shard_of(tenant)];
        let evicted = home.evicted_lock();
        let snap = evicted.get(&tenant.0)?;
        Some((snap.job_errors, snap.last_error.clone()))
    }

    /// Operator repair path for a *poisoned* home shard: build a
    /// replacement store for `shard` (same [`StorageMode`], same
    /// directory, [`StoreWrap`] re-applied), snapshot every live tenant
    /// homed there into it, swap it in and clear the poison — without
    /// restarting the runtime or touching any other shard. Also works on
    /// a healthy home (the swap is then just a forced compaction).
    ///
    /// Call [`Runtime::flush`] first: the home must have no batch
    /// mid-flight and every homed tenant must be uncontended and outside
    /// a transaction, otherwise this returns an error and changes
    /// nothing. The live in-RAM tenants are authoritative — jobs that
    /// were answered with [`JobOutcome::RefusedDurability`] when the old
    /// store died have still executed, so the reopen makes their effects
    /// durable via the fresh snapshot (the refusal only ever claimed
    /// "not acknowledged as durable at completion time").
    pub fn reopen_shard_store(&self, shard: usize) -> Result<(), RuntimeError> {
        let homes = self.fabric.homes.len();
        let home = self
            .fabric
            .homes
            .get(shard)
            .ok_or_else(|| RuntimeError::Persist(format!("no such shard: {shard}")))?;
        let (store, _) = make_store(
            &self.config.storage,
            self.config.store_wrap.as_ref(),
            homes,
            shard,
        )?;
        reopen_home(
            home,
            homes,
            &self.fabric.tenants,
            store,
            &self.fabric.telemetry,
        )
        .map_err(RuntimeError::Persist)
    }

    /// Aggregate counters over every shard, worker and tenant engine,
    /// including the per-home-shard breakdown
    /// ([`RuntimeStats::per_shard`]) that makes skew visible. Exact
    /// after a [`Runtime::flush`]; a live snapshot otherwise.
    pub fn stats(&self) -> RuntimeStats {
        let f = &self.fabric;
        let homes = f.homes.len();
        let p = f.pool.progress();
        let mut out = RuntimeStats {
            shards: homes,
            ..RuntimeStats::default()
        };
        let mut per_shard: Vec<ShardStats> = (0..homes)
            .map(|i| ShardStats {
                jobs_submitted: p.submitted[i],
                jobs_executed: f.workers[i].executed.load(Ordering::Relaxed),
                steals: f.workers[i].steals.load(Ordering::Relaxed),
                jobs_shed: f.pool.shed[i].load(Ordering::Relaxed),
                submits_blocked: f.pool.blocked[i].load(Ordering::Relaxed),
                queue_depth: p.staged[i],
                tenants: 0,
                store_retries: 0,
                poisoned: false,
            })
            .collect();
        for (i, s) in per_shard.iter().enumerate() {
            out.jobs_submitted += s.jobs_submitted;
            out.jobs_processed += p.processed[i];
            out.jobs_shed += s.jobs_shed;
            out.submits_blocked += s.submits_blocked;
            out.steals += s.steals;
            out.ready_queue_depth += s.queue_depth;
        }
        out.job_errors = f.counters.errors.load(Ordering::Relaxed);
        out.job_panics = f.counters.panics.load(Ordering::Relaxed);
        // The homes' evicted snapshots and the resident handles are read
        // under every store lock at once (taken in home order; no other
        // path holds two). Eviction and rehydration hold their home's
        // lock across the handover, so a tenant moving between the two is
        // counted exactly once, and the resident set is one instant's —
        // read home by home, an eviction on one home and a fresh tenant
        // on the next could both be counted. Slots are locked only after
        // the store locks are released: a job holding its slot must not
        // stall the homes' appends behind this read.
        let stores: Vec<_> = f.homes.iter().map(|home| home.lock()).collect();
        for (i, (home, store)) in f.homes.iter().zip(&stores).enumerate() {
            out.wal_appends += home.wal_appends.load(Ordering::Relaxed);
            out.wal_syncs += home.wal_syncs.load(Ordering::Relaxed);
            out.wal_sync_nanos += home.wal_sync_nanos.load(Ordering::Relaxed);
            out.snapshots += home.snapshots.load(Ordering::Relaxed);
            out.tenants_recovered += home.recovered_tenants.load(Ordering::Relaxed);
            out.jobs_replayed += home.replayed_jobs.load(Ordering::Relaxed);
            out.evictions += home.evictions.load(Ordering::Relaxed);
            out.rehydrations += home.rehydrations.load(Ordering::Relaxed);
            let retries = home.store_retries.load(Ordering::Relaxed);
            out.store_retries += retries;
            per_shard[i].store_retries = retries;
            if store.poisoned.is_some() {
                out.shards_poisoned += 1;
                per_shard[i].poisoned = true;
            }
            // evicted tenants still belong to the aggregate: their engine
            // counters live in the parked snapshot
            for snap in home.evicted_lock().values() {
                per_shard[i].tenants += 1;
                out.tenants += 1;
                out.add_engine(EngineStats {
                    blocks: snap.stats[0],
                    events: snap.stats[1],
                    considerations: snap.stats[2],
                    executions: snap.stats[3],
                    commits: snap.stats[4],
                    rollbacks: snap.stats[5],
                });
            }
        }
        let resident = f.tenants.arcs();
        drop(stores);
        for (tenant, slot) in resident {
            per_shard[home_of(tenant, homes)].tenants += 1;
            out.tenants += 1;
            out.tenants_resident += 1;
            let slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            out.add_engine(slot.engine.stats());
            out.add_support(slot.engine.support_stats());
        }
        out.per_shard = per_shard;
        out
    }

    /// Graceful shutdown: close the admission pool, let the workers
    /// drain every staged job (cross-home claims are allowed during the
    /// drain regardless of scheduler mode, so nothing strands behind an
    /// exiting worker), join them, and return the final (exact) stats.
    /// No accepted job is silently dropped — every job runs and every
    /// requested [`JobReply`] is delivered before this returns. Only if
    /// a worker thread is already *gone* (it was killed out from under
    /// the runtime) are leftover jobs discarded, and those are accounted
    /// under [`RuntimeStats::jobs_shed`].
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop_workers();
        self.stats()
    }

    /// Close the pool, join the workers, and reconcile the accounting.
    /// Deterministic: after this returns every home's `processed` equals
    /// its `submitted`, with any shortfall (jobs abandoned because every
    /// worker died) moved into the shed counter.
    fn stop_workers(&mut self) {
        self.fabric.pool.close();
        for handle in &mut self.handles {
            if let Some(worker) = handle.take() {
                let _ = worker.join();
            }
        }
        self.fabric.pool.reconcile();
    }
}

/// Compile the runtime's trigger set, once: each definition is validated
/// and compiled here, and names must be unique, so installing the set
/// on a tenant engine cannot fail later.
fn compile_rules(triggers: Vec<TriggerDef>) -> Result<RuleSet, RuleError> {
    let mut names = HashSet::new();
    triggers
        .into_iter()
        .map(|def| {
            if !names.insert(def.name.clone()) {
                return Err(RuleError::DuplicateRule(def.name));
            }
            CompiledRule::compile(def)
        })
        .collect()
}

/// Build one home shard's store for the configured mode, applying the
/// configured [`StoreWrap`] (if any). Returns the store plus the
/// `snapshot_every` compaction threshold.
fn make_store(
    storage: &StorageMode,
    wrap: Option<&StoreWrap>,
    shards: usize,
    index: usize,
) -> Result<(Box<dyn StateStore>, u64), RuntimeError> {
    let (store, snap_every): (Box<dyn StateStore>, u64) = match storage {
        StorageMode::InMemory => (Box::new(InMemoryStore), 0),
        StorageMode::Durable(cfg) => {
            if index == 0 {
                check_meta(&cfg.dir, shards)?;
            }
            let store = DurableStore::open(&cfg.dir.join(format!("shard-{index}")))
                .map_err(|e| RuntimeError::Persist(e.to_string()))?;
            (Box::new(store), cfg.snapshot_every)
        }
    };
    let store = match wrap {
        Some(w) => (w.0)(index, store),
        None => store,
    };
    Ok((store, snap_every))
}

/// Pin the shard count in the durable directory's meta file. Placement
/// is `hash(tenant) % shards`, so reopening a directory with a different
/// count would route tenants to homes that never logged them — refuse
/// loudly instead (re-sharding a durable directory is future work).
fn check_meta(dir: &std::path::Path, shards: usize) -> Result<(), RuntimeError> {
    let io = |e: std::io::Error| RuntimeError::Persist(format!("meta file: {e}"));
    std::fs::create_dir_all(dir).map_err(io)?;
    let meta = dir.join("meta.chi");
    match std::fs::read_to_string(&meta) {
        Ok(text) => {
            let recorded = text
                .trim()
                .strip_prefix("shards ")
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| {
                    RuntimeError::Persist(format!("unreadable meta file {}", meta.display()))
                })?;
            if recorded != shards {
                return Err(RuntimeError::Persist(format!(
                    "directory {} was created with {recorded} shards but the runtime is \
                     configured with {shards}; tenant placement would not match",
                    dir.display()
                )));
            }
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => write_meta(&meta, shards),
        Err(e) => Err(io(e)),
    }
}

/// Create `meta.chi` durably before any shard store opens: temp file,
/// fsync, rename, then fsync the directory, and the directory's own
/// entry (it may just have been created). A lost file would be
/// re-created with whatever count the next open passes, and an empty one
/// would fail recovery, while the shard logs beside it survive.
fn write_meta(meta: &std::path::Path, shards: usize) -> Result<(), RuntimeError> {
    use std::io::Write;
    let io = |e: std::io::Error| RuntimeError::Persist(format!("meta file: {e}"));
    let tmp = meta.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(format!("shards {shards}\n").as_bytes()).map_err(io)?;
    f.sync_all().map_err(io)?;
    std::fs::rename(&tmp, meta).map_err(io)?;
    let dir = meta.parent().expect("meta.chi lives in the durable directory");
    chimera_persist::sync_parent(meta)
        .and_then(|()| chimera_persist::sync_parent(dir))
        .map_err(|e| RuntimeError::Persist(format!("meta file: {e}")))
}

impl Drop for Runtime {
    /// Dropping the runtime is a graceful shutdown too: the pool is
    /// drained and workers joined (see [`Runtime::shutdown`]), so a
    /// runtime going out of scope never silently drops accepted jobs.
    fn drop(&mut self) {
        self.stop_workers();
    }
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("shards", &self.fabric.homes.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_calculus::EventExpr;
    use chimera_events::{EventType, Timestamp};
    use chimera_model::{AttrDef, AttrType, SchemaBuilder, Value};

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.class(
            "stock",
            None,
            vec![
                AttrDef::new("quantity", AttrType::Integer),
                AttrDef::with_default("max_quantity", AttrType::Integer, Value::Int(100)),
            ],
        )
        .unwrap();
        b.build()
    }

    fn tick_trigger(schema: &Schema) -> TriggerDef {
        let stock = schema.class_by_name("stock").unwrap();
        let mut def = TriggerDef::new(
            "onTick",
            EventExpr::prim(EventType::external(stock, 1)),
        );
        def.actions = vec![chimera_rules::ActionStmt::Create {
            class: "stock".into(),
            inits: vec![],
        }];
        def
    }

    fn cfg(shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            queue_capacity: 8,
            backpressure: Backpressure::Block,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn tenants_are_isolated_and_jobs_ordered() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(s, vec![tick_trigger(&schema())], cfg(3)).unwrap();
        for t in 0..16u64 {
            rt.begin(TenantId(t)).unwrap();
            for _ in 0..=(t % 4) {
                rt.raise_external(TenantId(t), vec![(stock, 1, Oid(0))]).unwrap();
            }
            rt.commit(TenantId(t)).unwrap();
        }
        rt.flush().unwrap();
        for t in 0..16u64 {
            let extent = rt
                .with_tenant(TenantId(t), |e| e.extent(stock).len())
                .unwrap();
            // one object per external tick, per tenant — no cross-talk
            assert_eq!(extent, (t % 4) as usize + 1, "tenant {t}");
            assert_eq!(rt.tenant_errors(TenantId(t)), Some((0, None)));
        }
        let stats = rt.stats();
        assert_eq!(stats.tenants, 16);
        assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        assert_eq!(stats.engine.commits, 16);
        assert_eq!(stats.jobs_shed + stats.job_errors + stats.job_panics, 0);
    }

    #[test]
    fn a_received_reply_is_already_counted_as_processed() {
        // no flush: the reply alone must make `stats()` count the job
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(s, vec![], cfg(2)).unwrap();
        for round in 0..500u64 {
            let job = match round % 3 {
                0 => Job::Begin,
                1 => Job::RaiseExternal(vec![(stock, 1, Oid(0))]),
                _ => Job::Commit,
            };
            let (_, rx) = rt.submit_with_reply(TenantId(0), job).unwrap();
            assert!(rx.recv().unwrap().outcome.is_done());
            let stats = rt.stats();
            assert_eq!(stats.jobs_processed, stats.jobs_submitted, "round {round}");
        }
    }

    #[test]
    fn shed_policy_rejects_when_queue_full() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let capacity = 3;
        let rt = Runtime::new(
            s,
            vec![],
            RuntimeConfig {
                shards: 1,
                queue_capacity: capacity,
                backpressure: Backpressure::Shed,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let tenant = TenantId(7);
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        rt.submit(
            tenant,
            Job::Gate {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            },
        )
        .unwrap();
        // the worker is now provably parked inside the gate job and
        // nothing is staged: the next `capacity` submissions fill the
        // home shard...
        entered.wait();
        rt.begin(tenant).unwrap();
        for _ in 0..capacity - 1 {
            rt.raise_external(tenant, vec![(stock, 1, Oid(0))]).unwrap();
        }
        // ...and the one after that is shed
        assert_eq!(
            rt.commit(tenant),
            Err(RuntimeError::Shed { tenant })
        );
        release.wait();
        rt.flush().unwrap();
        let stats = rt.stats();
        assert_eq!(stats.jobs_shed, 1);
        assert_eq!(stats.jobs_processed, 1 + capacity as u64);
        assert_eq!(stats.submits_blocked, 0);
    }

    #[test]
    fn block_policy_waits_out_a_full_queue() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(
            s,
            vec![],
            RuntimeConfig {
                shards: 1,
                queue_capacity: 1,
                backpressure: Backpressure::Block,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let tenant = TenantId(1);
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        rt.submit(
            tenant,
            Job::Gate {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            },
        )
        .unwrap();
        entered.wait();
        rt.begin(tenant).unwrap(); // fills the 1-slot budget
        std::thread::scope(|scope| {
            let rt = &rt;
            let feeder = scope.spawn(move || {
                // budget full, worker parked: this submission must block
                // until the gate opens, then drain normally
                rt.raise_external(tenant, vec![(stock, 1, Oid(0))]).unwrap();
                rt.commit(tenant).unwrap();
            });
            // the worker is parked and the home is at capacity, so the
            // feeder *will* hit the blocked path — wait until it provably
            // has before opening the gate (counted before the wait)
            while rt.stats().submits_blocked == 0 {
                std::thread::yield_now();
            }
            release.wait();
            feeder.join().unwrap();
        });
        rt.flush().unwrap();
        let stats = rt.stats();
        assert!(stats.submits_blocked >= 1, "blocked {}", stats.submits_blocked);
        assert_eq!(stats.jobs_shed, 0);
        assert_eq!(stats.engine.commits, 1);
        assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    }

    #[test]
    fn job_errors_are_recorded_not_fatal() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(s, vec![], cfg(2)).unwrap();
        let tenant = TenantId(3);
        // commit without a transaction: an engine error, not a crash
        rt.commit(tenant).unwrap();
        rt.begin(tenant).unwrap();
        rt.raise_external(tenant, vec![(stock, 1, Oid(0))]).unwrap();
        rt.commit(tenant).unwrap();
        rt.flush().unwrap();
        let (errors, last) = rt.tenant_errors(tenant).unwrap();
        assert_eq!(errors, 1);
        assert!(last.unwrap().contains("no active transaction"));
        let stats = rt.stats();
        assert_eq!(stats.job_errors, 1);
        assert_eq!(stats.engine.commits, 1);
    }

    #[test]
    fn invalid_runtime_trigger_rejected_at_construction() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let a = EventExpr::prim(EventType::external(stock, 0));
        let b = EventExpr::prim(EventType::external(stock, 1));
        let c = EventExpr::prim(EventType::external(stock, 2));
        // set operators inside an instance operator: ill-formed (§3.2)
        let bad = TriggerDef::new("bad", a.and(b).iand(c));
        match Runtime::new(s, vec![bad], cfg(1)) {
            Err(RuntimeError::InvalidTrigger(_)) => {}
            other => panic!("expected InvalidTrigger, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_returns_final_stats() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(s, vec![], cfg(2)).unwrap();
        for t in 0..4u64 {
            rt.begin(TenantId(t)).unwrap();
            rt.exec_block(
                TenantId(t),
                vec![Op::Create {
                    class: stock,
                    inits: vec![],
                }],
            )
            .unwrap();
            rt.commit(TenantId(t)).unwrap();
        }
        let stats = rt.shutdown();
        assert_eq!(stats.tenants, 4);
        assert_eq!(stats.engine.commits, 4);
        assert_eq!(stats.engine.blocks, 4);
        assert_eq!(stats.jobs_processed, 12);
    }

    #[test]
    fn replies_carry_summaries_and_errors_without_flush() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(s, vec![tick_trigger(&schema())], cfg(2)).unwrap();
        let t = TenantId(9);
        // an engine error answered as an Error outcome, not a counter
        let (id0, rx0) = rt.submit_with_reply(t, Job::Commit).unwrap();
        let reply = rx0.recv().unwrap();
        assert_eq!(reply.job, id0);
        assert_eq!(reply.tenant, t);
        match &reply.outcome {
            JobOutcome::Error(msg) => assert!(msg.contains("no active transaction")),
            other => panic!("expected Error, got {other:?}"),
        }
        rt.begin(t).unwrap();
        // the tick trigger fires: 2 external events + 1 create from the
        // rule action, one consideration, one execution — all in the
        // job's own summary, observed with no flush anywhere
        let (_, rx1) = rt
            .submit_with_reply(t, Job::RaiseExternal(vec![(stock, 1, Oid(0)), (stock, 1, Oid(1))]))
            .unwrap();
        match rx1.recv().unwrap().outcome {
            JobOutcome::Done(sum) => {
                assert_eq!(sum.events, 3);
                assert_eq!(sum.considerations, 1);
                assert_eq!(sum.executions, 1);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        let (_, rx2) = rt.submit_with_reply(t, Job::Commit).unwrap();
        assert!(rx2.recv().unwrap().outcome.is_done());
        // ids are monotone across the runtime
        let (id3, rx3) = rt.submit_with_reply(TenantId(2), Job::Begin).unwrap();
        assert!(id3 > id0);
        assert!(rx3.recv().unwrap().outcome.is_done());
    }

    #[test]
    fn drop_and_shutdown_drain_queued_jobs() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(s, vec![], cfg(1)).unwrap();
        let t = TenantId(4);
        let mut rxs = Vec::new();
        let (_, rx) = rt.submit_with_reply(t, Job::Begin).unwrap();
        rxs.push(rx);
        for _ in 0..6 {
            let (_, rx) = rt
                .submit_with_reply(t, Job::RaiseExternal(vec![(stock, 1, Oid(0))]))
                .unwrap();
            rxs.push(rx);
        }
        let (_, rx) = rt.submit_with_reply(t, Job::Commit).unwrap();
        rxs.push(rx);
        // no flush: drop the runtime with jobs plausibly still staged.
        // The drop must drain and join, so every reply is already there.
        drop(rt);
        for (i, rx) in rxs.into_iter().enumerate() {
            let reply = rx.try_recv().unwrap_or_else(|_| panic!("job {i} dropped"));
            assert!(reply.outcome.is_done(), "job {i}: {:?}", reply.outcome);
        }

        // and shutdown() reports exact, fully-drained accounting
        let rt = Runtime::new(schema(), vec![], cfg(2)).unwrap();
        for t in 0..8u64 {
            rt.begin(TenantId(t)).unwrap();
            rt.raise_external(TenantId(t), vec![(stock, 1, Oid(0))]).unwrap();
            rt.commit(TenantId(t)).unwrap();
        }
        let stats = rt.shutdown();
        assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        assert_eq!(stats.jobs_submitted, 24);
        assert_eq!(stats.jobs_shed, 0);
    }

    #[test]
    fn tenants_spread_across_shards() {
        let rt = Runtime::new(schema(), vec![], cfg(4)).unwrap();
        let mut seen = [false; 4];
        for t in 0..64u64 {
            seen[rt.shard_of(TenantId(t))] = true;
        }
        assert!(seen.iter().all(|&s| s), "dense ids hit every shard");
    }

    #[test]
    fn fifo_holds_under_forced_stealing() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(
            s,
            vec![],
            RuntimeConfig {
                shards: 2,
                queue_capacity: 64,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        // two distinct tenants homed on the same shard
        let mut homed = (0u64..).map(TenantId).filter(|t| rt.shard_of(*t) == 0);
        let parked = homed.next().unwrap();
        let busy = homed.next().unwrap();
        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        rt.submit(
            parked,
            Job::Gate {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            },
        )
        .unwrap();
        // one worker is provably parked on `parked`'s claim; `busy` is
        // homed on the same shard, so the *other* worker must claim it —
        // whichever worker holds the gate, one of the two claims crossed
        // shards (a steal)
        entered.wait();
        let jobs = 50u64;
        rt.begin(busy).unwrap();
        for i in 0..jobs {
            rt.raise_external(busy, vec![(stock, 1, Oid(i))]).unwrap();
        }
        // no commit: the read below needs the open transaction's Event
        // Base. `busy` drains while the gate is still parked (can't
        // flush: the gate job itself is unfinished)
        while rt.stats().jobs_processed < jobs + 1 {
            std::thread::yield_now();
        }
        release.wait();
        rt.flush().unwrap();
        let stats = rt.stats();
        assert!(stats.steals >= 1, "one of the claims crossed shards");
        assert_eq!(rt.tenant_errors(busy), Some((0, None)));
        // the event log records exactly the submission order: per-tenant
        // FIFO held even though the tenant ran on a stolen claim
        let oids = rt
            .with_tenant(busy, |e| {
                e.event_base().iter().map(|o| o.oid).collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(oids, (0..jobs).map(Oid).collect::<Vec<_>>());
    }

    #[test]
    fn stats_count_every_tenant_while_evictions_churn() {
        const TENANTS: u64 = 512;
        let rt = Runtime::new(
            schema(),
            vec![],
            RuntimeConfig {
                lifecycle: LifecycleConfig::with_max_resident(2),
                ..cfg(2)
            },
        )
        .unwrap();
        // every claim past the first round rehydrates its tenant and
        // evicts another; the evictions run after the reply, so they race
        // the samples below, and hundreds of parked tenants keep each
        // sample's read of the evicted maps long enough to be hit
        for i in 0..3 * TENANTS {
            let t = TenantId(i % TENANTS);
            rt.begin(t).unwrap();
            let (_, rx) = rt.submit_with_reply(t, Job::Commit).unwrap();
            assert!(rx.recv().unwrap().outcome.is_done());
            let touched = (i + 1).min(TENANTS) as usize;
            for _ in 0..4 {
                let stats = rt.stats();
                assert_eq!(stats.tenants, touched, "job {i}: a tenant was missed or doubled");
                let per_shard: u64 = stats.per_shard.iter().map(|s| s.tenants).sum();
                assert_eq!(per_shard, touched as u64, "job {i}: per-shard tenants");
            }
        }
        assert!(rt.stats().evictions > 0 && rt.stats().rehydrations > 0);
    }

    #[test]
    fn pinned_scheduler_never_steals() {
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let rt = Runtime::new(
            s,
            vec![],
            RuntimeConfig {
                shards: 4,
                scheduler: Scheduler::Pinned,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        for t in 0..32u64 {
            rt.begin(TenantId(t)).unwrap();
            rt.raise_external(TenantId(t), vec![(stock, 1, Oid(0))]).unwrap();
            rt.commit(TenantId(t)).unwrap();
        }
        rt.flush().unwrap();
        let stats = rt.stats();
        assert_eq!(stats.steals, 0, "pinned mode never crosses shards");
        assert_eq!(stats.per_shard.len(), 4);
        // under pinning each worker executed exactly its own home's jobs
        for (i, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(
                shard.jobs_executed, shard.jobs_submitted,
                "shard {i} executed its own submissions"
            );
            assert_eq!(shard.steals, 0);
        }
        assert_eq!(stats.jobs_processed, 96);
    }

    /// Each rule's name, `triggered`, stamps and witness, in definition
    /// order.
    type Stamps = Vec<(String, bool, Timestamp, Timestamp, Timestamp, bool)>;

    fn stamps(engine: &chimera_exec::Engine) -> Stamps {
        engine
            .rules()
            .iter()
            .map(|(rule, st)| {
                (
                    rule.def.name.clone(),
                    st.triggered,
                    st.last_consideration,
                    st.last_consumption,
                    st.checked_upto,
                    st.witness,
                )
            })
            .collect()
    }

    /// Does the tenant's engine hold exactly the runtime's compiled
    /// rules — the same allocations, in order? `None`: no such tenant.
    fn shares_rules(rt: &Runtime, tenant: TenantId) -> Option<bool> {
        let set = &rt.fabric.rules;
        rt.with_tenant(tenant, |e| {
            e.rules().len() == set.len()
                && e.rules().iter().zip(set.iter()).all(|((r, _), s)| Arc::ptr_eq(r, s))
        })
    }

    #[test]
    fn tenants_share_the_compiled_rules_and_restore_their_stamps() {
        use chimera_rules::{ConsumptionMode, CouplingMode};
        let s = schema();
        let stock = s.class_by_name("stock").unwrap();
        let ext = |ch| EventExpr::prim(EventType::external(stock, ch));
        let mut keep = TriggerDef::new("keep", ext(2).and(ext(1).not()));
        keep.consumption = ConsumptionMode::Preserving;
        let mut late = TriggerDef::new("late", EventExpr::prim(EventType::create(stock)));
        late.coupling = CouplingMode::Deferred;
        let defs = vec![tick_trigger(&s), keep, late];
        let dir = std::env::temp_dir()
            .join(format!("chimera-rt-shared-rules-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = RuntimeConfig {
            storage: StorageMode::Durable(DurabilityConfig {
                snapshot_every: 1,
                ..DurabilityConfig::new(&dir)
            }),
            lifecycle: LifecycleConfig::with_max_resident(2),
            ..cfg(1)
        };
        // the oracle: one sequential engine per tenant, its rules defined
        // from the `TriggerDef`s, fed the same transactions
        let mut oracle: Vec<chimera_exec::Engine> = (0..3)
            .map(|_| {
                let mut e = chimera_exec::Engine::new(s.clone());
                for def in &defs {
                    e.define_trigger(def.clone()).unwrap();
                }
                e
            })
            .collect();
        let txn = |rt: &Runtime, oracle: &mut [chimera_exec::Engine], t: u64, ticks: u64| {
            let blocks = [vec![(stock, 2, Oid(t))], vec![(stock, 1, Oid(0)); ticks as usize]];
            let e = &mut oracle[t as usize];
            rt.begin(TenantId(t)).unwrap();
            e.begin().unwrap();
            for block in blocks {
                e.raise_external(&block).unwrap();
                rt.raise_external(TenantId(t), block).unwrap();
            }
            rt.commit(TenantId(t)).unwrap();
            e.commit().unwrap();
            rt.flush().unwrap();
        };
        let check = |rt: &Runtime, oracle: &[chimera_exec::Engine]| {
            for (t, e) in oracle.iter().enumerate() {
                let tenant = TenantId(t as u64);
                assert_eq!(shares_rules(rt, tenant), Some(true), "tenant {t}");
                let got = rt.with_tenant(tenant, stamps);
                assert_eq!(got, Some(stamps(e)), "tenant {t}");
            }
        };
        let settle = |rt: &Runtime| {
            // eviction runs after a batch's release, so wait it out
            while rt.stats().tenants_resident > 2 {
                std::thread::yield_now();
            }
        };

        let rt = Runtime::new(s.clone(), defs.clone(), config.clone()).unwrap();
        for t in 0..3 {
            txn(&rt, &mut oracle, t, t + 1);
        }
        settle(&rt);
        // tenant 0, the coldest, is parked; 1 and 2 are fresh engines
        assert!(rt.fabric.tenants.get(0).is_none());
        check(&rt, &oracle);
        // a claim rehydrates tenant 0
        txn(&rt, &mut oracle, 0, 2);
        settle(&rt);
        assert!(rt.fabric.tenants.get(0).is_some());
        assert_eq!(rt.stats().rehydrations, 1);
        check(&rt, &oracle);
        drop(rt);

        // rebuilt from the snapshot: a newly compiled set, shared again
        let (rt, report) = Runtime::recover(s, defs, config).unwrap();
        assert_eq!(report.tenants_recovered, 3);
        check(&rt, &oracle);
        txn(&rt, &mut oracle, 1, 1);
        check(&rt, &oracle);
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
