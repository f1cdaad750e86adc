//! # chimera-runtime
//!
//! A sharded, multi-tenant parallel runtime over the single-threaded
//! Chimera engine.
//!
//! The paper's §5 execution architecture assumes one transaction's Event
//! Base per detector: a [`chimera_exec::Engine`] is deliberately a
//! single-threaded reactive machine. This crate serves *many concurrent
//! sessions* with that machine by composing two layers of parallelism,
//! none of which changes the per-tenant semantics:
//!
//! 1. **Tenant homes + exclusive claims** — every tenant ([`TenantId`])
//!    owns a private engine (schema + store + event base + rule table)
//!    and is *homed* on one of N shards by hash. The home owns the
//!    tenant's durable state and backpressure budget; execution is a
//!    separate concern: a worker *claims* a ready tenant exclusively,
//!    runs a FIFO batch of its jobs, and releases it. At most one worker
//!    ever holds a tenant, so all of a tenant's jobs execute in
//!    submission order — exactly the sequential engine, tenant by
//!    tenant — regardless of *which* thread ran each batch.
//! 2. **Load-aware admission pool** — jobs are staged per tenant in an
//!    admission pool; a tenant with staged jobs and no active claim sits
//!    in its home shard's ready deque. Workers drain their own deque
//!    first and, under [`Scheduler::LoadAware`] (the default), **steal
//!    whole ready tenants** from other homes when their own is empty —
//!    so one hot tenant (or a hash collision of warm ones) no longer
//!    caps the runtime at a single core while the other workers idle.
//!    [`Scheduler::Pinned`] keeps the old strictly-homed placement as a
//!    measurable baseline. Each home admits at most `queue_capacity`
//!    staged jobs; a full home either *blocks* the submitter or *sheds*
//!    the job per the configured [`Backpressure`], with counters for
//!    both (plus `steals` and per-shard breakdowns) in [`RuntimeStats`].
//!
//! Inside an engine the per-block trigger check round is one sequential
//! pass over the rule table: a single hot tenant uses one core.
//!
//! The equivalence oracle is the plain sequential [`chimera_exec::Engine`]:
//! `tests/runtime_equivalence.rs` (facade-level) proves that interleaved
//! multi-tenant traffic through the runtime — including steal-heavy
//! shapes: one tenant over many workers, many colliding tenants over two
//! workers, skewed job mixes, both scheduler modes — leaves every tenant
//! with the identical triggered-rule sets, consumption windows, and net
//! effects as a per-tenant sequential replay.
//!
//! ## Durable tenants
//!
//! Each home shard owns a `chimera_persist::StateStore`. With
//! [`StorageMode::Durable`] the claiming worker appends every job's
//! intent to the *tenant's home shard's* job log *before* execution, and
//! the whole claimed batch shares one fsync (**group commit**) before
//! anyone is answered — so an acknowledged job is always durable, the
//! ~ms fsync cost is amortized across the batch, and a tenant's log
//! order equals its execution order no matter which worker ran the batch
//! (claims are exclusive, appends precede execution within a claim).
//! [`Runtime::recover`] rebuilds every tenant bit-identically from the
//! shard snapshot + job-log replay (event logs, consumption windows,
//! error bookkeeping and open transactions included); periodic snapshots
//! truncate the log. A snapshot is taken between transactions, where
//! every engine is at rest (its Event Base cut, its rules reset), so it
//! carries a tenant's objects, clock, trigger sources and counters only. The crash oracle is
//! `tests/durable_recovery.rs`: kill the process at any byte of the log
//! — including a torn final record — and recovery equals a sequential
//! replay of exactly the surviving prefix.
//!
//! ## Storage robustness
//!
//! Store faults are classified transient-vs-permanent
//! (`chimera_persist::PersistError::is_transient`). A transient fault on
//! append/commit/snapshot gets a bounded retry with doubling backoff
//! (counted in [`RuntimeStats::store_retries`]) before anything
//! escalates; only an exhausted budget or a permanent error *poisons*
//! the home. A poisoned home degrades, it does not crash: its tenants'
//! jobs are answered with the typed [`JobOutcome::RefusedDurability`]
//! (never a hang, never a silent drop — submission/completion accounting
//! still closes), every other shard keeps full service, and
//! [`RuntimeStats::shards_poisoned`] makes the state observable. The
//! operator repair path is [`Runtime::reopen_shard_store`]: after a
//! flush, a replacement store is built, the live tenants homed there are
//! snapshotted into it, and the home resumes durable service. Fault
//! injection for all of this lives in the `chimera-chaos` crate (a
//! [`StoreWrap`] hook wraps each home's store); the oracle is
//! `tests/chaos_recovery.rs`. One escape hatch keeps the repair path
//! reachable: a poisoned home still *runs* [`Job::Rollback`] (RAM-only,
//! nothing logged — the store is dead and rolling back needs nothing
//! from it), so a tenant demoted mid-transaction can reach the
//! committed-only state `reopen_shard_store` requires.
//!
//! ## Telemetry
//!
//! With [`RuntimeConfig::telemetry`] on, every worker feeds a shared
//! `chimera_telemetry::Telemetry` recorder ([`Runtime::telemetry`]):
//! per-job stage histograms — queue wait (submission → claim), WAL
//! append, execution, the group-commit fsync, reply delivery — plus
//! counters (batches claimed, store retries, demotions, poisonings)
//! and postmortem trace events (jobs claimed, homes poisoned, stores
//! reopened) in a fixed-capacity ring. Recording is one `Instant` read
//! plus one relaxed `fetch_add` into a per-worker shard; the default
//! off mode is a `None` branch (`examples/telemetry_overhead.rs` checks
//! on-mode against a 5% bound over off on the house block workload, by
//! the median of thirty alternating off/on pairs). `chimera-net`
//! exposes the whole registry over the wire as `MetricsSnapshot`.
//!
//! ## Quick tour
//!
//! ```
//! use chimera_runtime::{Job, Runtime, RuntimeConfig, TenantId};
//! use chimera_exec::Op;
//! use chimera_model::{AttrDef, AttrType, SchemaBuilder};
//!
//! let mut b = SchemaBuilder::new();
//! b.class("stock", None, vec![AttrDef::new("qty", AttrType::Integer)]).unwrap();
//! let schema = b.build();
//! let stock = schema.class_by_name("stock").unwrap();
//!
//! let rt = Runtime::new(schema, vec![], RuntimeConfig::default()).unwrap();
//! for t in 0..8 {
//!     rt.submit(TenantId(t), Job::Begin).unwrap();
//!     rt.submit(TenantId(t), Job::ExecBlock(vec![Op::Create { class: stock, inits: vec![] }])).unwrap();
//!     rt.submit(TenantId(t), Job::Commit).unwrap();
//! }
//! rt.flush().unwrap();
//! let stats = rt.stats();
//! assert_eq!(stats.tenants, 8);
//! assert_eq!(stats.engine.commits, 8);
//! assert_eq!(stats.jobs_processed, stats.jobs_submitted);
//! ```

mod pool;
mod runtime;
mod shard;
mod stats;

pub use runtime::{
    Backpressure, DurabilityConfig, Job, JobId, JobOutcome, JobReply, JobSummary, RecoveryReport,
    Runtime, RuntimeConfig, RuntimeError, Scheduler, StorageMode, StoreWrap, TenantId,
};
pub use stats::{RuntimeStats, ShardStats};

/// Compile-time `Send`/`Sync` audit of everything the runtime moves onto
/// or shares between worker threads. A regression here (say, a `Rc`
/// slipping into the rule table) becomes a build error, not a data race.
#[allow(dead_code)]
const fn assert_send<T: Send>() {}
#[allow(dead_code)]
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<chimera_exec::Engine>();
    assert_send::<chimera_rules::RuleTable>();
    assert_send::<chimera_rules::TriggerSupport>();
    assert_send::<chimera_rules::RuleState>();
    assert_send_sync::<chimera_rules::CompiledRule>();
    assert_send_sync::<chimera_calculus::PlanEval>();
    assert_send_sync::<chimera_events::EventBase>();
    assert_send_sync::<Runtime>();
    assert_send::<Job>();
};
