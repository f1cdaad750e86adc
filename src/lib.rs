//! # chimera — Composite Events in Chimera (EDBT 1996), reproduced in Rust
//!
//! A full reproduction of *Composite Events in Chimera* by R. Meo,
//! G. Psaila and S. Ceri: the Chimera active object-oriented database
//! substrate plus the paper's composite-event calculus — set- and
//! instance-oriented conjunction/disjunction/negation/precedence with the
//! signed-timestamp `ts`/`ots` semantics, the §4.4 triggering predicate,
//! the §3.3 `occurred`/`at` event formulas and the §5.1 static
//! optimization (`V(E)` variation sets).
//!
//! ## Quickstart
//!
//! ```
//! use chimera::interp::Interpreter;
//!
//! let mut chim = Interpreter::from_source(r#"
//! define class stock
//!   attributes quantity: integer,
//!              max_quantity: integer default 100
//! end
//!
//! define immediate trigger checkStockQty for stock
//!   events create , modify(quantity)
//!   condition stock(S), occurred(create ,= modify(quantity), S),
//!             S.quantity > S.max_quantity
//!   actions modify(S.quantity, S.max_quantity)
//! end
//!
//! begin;
//! let s1 = create stock(quantity: 250);
//! commit;
//! "#).unwrap();
//! chim.run_all().unwrap();
//! let s1 = chim.var("s1").unwrap();
//! // the trigger clamped the over-limit quantity
//! assert_eq!(
//!     chim.engine().read_attr(s1, "quantity").unwrap(),
//!     chimera::model::Value::Int(100)
//! );
//! ```
//!
//! ## Crate map
//!
//! | module | re-export of | contents |
//! |--------|--------------|----------|
//! | [`model`] | `chimera-model` | OO schema, objects, transactional store |
//! | [`events`] | `chimera-events` | logical clock, event types, the per-transaction Event Base |
//! | [`calculus`] | `chimera-calculus` | the event calculus (the paper's contribution) |
//! | [`rules`] | `chimera-rules` | triggers, rule table, triggering semantics |
//! | [`lang`] | `chimera-lang` | lexer/parser/pretty-printer |
//! | [`exec`] | `chimera-exec` | the execution engine |
//! | [`runtime`] | `chimera-runtime` | sharded multi-tenant parallel runtime |
//! | [`net`] | `chimera-net` | framed wire protocol + TCP server/client |
//! | [`baselines`] | `chimera-baselines` | Ode/Snoop/naive comparators |
//! | [`workload`] | `chimera-workload` | generators and traces |
//! | [`analysis`] | `chimera-analysis` | triggering graph, termination, confluence |
//! | [`temporal`] | `chimera-temporal` | clock events, related-work derived operators |
//! | [`persist`] | `chimera-persist` | pluggable `StateStore`: group-commit job log, shard snapshots, crash recovery |
//! | [`chaos`] | `chimera-chaos` | deterministic fault injection: seeded storage faults, mid-frame TCP cuts |
//! | [`telemetry`] | `chimera-telemetry` | lock-cheap recorder: stage latency histograms, counters/gauges, postmortem trace ring |
//! | [`lifecycle`] | `chimera-lifecycle` | tenant residency policy: LRU budget config + the intrusive recency list |
//! | [`interp`] | (this crate) | script interpreter over the engine |
//!
//! ## Evaluation tiers
//!
//! The §4.3 instance→set boundary — the hot path of rule triggering —
//! has three coordinated implementations (see [`calculus`]'s `plan`
//! module for the full story):
//!
//! 1. **interpreted reference** (`ts_logical_interpreted` and the
//!    recursive `boundary_ts_*` evaluators): re-walks the AST per call;
//!    the property-tested ground truth, used only by tests and benches;
//! 2. **planned cold**: compiled op arenas over an object-domain snapshot
//!    and a batched per-type stamp matrix, rebuilt per window — paid when
//!    a rule's observation window's *lower* bound moves (consumption) or
//!    a scratchpad meets a new event base;
//! 3. **planned incremental**: the default on the engine's hot path —
//!    when new occurrences merely extend the window, the matrix is
//!    *advanced* by exactly the epoch's arrival delta (per-type delta
//!    columns, in-place stamp updates, `V(E)`-selective memo
//!    invalidation), making the post-arrival probe O(arrivals) instead
//!    of O(window).
//!
//! All three agree bit for bit; `tests/plan_equivalence.rs` enforces it.
//!
//! ## Serving many sessions: the parallel runtime
//!
//! A single [`exec::Engine`] is deliberately a single-threaded reactive
//! machine (the paper's §5 architecture assumes one transaction's Event
//! Base per detector, and the engine keeps exactly that much:
//! [`exec::Engine::begin`] truncates the Event Base while its eids,
//! stamps and logical length stay dense, so a tenant's RAM, snapshot and
//! rehydration cost one transaction's occurrences however long it
//! lives). [`runtime`] scales it out without changing its semantics:
//!
//! * **tenant homes** — every tenant owns a private engine behind an
//!   exclusive-claim handle, and hashes (SplitMix64) onto a *home shard*
//!   that owns its backpressure budget and, in durable mode, its
//!   persistence;
//! * **load-aware scheduling** — submissions stage in an admission pool
//!   that preserves per-tenant FIFO; N workers claim whole *ready
//!   tenants* (queued jobs, nobody executing) and, under the default
//!   `Scheduler::LoadAware`, steal ready tenants from any home instead
//!   of idling while one hot shard backs up — the PR-7 answer to
//!   Zipf-skewed tenant traffic, with `Scheduler::Pinned` keeping the
//!   strict hash-pinned placement as the baseline. Block-or-shed
//!   backpressure, flush barriers, panic isolation and per-job replies
//!   ride the same path; `RuntimeStats` reports `steals`,
//!   `ready_queue_depth` and a per-shard `ShardStats` breakdown
//!   (`benches/skew.rs` measures pinned vs load-aware on a colliding
//!   hot-tenant mix);
//! * **parallel check rounds** — inside a claim, the per-block trigger
//!   check round itself can split the rule table's probe work across a
//!   scoped worker pool over one shared EB epoch delta
//!   (`EngineConfig::check_workers`); the sequential round is the same
//!   code path run as a single chunk.
//!
//! All layers are observationally identical to the sequential engine,
//! tenant by tenant; `tests/runtime_equivalence.rs` enforces it,
//! including steal-heavy configurations under both schedulers.
//!
//! [`net`] puts a network front door on that runtime: a length-prefixed
//! binary wire protocol (hand-rolled on `std::net`) whose `SubmitBlock`
//! requests are answered with **per-job completion notifications**
//! (success summary of events appended / rules considered / actions
//! run, or the typed engine error) through the runtime's
//! `submit_with_reply` path — no flush-and-poll — and whose
//! `DefineTriggers` requests carry concrete §2–§3 trigger syntax,
//! parsed server-side by [`lang`]. The same oracle closes the loop:
//! `tests/net_equivalence.rs` proves traffic from concurrent TCP
//! clients identical to a per-tenant sequential replay.
//!
//! ## Durable tenants: the storage layer
//!
//! Underneath each runtime shard sits a pluggable [`persist`] store
//! (`StateStore`): `InMemory` (the zero-cost default) or `Durable`,
//! which logs every job as a binary record in a per-shard job log and
//! makes a whole drained queue batch durable with **one** fsync — group
//! commit, the policy that closes most of the fsync gap (within ~3–4×
//! of in-memory at 256-event blocks on this host vs ~50–100× for
//! per-commit syncing; `benches/durability.rs`). Job replies are only
//! delivered after their group's sync, so an acknowledged job is always
//! durable. `Runtime::recover` rebuilds every tenant engine from the
//! latest shard snapshot plus job-log replay (engines are deterministic
//! given a job sequence), with periodic snapshot + log truncation to
//! bound log growth; [`net`]'s `Hello` negotiates the durability level
//! per listener and `Stats` reports the storage counters.
//! `tests/durable_recovery.rs` is the crash oracle: cut the log at an
//! arbitrary byte, recover, and every tenant must equal a sequential
//! replay of exactly the jobs whose group survived on disk.
//!
//! ## Degrading gracefully: the chaos layer
//!
//! Storage and networks fail in ways a crash oracle alone cannot
//! exercise, so [`chaos`] injects them **deterministically**: a seeded
//! `FaultPlan` schedules transient, permanent and torn/ambiguous store
//! faults behind the runtime's `StoreWrap` seam, and a `ChaosProxy`
//! cuts TCP connections mid-frame at seeded byte positions. The
//! runtime's policy under fire is *retry, then degrade, never hang*:
//! a transient store error gets a bounded in-place retry (counted in
//! `RuntimeStats::store_retries`); exhaustion or a permanent error
//! **poisons** that home shard only, whose tenants keep being answered
//! with the typed `JobOutcome::RefusedDurability` while every other
//! shard proceeds untouched, until `Runtime::reopen_shard_store`
//! swaps in a fresh store and re-snapshots the live tenants. On the
//! wire, [`net`]'s version-4 server enforces handshake/read/write
//! deadlines (reaped connections counted in `net_conns_reaped`) and
//! its client heals a lost connection by resolving every in-flight
//! submission as a typed `Disconnected` completion — at-most-once,
//! explicit loss — then redialing with backoff and replaying the
//! session's trigger definitions. `tests/chaos_recovery.rs` is the
//! oracle: transient/torn fault schedules must be *invisible*
//! (end-state identical to a fault-free sequential replay), a
//! permanent fault must poison exactly one home and be repairable,
//! and every submission through a cut-happy proxy must resolve.
//!
//! ## Watching it run: the telemetry layer
//!
//! Everything above is observable from the outside. [`telemetry`] is a
//! hand-rolled, lock-cheap recorder the whole stack shares: per-worker
//! sharded atomic counters and gauges, **log₂-bucketed latency
//! histograms** (recording is one `Instant` read plus one relaxed
//! `fetch_add`; percentiles are computed merge-on-read), and a
//! fixed-capacity seqlock **trace ring** holding the last few hundred
//! notable events (jobs claimed, homes poisoned, stores reopened,
//! connections accepted/reaped/cut) for postmortems. The runtime times
//! every pipeline stage — queue wait, WAL append, execution, the group
//! commit fsync, reply delivery — and [`net`]'s version-5 server adds
//! frame decode, handler and per-connection round-trip histograms.
//! Recording is off by default (`RuntimeConfig::telemetry`; the off
//! mode is a `None` branch, ≤ 1% on the hot path) and the overhead
//! when *on* is bounded by `benches/telemetry.rs` at ≤ 5% on a
//! 256-arrival block workload.
//!
//! One wire request pulls the whole registry off a live server:
//!
//! ```no_run
//! use chimera::net::Client;
//!
//! let mut c = Client::connect("127.0.0.1:7878").unwrap();
//! let m = c.metrics_snapshot().unwrap();   // Request::MetricsSnapshot
//! if m.enabled {
//!     let h = m.hist("queue_wait").unwrap();
//!     println!("queue wait p99 = {}ns over {} jobs", h.p99(), h.count());
//!     println!("{}", m.render_text());     // Prometheus-style exposition
//! }
//! ```
//!
//! `examples/metrics_watch.rs` polls a live server this way;
//! `tests/loopback.rs` (in `chimera-net`) pins the acceptance claim
//! that a durable loopback run answers with non-zero queue-wait,
//! execute and commit histograms.
//!
//! ## Scaling past RAM: the tenant lifecycle layer
//!
//! A runtime sized for thousands of tenants cannot keep every engine
//! resident. [`lifecycle`] bounds the working set: give
//! `RuntimeConfig::lifecycle` a residency budget (tenant count, an
//! approximate bytes pressure, or both) and the runtime's workers evict
//! the **coldest idle tenants** past it — each engine is frozen into the
//! same `TenantSnapshot` the recovery path uses, parked in RAM by the
//! tenant's home, and dropped. Eviction writes nothing to disk: a durable
//! home's copy of an evicted tenant is its last full snapshot (which
//! includes every parked tenant) plus the job log (which only a full
//! snapshot truncates). The
//! next claimed job **rehydrates** transparently: the claim path rebuilds
//! the engine from the snapshot before the batch runs, so callers see
//! eviction only as latency (the `rehydrate` telemetry histogram, with
//! `tenants_evicted`/`tenants_rehydrated` counters and the
//! `tenants_resident` gauge alongside). Recency is an intrusive O(1) LRU
//! keyed by the admission pool's claim/release path; tenants
//! mid-transaction, with staged jobs, or whose home store refuses the
//! eviction are *refused and retained* — nothing is ever dropped to
//! satisfy the budget. Crash recovery rebuilds every tenant from the full
//! snapshot and log tail, then evicts the least recently active down to
//! the budget before the first job. `tests/lifecycle_equivalence.rs` is
//! the oracle: a
//! cap small enough to force constant churn must be bit-identical to a
//! sequential replay, across crashes included; `benches/lifecycle.rs`
//! prices the cold-claim rehydration and the capped-residency
//! throughput at 1024 tenants.

pub use chimera_analysis as analysis;
pub use chimera_baselines as baselines;
pub use chimera_calculus as calculus;
pub use chimera_chaos as chaos;
pub use chimera_events as events;
pub use chimera_exec as exec;
pub use chimera_lang as lang;
pub use chimera_lifecycle as lifecycle;
pub use chimera_model as model;
pub use chimera_net as net;
pub use chimera_persist as persist;
pub use chimera_rules as rules;
pub use chimera_runtime as runtime;
pub use chimera_telemetry as telemetry;
pub use chimera_temporal as temporal;
pub use chimera_workload as workload;

pub mod interp;

/// Convenience prelude.
pub mod prelude {
    pub use crate::calculus::{
        at_occurrences, occurred_objects, ts_algebraic, ts_logical, EventExpr, RelevanceFilter,
        TsVal, VariationSet,
    };
    pub use crate::events::{EventBase, EventKind, EventType, Timestamp, Window};
    pub use crate::exec::{Engine, EngineConfig, Op};
    pub use crate::interp::Interpreter;
    pub use crate::model::{
        AttrDef, AttrType, ClassId, Object, ObjectStore, Oid, Schema, SchemaBuilder, Value,
    };
    pub use crate::rules::{
        ActionStmt, Condition, ConsumptionMode, CouplingMode, RuleTable, TriggerDef,
        TriggerSupport,
    };
    pub use crate::net::{
        Client, Server, ServerConfig, TenantQuery, TriggerOutcome, WireDurability, WireJob,
        WireOp,
    };
    pub use crate::lifecycle::LifecycleConfig;
    pub use crate::persist::{StateStore, SyncPolicy};
    pub use crate::telemetry::{MetricsSnapshot, Stage, Telemetry};
    pub use crate::runtime::{
        Backpressure, DurabilityConfig, Job, JobId, JobOutcome, JobReply, RecoveryReport,
        Runtime, RuntimeConfig, RuntimeStats, Scheduler, ShardStats, StorageMode, TenantId,
    };
}
