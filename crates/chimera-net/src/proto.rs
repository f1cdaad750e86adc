//! The request/response vocabulary and its binary codec.
//!
//! One frame carries exactly one message; a connection is a strict
//! request → response(s) alternation driven by the client, with exactly
//! one response per request (so a client may pipeline requests and read
//! the responses back in order). The vocabulary mirrors the runtime's
//! surface:
//!
//! | request | response |
//! |---------|----------|
//! | [`Request::Hello`] | [`Response::HelloAck`] |
//! | [`Request::DefineTriggers`] | [`Response::TriggersDefined`] / [`Response::Error`] |
//! | [`Request::SubmitBlock`] | [`Response::JobDone`] (the per-job completion) |
//! | [`Request::Flush`] | [`Response::FlushDone`] |
//! | [`Request::Stats`] | [`Response::StatsReply`] |
//! | [`Request::WithTenantQuery`] | [`Response::TenantReply`] |
//! | [`Request::MetricsSnapshot`] | [`Response::MetricsReply`] |
//! | [`Request::Shutdown`] | [`Response::ShutdownAck`] |
//!
//! Every message round-trips bit-exactly (`encode` then `decode` is the
//! identity; `tests/wire_roundtrip.rs` proves it on arbitrary messages)
//! and decoding arbitrary bytes returns a typed error, never panics.
//!
//! Each message has exactly one layout and every field is always
//! present: an optional value is a presence flag followed by the value,
//! and a sequence is a counted vector. So every strict prefix of an
//! encoding fails to decode. A layout change or a new tag bumps
//! [`crate::wire::PROTOCOL_VERSION`] (see the extension rule there).

use crate::wire::{
    put_bool, put_i64, put_str, put_u32, put_u64, put_u8, Reader, WireError,
};
use chimera_exec::Op;
use chimera_model::{AttrId, ClassId, Oid, TotalF64, Value};
use chimera_runtime::{Job, JobOutcome, JobReply, RuntimeStats, StorageMode};
use chimera_telemetry::{HistSnapshot, MetricsSnapshot, TraceEvent, TraceKind};

// ------------------------------------------------------------------- jobs

/// One external occurrence of a [`WireJob::RaiseExternal`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalEvent {
    /// Raw class id (the channel namespace).
    pub class: u32,
    /// Channel number.
    pub channel: u32,
    /// Raw object id carried by the occurrence.
    pub oid: u64,
}

/// The wire form of a tenant job — [`chimera_runtime::Job`] minus the
/// test-only gate, with raw ids instead of newtypes (the server converts
/// and the tenant engine validates).
#[derive(Debug, Clone, PartialEq)]
pub enum WireJob {
    /// `Engine::begin`.
    Begin,
    /// `Engine::exec_block`: one non-interruptible transaction line.
    ExecBlock(Vec<WireOp>),
    /// `Engine::raise_external`: a block of external occurrences.
    RaiseExternal(Vec<ExternalEvent>),
    /// `Engine::commit`.
    Commit,
    /// `Engine::rollback`.
    Rollback,
}

impl WireJob {
    /// Into the runtime's job form.
    pub fn into_job(self) -> Job {
        match self {
            WireJob::Begin => Job::Begin,
            WireJob::ExecBlock(ops) => {
                Job::ExecBlock(ops.into_iter().map(WireOp::into_op).collect())
            }
            WireJob::RaiseExternal(evs) => Job::RaiseExternal(
                evs.into_iter()
                    .map(|e| (ClassId(e.class), e.channel, Oid(e.oid)))
                    .collect(),
            ),
            WireJob::Commit => Job::Commit,
            WireJob::Rollback => Job::Rollback,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WireJob::Begin => put_u8(buf, 0),
            WireJob::ExecBlock(ops) => {
                put_u8(buf, 1);
                put_u32(buf, ops.len() as u32);
                for op in ops {
                    op.encode(buf);
                }
            }
            WireJob::RaiseExternal(evs) => {
                put_u8(buf, 2);
                put_u32(buf, evs.len() as u32);
                for e in evs {
                    put_u32(buf, e.class);
                    put_u32(buf, e.channel);
                    put_u64(buf, e.oid);
                }
            }
            WireJob::Commit => put_u8(buf, 3),
            WireJob::Rollback => put_u8(buf, 4),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireJob, WireError> {
        Ok(match r.u8()? {
            0 => WireJob::Begin,
            1 => {
                // smallest op encoding: Select = tag + class + deep
                let n = r.count_of(6)?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(WireOp::decode(r)?);
                }
                WireJob::ExecBlock(ops)
            }
            2 => {
                // an external event is exactly 16 bytes
                let n = r.count_of(16)?;
                let mut evs = Vec::with_capacity(n);
                for _ in 0..n {
                    evs.push(ExternalEvent {
                        class: r.u32()?,
                        channel: r.u32()?,
                        oid: r.u64()?,
                    });
                }
                WireJob::RaiseExternal(evs)
            }
            3 => WireJob::Commit,
            4 => WireJob::Rollback,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// The wire form of one [`chimera_exec::Op`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Create an object.
    Create {
        /// Raw class id.
        class: u32,
        /// `(raw attr id, value)` initializers.
        inits: Vec<(u32, Value)>,
    },
    /// Modify an attribute.
    Modify {
        /// Raw object id.
        oid: u64,
        /// Raw attribute id.
        attr: u32,
        /// New value.
        value: Value,
    },
    /// Delete an object.
    Delete {
        /// Raw object id.
        oid: u64,
    },
    /// Migrate to a subclass.
    Specialize {
        /// Raw object id.
        oid: u64,
        /// Raw destination class id.
        class: u32,
    },
    /// Migrate to a superclass.
    Generalize {
        /// Raw object id.
        oid: u64,
        /// Raw destination class id.
        class: u32,
    },
    /// Query a class extent.
    Select {
        /// Raw class id.
        class: u32,
        /// Include subclasses?
        deep: bool,
    },
}

impl WireOp {
    /// Into the engine's op form.
    pub fn into_op(self) -> Op {
        match self {
            WireOp::Create { class, inits } => Op::Create {
                class: ClassId(class),
                inits: inits
                    .into_iter()
                    .map(|(a, v)| (AttrId(a), v))
                    .collect(),
            },
            WireOp::Modify { oid, attr, value } => Op::Modify {
                oid: Oid(oid),
                attr: AttrId(attr),
                value,
            },
            WireOp::Delete { oid } => Op::Delete { oid: Oid(oid) },
            WireOp::Specialize { oid, class } => Op::Specialize {
                oid: Oid(oid),
                class: ClassId(class),
            },
            WireOp::Generalize { oid, class } => Op::Generalize {
                oid: Oid(oid),
                class: ClassId(class),
            },
            WireOp::Select { class, deep } => Op::Select {
                class: ClassId(class),
                deep,
            },
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WireOp::Create { class, inits } => {
                put_u8(buf, 0);
                put_u32(buf, *class);
                put_u32(buf, inits.len() as u32);
                for (attr, value) in inits {
                    put_u32(buf, *attr);
                    encode_value(buf, value);
                }
            }
            WireOp::Modify { oid, attr, value } => {
                put_u8(buf, 1);
                put_u64(buf, *oid);
                put_u32(buf, *attr);
                encode_value(buf, value);
            }
            WireOp::Delete { oid } => {
                put_u8(buf, 2);
                put_u64(buf, *oid);
            }
            WireOp::Specialize { oid, class } => {
                put_u8(buf, 3);
                put_u64(buf, *oid);
                put_u32(buf, *class);
            }
            WireOp::Generalize { oid, class } => {
                put_u8(buf, 4);
                put_u64(buf, *oid);
                put_u32(buf, *class);
            }
            WireOp::Select { class, deep } => {
                put_u8(buf, 5);
                put_u32(buf, *class);
                put_bool(buf, *deep);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireOp, WireError> {
        Ok(match r.u8()? {
            0 => {
                let class = r.u32()?;
                // smallest initializer: attr id + a Null value tag
                let n = r.count_of(5)?;
                let mut inits = Vec::with_capacity(n);
                for _ in 0..n {
                    let attr = r.u32()?;
                    inits.push((attr, decode_value(r)?));
                }
                WireOp::Create { class, inits }
            }
            1 => WireOp::Modify {
                oid: r.u64()?,
                attr: r.u32()?,
                value: decode_value(r)?,
            },
            2 => WireOp::Delete { oid: r.u64()? },
            3 => WireOp::Specialize {
                oid: r.u64()?,
                class: r.u32()?,
            },
            4 => WireOp::Generalize {
                oid: r.u64()?,
                class: r.u32()?,
            },
            5 => WireOp::Select {
                class: r.u32()?,
                deep: r.bool()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Values travel by the repo-wide bitwise float policy: a float is its
/// `TotalF64` bit pattern, so the round trip is exact for every payload
/// including NaNs and signed zeros.
fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Int(i) => {
            put_u8(buf, 1);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            put_u8(buf, 2);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, 4);
            put_bool(buf, *b);
        }
        Value::Time(t) => {
            put_u8(buf, 5);
            put_u64(buf, *t);
        }
        Value::Ref(oid) => {
            put_u8(buf, 6);
            put_u64(buf, oid.0);
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Float(TotalF64::from_bits(r.u64()?)),
        3 => Value::Str(r.str()?),
        4 => Value::Bool(r.bool()?),
        5 => Value::Time(r.u64()?),
        6 => Value::Ref(Oid(r.u64()?)),
        t => return Err(WireError::BadTag(t)),
    })
}

// ------------------------------------------------------------- durability

/// The durability level of a server's runtime, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDurability {
    /// No storage layer: tenant state dies with the process.
    InMemory,
    /// Durable with one fsync per drained queue batch (group commit).
    GroupCommit,
}

impl WireDurability {
    /// The wire form of a runtime's configured [`StorageMode`].
    pub fn of_storage(storage: &StorageMode) -> WireDurability {
        match storage {
            StorageMode::InMemory => WireDurability::InMemory,
            StorageMode::Durable(_) => WireDurability::GroupCommit,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u8(
            buf,
            match self {
                WireDurability::InMemory => 0,
                WireDurability::GroupCommit => 1,
            },
        );
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireDurability, WireError> {
        Ok(match r.u8()? {
            0 => WireDurability::InMemory,
            1 => WireDurability::GroupCommit,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl std::fmt::Display for WireDurability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireDurability::InMemory => "in-memory",
            WireDurability::GroupCommit => "durable (group commit)",
        })
    }
}

// --------------------------------------------------------------- requests

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens every connection: version check + client identification.
    Hello {
        /// The client's [`crate::wire::PROTOCOL_VERSION`].
        version: u32,
        /// Free-form client name (diagnostics only).
        client: String,
        /// Durability level the client *requires*, if any: the server
        /// refuses the handshake when its runtime provides a different
        /// one. Encoded as a presence flag followed by the value.
        durability: Option<WireDurability>,
    },
    /// Install tenant-local triggers from concrete §2–§3 trigger syntax,
    /// parsed server-side against the runtime schema.
    DefineTriggers {
        /// Raw tenant id.
        tenant: u64,
        /// `define … trigger … end` source text.
        source: String,
    },
    /// Submit one job (block) for a tenant; answered with the job's
    /// completion notification once the tenant's shard retires it.
    SubmitBlock {
        /// Raw tenant id.
        tenant: u64,
        /// The job.
        job: WireJob,
    },
    /// Runtime-wide flush barrier.
    Flush,
    /// Aggregate runtime stats.
    Stats,
    /// Inspect one tenant's engine.
    WithTenantQuery {
        /// Raw tenant id.
        tenant: u64,
        /// What to read.
        query: TenantQuery,
    },
    /// Stop the server (flushes first; the runtime itself survives).
    Shutdown,
    /// The full telemetry registry — counters, gauges, latency
    /// histograms (buckets included) and the drained trace tail —
    /// answered with [`Response::MetricsReply`]. On a
    /// server whose runtime has telemetry disabled the reply carries
    /// `enabled = false` and empty series, never an error: polling a
    /// metrics endpoint must be safe against configuration.
    MetricsSnapshot,
}

const REQ_HELLO: u8 = 0x01;
const REQ_DEFINE: u8 = 0x02;
const REQ_SUBMIT: u8 = 0x03;
const REQ_FLUSH: u8 = 0x04;
const REQ_STATS: u8 = 0x05;
const REQ_QUERY: u8 = 0x06;
const REQ_SHUTDOWN: u8 = 0x07;
const REQ_METRICS: u8 = 0x08;

impl Request {
    /// Encode into a fresh payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        match self {
            Request::Hello {
                version,
                client,
                durability,
            } => {
                put_u8(&mut buf, REQ_HELLO);
                put_u32(&mut buf, *version);
                put_str(&mut buf, client);
                match durability {
                    Some(d) => {
                        put_bool(&mut buf, true);
                        d.encode(&mut buf);
                    }
                    None => put_bool(&mut buf, false),
                }
            }
            Request::DefineTriggers { tenant, source } => {
                put_u8(&mut buf, REQ_DEFINE);
                put_u64(&mut buf, *tenant);
                put_str(&mut buf, source);
            }
            Request::SubmitBlock { tenant, job } => {
                put_u8(&mut buf, REQ_SUBMIT);
                put_u64(&mut buf, *tenant);
                job.encode(&mut buf);
            }
            Request::Flush => put_u8(&mut buf, REQ_FLUSH),
            Request::Stats => put_u8(&mut buf, REQ_STATS),
            Request::WithTenantQuery { tenant, query } => {
                put_u8(&mut buf, REQ_QUERY);
                put_u64(&mut buf, *tenant);
                query.encode(&mut buf);
            }
            Request::Shutdown => put_u8(&mut buf, REQ_SHUTDOWN),
            Request::MetricsSnapshot => put_u8(&mut buf, REQ_METRICS),
        }
        buf
    }

    /// Decode one full payload (trailing bytes are an error).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_HELLO => Request::Hello {
                version: r.u32()?,
                client: r.str()?,
                durability: if r.bool()? {
                    Some(WireDurability::decode(&mut r)?)
                } else {
                    None
                },
            },
            REQ_DEFINE => Request::DefineTriggers {
                tenant: r.u64()?,
                source: r.str()?,
            },
            REQ_SUBMIT => Request::SubmitBlock {
                tenant: r.u64()?,
                job: WireJob::decode(&mut r)?,
            },
            REQ_FLUSH => Request::Flush,
            REQ_STATS => Request::Stats,
            REQ_QUERY => Request::WithTenantQuery {
                tenant: r.u64()?,
                query: TenantQuery::decode(&mut r)?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_METRICS => Request::MetricsSnapshot,
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// What [`Request::WithTenantQuery`] can read from a tenant engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantQuery {
    /// Sorted extent of a class (raw class id).
    Extent {
        /// Raw class id.
        class: u32,
    },
    /// Event Base length (occurrences stored).
    EventLogLen,
    /// The tenant's job-error bookkeeping.
    Errors,
    /// The tenant engine's work counters.
    EngineStats,
}

impl TenantQuery {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            TenantQuery::Extent { class } => {
                put_u8(buf, 0);
                put_u32(buf, *class);
            }
            TenantQuery::EventLogLen => put_u8(buf, 1),
            TenantQuery::Errors => put_u8(buf, 2),
            TenantQuery::EngineStats => put_u8(buf, 3),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<TenantQuery, WireError> {
        Ok(match r.u8()? {
            0 => TenantQuery::Extent { class: r.u32()? },
            1 => TenantQuery::EventLogLen,
            2 => TenantQuery::Errors,
            3 => TenantQuery::EngineStats,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

// -------------------------------------------------------------- responses

/// Sentinel `job` id in a [`Response::JobDone`] whose submission was
/// rejected at submit time (shed queue, dead worker): no runtime job id
/// exists for it, but the completion still arrives in request order
/// with the tenant attached.
pub const JOB_REJECTED: u64 = u64::MAX;

/// Sentinel `job` id in a client-synthesized [`crate::client::JobDone`]
/// for a submission orphaned by a connection loss: the request may or
/// may not have reached the server, so no runtime job id is known. The
/// outcome is always [`WireOutcome::Disconnected`]. (Client-side only —
/// a server never sends this id.)
pub const JOB_DISCONNECTED: u64 = u64::MAX - 1;

/// How one job ended, on the wire — [`chimera_runtime::JobOutcome`] with
/// the summary flattened in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutcome {
    /// Success, with the job's trigger-firing summary.
    Done {
        /// Occurrences the job appended.
        events: u64,
        /// Rules considered while reacting to the job.
        considerations: u64,
        /// Rule actions executed while reacting to the job.
        executions: u64,
    },
    /// The engine rejected the job.
    Error {
        /// The engine error message.
        message: String,
    },
    /// The job panicked; the tenant's engine was discarded.
    Panicked,
    /// The job ran in memory but its home shard's durability is
    /// poisoned, so it was **not** made durable (the typed
    /// degraded-service answer — never a hang, never a silent drop).
    RefusedDurability {
        /// Why durability was refused.
        message: String,
    },
    /// The connection died while this submission was in flight; the job
    /// may or may not have run (at-most-once). Synthesized by the
    /// *client* on reconnect for orphaned submissions — a server never
    /// sends it, but it is a first-class encodable outcome so the wire
    /// vocabulary stays total.
    Disconnected,
}

impl WireOutcome {
    /// Did the job succeed?
    pub fn is_done(&self) -> bool {
        matches!(self, WireOutcome::Done { .. })
    }
}

impl From<JobOutcome> for WireOutcome {
    fn from(o: JobOutcome) -> Self {
        match o {
            JobOutcome::Done(s) => WireOutcome::Done {
                events: s.events,
                considerations: s.considerations,
                executions: s.executions,
            },
            JobOutcome::Error(message) => WireOutcome::Error { message },
            JobOutcome::Panicked => WireOutcome::Panicked,
            JobOutcome::RefusedDurability(message) => WireOutcome::RefusedDurability { message },
        }
    }
}

/// One home shard's slice of the runtime counters, on the wire — the
/// flat mirror of [`chimera_runtime::ShardStats`]. Exactly 7 `u64`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field-for-field mirror of ShardStats
pub struct WireShardStats {
    pub jobs_submitted: u64,
    pub jobs_executed: u64,
    pub steals: u64,
    pub jobs_shed: u64,
    pub submits_blocked: u64,
    pub queue_depth: u64,
    pub tenants: u64,
}

impl From<chimera_runtime::ShardStats> for WireShardStats {
    fn from(s: chimera_runtime::ShardStats) -> Self {
        WireShardStats {
            jobs_submitted: s.jobs_submitted,
            jobs_executed: s.jobs_executed,
            steals: s.steals,
            jobs_shed: s.jobs_shed,
            submits_blocked: s.submits_blocked,
            queue_depth: s.queue_depth,
            tenants: s.tenants,
        }
    }
}

/// The flat wire form of [`RuntimeStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field-for-field mirror of RuntimeStats
pub struct WireStats {
    pub shards: u32,
    pub tenants: u64,
    pub jobs_submitted: u64,
    pub jobs_processed: u64,
    pub jobs_shed: u64,
    pub submits_blocked: u64,
    pub job_errors: u64,
    pub job_panics: u64,
    pub blocks: u64,
    pub events: u64,
    pub considerations: u64,
    pub executions: u64,
    pub commits: u64,
    pub rollbacks: u64,
    pub wal_appends: u64,
    pub wal_syncs: u64,
    pub snapshots: u64,
    pub tenants_recovered: u64,
    pub jobs_replayed: u64,
    pub steals: u64,
    pub ready_queue_depth: u64,
    /// Reads the server deferred because a connection hit its
    /// bytes-in-flight budget (server-wide; not in [`RuntimeStats`] —
    /// the server owns this counter and splices it in).
    pub net_reads_throttled: u64,
    pub per_shard: Vec<WireShardStats>,
    pub store_retries: u64,
    /// Live gauge of poisoned home shards (see
    /// [`chimera_runtime::RuntimeStats::shards_poisoned`]).
    pub shards_poisoned: u64,
    /// Connections the server reaped on an expired handshake or read
    /// deadline (server-wide; the server owns and splices this in).
    pub net_conns_reaped: u64,
    /// Tenant engines evicted to the durable store to stay inside the
    /// residency budget (see [`chimera_runtime::RuntimeStats::evictions`]).
    pub evictions: u64,
    /// Evicted tenants rebuilt in RAM on their next claimed job (see
    /// [`chimera_runtime::RuntimeStats::rehydrations`]).
    pub rehydrations: u64,
    /// Live gauge of tenant engines currently resident in RAM (see
    /// [`chimera_runtime::RuntimeStats::tenants_resident`]).
    pub tenants_resident: u64,
}

impl From<RuntimeStats> for WireStats {
    fn from(s: RuntimeStats) -> Self {
        WireStats {
            shards: s.shards as u32,
            tenants: s.tenants as u64,
            jobs_submitted: s.jobs_submitted,
            jobs_processed: s.jobs_processed,
            jobs_shed: s.jobs_shed,
            submits_blocked: s.submits_blocked,
            job_errors: s.job_errors,
            job_panics: s.job_panics,
            blocks: s.engine.blocks,
            events: s.engine.events,
            considerations: s.engine.considerations,
            executions: s.engine.executions,
            commits: s.engine.commits,
            rollbacks: s.engine.rollbacks,
            wal_appends: s.wal_appends,
            wal_syncs: s.wal_syncs,
            snapshots: s.snapshots,
            tenants_recovered: s.tenants_recovered,
            jobs_replayed: s.jobs_replayed,
            steals: s.steals,
            ready_queue_depth: s.ready_queue_depth,
            net_reads_throttled: 0,
            per_shard: s.per_shard.into_iter().map(WireShardStats::from).collect(),
            store_retries: s.store_retries,
            shards_poisoned: s.shards_poisoned,
            net_conns_reaped: 0,
            evictions: s.evictions,
            rehydrations: s.rehydrations,
            tenants_resident: s.tenants_resident,
        }
    }
}

/// How one declaration of a [`Request::DefineTriggers`] batch fared.
/// The whole batch is answered with one outcome per declaration, in
/// source order — a failed declaration no longer hides the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriggerOutcome {
    /// The trigger's declared name.
    pub name: String,
    /// `None` if the trigger was installed; the rejection reason
    /// (lowering error, engine refusal, runtime error) otherwise.
    pub error: Option<String>,
}

impl TriggerOutcome {
    /// Was this trigger installed?
    pub fn is_defined(&self) -> bool {
        self.error.is_none()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, &self.name);
        match &self.error {
            Some(msg) => {
                put_bool(buf, true);
                put_str(buf, msg);
            }
            None => put_bool(buf, false),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<TriggerOutcome, WireError> {
        let name = r.str()?;
        let error = if r.bool()? { Some(r.str()?) } else { None };
        Ok(TriggerOutcome { name, error })
    }
}

/// What [`Response::TenantReply`] carries back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenantReply {
    /// The tenant has never submitted a job (no engine exists).
    NoSuchTenant,
    /// Sorted class extent, raw oids.
    Extent(Vec<u64>),
    /// Event Base length.
    EventLogLen(u64),
    /// Job-error count and last message.
    Errors {
        /// Errored jobs so far.
        count: u64,
        /// Most recent error message, if any.
        last: Option<String>,
    },
    /// Engine work counters.
    EngineStats {
        /// Blocks executed.
        blocks: u64,
        /// Occurrences appended.
        events: u64,
        /// Rules considered.
        considerations: u64,
        /// Actions executed.
        executions: u64,
        /// Commits.
        commits: u64,
        /// Rollbacks.
        rollbacks: u64,
    },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answers [`Request::Hello`].
    HelloAck {
        /// The server's protocol version.
        version: u32,
        /// Server name (diagnostics only).
        server: String,
        /// Runtime shard count.
        shards: u32,
        /// The runtime's effective durability level.
        durability: WireDurability,
    },
    /// Answers [`Request::SubmitBlock`]: the per-job completion
    /// notification, delivered once the tenant's shard retired the job.
    /// A job the runtime refused to *accept* (shed queue, dead worker)
    /// is answered in the same shape — outcome `Error` and the
    /// [`JOB_REJECTED`] sentinel for `job` — so pipelined clients keep
    /// exact submission↔completion accounting even across rejections.
    JobDone {
        /// Runtime-wide job id, or [`JOB_REJECTED`] if never accepted.
        job: u64,
        /// The tenant the job ran (or was addressed to run) for.
        tenant: u64,
        /// How it ended (success carries the trigger-firing summary).
        outcome: WireOutcome,
    },
    /// Answers [`Request::DefineTriggers`] when the source parsed: one
    /// outcome per declaration, in source order. Declarations that
    /// failed to lower or were refused by the engine carry their error;
    /// the others were installed regardless (no first-failure-wins).
    TriggersDefined {
        /// Per-declaration outcomes.
        outcomes: Vec<TriggerOutcome>,
    },
    /// Answers [`Request::Flush`].
    FlushDone,
    /// Answers [`Request::Stats`].
    StatsReply(WireStats),
    /// Answers [`Request::WithTenantQuery`].
    TenantReply(TenantReply),
    /// Answers [`Request::MetricsSnapshot`] with the server runtime's
    /// full telemetry registry, trace tail included.
    MetricsReply(MetricsSnapshot),
    /// Answers [`Request::Shutdown`].
    ShutdownAck,
    /// Any request that could not be served (decode failure, parse
    /// error, shed job, dead worker, ...).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The server's accepted-connection cap is reached: the one and only
    /// frame on a refused connection, sent before it is closed. Typed —
    /// not an [`Response::Error`] — so clients can distinguish "retry
    /// later" from a protocol failure.
    Busy {
        /// Connections currently accepted.
        active: u32,
        /// The server's connection cap.
        limit: u32,
    },
}

const RESP_HELLO_ACK: u8 = 0x81;
const RESP_JOB_DONE: u8 = 0x82;
const RESP_TRIGGERS: u8 = 0x83;
const RESP_FLUSH_DONE: u8 = 0x84;
const RESP_STATS: u8 = 0x85;
const RESP_TENANT: u8 = 0x86;
const RESP_SHUTDOWN_ACK: u8 = 0x87;
const RESP_ERROR: u8 = 0x88;
const RESP_BUSY: u8 = 0x8A;
const RESP_METRICS: u8 = 0x8B;

/// Encode one telemetry registry snapshot. Layout: `enabled` flag, the
/// counter / gauge / histogram series, then the trace tail — each a
/// counted vector, the trace events fixed-width at 33 bytes.
fn encode_metrics(buf: &mut Vec<u8>, m: &MetricsSnapshot) {
    put_bool(buf, m.enabled);
    put_u32(buf, m.counters.len() as u32);
    for (name, v) in &m.counters {
        put_str(buf, name);
        put_u64(buf, *v);
    }
    put_u32(buf, m.gauges.len() as u32);
    for (name, v) in &m.gauges {
        put_str(buf, name);
        put_i64(buf, *v);
    }
    put_u32(buf, m.hists.len() as u32);
    for h in &m.hists {
        put_str(buf, &h.name);
        put_u32(buf, h.buckets.len() as u32);
        for b in &h.buckets {
            put_u64(buf, *b);
        }
    }
    put_u32(buf, m.traces.len() as u32);
    for ev in &m.traces {
        put_u64(buf, ev.seq);
        put_u64(buf, ev.at_ns);
        put_u8(buf, ev.kind as u8);
        put_u64(buf, ev.a);
        put_u64(buf, ev.b);
    }
}

/// Decode the [`encode_metrics`] layout.
fn decode_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let enabled = r.bool()?;
    // smallest named series element: empty name (4) + u64/i64 value (8)
    let n = r.count_of(12)?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        counters.push((name, r.u64()?));
    }
    let n = r.count_of(12)?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        gauges.push((name, r.i64()?));
    }
    // smallest histogram: empty name (4) + zero bucket count (4)
    let n = r.count_of(8)?;
    let mut hists = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let nb = r.count_of(8)?;
        let mut buckets = Vec::with_capacity(nb);
        for _ in 0..nb {
            buckets.push(r.u64()?);
        }
        hists.push(HistSnapshot { name, buckets });
    }
    // a trace event is exactly 33 bytes
    let n = r.count_of(33)?;
    let mut traces = Vec::with_capacity(n);
    for _ in 0..n {
        let seq = r.u64()?;
        let at_ns = r.u64()?;
        let kind = r.u8()?;
        let kind = TraceKind::from_u8(kind).ok_or(WireError::BadTag(kind))?;
        traces.push(TraceEvent {
            seq,
            at_ns,
            kind,
            a: r.u64()?,
            b: r.u64()?,
        });
    }
    Ok(MetricsSnapshot {
        enabled,
        counters,
        gauges,
        hists,
        traces,
    })
}

impl Response {
    /// The completion notification for one [`JobReply`].
    pub fn job_done(reply: JobReply) -> Response {
        Response::JobDone {
            job: reply.job.0,
            tenant: reply.tenant.0,
            outcome: reply.outcome.into(),
        }
    }

    /// Encode into a fresh payload buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        match self {
            Response::HelloAck {
                version,
                server,
                shards,
                durability,
            } => {
                put_u8(&mut buf, RESP_HELLO_ACK);
                put_u32(&mut buf, *version);
                put_str(&mut buf, server);
                put_u32(&mut buf, *shards);
                durability.encode(&mut buf);
            }
            Response::JobDone {
                job,
                tenant,
                outcome,
            } => {
                put_u8(&mut buf, RESP_JOB_DONE);
                put_u64(&mut buf, *job);
                put_u64(&mut buf, *tenant);
                match outcome {
                    WireOutcome::Done {
                        events,
                        considerations,
                        executions,
                    } => {
                        put_u8(&mut buf, 0);
                        put_u64(&mut buf, *events);
                        put_u64(&mut buf, *considerations);
                        put_u64(&mut buf, *executions);
                    }
                    WireOutcome::Error { message } => {
                        put_u8(&mut buf, 1);
                        put_str(&mut buf, message);
                    }
                    WireOutcome::Panicked => put_u8(&mut buf, 2),
                    WireOutcome::RefusedDurability { message } => {
                        put_u8(&mut buf, 3);
                        put_str(&mut buf, message);
                    }
                    WireOutcome::Disconnected => put_u8(&mut buf, 4),
                }
            }
            Response::TriggersDefined { outcomes } => {
                put_u8(&mut buf, RESP_TRIGGERS);
                put_u32(&mut buf, outcomes.len() as u32);
                for o in outcomes {
                    o.encode(&mut buf);
                }
            }
            Response::FlushDone => put_u8(&mut buf, RESP_FLUSH_DONE),
            Response::StatsReply(s) => {
                put_u8(&mut buf, RESP_STATS);
                put_u32(&mut buf, s.shards);
                for v in [
                    s.tenants,
                    s.jobs_submitted,
                    s.jobs_processed,
                    s.jobs_shed,
                    s.submits_blocked,
                    s.job_errors,
                    s.job_panics,
                    s.blocks,
                    s.events,
                    s.considerations,
                    s.executions,
                    s.commits,
                    s.rollbacks,
                    s.wal_appends,
                    s.wal_syncs,
                    s.snapshots,
                    s.tenants_recovered,
                    s.jobs_replayed,
                    s.steals,
                    s.ready_queue_depth,
                    s.net_reads_throttled,
                ] {
                    put_u64(&mut buf, v);
                }
                put_u32(&mut buf, s.per_shard.len() as u32);
                for shard in &s.per_shard {
                    for v in [
                        shard.jobs_submitted,
                        shard.jobs_executed,
                        shard.steals,
                        shard.jobs_shed,
                        shard.submits_blocked,
                        shard.queue_depth,
                        shard.tenants,
                    ] {
                        put_u64(&mut buf, v);
                    }
                }
                for v in [
                    s.store_retries,
                    s.shards_poisoned,
                    s.net_conns_reaped,
                    s.evictions,
                    s.rehydrations,
                    s.tenants_resident,
                ] {
                    put_u64(&mut buf, v);
                }
            }
            Response::TenantReply(t) => {
                put_u8(&mut buf, RESP_TENANT);
                match t {
                    TenantReply::NoSuchTenant => put_u8(&mut buf, 0),
                    TenantReply::Extent(oids) => {
                        put_u8(&mut buf, 1);
                        put_u32(&mut buf, oids.len() as u32);
                        for oid in oids {
                            put_u64(&mut buf, *oid);
                        }
                    }
                    TenantReply::EventLogLen(n) => {
                        put_u8(&mut buf, 2);
                        put_u64(&mut buf, *n);
                    }
                    TenantReply::Errors { count, last } => {
                        put_u8(&mut buf, 3);
                        put_u64(&mut buf, *count);
                        match last {
                            Some(msg) => {
                                put_bool(&mut buf, true);
                                put_str(&mut buf, msg);
                            }
                            None => put_bool(&mut buf, false),
                        }
                    }
                    TenantReply::EngineStats {
                        blocks,
                        events,
                        considerations,
                        executions,
                        commits,
                        rollbacks,
                    } => {
                        put_u8(&mut buf, 4);
                        for v in [blocks, events, considerations, executions, commits, rollbacks]
                        {
                            put_u64(&mut buf, *v);
                        }
                    }
                }
            }
            Response::MetricsReply(m) => {
                put_u8(&mut buf, RESP_METRICS);
                encode_metrics(&mut buf, m);
            }
            Response::ShutdownAck => put_u8(&mut buf, RESP_SHUTDOWN_ACK),
            Response::Error { message } => {
                put_u8(&mut buf, RESP_ERROR);
                put_str(&mut buf, message);
            }
            Response::Busy { active, limit } => {
                put_u8(&mut buf, RESP_BUSY);
                put_u32(&mut buf, *active);
                put_u32(&mut buf, *limit);
            }
        }
        buf
    }

    /// Decode one full payload (trailing bytes are an error).
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            RESP_HELLO_ACK => Response::HelloAck {
                version: r.u32()?,
                server: r.str()?,
                shards: r.u32()?,
                durability: WireDurability::decode(&mut r)?,
            },
            RESP_JOB_DONE => {
                let job = r.u64()?;
                let tenant = r.u64()?;
                let outcome = match r.u8()? {
                    0 => WireOutcome::Done {
                        events: r.u64()?,
                        considerations: r.u64()?,
                        executions: r.u64()?,
                    },
                    1 => WireOutcome::Error { message: r.str()? },
                    2 => WireOutcome::Panicked,
                    3 => WireOutcome::RefusedDurability { message: r.str()? },
                    4 => WireOutcome::Disconnected,
                    t => return Err(WireError::BadTag(t)),
                };
                Response::JobDone {
                    job,
                    tenant,
                    outcome,
                }
            }
            RESP_TRIGGERS => {
                // smallest outcome: empty name (4) + error flag (1)
                let n = r.count_of(5)?;
                let mut outcomes = Vec::with_capacity(n);
                for _ in 0..n {
                    outcomes.push(TriggerOutcome::decode(&mut r)?);
                }
                Response::TriggersDefined { outcomes }
            }
            RESP_FLUSH_DONE => Response::FlushDone,
            RESP_STATS => Response::StatsReply(WireStats {
                shards: r.u32()?,
                tenants: r.u64()?,
                jobs_submitted: r.u64()?,
                jobs_processed: r.u64()?,
                jobs_shed: r.u64()?,
                submits_blocked: r.u64()?,
                job_errors: r.u64()?,
                job_panics: r.u64()?,
                blocks: r.u64()?,
                events: r.u64()?,
                considerations: r.u64()?,
                executions: r.u64()?,
                commits: r.u64()?,
                rollbacks: r.u64()?,
                wal_appends: r.u64()?,
                wal_syncs: r.u64()?,
                snapshots: r.u64()?,
                tenants_recovered: r.u64()?,
                jobs_replayed: r.u64()?,
                steals: r.u64()?,
                ready_queue_depth: r.u64()?,
                net_reads_throttled: r.u64()?,
                per_shard: {
                    // one per-shard entry is exactly 7 u64s
                    let n = r.count_of(56)?;
                    let mut per_shard = Vec::with_capacity(n);
                    for _ in 0..n {
                        per_shard.push(WireShardStats {
                            jobs_submitted: r.u64()?,
                            jobs_executed: r.u64()?,
                            steals: r.u64()?,
                            jobs_shed: r.u64()?,
                            submits_blocked: r.u64()?,
                            queue_depth: r.u64()?,
                            tenants: r.u64()?,
                        });
                    }
                    per_shard
                },
                store_retries: r.u64()?,
                shards_poisoned: r.u64()?,
                net_conns_reaped: r.u64()?,
                evictions: r.u64()?,
                rehydrations: r.u64()?,
                tenants_resident: r.u64()?,
            }),
            RESP_TENANT => {
                let reply = match r.u8()? {
                    0 => TenantReply::NoSuchTenant,
                    1 => {
                        // an oid is exactly 8 bytes
                        let n = r.count_of(8)?;
                        let mut oids = Vec::with_capacity(n);
                        for _ in 0..n {
                            oids.push(r.u64()?);
                        }
                        TenantReply::Extent(oids)
                    }
                    2 => TenantReply::EventLogLen(r.u64()?),
                    3 => {
                        let count = r.u64()?;
                        let last = if r.bool()? { Some(r.str()?) } else { None };
                        TenantReply::Errors { count, last }
                    }
                    4 => TenantReply::EngineStats {
                        blocks: r.u64()?,
                        events: r.u64()?,
                        considerations: r.u64()?,
                        executions: r.u64()?,
                        commits: r.u64()?,
                        rollbacks: r.u64()?,
                    },
                    t => return Err(WireError::BadTag(t)),
                };
                Response::TenantReply(reply)
            }
            RESP_METRICS => Response::MetricsReply(decode_metrics(&mut r)?),
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            RESP_ERROR => Response::Error { message: r.str()? },
            RESP_BUSY => Response::Busy {
                active: r.u32()?,
                limit: r.u32()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(resp)
    }
}
