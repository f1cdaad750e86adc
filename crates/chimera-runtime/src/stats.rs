//! Aggregated runtime counters.

use chimera_exec::EngineStats;
use chimera_rules::table::SupportStats;

/// A point-in-time aggregate over every shard and tenant engine of a
/// [`crate::Runtime`]: admission-pool accounting (submitted / processed /
/// shed / blocked), scheduler activity (steals, staged depth), job
/// failures, the per-home-shard breakdown, and the summed engine +
/// trigger-support work counters. Obtained from [`crate::Runtime::stats`];
/// exact when the runtime is quiesced (after [`crate::Runtime::flush`]),
/// a live snapshot otherwise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Shards (= worker threads = home shards) in the runtime.
    pub shards: usize,
    /// Tenants the runtime holds state for: resident engines *plus*
    /// evicted tenants parked as snapshots.
    pub tenants: usize,
    /// Tenants with an engine in RAM right now (live gauge; at most the
    /// configured [`chimera_lifecycle::LifecycleConfig`] residency cap,
    /// modulo in-flight claims).
    pub tenants_resident: u64,
    /// Cold tenant engines snapshotted to their home store and dropped
    /// from RAM (lifetime count).
    pub evictions: u64,
    /// Evicted tenants rebuilt in RAM at claim time (lifetime count).
    pub rehydrations: u64,
    /// Jobs admitted into the pool (shed submissions are not counted).
    pub jobs_submitted: u64,
    /// Jobs fully processed by a worker.
    pub jobs_processed: u64,
    /// Jobs rejected by the [`crate::Backpressure::Shed`] policy because
    /// the tenant's home shard was at capacity.
    pub jobs_shed: u64,
    /// Submissions that found the home shard full and had to wait under
    /// the [`crate::Backpressure::Block`] policy.
    pub submits_blocked: u64,
    /// Claims in which a worker ran a tenant homed on a *different*
    /// shard ([`crate::Scheduler::LoadAware`] work stealing; always zero
    /// under [`crate::Scheduler::Pinned`] outside the shutdown drain).
    pub steals: u64,
    /// Jobs currently staged in the admission pool (admitted, not yet
    /// claimed by any worker), summed over the home shards. A live
    /// gauge, not a monotone counter; zero when quiesced.
    pub ready_queue_depth: u64,
    /// Jobs whose engine operation returned an error (recorded per
    /// tenant; the job still counts as processed).
    pub job_errors: u64,
    /// Worker-side panics while processing a job (the tenant's engine is
    /// discarded; the runtime keeps serving every other tenant).
    pub job_panics: u64,
    /// Job records appended to the shards' job logs (durable storage
    /// only; zero on in-memory runtimes).
    pub wal_appends: u64,
    /// fsyncs the shards' stores issued. Under group commit this counts
    /// *batches*, so `wal_appends / wal_syncs` is the achieved group
    /// size.
    pub wal_syncs: u64,
    /// Cumulative wall-clock nanoseconds the stores spent inside fsync,
    /// summed over the shards — `wal_sync_nanos / wal_syncs` is the mean
    /// fsync cost the group commit amortizes across each batch.
    pub wal_sync_nanos: u64,
    /// Shard snapshots written (periodic job-log compaction).
    pub snapshots: u64,
    /// Tenants rebuilt from shard snapshots at startup.
    pub tenants_recovered: u64,
    /// Logged jobs replayed on top of snapshots at startup.
    pub jobs_replayed: u64,
    /// Transient store faults absorbed by the bounded retry loop instead
    /// of poisoning a home (summed over the shards).
    pub store_retries: u64,
    /// Home shards whose durability is currently *poisoned* (a store
    /// fault beyond the retry budget): their tenants get typed
    /// [`crate::JobOutcome::RefusedDurability`] answers until
    /// [`crate::Runtime::reopen_shard_store`] repairs them. A live
    /// gauge, not a monotone counter.
    pub shards_poisoned: u64,
    /// Per-home-shard breakdown of the pool and worker counters — the
    /// view that makes hot-tenant skew *observable*: a hot home shows a
    /// high `jobs_submitted` while (under load-aware scheduling) the
    /// other workers' `jobs_executed`/`steals` show who actually ran the
    /// work. Indexed by shard; `per_shard.len() == shards`.
    pub per_shard: Vec<ShardStats>,
    /// Engine work counters, summed over every tenant engine.
    pub engine: EngineStats,
    /// Trigger-support counters, summed over every tenant engine.
    pub support: SupportStats,
}

/// One home shard's slice of the runtime counters. Submission-side
/// numbers (`jobs_submitted`, `jobs_shed`, `submits_blocked`,
/// `queue_depth`, `tenants`) are per *home* — the shard the tenant hashes
/// to; execution-side numbers (`jobs_executed`, `steals`) are per
/// *worker* — the thread with the same index. Under
/// [`crate::Scheduler::Pinned`] the two coincide; under
/// [`crate::Scheduler::LoadAware`] their divergence is the skew being
/// absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Jobs admitted with this shard as their tenant's home.
    pub jobs_submitted: u64,
    /// Jobs executed by this shard's worker thread (own + stolen).
    pub jobs_executed: u64,
    /// Claims in which this worker ran a tenant homed elsewhere.
    pub steals: u64,
    /// Jobs shed against this home's capacity.
    pub jobs_shed: u64,
    /// Blocked submissions against this home's capacity.
    pub submits_blocked: u64,
    /// Jobs currently staged against this home (live gauge).
    pub queue_depth: u64,
    /// Live tenant engines homed on this shard.
    pub tenants: u64,
    /// Transient store faults this home's retry loop absorbed.
    pub store_retries: u64,
    /// Whether this home's durability is currently poisoned.
    pub poisoned: bool,
}

impl RuntimeStats {
    /// Fold one tenant engine's counters into the aggregate.
    pub(crate) fn add_engine(&mut self, e: EngineStats) {
        self.engine.blocks += e.blocks;
        self.engine.events += e.events;
        self.engine.considerations += e.considerations;
        self.engine.executions += e.executions;
        self.engine.commits += e.commits;
        self.engine.rollbacks += e.rollbacks;
    }

    /// Fold one tenant engine's trigger-support counters in.
    pub(crate) fn add_support(&mut self, s: SupportStats) {
        self.support.rules_checked += s.rules_checked;
        self.support.skipped_by_filter += s.skipped_by_filter;
        self.support.ts_probes += s.ts_probes;
        self.support.probe_memo_hits += s.probe_memo_hits;
        self.support.check_rounds += s.check_rounds;
    }
}
