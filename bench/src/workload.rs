//! The workload table, the seeded job generator, and the sequential
//! engine pass that is both the correctness oracle and rung `engine`.
//!
//! A connection's job stream is a sequence of whole transactions
//! (`Begin`, the workload's blocks, `Commit`), each for one tenant drawn
//! from the connection's own half of the tenant population
//! (`tenant % 2 == connection`, so a tenant's FIFO stays on one socket).
//! Whole transactions keep safe points frequent: the runtime only
//! snapshots a home shard, and only evicts a tenant, outside a
//! transaction.

use chimera_events::{EventOccurrence, EventType};
use chimera_exec::{Engine, EngineConfig};
use chimera_lifecycle::LifecycleConfig;
use chimera_model::{AttrDef, AttrType, ClassId, Schema, SchemaBuilder, Value};
use chimera_net::{ExternalEvent, WireJob, WireOp, WireOutcome};
use chimera_rules::TriggerDef;
use chimera_runtime::{
    Backpressure, DurabilityConfig, Job, RecoveryReport, Runtime, RuntimeConfig, Scheduler,
    StorageMode, StoreWrap,
};
use chimera_workload::{
    stock_schema, stock_triggers, ExprGenConfig, RandomExprGen, ZipfTenants, ZipfTenantsConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::path::Path;

/// Server worker threads (= home shards) and load-generator connections.
/// Both are 2 because the reference host has two cores.
pub const SHARDS: usize = 2;
pub const CONNS: usize = 2;

/// The rule set is part of the workload, not of the run: a different
/// random rule set changes the cost of every event by far more than any
/// regression bound, so `--seed` reseeds the traffic and leaves this.
const RULESET_SEED: u64 = 0x00C0_FFEE;
/// External channels the seeded rules listen on; traffic puts half of
/// its events here and half on channels no rule mentions.
const RULE_CHANNELS: u32 = 16;
const IDLE_CHANNEL_BASE: u32 = 1000;
/// Pseudo-objects external events are raised against (the domain the
/// instance operators and the negation fold range over).
const EXTERNAL_OIDS: u64 = 32;
/// Population caps of the stock generator: without them every tenant's
/// extents grow for the whole run and the cost of a job drifts.
const MAX_STOCKS: usize = 32;
const MAX_SHOWS: usize = 8;

/// What one transaction of a workload looks like.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The paper's §3.2 stock domain: `blocks` × `ExecBlock` of 1–4 ops
    /// under the three `stock_triggers`.
    Stock { blocks: usize },
    /// `blocks` × `RaiseExternal` of `events` occurrences under `rules`
    /// seeded random rules (negation and instance operators included).
    External {
        blocks: usize,
        events: usize,
        rules: usize,
    },
}

/// How the untimed warm-up is sized.
#[derive(Debug, Clone, Copy)]
pub enum Prefill {
    /// This many transactions per connection.
    Txns(usize),
    /// One transaction for every tenant, in id order.
    EveryTenant,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// What the workload stresses; `why()` puts the sizes in front of it.
    pub reason: &'static str,
    pub tenants: u64,
    /// Zipf exponent of the tenant draw; `0.0` is uniform.
    pub zipf_s: f64,
    pub shape: Shape,
    pub durable: bool,
    pub max_resident: Option<usize>,
    pub prefill: Prefill,
    /// Frozen reference: jobs per second the seed commit sustains in the
    /// `sat` phase on the reference host. Sizes `sat` so that it lasts
    /// its share of `--seconds`; it is not a measurement.
    pub sat_jobs_per_s: f64,
    /// Frozen offered load of the `paced` phase, both connections
    /// together (about 30 % of `sat_jobs_per_s`).
    pub paced_jobs_per_s: f64,
    /// Tenants per connection that get an oracle engine. Detection on
    /// `detect_heavy` costs as much in the oracle as in the server, so
    /// only a seeded half is replayed there; every other job is still
    /// checked for `Done` and its event count.
    pub oracle_tenants: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "detect_heavy",
        reason: "detection does the work, wire/store/lifecycle idle",
        tenants: 4,
        zipf_s: 0.0,
        shape: Shape::External {
            blocks: 64,
            events: 64,
            rules: 100,
        },
        durable: false,
        max_resident: None,
        prefill: Prefill::Txns(1),
        sat_jobs_per_s: 570.0,
        paced_jobs_per_s: 150.0,
        oracle_tenants: 1,
    },
    Spec {
        name: "small_block_rtt",
        reason: "per-job framing, wake-ups and admission dominate",
        tenants: 64,
        zipf_s: 0.0,
        shape: Shape::Stock { blocks: 5 },
        durable: false,
        max_resident: None,
        prefill: Prefill::Txns(2048),
        sat_jobs_per_s: 80_000.0,
        paced_jobs_per_s: 4_000.0,
        oracle_tenants: 32,
    },
    Spec {
        name: "durable_commit",
        reason: "append, fsync and snapshots dominate",
        tenants: 16,
        zipf_s: 0.0,
        shape: Shape::External {
            blocks: 2,
            events: 4,
            rules: 8,
        },
        durable: true,
        max_resident: None,
        prefill: Prefill::Txns(256),
        sat_jobs_per_s: 40_000.0,
        paced_jobs_per_s: 1_000.0,
        oracle_tenants: 8,
    },
    Spec {
        name: "tenant_churn",
        reason: "evict/rehydrate and cold plan scratch dominate",
        tenants: 1024,
        zipf_s: 1.1,
        shape: Shape::External {
            blocks: 1,
            events: 8,
            rules: 20,
        },
        durable: true,
        max_resident: Some(64),
        prefill: Prefill::EveryTenant,
        sat_jobs_per_s: 7_400.0,
        paced_jobs_per_s: 1_000.0,
        oracle_tenants: 512,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The `why` line of `BENCHMARK.json`: the sizes, read off the fields
    /// that set them so the line cannot drift from the code, then the
    /// reason.
    pub fn why(&self) -> String {
        let draw = match self.zipf_s {
            s if s > 0.0 => format!(" Zipf({s})"),
            _ => String::new(),
        };
        let cap = self
            .max_resident
            .map_or_else(String::new, |n| format!(" under a {n}-tenant cap"));
        let txn = match self.shape {
            Shape::Stock { blocks } => format!("stock txns of {blocks} blocks of 1-4 ops"),
            Shape::External {
                blocks,
                events,
                rules,
            } => format!("txns of {blocks} x {events}-event blocks, {rules} random rules"),
        };
        let storage = if self.durable {
            "group-commit durable store"
        } else {
            "in memory"
        };
        format!(
            "{}{draw} tenants{cap}, {txn}, {storage}: {}",
            self.tenants, self.reason
        )
    }

    pub fn jobs_per_txn(&self) -> usize {
        match self.shape {
            Shape::Stock { blocks } | Shape::External { blocks, .. } => blocks + 2,
        }
    }

    pub fn prefill_txns(&self) -> usize {
        match self.prefill {
            Prefill::Txns(n) => n,
            Prefill::EveryTenant => (self.tenants as usize).div_ceil(CONNS),
        }
    }

    pub fn schema(&self) -> Schema {
        match self.shape {
            Shape::Stock { .. } => stock_schema(),
            Shape::External { .. } => {
                let mut b = SchemaBuilder::new();
                b.class("item", None, vec![AttrDef::new("qty", AttrType::Integer)])
                    .expect("one-class schema");
                b.build()
            }
        }
    }

    /// The runtime-wide rule set every tenant engine starts with.
    pub fn rules(&self, schema: &Schema) -> Vec<TriggerDef> {
        match self.shape {
            Shape::Stock { .. } => stock_triggers(schema),
            Shape::External { rules, .. } => {
                let mut g = RandomExprGen::new(ExprGenConfig {
                    event_types: RULE_CHANNELS,
                    max_depth: 4,
                    instance_prob: 0.3,
                    negation_prob: 0.2,
                    seed: RULESET_SEED,
                });
                (0..rules)
                    .map(|i| TriggerDef::new(format!("r{i}"), g.generate()))
                    .collect()
            }
        }
    }

    fn engine_config() -> EngineConfig {
        EngineConfig {
            // 100 rules × 64 blocks can exceed the default cascade guard
            // without any rule cascading
            max_rule_steps: usize::MAX / 2,
            ..EngineConfig::default()
        }
    }

    fn engine(&self, schema: &Schema, rules: &[TriggerDef]) -> Engine {
        let mut engine = Engine::with_config(schema.clone(), Spec::engine_config());
        for def in rules {
            engine
                .define_trigger(def.clone())
                .expect("workload rule set is valid");
        }
        engine
    }

    /// The runtime configuration of this workload with the given layers
    /// switched on (the ladder switches them on one at a time; the
    /// end-to-end server has `store` and `cap` on, telemetry off).
    pub fn runtime_config(&self, layers: &Layers<'_>) -> RuntimeConfig {
        let storage = match layers.store {
            Some(dir) if self.durable => StorageMode::Durable(DurabilityConfig::new(dir)),
            _ => StorageMode::InMemory,
        };
        let lifecycle = match self.max_resident {
            Some(n) if layers.cap => LifecycleConfig::with_max_resident(n),
            _ => LifecycleConfig::unbounded(),
        };
        RuntimeConfig {
            shards: SHARDS,
            queue_capacity: 256,
            backpressure: Backpressure::Block,
            scheduler: Scheduler::LoadAware,
            engine: Spec::engine_config(),
            storage,
            store_wrap: layers.wrap.clone(),
            telemetry: layers.telemetry,
            lifecycle,
        }
    }
}

impl Spec {
    /// Build this workload's runtime with `layers` switched on; on a
    /// durable directory that already holds state this is recovery.
    pub fn recover(&self, layers: &Layers<'_>) -> Result<(Runtime, RecoveryReport), String> {
        let schema = self.schema();
        let rules = self.rules(&schema);
        Runtime::recover(schema, rules, self.runtime_config(layers)).map_err(|e| e.to_string())
    }
}

/// Which layers a runtime is built with.
#[derive(Default)]
pub struct Layers<'a> {
    /// Data directory; the workload's `StorageMode` applies when set.
    pub store: Option<&'a Path>,
    /// Apply the workload's residency cap.
    pub cap: bool,
    pub telemetry: bool,
    pub wrap: Option<StoreWrap>,
}

/// What a job must report back: the summary a sequential engine gives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub events: u64,
    /// `(considerations, executions)`; `None` on tenants outside the
    /// oracle sample.
    pub rules: Option<(u64, u64)>,
}

impl Expect {
    pub fn matches(&self, outcome: &WireOutcome) -> bool {
        match *outcome {
            WireOutcome::Done {
                events,
                considerations,
                executions,
            } => {
                events == self.events
                    && self.rules.is_none_or(|r| r == (considerations, executions))
            }
            _ => false,
        }
    }
}

/// Share of `--seconds` spent in `sat`; the rest is `paced`.
const SAT_SHARE: f64 = 0.4;

/// Server instances an end-to-end run divides `--seconds` among. Fixed:
/// it sets both the time each instance measures and the sample count
/// behind every median, so records made with different counts would not
/// be comparable. (`smoke` runs one instance, and compares nothing.)
pub const INSTANCES: usize = 6;

/// Transactions per phase, per connection.
#[derive(Debug, Clone, Copy)]
pub struct Txns {
    pub prefill: usize,
    pub sat: usize,
    pub paced: usize,
}

impl Txns {
    /// Size the phases for `seconds` of measurement: 40 % closed-loop
    /// `sat` (at the frozen reference rate), 60 % `paced`.
    pub fn for_seconds(spec: &Spec, seconds: f64) -> Txns {
        let per_conn = |jobs_per_s: f64, share: f64| {
            let jobs = jobs_per_s * seconds * share / CONNS as f64;
            ((jobs / spec.jobs_per_txn() as f64).round() as usize).max(1)
        };
        Txns {
            prefill: spec.prefill_txns(),
            sat: per_conn(spec.sat_jobs_per_s, SAT_SHARE),
            paced: per_conn(spec.paced_jobs_per_s, 1.0 - SAT_SHARE),
        }
    }

    /// Jobs per connection in each phase: `(prefill, sat, paced)`.
    pub fn jobs(&self, spec: &Spec) -> (usize, usize, usize) {
        let per_txn = spec.jobs_per_txn();
        (
            self.prefill * per_txn,
            self.sat * per_txn,
            self.paced * per_txn,
        )
    }
}

/// One connection's whole job stream with its expectations.
#[derive(Clone)]
pub struct ConnPlan {
    pub jobs: Vec<(u64, WireJob)>,
    pub expect: Vec<Expect>,
}

/// Which tenants the oracle replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    All,
    /// The workload's `oracle_tenants` per connection, chosen by seed.
    Seeded(u64),
    /// None: only event counts are known (generation without checking).
    /// The stock generator cannot use this — it learns object ids from
    /// the oracle's engines.
    Nothing,
}

/// Generate both connections' streams (one thread each: their tenants
/// are disjoint) and their expectations. Returns the plans and the
/// seconds it took.
pub fn plan(spec: &Spec, seed: u64, txns: Txns, sample: Sample) -> (Vec<ConnPlan>, f64) {
    let started = std::time::Instant::now();
    let plans = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS as u64)
            .map(|conn| scope.spawn(move || generate(spec, sample, seed, conn, txns)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    (plans, started.elapsed().as_secs_f64())
}

/// The sequential pass: every sampled tenant's jobs through a private
/// `Engine`, in stream order, recording each job's counter delta.
pub struct Oracle<'a> {
    spec: &'a Spec,
    schema: Schema,
    rules: Vec<TriggerDef>,
    sample: Sample,
    engines: HashMap<u64, Engine>,
}

impl Oracle<'_> {
    pub fn new(spec: &Spec, sample: Sample) -> Oracle<'_> {
        let schema = spec.schema();
        Oracle {
            rules: spec.rules(&schema),
            schema,
            spec,
            sample,
            engines: HashMap::new(),
        }
    }

    fn sampled(&self, tenant: u64) -> bool {
        match self.sample {
            Sample::All => true,
            Sample::Nothing => false,
            Sample::Seeded(seed) => {
                let locals = self.spec.tenants / CONNS as u64;
                (tenant / CONNS as u64 + seed) % locals < self.spec.oracle_tenants
            }
        }
    }

    /// Run one job; what it must report, and the occurrences it raised
    /// (empty outside the sample).
    fn apply(&mut self, tenant: u64, job: &WireJob) -> (Expect, Vec<EventOccurrence>) {
        if !self.sampled(tenant) {
            let events = match job {
                WireJob::RaiseExternal(evs) => evs.len() as u64,
                _ => 0,
            };
            let expect = Expect {
                events,
                rules: None,
            };
            return (expect, Vec::new());
        }
        let engine = self
            .engines
            .entry(tenant)
            .or_insert_with(|| self.spec.engine(&self.schema, &self.rules));
        let before = engine.stats();
        // the generated streams never produce a failing job, so a failure
        // here is a generator bug
        let occurrences = match job.clone().into_job() {
            Job::Begin => engine.begin().map(|()| Vec::new()),
            Job::ExecBlock(ops) => engine.exec_block(&ops),
            Job::RaiseExternal(evs) => engine.raise_external(&evs),
            Job::Commit => engine.commit().map(|()| Vec::new()),
            other => unreachable!("the generator never emits {other:?}"),
        }
        .expect("generated jobs are valid");
        let after = engine.stats();
        let expect = Expect {
            events: after.events - before.events,
            rules: Some((
                after.considerations - before.considerations,
                after.executions - before.executions,
            )),
        };
        (expect, occurrences)
    }

    pub fn feed(&mut self, jobs: &[(u64, WireJob)]) -> Vec<Expect> {
        jobs.iter()
            .map(|(tenant, job)| self.apply(*tenant, job).0)
            .collect()
    }
}

fn generate(spec: &Spec, sample: Sample, seed: u64, conn: u64, txns: Txns) -> ConnPlan {
    let mut oracle = Oracle::new(spec, sample);
    let local_tenants = spec.tenants / CONNS as u64;
    let stream_seed = seed ^ (conn + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut zipf = ZipfTenants::new(ZipfTenantsConfig {
        tenants: local_tenants,
        s: spec.zipf_s,
        hot_boost: 1.0,
        seed: stream_seed ^ 0x5EED,
    });
    let total = txns.prefill + txns.sat + txns.paced;
    let mut plan = ConnPlan {
        jobs: Vec::with_capacity(total * spec.jobs_per_txn()),
        expect: Vec::with_capacity(total * spec.jobs_per_txn()),
    };
    let mut emit = |oracle: &mut Oracle, tenant: u64, job: WireJob| {
        let (expect, occurrences) = oracle.apply(tenant, &job);
        plan.jobs.push((tenant, job));
        plan.expect.push(expect);
        occurrences
    };
    let ids = StockIds::of(&oracle.schema);
    let mut stock: HashMap<u64, StockTenant> = HashMap::new();
    for k in 0..total {
        let local = match spec.prefill {
            Prefill::EveryTenant if k < txns.prefill => k as u64 % local_tenants,
            _ => zipf.next_rank(),
        };
        let tenant = local * CONNS as u64 + conn;
        emit(&mut oracle, tenant, WireJob::Begin);
        match spec.shape {
            Shape::External { blocks, events, .. } => {
                for _ in 0..blocks {
                    let block = external_block(&mut rng, events);
                    emit(&mut oracle, tenant, WireJob::RaiseExternal(block));
                }
            }
            Shape::Stock { blocks } => {
                let ids = ids.as_ref().expect("stock schema");
                let t = stock.entry(tenant).or_default();
                for _ in 0..blocks {
                    let ops = t.block(ids, &mut rng);
                    t.learn(ids, &emit(&mut oracle, tenant, WireJob::ExecBlock(ops)));
                }
            }
        }
        emit(&mut oracle, tenant, WireJob::Commit);
    }
    plan
}

fn external_block(rng: &mut StdRng, events: usize) -> Vec<ExternalEvent> {
    (0..events)
        .map(|_| {
            let channel = rng.random_range(0..RULE_CHANNELS);
            ExternalEvent {
                class: 0,
                channel: if rng.random_bool(0.5) {
                    channel
                } else {
                    IDLE_CHANNEL_BASE + channel
                },
                oid: rng.random_range(1..=EXTERNAL_OIDS),
            }
        })
        .collect()
}

/// The stock schema's ids, looked up once.
struct StockIds {
    stock: ClassId,
    show: ClassId,
    quantity: u32,
    show_quantity: u32,
}

impl StockIds {
    fn of(schema: &Schema) -> Option<StockIds> {
        let stock = schema.class_by_name("stock").ok()?;
        let show = schema.class_by_name("show").ok()?;
        Some(StockIds {
            stock,
            show,
            quantity: schema.attr_by_name(stock, "quantity").ok()?.0,
            show_quantity: schema.attr_by_name(show, "quantity").ok()?.0,
        })
    }
}

/// The generator's view of one stock tenant: the objects it may target.
/// Object ids are allocated by the engine (rule actions create objects
/// too), so they are only known from the occurrences a block raised.
#[derive(Default)]
struct StockTenant {
    stocks: Vec<u64>,
    shows: Vec<u64>,
}

impl StockTenant {
    /// One block of 1–4 ops in the mix of `StockWorkload` (3 create
    /// stock : 1 create show : 3 modify stock : 2 modify show : 1 delete
    /// stock), with both populations capped.
    fn block(&self, ids: &StockIds, rng: &mut StdRng) -> Vec<WireOp> {
        // ids this block already deleted cannot be targeted again in it
        let mut stocks = self.stocks.clone();
        let create_stock = |rng: &mut StdRng| WireOp::Create {
            class: ids.stock.0,
            inits: vec![(ids.quantity, Value::Int(rng.random_range(0..200)))],
        };
        (0..rng.random_range(1..=4usize))
            .map(|_| match rng.random_range(0..10u32) {
                0..=2 if stocks.len() < MAX_STOCKS => create_stock(rng),
                3 if self.shows.len() < MAX_SHOWS => WireOp::Create {
                    class: ids.show.0,
                    inits: vec![(ids.show_quantity, Value::Int(rng.random_range(0..50)))],
                },
                7..=8 if !self.shows.is_empty() => WireOp::Modify {
                    oid: self.shows[rng.random_range(0..self.shows.len())],
                    attr: ids.show_quantity,
                    value: Value::Int(rng.random_range(0..50)),
                },
                9 if stocks.len() > 2 => WireOp::Delete {
                    oid: stocks.swap_remove(rng.random_range(0..stocks.len())),
                },
                _ if !stocks.is_empty() => WireOp::Modify {
                    oid: stocks[rng.random_range(0..stocks.len())],
                    attr: ids.quantity,
                    value: Value::Int(rng.random_range(0..200)),
                },
                _ => create_stock(rng),
            })
            .collect()
    }

    fn learn(&mut self, ids: &StockIds, occurrences: &[EventOccurrence]) {
        for occ in occurrences {
            if occ.ty == EventType::create(ids.stock) {
                self.stocks.push(occ.oid.0);
            } else if occ.ty == EventType::create(ids.show) {
                self.shows.push(occ.oid.0);
            } else if occ.ty == EventType::delete(ids.stock) {
                self.stocks.retain(|&s| s != occ.oid.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Txns = Txns {
        prefill: 2,
        sat: 3,
        paced: 2,
    };

    #[test]
    fn same_seed_same_stream_and_tenants_stay_on_their_connection() {
        for spec in &WORKLOADS {
            let (a, _) = plan(spec, 7, TINY, Sample::Seeded(7));
            let (b, _) = plan(spec, 7, TINY, Sample::Seeded(7));
            let (c, _) = plan(spec, 8, TINY, Sample::Seeded(8));
            for conn in 0..CONNS {
                assert_eq!(a[conn].jobs, b[conn].jobs, "{}", spec.name);
                assert_eq!(a[conn].expect, b[conn].expect, "{}", spec.name);
                assert!(a[conn]
                    .jobs
                    .iter()
                    .all(|(t, _)| *t as usize % CONNS == conn));
                assert_eq!(a[conn].jobs.len(), 7 * spec.jobs_per_txn());
            }
            assert_ne!(
                a[0].jobs, c[0].jobs,
                "{}: seed must reseed traffic",
                spec.name
            );
        }
    }

    #[test]
    fn a_longer_plan_extends_a_shorter_one() {
        let spec = spec("small_block_rtt").unwrap();
        let short = Txns {
            prefill: 2,
            sat: 2,
            paced: 0,
        };
        let long = Txns {
            prefill: 2,
            sat: 8,
            paced: 0,
        };
        let (a, _) = plan(spec, 3, short, Sample::All);
        let (b, _) = plan(spec, 3, long, Sample::All);
        assert_eq!(a[1].jobs[..], b[1].jobs[..a[1].jobs.len()]);
    }
}
