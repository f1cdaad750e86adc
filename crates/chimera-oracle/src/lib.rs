//! The sequential oracle the runtime's equivalence suites share.
//!
//! The paper defines one semantics: the `ts` calculus plus §4.4's
//! triggering predicate, run by one sequential [`Engine`]. Every layer
//! above that engine must be invisible to tenant semantics: the sharded
//! runtime, the wire front-end, the durable store and its crash
//! recovery, injected storage faults and the residency cap. The suites
//! that check this share one oracle, kept here, so each suite holds only
//! its medium — how a script reaches the engines — and the assertions
//! that medium adds.
//!
//! * [`Setup`]: the [`schema`] (one `item` class), a seeded
//!   [`random_rules`] set and the engine configuration;
//! * [`trigger_source`]: the tenant-local trigger sources scripts define;
//! * [`Script`]: one interleaved multi-tenant job script, drawn from a
//!   seed with the tenants picked uniformly or by Zipf ([`Pick`]);
//! * [`Observed`] / [`observe`]: everything a tenant engine shows;
//! * [`oracle_replay`]: a fresh engine replaying a prefix of one
//!   tenant's jobs with the shard worker's exact semantics, asserting
//!   the rest state after every transaction end;
//! * [`compare`] / [`compare_tenant`]: every tenant, or one, of a
//!   runtime against its replay;
//! * [`survived_jobs`]: the per-tenant surviving prefix of a data
//!   directory, read from the disk itself;
//! * [`TempDir`]: a data directory removed on drop;
//! * [`medium`]: the script submitted to a runtime or over the wire,
//!   and a transient-fault store wrapper.
//!
//! The crate is dev-only: it is not published, only the root package's
//! tests depend on it, and the facade does not re-export it.

use chimera_events::{EventType, Timestamp};
use chimera_exec::{Engine, EngineConfig, EngineStats, Op};
use chimera_model::{AttrDef, AttrId, AttrType, ClassId, Oid, Schema, SchemaBuilder, Value};
use chimera_persist::{JobLog, ShardSnapshot};
use chimera_rules::table::SupportStats;
use chimera_rules::{ActionStmt, TriggerDef};
use chimera_runtime::{
    DurabilityConfig, Job, RecoveryReport, Runtime, RuntimeConfig, StorageMode, TenantId,
};
use chimera_workload::{ExprGenConfig, RandomExprGen, ZipfTenants, ZipfTenantsConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub mod medium;

/// `item.qty`, the attribute scripts initialize and modify.
pub const QTY: AttrId = AttrId(0);

/// The test schema: one class, so its id is the `ClassId(0)` the random
/// expression generator raises external events on.
pub fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class(
        "item",
        None,
        vec![
            AttrDef::new("qty", AttrType::Integer),
            AttrDef::with_default("tag", AttrType::Integer, Value::Int(0)),
        ],
    )
    .unwrap();
    let s = b.build();
    assert_eq!(s.class_by_name("item").unwrap(), ClassId(0));
    s
}

/// A random runtime-wide rule set: 2 to 5 random §3 expressions over the
/// generator's external event types, a third of them with a Create
/// action, so firings have net store effects and may cascade.
pub fn random_rules(seed: u64) -> Vec<TriggerDef> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RandomExprGen::new(ExprGenConfig {
        event_types: 4,
        max_depth: 3,
        instance_prob: 0.5,
        negation_prob: 0.2,
        seed: seed ^ 0xD1CE,
    });
    let k = rng.random_range(2..6usize);
    (0..k)
        .map(|i| {
            let mut def = TriggerDef::new(format!("r{i}"), g.generate());
            def.priority = rng.random_range(0..3i32);
            if i % 3 == 0 {
                def.actions = vec![ActionStmt::Create {
                    class: "item".into(),
                    inits: vec![],
                }];
            }
            def
        })
        .collect()
}

/// A tenant-local trigger source of one declaration, in concrete §2–§3
/// syntax. `k % 4` picks it: `0..3` are `s0`..`s2`, a modify cascade on
/// created or re-quantified items; `3` is `wireAudit`, which creates an
/// item on external channel 2. Only four names exist, so scripts
/// redefine names, and a duplicate definition must fail identically
/// everywhere.
pub fn trigger_source(k: u64) -> String {
    match k % 4 {
        3 => "define immediate trigger wireAudit for item\n\
                events external(item#2)\n\
                condition item(S)\n\
                actions create(item)\n\
              end"
        .into(),
        k => format!(
            "define immediate trigger s{k} for item\n\
               events create, modify(qty)\n\
               condition item(S), S.qty > S.tag\n\
               actions modify(S.qty, S.tag)\n\
             end"
        ),
    }
}

/// What every medium runs: the schema, the runtime-wide rules and the
/// engine configuration.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The [`schema`].
    pub schema: Schema,
    /// Its `item` class.
    pub item: ClassId,
    /// The runtime-wide rules every tenant engine starts with.
    pub rules: Vec<TriggerDef>,
    /// Rule cascades stop after 64 steps, so a runaway cascade is a job
    /// error that every medium must report as the oracle does.
    pub engine: EngineConfig,
}

impl Setup {
    /// The [`schema`] under `rules`.
    pub fn new(rules: Vec<TriggerDef>) -> Setup {
        let schema = schema();
        Setup {
            item: schema.class_by_name("item").unwrap(),
            schema,
            rules,
            engine: EngineConfig {
                max_rule_steps: 64,
                ..EngineConfig::default()
            },
        }
    }

    /// The [`schema`] under [`random_rules`]`(rule_seed)`.
    pub fn seeded(rule_seed: u64) -> Setup {
        Setup::new(random_rules(rule_seed))
    }

    /// An in-memory runtime configuration of `shards` workers running
    /// this setup's engines; the suites override the fields their medium
    /// needs.
    pub fn config(&self, shards: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            engine: self.engine.clone(),
            ..Default::default()
        }
    }

    /// A fresh runtime over this setup.
    pub fn runtime(&self, config: RuntimeConfig) -> Runtime {
        Runtime::new(self.schema.clone(), self.rules.clone(), config).unwrap()
    }

    /// A runtime recovered from the data directory `config` names.
    pub fn recover(&self, config: RuntimeConfig) -> (Runtime, RecoveryReport) {
        Runtime::recover(self.schema.clone(), self.rules.clone(), config).unwrap()
    }
}

/// Durable storage rooted at `dir`, with a full snapshot every
/// `snapshot_every` groups (0: never).
pub fn durable(dir: &Path, snapshot_every: u64) -> StorageMode {
    StorageMode::Durable(DurabilityConfig {
        dir: dir.to_path_buf(),
        snapshot_every,
    })
}

/// How a script picks the tenant of each step.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Every tenant alike.
    Uniform,
    /// Zipf-skewed with exponent `s`; tenant 0 is the hot one, its
    /// weight multiplied by `hot_boost`.
    Zipf {
        /// The Zipf exponent.
        s: f64,
        /// Extra weight on tenant 0.
        hot_boost: f64,
    },
}

/// One interleaved multi-tenant job script.
#[derive(Debug, Clone)]
pub struct Script {
    /// Every step in submission order: its tenant and its job.
    pub steps: Vec<(u64, Job)>,
    /// Each tenant's jobs, in order.
    pub per_tenant: Vec<Vec<Job>>,
    /// Does the tenant's script end inside a transaction?
    pub mid_txn: Vec<bool>,
}

impl Script {
    /// Draw `steps` jobs over `tenants` tenants from `seed`. Outside a
    /// transaction a tenant begins one, or now and then defines a
    /// tenant-local trigger. Inside one it raises external events,
    /// creates items with a `qty`, modifies or deletes a small oid
    /// (live, deleted and never-created objects alike, so some jobs
    /// fail), commits, rolls back or defines a trigger.
    pub fn draw(seed: u64, tenants: u64, steps: usize, pick: Pick) -> Script {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut zipf = match pick {
            Pick::Uniform => None,
            Pick::Zipf { s, hot_boost } => Some(ZipfTenants::new(ZipfTenantsConfig {
                tenants,
                s,
                hot_boost,
                seed: seed ^ 0x21BF,
            })),
        };
        let n = tenants as usize;
        let mut script = Script {
            steps: Vec::with_capacity(steps),
            per_tenant: vec![Vec::new(); n],
            mid_txn: vec![false; n],
        };
        for _ in 0..steps {
            let t = match zipf.as_mut() {
                Some(z) => z.next_rank(),
                None => rng.random_range(0..tenants),
            };
            let in_txn = &mut script.mid_txn[t as usize];
            let job = draw_job(&mut rng, *in_txn);
            match job {
                Job::Begin => *in_txn = true,
                Job::Commit | Job::Rollback => *in_txn = false,
                _ => {}
            }
            script.per_tenant[t as usize].push(job.clone());
            script.steps.push((t, job));
        }
        script
    }
}

/// One job of a tenant that is (`in_txn`) or is not in a transaction.
fn draw_job(rng: &mut StdRng, in_txn: bool) -> Job {
    let item = ClassId(0);
    let define =
        |rng: &mut StdRng| Job::DefineTriggerSource(trigger_source(rng.random_range(0..4u64)));
    if !in_txn {
        return if rng.random_range(0..5u32) == 0 {
            define(rng)
        } else {
            Job::Begin
        };
    }
    match rng.random_range(0..13u32) {
        0..=4 => {
            let n = rng.random_range(1..4usize);
            Job::RaiseExternal(
                (0..n)
                    .map(|_| {
                        (
                            item,
                            rng.random_range(0..4u32),
                            Oid(rng.random_range(0..4u64)),
                        )
                    })
                    .collect(),
            )
        }
        5..=6 => {
            let n = rng.random_range(1..3usize);
            Job::ExecBlock(
                (0..n)
                    .map(|_| Op::Create {
                        class: item,
                        inits: vec![(QTY, Value::Int(rng.random_range(0..200i64)))],
                    })
                    .collect(),
            )
        }
        7 => Job::ExecBlock(vec![Op::Modify {
            oid: Oid(rng.random_range(1..6u64)),
            attr: QTY,
            value: Value::Int(rng.random_range(0..200i64)),
        }]),
        8 => Job::ExecBlock(vec![Op::Delete {
            oid: Oid(rng.random_range(1..6u64)),
        }]),
        9 => Job::Commit,
        10 => Job::Rollback,
        _ => define(rng),
    }
}

/// Everything observable about one tenant engine except the
/// Trigger Support's probe counters, which count the probing this
/// process did: a recovered or rehydrated engine re-probes only what it
/// replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// The engine's work counters.
    pub stats: EngineStats,
    /// Is a transaction open?
    pub in_txn: bool,
    /// The Event Base's logical length.
    pub eb_len: usize,
    /// The Event Base's clock.
    pub eb_now: Timestamp,
    /// The live tail: the open transaction's occurrences, none between
    /// transactions.
    pub eb_log: Vec<(EventType, Oid, Timestamp)>,
    /// Per rule: name, triggered, witness and the consumption window
    /// (`last_consideration`, `last_consumption`, `checked_upto`).
    pub rules: Vec<(String, bool, bool, Timestamp, Timestamp, Timestamp)>,
    /// The sorted extent of the observed class: the net store effect of
    /// blocks and rule actions alike.
    pub extent: Vec<Oid>,
}

/// Observe `engine`, with the extent of `class`.
pub fn observe(engine: &Engine, class: ClassId) -> Observed {
    let mut extent = engine.extent(class);
    extent.sort_unstable();
    let eb = engine.event_base();
    Observed {
        stats: engine.stats(),
        in_txn: engine.in_transaction(),
        eb_len: eb.len(),
        eb_now: eb.now(),
        eb_log: eb.iter().map(|e| (e.ty, e.oid, e.ts)).collect(),
        rules: engine
            .rules()
            .iter()
            .map(|(rule, st)| {
                (
                    rule.def.name.clone(),
                    st.triggered,
                    st.witness,
                    st.last_consideration,
                    st.last_consumption,
                    st.checked_upto,
                )
            })
            .collect(),
        extent,
    }
}

/// What the oracle's engine ends with.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Its observed state.
    pub observed: Observed,
    /// Its Trigger Support counters, which a medium whose engines never
    /// restart must match too.
    pub counters: SupportStats,
    /// Jobs that failed.
    pub errors: u64,
    /// The last failure's message.
    pub last_error: Option<String>,
    /// The event count of the longest transaction, which bounds the live
    /// tail.
    pub longest_txn: usize,
}

/// The sequential oracle: a fresh engine replaying the first `prefix` of
/// one tenant's jobs with the exact semantics of the shard worker's
/// `apply`, the all-or-nothing trigger-source job included. Asserts the
/// rest state after every transaction end, and that the live tail never
/// holds more than the longest transaction.
pub fn oracle_replay(setup: &Setup, jobs: &[Job], prefix: usize) -> Replay {
    let mut engine = Engine::with_config(setup.schema.clone(), setup.engine.clone());
    for def in &setup.rules {
        engine.define_trigger(def.clone()).unwrap();
    }
    let (mut errors, mut last_error) = (0u64, None);
    let (mut started, mut longest_txn) = (0usize, 0usize);
    for job in &jobs[..prefix] {
        let res = match job.clone() {
            Job::Begin => engine.begin().map_err(|e| e.to_string()),
            Job::ExecBlock(ops) => engine
                .exec_block(&ops)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Job::RaiseExternal(ev) => engine
                .raise_external(&ev)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            Job::Commit => engine.commit().map_err(|e| e.to_string()),
            Job::Rollback => engine.rollback().map_err(|e| e.to_string()),
            Job::DefineTriggerSource(src) => apply_trigger_source(&mut engine, &setup.schema, &src),
            _ => Ok(()),
        };
        match res {
            Err(msg) => {
                errors += 1;
                last_error = Some(msg);
            }
            Ok(()) if matches!(job, Job::Begin) => started = engine.event_base().len(),
            Ok(()) => {}
        }
        longest_txn = longest_txn.max(engine.event_base().len() - started);
        if !engine.in_transaction() {
            assert_at_rest(&engine);
        }
    }
    assert!(
        engine.event_base().live_len() <= longest_txn,
        "the event base kept more than its longest transaction"
    );
    Replay {
        observed: observe(&engine, setup.item),
        counters: engine.support_stats(),
        errors,
        last_error,
        longest_txn,
    }
}

/// The state every transaction end leaves an engine in, which is what
/// lets a tenant snapshot carry no event tail and no rule stamp: an empty
/// live Event Base and every rule reset at the current instant.
fn assert_at_rest(engine: &Engine) {
    let now = engine.event_base().now();
    assert_eq!(
        engine.event_base().live_len(),
        0,
        "a live tail outside a transaction"
    );
    for (rule, st) in engine.rules().iter() {
        let state = (
            st.triggered,
            st.witness,
            st.last_consideration,
            st.last_consumption,
            st.checked_upto,
        );
        assert_eq!(
            state,
            (false, false, now, now, now),
            "rule `{}`",
            rule.def.name
        );
    }
}

/// Mirror of the shard worker's trigger-source job: every declaration
/// defines, or the job undoes its own definitions.
pub fn apply_trigger_source(engine: &mut Engine, schema: &Schema, src: &str) -> Result<(), String> {
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

/// Compare every tenant of `rt` with the oracle replaying the first
/// `survived[t]` of its jobs, or all of them when `survived` is `None`
/// (see [`compare_tenant`]).
pub fn compare(
    rt: &Runtime,
    setup: &Setup,
    per_tenant: &[Vec<Job>],
    survived: Option<&HashMap<u64, u64>>,
    counters: bool,
) -> Result<(), TestCaseError> {
    for (t, jobs) in (0u64..).zip(per_tenant) {
        let n = survived.map_or(jobs.len(), |s| s.get(&t).copied().unwrap_or(0) as usize);
        prop_assert!(
            n <= jobs.len(),
            "tenant {t}: survived {n} > submitted {}",
            jobs.len()
        );
        compare_tenant(rt, setup, t, &jobs[..n], counters)?;
    }
    Ok(())
}

/// Compare `tenant` of `rt` with the oracle replaying `jobs`. With no
/// jobs, the tenant has no engine; otherwise it matches the replay's
/// [`Observed`] and error bookkeeping (count and last message), and its
/// live tail holds at most the longest transaction. With `counters`, its
/// Trigger Support counters match as well.
pub fn compare_tenant(
    rt: &Runtime,
    setup: &Setup,
    tenant: u64,
    jobs: &[Job],
    counters: bool,
) -> Result<(), TestCaseError> {
    let t = TenantId(tenant);
    let got = rt.with_tenant(t, |e| (observe(e, setup.item), e.support_stats()));
    let Some((got, got_counters)) = got else {
        prop_assert!(
            jobs.is_empty(),
            "tenant {tenant}: {} jobs, but no engine",
            jobs.len()
        );
        return Ok(());
    };
    prop_assert!(
        !jobs.is_empty(),
        "tenant {tenant}: no jobs, but an engine exists"
    );
    let want = oracle_replay(setup, jobs, jobs.len());
    prop_assert_eq!(
        &got,
        &want.observed,
        "tenant {} diverged from its replay",
        tenant
    );
    prop_assert!(
        got.eb_log.len() <= want.longest_txn,
        "tenant {tenant} kept more than a transaction"
    );
    if counters {
        prop_assert_eq!(
            got_counters,
            want.counters,
            "tenant {} support counters",
            tenant
        );
    }
    let (errors, last) = rt.tenant_errors(t).unwrap();
    prop_assert_eq!(errors, want.errors, "tenant {} error count", tenant);
    prop_assert_eq!(last, want.last_error, "tenant {} last error", tenant);
    Ok(())
}

/// `survived(t)` for every tenant, evicted or not, from the on-disk
/// state alone: each shard's full snapshot `jobs_applied` plus the
/// tenant's jobs in the valid tail of its (possibly truncated) log —
/// exactly the arithmetic `recover` performs. Whole groups survive; a
/// torn tail does not.
pub fn survived_jobs(dir: &Path, shards: usize) -> HashMap<u64, u64> {
    let mut survived: HashMap<u64, u64> = HashMap::new();
    for i in 0..shards {
        let shard_dir = dir.join(format!("shard-{i}"));
        let mut snap_seq = 0u64;
        if let Ok(Some(snap)) = ShardSnapshot::read(&shard_dir.join("snap.chi")) {
            snap_seq = snap.seq;
            for t in &snap.tenants {
                *survived.entry(t.tenant).or_default() += t.jobs_applied;
            }
        }
        let wal = shard_dir.join("jobs.wal");
        if !wal.exists() {
            continue;
        }
        let outcome = JobLog::read(&wal, snap_seq + 1).expect("log tail is readable");
        for group in &outcome.groups {
            for (tenant, _) in &group.jobs {
                *survived.entry(*tenant).or_default() += 1;
            }
        }
    }
    survived
}

/// A scratch directory no other call in any process shares, removed
/// when dropped, so a failed assertion or a panic leaves nothing behind.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, not yet created directory under the system temp dir.
    pub fn new(name: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chimera-{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
