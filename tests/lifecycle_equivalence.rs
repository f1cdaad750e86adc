//! Lifecycle-equivalence oracle for the tenant residency layer (the
//! PR-10 tentpole).
//!
//! The claim under test: **eviction and rehydration are invisible to
//! tenant semantics.** A runtime squeezed through a tiny residency cap
//! — every batch potentially evicting the engine that just ran and
//! rehydrating one that was parked — must leave every tenant
//! bit-identical to a plain sequential [`Engine`] replaying that
//! tenant's script: objects and extents, the event base (logical length,
//! clock, and the live tail with timestamps), rule consumption windows,
//! engine counters, open-transaction state, and the error bookkeeping.
//! The same must hold across a crash: eviction writes nothing to disk,
//! so recovery from the last full snapshot plus the log tail is exactly
//! the per-tenant surviving prefix, evicted tenants included.
//!
//! The tests:
//! * a proptest over random multi-tenant scripts × caps × shard counts
//!   × schedulers (pinned and load-aware stealing), live;
//! * a proptest adding a crash — the log truncated at an arbitrary byte
//!   — and recovery under the same cap, with `survived(t)` computed
//!   from the on-disk state itself (full snapshot, valid log tail);
//! * the acceptance run: 1024 tenants through a cap of 64, the
//!   `tenants_resident` gauge never past the cap once quiesced (and
//!   never past cap + workers while claims are in flight), no file per
//!   eviction, then a restart that ends within the cap and rehydrates
//!   on demand;
//! * recovery with full snapshots ending within the cap;
//! * full snapshots racing rehydration, audited across restarts;
//! * a bytes budget that charges live state only: tenants that run
//!   hundreds of transactions under a cap fitting one transaction each
//!   are never evicted;
//! * the stock triggers, whose conditions hold three `occurred`
//!   formulas, through a cap of 4: rule conditions evaluate through
//!   per-engine scratch that eviction drops and rehydration rebuilds.

use chimera::events::Timestamp;
use chimera::exec::{Engine, EngineConfig, Op};
use chimera::lifecycle::LifecycleConfig;
use chimera::model::{AttrDef, AttrType, ClassId, Oid, Schema, SchemaBuilder, Value};
use chimera::persist::{JobLog, ShardSnapshot};
use chimera::prelude::EventType;
use chimera::rules::{ActionStmt, TriggerDef};
use chimera::runtime::{
    DurabilityConfig, Job, Runtime, RuntimeConfig, Scheduler, StorageMode, TenantId,
};
use chimera::workload::{stock_schema, stock_triggers, ExprGenConfig, RandomExprGen};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn schema() -> Schema {
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

/// Runtime-wide triggers: random §3 expressions, a third with Create
/// actions so firings have net store effects the oracle can diff —
/// trigger state is the most intricate thing a snapshot round-trip has
/// to preserve, so lifecycle churn gets the full treatment.
fn runtime_triggers(seed: u64) -> Vec<TriggerDef> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RandomExprGen::new(ExprGenConfig {
        event_types: 4,
        max_depth: 3,
        instance_prob: 0.5,
        negation_prob: 0.2,
        seed: seed ^ 0x11FE,
    });
    let k = rng.random_range(2..5usize);
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

/// A tenant-local trigger source. Only 3 distinct names exist, so
/// scripts redefine names and exercise the error path — and evicted
/// tenants carry their sources through the snapshot round-trip.
fn trigger_source(k: u64) -> String {
    format!(
        "define immediate trigger s{} for item\n\
           events create, modify(qty)\n\
           condition item(S), S.qty > S.tag\n\
           actions modify(S.qty, S.tag)\n\
         end",
        k % 3
    )
}

fn random_job(rng: &mut StdRng, in_txn: bool, item: ClassId) -> Job {
    if !in_txn {
        if rng.random_range(0..5u32) == 0 {
            return Job::DefineTriggerSource(trigger_source(rng.random_range(0..3u64)));
        }
        return Job::Begin;
    }
    match rng.random_range(0..11u32) {
        0..=4 => {
            let n = rng.random_range(1..4usize);
            let events = (0..n)
                .map(|_| {
                    (
                        item,
                        rng.random_range(0..4u32),
                        Oid(rng.random_range(0..4u64)),
                    )
                })
                .collect();
            Job::RaiseExternal(events)
        }
        5..=6 => {
            let n = rng.random_range(1..3usize);
            let ops = (0..n)
                .map(|_| Op::Create {
                    class: item,
                    inits: vec![(chimera::model::AttrId(0), Value::Int(rng.random_range(0..200i64)))],
                })
                .collect();
            Job::ExecBlock(ops)
        }
        7 => Job::Commit,
        8 => Job::Rollback,
        _ => Job::DefineTriggerSource(trigger_source(rng.random_range(0..3u64))),
    }
}

/// Everything observable about one tenant engine *except* the
/// trigger-support probe counters (those measure probe work done by
/// this process, not tenant state).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    stats: chimera::exec::EngineStats,
    in_txn: bool,
    /// The event base: logical length, clock and live tail (the
    /// occurrences since the last transaction start).
    eb_len: usize,
    eb_now: Timestamp,
    eb_log: Vec<(EventType, Oid, Timestamp)>,
    rules: Vec<(String, bool, bool, Timestamp, Timestamp, Timestamp)>,
    extent: Vec<Oid>,
}

fn observe(engine: &mut Engine, item: ClassId) -> Observed {
    let mut extent = engine.extent(item);
    extent.sort_unstable();
    Observed {
        stats: engine.stats(),
        in_txn: engine.in_transaction(),
        eb_len: engine.event_base().len(),
        eb_now: engine.event_base().now(),
        eb_log: engine
            .event_base()
            .iter()
            .map(|e| (e.ty, e.oid, e.ts))
            .collect(),
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

/// The sequential oracle: a fresh single-threaded engine replaying the
/// first `prefix` of one tenant's jobs, with the exact semantics of the
/// shard worker's `apply`.
fn oracle_replay(
    schema: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    jobs: &[Job],
    prefix: usize,
    item: ClassId,
) -> (Observed, u64, Option<String>) {
    let mut engine = Engine::with_config(schema.clone(), engine_cfg.clone());
    for def in triggers {
        engine.define_trigger(def.clone()).unwrap();
    }
    let mut errors = 0u64;
    let mut last_error = None;
    let (mut started, mut longest_txn) = (0usize, 0usize);
    for job in &jobs[..prefix] {
        let res: Result<(), String> = match job.clone() {
            Job::Begin => engine.begin().map_err(|e| e.to_string()),
            Job::ExecBlock(ops) => engine.exec_block(&ops).map(|_| ()).map_err(|e| e.to_string()),
            Job::RaiseExternal(ev) => {
                engine.raise_external(&ev).map(|_| ()).map_err(|e| e.to_string())
            }
            Job::Commit => engine.commit().map_err(|e| e.to_string()),
            Job::Rollback => engine.rollback().map_err(|e| e.to_string()),
            Job::DefineTriggerSource(src) => apply_trigger_source(&mut engine, schema, &src),
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
    }
    // the live tail the suite compares holds at most one transaction
    assert!(
        engine.event_base().live_len() <= longest_txn,
        "the event base kept more than its longest transaction"
    );
    (observe(&mut engine, item), errors, last_error)
}

/// Mirror of the shard worker's trigger-source application: every
/// declaration defines or the job undoes its own definitions.
fn apply_trigger_source(engine: &mut Engine, schema: &Schema, src: &str) -> Result<(), String> {
    let decls = chimera::lang::parse_trigger_decls(src, schema).map_err(|e| e.to_string())?;
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

/// `survived(t)` for every tenant, evicted or not: the full snapshot's
/// `jobs_applied` plus the tenant's jobs in the valid log tail — exactly
/// the arithmetic `recover` performs.
fn survived_jobs(dir: &Path, shards: usize) -> HashMap<u64, u64> {
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

/// Names of the `tenant-*` files under every `shard-*` directory.
fn tenant_files(dir: &Path) -> Vec<String> {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(dir)
        .expect("data directory exists")
        .flatten()
    {
        if !shard.file_name().to_string_lossy().starts_with("shard-") {
            continue;
        }
        for entry in std::fs::read_dir(shard.path()).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("tenant-") {
                found.push(name);
            }
        }
    }
    found
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chimera-lifecycle-equiv-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Residency enforcement runs on the workers (after rehydrations and
/// releases), so a freshly-flushed runtime may still be shedding its
/// last over-budget engine. Bounded wait, never a sleep-and-hope.
fn await_residency(rt: &Runtime, cap: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resident = rt.stats().tenants_resident;
        if resident <= cap || Instant::now() >= deadline {
            return resident;
        }
        std::thread::yield_now();
    }
}

/// Run one interleaved multi-tenant script under a residency cap and
/// return the per-tenant job lists.
fn run_capped(
    rt: &Runtime,
    s: &Schema,
    script_seed: u64,
    tenants: u64,
    steps: usize,
) -> Vec<Vec<Job>> {
    let item = s.class_by_name("item").unwrap();
    let mut rng = StdRng::seed_from_u64(script_seed);
    let mut in_txn = vec![false; tenants as usize];
    let mut per_tenant: Vec<Vec<Job>> = vec![Vec::new(); tenants as usize];
    for _ in 0..steps {
        let t = rng.random_range(0..tenants) as usize;
        let job = random_job(&mut rng, in_txn[t], item);
        match job {
            Job::Begin => in_txn[t] = true,
            Job::Commit | Job::Rollback => in_txn[t] = false,
            _ => {}
        }
        per_tenant[t].push(job.clone());
        rt.submit(TenantId(t as u64), job).unwrap();
    }
    rt.flush().unwrap();
    per_tenant
}

/// Compare every tenant (resident or parked) against the sequential
/// oracle replaying `survived(t)` of its script.
fn check_equivalence(
    rt: &Runtime,
    s: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    per_tenant: &[Vec<Job>],
    survived: &HashMap<u64, u64>,
) -> Result<(), TestCaseError> {
    let item = s.class_by_name("item").unwrap();
    for (t, jobs) in per_tenant.iter().enumerate() {
        let n = survived.get(&(t as u64)).copied().unwrap_or(0);
        prop_assert!(
            (n as usize) <= jobs.len(),
            "tenant {t}: survived {n} > submitted {}",
            jobs.len()
        );
        let got = rt.with_tenant(TenantId(t as u64), |e| observe(e, item));
        if n == 0 {
            prop_assert!(got.is_none(), "tenant {t}: no surviving jobs, but an engine exists");
            continue;
        }
        let got = got.expect("tenant with surviving jobs is observable even when evicted");
        let (want, want_errors, want_last) =
            oracle_replay(s, triggers, engine_cfg, jobs, n as usize, item);
        prop_assert_eq!(&got, &want, "tenant {} diverged through eviction churn", t);
        let (errors, last) = rt.tenant_errors(TenantId(t as u64)).unwrap();
        prop_assert_eq!(errors, want_errors, "tenant {} error count", t);
        prop_assert_eq!(last, want_last, "tenant {} last error", t);
    }
    Ok(())
}

fn full_prefix(per_tenant: &[Vec<Job>]) -> HashMap<u64, u64> {
    per_tenant
        .iter()
        .enumerate()
        .map(|(t, jobs)| (t as u64, jobs.len() as u64))
        .collect()
}

/// Does this script leave its tenant inside a transaction? Such tenants
/// are pinned in RAM — eviction skips mid-transaction engines — so the
/// quiesced working set is allowed to hold them *on top of* the cap.
fn mid_txn(jobs: &[Job]) -> bool {
    let mut in_txn = false;
    for j in jobs {
        match j {
            Job::Begin => in_txn = true,
            Job::Commit | Job::Rollback => in_txn = false,
            _ => {}
        }
    }
    in_txn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The live property: random scripts forced through caps far below
    /// the tenant count (so nearly every batch evicts and rehydrates)
    /// ⇒ every tenant is bit-identical to its sequential replay, the
    /// quiesced working set respects the cap, and no jobs were lost.
    #[test]
    fn capped_runtime_is_bit_identical_to_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        cap in 1usize..4,
        tenants in 4u64..9,
        steps in 8usize..40,
        shards in 1usize..3,
        load_aware in any::<bool>(),
    ) {
        let s = schema();
        let triggers = runtime_triggers(rule_seed);
        let engine_cfg = EngineConfig { max_rule_steps: 64, ..EngineConfig::default() };
        let dir = tmpdir("live");
        let rt = Runtime::new(
            s.clone(),
            triggers.clone(),
            RuntimeConfig {
                shards,
                scheduler: if load_aware { Scheduler::LoadAware } else { Scheduler::Pinned },
                storage: StorageMode::Durable(DurabilityConfig {
                    dir: dir.clone(),
                    group_commit: true,
                    snapshot_every: 0,
                }),
                engine: engine_cfg.clone(),
                lifecycle: LifecycleConfig::with_max_resident(cap),
                ..Default::default()
            },
        )
        .unwrap();
        let per_tenant = run_capped(&rt, &s, script_seed, tenants, steps);
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        // tenants the random script never touched have no engine at all
        let active = per_tenant.iter().filter(|jobs| !jobs.is_empty()).count();
        prop_assert_eq!(stats.tenants, active, "every touched tenant is still addressable");
        // tenants parked inside a transaction are unevictable, so the
        // quiesced working set may hold them on top of the cap
        let stuck = per_tenant.iter().filter(|jobs| mid_txn(jobs)).count();
        let budget = (cap + stuck) as u64;
        let resident = await_residency(&rt, budget);
        prop_assert!(
            resident <= budget,
            "quiesced residency {resident} exceeds cap {cap} + {stuck} mid-transaction"
        );
        check_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, &full_prefix(&per_tenant))?;
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The crash property: the same churn, then the log truncated at an
    /// arbitrary byte and recovery under the same cap ⇒ every tenant is
    /// the sequential replay of exactly its on-disk surviving prefix
    /// (full snapshot + tail), whether it crashed resident or evicted.
    #[test]
    fn crashed_capped_runtime_recovers_surviving_prefix(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        cap in 1usize..4,
        tenants in 4u64..9,
        steps in 8usize..40,
        shards in 1usize..3,
        snapshot_choice in 0u64..2,
        cut_shard in 0usize..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let snapshot_every = snapshot_choice * 3; // 0 (never) or every 3 groups
        let s = schema();
        let triggers = runtime_triggers(rule_seed);
        let engine_cfg = EngineConfig { max_rule_steps: 64, ..EngineConfig::default() };
        let dir = tmpdir("crash");
        let config = |d: PathBuf| RuntimeConfig {
            shards,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: d,
                group_commit: true,
                snapshot_every,
            }),
            engine: engine_cfg.clone(),
            lifecycle: LifecycleConfig::with_max_resident(cap),
            ..Default::default()
        };
        let rt = Runtime::new(s.clone(), triggers.clone(), config(dir.clone())).unwrap();
        let per_tenant = run_capped(&rt, &s, script_seed, tenants, steps);
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        // wait for enforcement so the crash catches tenants evicted
        // (mid-transaction tenants stay resident on top of the cap)
        let stuck = per_tenant.iter().filter(|jobs| mid_txn(jobs)).count();
        await_residency(&rt, (cap + stuck) as u64);
        drop(rt);
        // the crash: truncate one shard's log at an arbitrary byte
        let wal = dir.join(format!("shard-{}", cut_shard % shards)).join("jobs.wal");
        if let Ok(bytes) = std::fs::read(&wal) {
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            std::fs::write(&wal, &bytes[..cut.min(bytes.len())]).unwrap();
        }
        let survived = survived_jobs(&dir, shards);
        let (rt, _report) = Runtime::recover(s.clone(), triggers.clone(), config(dir.clone())).unwrap();
        check_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, &survived)?;
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance run: 1024 tenants through a residency cap of 64.
/// The gauge must never pass cap + workers while running (enforcement
/// is worker-side, so in-flight claims are the only legal overshoot),
/// must settle at ≤ 64 once quiesced, every tenant must be
/// bit-identical to its sequential replay, no eviction may leave a file
/// behind, and a restart must recover the full population within the
/// cap — rehydrating parked tenants on demand.
#[test]
fn thousand_tenants_through_a_cap_of_64() {
    const TENANTS: u64 = 1024;
    const CAP: u64 = 64;
    let s = schema();
    let triggers = runtime_triggers(0xACCE97);
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let item = s.class_by_name("item").unwrap();
    let dir = tmpdir("acceptance");
    let shards = 2usize;
    let config = || RuntimeConfig {
        shards,
        scheduler: Scheduler::LoadAware,
        storage: StorageMode::Durable(DurabilityConfig {
            dir: dir.clone(),
            group_commit: true,
            snapshot_every: 0,
        }),
        engine: engine_cfg.clone(),
        lifecycle: LifecycleConfig::with_max_resident(CAP as usize),
        ..Default::default()
    };
    let rt = Runtime::new(s.clone(), triggers.clone(), config()).unwrap();
    // every tenant runs the same 3-job script with a tenant-flavoured
    // payload, so the oracle is cheap but states still differ
    let script = |t: u64| {
        vec![
            Job::Begin,
            Job::ExecBlock(vec![Op::Create {
                class: item,
                inits: vec![(chimera::model::AttrId(0), Value::Int((t % 97) as i64))],
            }]),
            Job::Commit,
        ]
    };
    for t in 0..TENANTS {
        for job in script(t) {
            rt.submit(TenantId(t), job).unwrap();
        }
        // sample the gauge as the working set churns: worker-side
        // enforcement bounds overshoot by the claims in flight
        if t % 64 == 0 {
            let resident = rt.stats().tenants_resident;
            assert!(
                resident <= CAP + shards as u64,
                "mid-run residency {resident} exceeds cap {CAP} + {shards} in-flight claims"
            );
        }
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.tenants as u64, TENANTS);
    let resident = await_residency(&rt, CAP);
    assert!(resident <= CAP, "quiesced residency {resident} exceeds cap {CAP}");
    let evictions = rt.stats().evictions;
    assert!(
        evictions >= TENANTS - CAP,
        "filling 1024 tenants through 64 slots must evict at least the difference \
         (got {evictions})"
    );
    let files = tenant_files(&dir);
    assert!(
        files.is_empty(),
        "{evictions} evictions left files behind: {files:?}"
    );
    // spot-check equivalence across the population (every 37th tenant),
    // each observation transparently rehydrating a parked engine
    for t in (0..TENANTS).step_by(37) {
        let jobs = script(t);
        let (want, _, _) = oracle_replay(&s, &triggers, &engine_cfg, &jobs, jobs.len(), item);
        let got = rt
            .with_tenant(TenantId(t), |e| observe(e, item))
            .expect("tenant is observable while evicted");
        assert_eq!(got, want, "tenant {t} diverged through eviction churn");
    }
    drop(rt);
    // restart: the run never wrote a full snapshot (snapshot_every: 0),
    // so recovery replays every tenant from the log, then evicts the
    // least recently active down to the cap before any worker runs
    let (rt, report) = Runtime::recover(s.clone(), triggers.clone(), config()).unwrap();
    assert_eq!(report.jobs_replayed, 3 * TENANTS, "the whole log replays");
    let stats = rt.stats();
    assert_eq!(stats.tenants as u64, TENANTS, "recovery must repopulate all tenants");
    assert!(
        stats.tenants_resident <= CAP,
        "recovery residency {} exceeds cap {CAP}",
        stats.tenants_resident
    );
    // touching a parked tenant with real work forces rehydration —
    // tenant 0 is the least recently active in the log, so recovery
    // evicted it
    let probe = 0;
    for job in [Job::Begin, Job::Rollback] {
        rt.submit(TenantId(probe), job).unwrap();
    }
    rt.flush().unwrap();
    assert!(
        rt.stats().rehydrations >= 1,
        "claiming a parked tenant must rehydrate"
    );
    let jobs: Vec<Job> = script(probe)
        .into_iter()
        .chain([Job::Begin, Job::Rollback])
        .collect();
    let (want, _, _) = oracle_replay(&s, &triggers, &engine_cfg, &jobs, jobs.len(), item);
    let got = rt
        .with_tenant(TenantId(probe), |e| observe(e, item))
        .expect("rehydrated tenant has an engine");
    assert_eq!(got, want, "rehydrated tenant diverged");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery ends within the residency cap. A full snapshot holds every
/// tenant of its home, evicted ones included, and recovery rebuilds them
/// all; it must then evict the least recently active down to the cap
/// before the first job rather than leave that to the first releases.
#[test]
fn recovery_with_full_snapshots_ends_within_the_cap() {
    const TENANTS: u64 = 64;
    const CAP: u64 = 4;
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let triggers = runtime_triggers(0x5EED);
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let dir = tmpdir("recover-cap");
    let config = || RuntimeConfig {
        shards: 2,
        storage: StorageMode::Durable(DurabilityConfig {
            dir: dir.clone(),
            group_commit: true,
            snapshot_every: 8,
        }),
        engine: engine_cfg.clone(),
        lifecycle: LifecycleConfig::with_max_resident(CAP as usize),
        ..Default::default()
    };
    let script = |t: u64| {
        vec![
            Job::Begin,
            Job::ExecBlock(vec![Op::Create {
                class: item,
                inits: vec![(chimera::model::AttrId(0), Value::Int((t % 97) as i64))],
            }]),
            Job::Commit,
        ]
    };
    let rt = Runtime::new(s.clone(), triggers.clone(), config()).unwrap();
    for t in 0..TENANTS {
        for job in script(t) {
            rt.submit(TenantId(t), job).unwrap();
        }
    }
    rt.flush().unwrap();
    assert!(
        rt.stats().snapshots > 0,
        "the run must write full snapshots"
    );
    drop(rt);

    let (rt, report) = Runtime::recover(s.clone(), triggers.clone(), config()).unwrap();
    assert!(
        report.tenants_recovered > CAP,
        "the full snapshots hold more tenants than the cap (got {})",
        report.tenants_recovered
    );
    let stats = rt.stats();
    assert_eq!(stats.tenants as u64, TENANTS, "every tenant is addressable");
    assert!(
        stats.tenants_resident <= CAP,
        "recovery residency {} exceeds cap {CAP}",
        stats.tenants_resident
    );
    assert_eq!(stats.rehydrations, 0);
    for t in 0..TENANTS {
        let jobs = script(t);
        let (want, _, _) = oracle_replay(&s, &triggers, &engine_cfg, &jobs, jobs.len(), item);
        let got = rt.with_tenant(TenantId(t), |e| observe(e, item)).unwrap();
        assert_eq!(got, want, "tenant {t} diverged through recovery");
    }
    // the last tenant to run is the most recently active and stays
    // resident; the first is the least and was evicted
    for (t, rehydrated) in [(TENANTS - 1, 0), (0, 1)] {
        rt.submit(TenantId(t), Job::Begin).unwrap();
        rt.submit(TenantId(t), Job::Rollback).unwrap();
        rt.flush().unwrap();
        assert_eq!(rt.stats().rehydrations, rehydrated, "claiming tenant {t}");
    }
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Audit for the rehydration/snapshot interaction: a full home snapshot
/// (`snapshot_every: 1` — attempted after every committed batch) racing
/// a worker's rehydration of an evicted tenant must never omit that
/// tenant. The evicted-map→registry handover is published under the
/// home store lock — the same lock the snapshot holds while collecting
/// both sets — so the snapshot sees the tenant in at least one of them.
/// Without that, a snapshot could catch a tenant in *neither*, write a
/// full snapshot omitting it, and truncate the job log; a crash before
/// the home's next snapshot would then lose the tenant's pre-snapshot
/// history, which neither the snapshot nor the log holds any more.
///
/// Honesty note: the racy window is a few microseconds wide and the
/// *next* completed snapshot on the home (typically the rehydrated
/// tenant's own batch) re-covers the tenant, so a black-box test cannot
/// reliably reproduce the lost-state outcome — the lock-ordering
/// argument in `rehydrate_if_evicted` is the real guarantee. What this
/// test does pin down is the surrounding invariant no other test
/// covers: full-snapshot compaction (`snapshot_every > 0`) interleaved
/// with eviction/rehydration churn, audited against an *absolute*
/// per-tenant history count across a restart every round (the crash
/// proptest's oracle is derived from the on-disk state itself, so a
/// snapshot that silently dropped a tenant would fool it).
#[test]
fn full_snapshots_racing_rehydration_lose_no_tenant() {
    const TENANTS: u64 = 48;
    const ROUNDS: usize = 8;
    const CAP: usize = 16;
    // Seed objects fatten every tenant so the snapshot's serialization
    // span (registry scan → evicted-map fold, the span the handover
    // must be atomic against) is wide enough for the churn to probe it.
    const SEED_OBJECTS: usize = 128;
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let dir = tmpdir("snap-race");
    let config = || RuntimeConfig {
        shards: 2,
        scheduler: Scheduler::LoadAware,
        storage: StorageMode::Durable(DurabilityConfig {
            dir: dir.clone(),
            group_commit: true,
            snapshot_every: 1,
        }),
        lifecycle: LifecycleConfig::with_max_resident(CAP),
        ..Default::default()
    };
    // no runtime triggers: each committed round adds exactly one object,
    // so a dropped tenant or lost round shows up as a hard count miss
    let round_script = |t: u64, round: usize| {
        let creates = if round == 1 { SEED_OBJECTS + 1 } else { 1 };
        vec![
            Job::Begin,
            Job::ExecBlock(
                (0..creates)
                    .map(|_| Op::Create {
                        class: item,
                        inits: vec![(chimera::model::AttrId(0), Value::Int((t % 97) as i64))],
                    })
                    .collect(),
            ),
            Job::Commit,
        ]
    };
    // Each round ends with a shutdown + recovery that audits every
    // tenant's full history. A lost-to-the-race tenant is *healed* by
    // the home's next full snapshot (its RAM state is still whole), so
    // only a race with no later snapshot is observable — restarting
    // every round makes each one a "final" round instead of giving the
    // bug ROUNDS-1 chances to hide.
    let mut rt = Runtime::new(s.clone(), Vec::new(), config()).unwrap();
    for round in 1..=ROUNDS {
        // recovery itself evicts down to the cap; count only the round's
        let evicted_at_start = rt.stats().evictions;
        for t in 0..TENANTS {
            for job in round_script(t, round) {
                rt.submit(TenantId(t), job).unwrap();
            }
        }
        rt.flush().unwrap();
        let stats = rt.stats();
        assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        assert!(
            stats.snapshots > 0 && stats.evictions > evicted_at_start,
            "round {round} must snapshot and evict (snapshots {}, evictions {} from {})",
            stats.snapshots,
            stats.evictions,
            evicted_at_start
        );
        assert!(
            stats.rehydrations > 0 || round == 1,
            "round {round} must rehydrate parked tenants"
        );
        drop(rt);
        let (recovered, _report) = Runtime::recover(s.clone(), Vec::new(), config()).unwrap();
        rt = recovered;
        let stats = rt.stats();
        assert_eq!(
            stats.tenants as u64, TENANTS,
            "round {round}: a full snapshot concurrent with rehydration dropped tenants"
        );
        for t in 0..TENANTS {
            let extent = rt
                .with_tenant(TenantId(t), |e| e.extent(item).len())
                .expect("every tenant survives the snapshot/rehydration churn");
            assert_eq!(
                extent,
                SEED_OBJECTS + round,
                "tenant {t} lost committed state after round {round}"
            );
        }
    }
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytes budget charges live state. A tenant's event base holds one
/// transaction however many it has run, so a cap that fits every tenant's
/// one-transaction size never evicts; charging the logical length, which
/// grows by three per transaction here, would evict within a few rounds.
#[test]
fn bytes_cap_fitting_one_transaction_per_tenant_never_evicts() {
    const TENANTS: u64 = 4;
    const TXNS: usize = 300;
    const EVENTS: usize = 3;
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    // the runtime's estimate of an object-less tenant: 1 KiB plus 64 B per
    // live occurrence; one occurrence of slack each
    let cap = TENANTS * (1024 + (EVENTS as u64 + 1) * 64);
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards: 2,
            lifecycle: LifecycleConfig {
                max_resident_tenants: None,
                max_resident_bytes: Some(cap),
            },
            ..Default::default()
        },
    )
    .unwrap();
    let block: Vec<(ClassId, u32, Oid)> = (0..EVENTS as u64)
        .map(|k| (item, k as u32, Oid(k + 1)))
        .collect();
    for _ in 0..TXNS {
        for t in 0..TENANTS {
            for job in [Job::Begin, Job::RaiseExternal(block.clone()), Job::Commit] {
                rt.submit(TenantId(t), job).unwrap();
            }
        }
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.job_errors, 0);
    assert_eq!(stats.evictions, 0, "every tenant fits the budget");
    for t in 0..TENANTS {
        let (len, live) = rt
            .with_tenant(TenantId(t), |e| (e.event_base().len(), e.event_base().live_len()))
            .unwrap();
        assert_eq!((len, live), (EVENTS * TXNS, EVENTS), "tenant {t}");
    }
}

/// A stock-domain tenant's whole visible state: the [`Observed`] view
/// over the stock class, each stock's `(quantity, min_quantity)` and the
/// `del_quantity` of every stock order.
type StockView = (Observed, Vec<(Oid, Value, Value)>, Vec<Value>);

fn stock_view(engine: &mut Engine, schema: &Schema) -> StockView {
    let stock = schema.class_by_name("stock").unwrap();
    let order = schema.class_by_name("stockOrder").unwrap();
    let observed = observe(engine, stock);
    let stocks = observed
        .extent
        .iter()
        .map(|&oid| {
            let q = engine.read_attr(oid, "quantity").unwrap();
            (oid, q, engine.read_attr(oid, "min_quantity").unwrap())
        })
        .collect();
    let mut orders = engine.extent(order);
    orders.sort_unstable();
    let orders = orders
        .into_iter()
        .map(|oid| engine.read_attr(oid, "del_quantity").unwrap())
        .collect();
    (observed, stocks, orders)
}

/// The stock triggers' conditions — `checkStockQty`, `reorder` and
/// `restockWatch`, one `occurred` formula each — evaluated through
/// eviction churn: 16 tenants share the compiled rules through 2 workers
/// under a residency cap of 4, so most claims rebuild a tenant's
/// condition scratch from empty. Every tenant must end identical to a
/// sequential engine that ran its script.
#[test]
fn stock_occurred_conditions_through_a_cap_of_4() {
    const TENANTS: u64 = 16;
    const CAP: usize = 4;
    const TXNS: usize = 6;
    const BLOCKS: usize = 3;
    let s = stock_schema();
    let triggers = stock_triggers(&s);
    let stock = s.class_by_name("stock").unwrap();
    let show = s.class_by_name("show").unwrap();
    let q = s.attr_by_name(stock, "quantity").unwrap();
    let shq = s.attr_by_name(show, "quantity").unwrap();
    let engine_cfg = EngineConfig::default();
    let rt = Runtime::new(
        s.clone(),
        triggers.clone(),
        RuntimeConfig {
            shards: 2,
            scheduler: Scheduler::LoadAware,
            engine: engine_cfg.clone(),
            lifecycle: LifecycleConfig::with_max_resident(CAP),
            ..Default::default()
        },
    )
    .unwrap();
    // the sequential engines also write the script: each job runs on its
    // tenant's engine first, so a modification names only live objects
    let mut oracles: Vec<Engine> = (0..TENANTS)
        .map(|_| {
            let mut e = Engine::with_config(s.clone(), engine_cfg.clone());
            for def in &triggers {
                e.define_trigger(def.clone()).unwrap();
            }
            e
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x570C);
    let mut order: Vec<u64> = (0..TENANTS).collect();
    for _ in 0..TXNS {
        // one job per tenant at a time, tenants in a fresh order each
        // step, so nearly every claim evicts and rehydrates
        for step in 0..BLOCKS + 2 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            for &t in &order {
                let engine = &mut oracles[t as usize];
                let job = if step == 0 {
                    engine.begin().unwrap();
                    Job::Begin
                } else if step <= BLOCKS {
                    let (stocks, shows) = (engine.extent(stock), engine.extent(show));
                    let ops: Vec<Op> = (0..rng.random_range(1..4usize))
                        .map(|_| match rng.random_range(0..4u32) {
                            1 if !stocks.is_empty() => Op::Modify {
                                oid: stocks[rng.random_range(0..stocks.len())],
                                attr: q,
                                value: Value::Int(rng.random_range(0..150i64)),
                            },
                            2 if !shows.is_empty() => Op::Modify {
                                oid: shows[rng.random_range(0..shows.len())],
                                attr: shq,
                                value: Value::Int(rng.random_range(0..50i64)),
                            },
                            3 => Op::Create {
                                class: show,
                                inits: vec![(shq, Value::Int(rng.random_range(0..50i64)))],
                            },
                            _ => Op::Create {
                                class: stock,
                                inits: vec![(q, Value::Int(rng.random_range(0..150i64)))],
                            },
                        })
                        .collect();
                    engine.exec_block(&ops).unwrap();
                    Job::ExecBlock(ops)
                } else if rng.random_range(0..4u32) == 0 {
                    engine.rollback().unwrap();
                    Job::Rollback
                } else {
                    engine.commit().unwrap();
                    Job::Commit
                };
                rt.submit(TenantId(t), job).unwrap();
            }
        }
        // Every tenant is idle and between transactions here, so the cap
        // evicts all but 4 and the next transaction must rehydrate them.
        // Within a transaction the workers race the submissions freely;
        // this barrier only keeps the churn checked below from depending
        // on whether they kept pace.
        rt.flush().unwrap();
    }
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert!(
        stats.evictions > 0 && stats.rehydrations > 0,
        "the cap must churn (evictions {}, rehydrations {})",
        stats.evictions,
        stats.rehydrations
    );
    // every eviction parks one tenant and every rehydration unparks one:
    // an eviction through a stale slot handle would count twice
    assert_eq!(
        stats.evictions - stats.rehydrations,
        stats.tenants as u64 - stats.tenants_resident,
        "evictions must balance rehydrations plus the tenants parked now"
    );
    let (mut orders, mut raised, mut clamped) = (0, 0, 0);
    for (t, oracle) in oracles.iter_mut().enumerate() {
        let want = stock_view(oracle, &s);
        let got = rt
            .with_tenant(TenantId(t as u64), |e| stock_view(e, &s))
            .expect("every tenant is observable");
        assert_eq!(got, want, "tenant {t} diverged through eviction churn");
        assert_eq!(rt.tenant_errors(TenantId(t as u64)), Some((0, None)));
        orders += want.2.len();
        raised += want.1.iter().filter(|(_, _, m)| *m != Value::Int(10)).count();
        for (oid, qty, _) in &want.1 {
            let Value::Int(qty) = *qty else { continue };
            assert!(qty <= 100, "tenant {t}: checkStockQty left {oid} at {qty}");
            clamped += usize::from(qty == 100);
        }
    }
    // each condition bound objects somewhere: `reorder` placed orders,
    // `restockWatch` raised a minimum, `checkStockQty` clamped a quantity
    assert!(
        orders > 0 && raised > 0 && clamped > 0,
        "orders {orders}, raised minimums {raised}, clamped {clamped}"
    );
}
