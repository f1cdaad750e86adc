//! Chaos oracle for the robustness layer (the PR-8 tentpole).
//!
//! Three claims, each driven by `chimera-chaos`'s deterministic fault
//! injection:
//!
//! 1. **Transient and torn storage faults are invisible.** A seeded
//!    schedule of retryable append/commit/snapshot failures — including
//!    the ambiguous torn commit, where data reached disk but the caller
//!    was told it didn't — must be fully absorbed by the runtime's
//!    bounded in-place retry: every job is acknowledged, no home is
//!    poisoned, the end state is identical to a fault-free sequential
//!    replay, and a restart from the directory recovers that same state
//!    (an acknowledged job is durable *even under fault injection*).
//!
//! 2. **A permanent fault degrades exactly one home, and the repair
//!    path heals it.** Breaking one shard's store poisons that home
//!    only: its tenants keep being answered — with the typed
//!    [`JobOutcome::RefusedDurability`] — while tenants homed elsewhere
//!    proceed oracle-identically. [`Runtime::reopen_shard_store`] then
//!    clears the poison, new jobs succeed, and a restart shows the
//!    repair made the refused-era RAM effects durable.
//!
//! 3. **A cut-happy network resolves every submission.** A client with
//!    a reconnect policy talking through a `ChaosProxy` that severs
//!    connections mid-frame must never hang and never silently drop a
//!    submission: every one resolves as `Done`, an engine `Error`, or
//!    the typed `Disconnected`, the client's orphan accounting matches,
//!    and once the proxy's cut budget is spent the session heals.
//!
//! 4. **A faulted eviction refuses and retains** (PR 10). Eviction is
//!    optional work: when the store rejects the tenant snapshot write,
//!    the engine stays resident, nothing is poisoned, no job is lost,
//!    and the next residency-pressure event simply retries.

use chimera::chaos::{
    ChaosCounters, ChaosProxy, ChaosRates, ChaosStore, FaultPlan, NetChaosConfig, StorageFault,
    StoreOp,
};
use chimera::events::Timestamp;
use chimera::exec::{Engine, EngineConfig, Op};
use chimera::lifecycle::LifecycleConfig;
use chimera::model::{AttrDef, AttrId, AttrType, ClassId, Oid, Schema, SchemaBuilder, Value};
use chimera::net::{
    Client, ClientConfig, ExternalEvent, ReconnectPolicy, Server, ServerConfig, WireJob,
    WireOutcome, JOB_DISCONNECTED,
};
use chimera::prelude::EventType;
use chimera::rules::{ActionStmt, TriggerDef};
use chimera::runtime::{
    DurabilityConfig, Job, JobOutcome, Runtime, RuntimeConfig, StorageMode, StoreWrap, TenantId,
};
use chimera::workload::{ExprGenConfig, RandomExprGen};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

fn runtime_triggers(seed: u64) -> Vec<TriggerDef> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RandomExprGen::new(ExprGenConfig {
        event_types: 4,
        max_depth: 3,
        instance_prob: 0.5,
        negation_prob: 0.2,
        seed: seed ^ 0xC4A0,
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
                    inits: vec![(AttrId(0), Value::Int(rng.random_range(0..200i64)))],
                })
                .collect();
            Job::ExecBlock(ops)
        }
        7 => Job::Commit,
        8 => Job::Rollback,
        _ => Job::DefineTriggerSource(trigger_source(rng.random_range(0..3u64))),
    }
}

/// Everything observable about one tenant engine (minus the probe-work
/// counters, which measure this process's probing, not tenant state).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    stats: chimera::exec::EngineStats,
    in_txn: bool,
    /// The event base: logical length, clock and live tail (the open
    /// transaction's occurrences; none between transactions).
    eb_len: usize,
    eb_now: Timestamp,
    eb_log: Vec<(EventType, Oid, Timestamp)>,
    rules: Vec<(String, bool, bool, Timestamp, Timestamp, Timestamp)>,
    extent: Vec<Oid>,
}

fn observe(engine: &Engine, item: ClassId) -> Observed {
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

/// The fault-free sequential oracle: a fresh engine replaying one
/// tenant's jobs with the shard worker's exact `apply` semantics.
fn oracle_replay(
    schema: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    jobs: &[Job],
    item: ClassId,
) -> (Observed, u64, Option<String>) {
    let mut engine = Engine::with_config(schema.clone(), engine_cfg.clone());
    for def in triggers {
        engine.define_trigger(def.clone()).unwrap();
    }
    let mut errors = 0u64;
    let mut last_error = None;
    let (mut started, mut longest_txn) = (0usize, 0usize);
    for job in jobs {
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
    (observe(&engine, item), errors, last_error)
}

/// Mirror of the shard worker's all-or-nothing trigger-source job.
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

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chimera-chaos-recovery-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compare every tenant of a live runtime against the fault-free
/// sequential oracle over its *full* job list. `check_errors` also
/// compares the per-tenant error bookkeeping (skip it for runtimes that
/// recorded store refusals, which the engine-level oracle cannot see).
fn assert_oracle_equivalence(
    rt: &Runtime,
    s: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    per_tenant: &[Vec<Job>],
    item: ClassId,
    check_errors: bool,
) -> Result<(), TestCaseError> {
    for (t, jobs) in per_tenant.iter().enumerate() {
        let got = rt.with_tenant(TenantId(t as u64), |e| observe(e, item));
        if jobs.is_empty() {
            prop_assert!(got.is_none(), "tenant {t}: no jobs, but an engine exists");
            continue;
        }
        let got = got.expect("tenant with jobs has an engine");
        let (want, want_errors, want_last) = oracle_replay(s, triggers, engine_cfg, jobs, item);
        prop_assert_eq!(&got, &want, "tenant {} diverged from the fault-free oracle", t);
        if check_errors {
            let (errors, last) = rt.tenant_errors(TenantId(t as u64)).unwrap();
            prop_assert_eq!(errors, want_errors, "tenant {} error count", t);
            prop_assert_eq!(last, want_last, "tenant {} last error", t);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 1: transient + torn storage faults are invisible — every
    /// job acknowledged, nothing poisoned, end state (live *and* after
    /// a restart) identical to a fault-free sequential replay.
    #[test]
    fn transient_and_torn_faults_are_invisible(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        tenants in 1u64..4,
        steps in 6usize..24,
        shards in 1usize..3,
        snapshot_choice in 0u64..2,
    ) {
        let s = schema();
        let item = s.class_by_name("item").unwrap();
        let triggers = runtime_triggers(rule_seed);
        let engine_cfg = EngineConfig { max_rule_steps: 64, ..EngineConfig::default() };
        let dir = tmpdir("transient");
        let storage = DurabilityConfig {
            dir: dir.clone(),
            snapshot_every: snapshot_choice * 2,
        };
        // aggressive but strictly retryable rates (units of 1/10000)
        let rates = ChaosRates {
            append_transient: 1500,
            commit_transient: 2000,
            commit_torn: 1500,
            snapshot_transient: 2000,
            evict_transient: 0,
        };
        let counters = Arc::new(ChaosCounters::default());
        let wrap = {
            let counters = Arc::clone(&counters);
            StoreWrap::new(move |shard, store| {
                Box::new(ChaosStore::with_counters(
                    store,
                    FaultPlan::seeded(chaos_seed ^ shard as u64, rates),
                    Arc::clone(&counters),
                ))
            })
        };
        let per_tenant = {
            let rt = Runtime::new(
                s.clone(),
                triggers.clone(),
                RuntimeConfig {
                    shards,
                    storage: StorageMode::Durable(storage.clone()),
                    engine: engine_cfg.clone(),
                    store_wrap: Some(wrap),
                    ..Default::default()
                },
            )
            .unwrap();
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
            let stats = rt.stats();
            prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
            prop_assert_eq!(stats.shards_poisoned, 0, "retryable faults must never poison");
            prop_assert!(
                stats.store_retries >= counters.total(),
                "every injected fault ({}) must surface as a counted retry ({})",
                counters.total(),
                stats.store_retries
            );
            assert_oracle_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, item, true)?;
            per_tenant
        };
        // restart: every acknowledged job survived the fault schedule,
        // torn commits included — reopen without chaos and re-compare
        let rt = Runtime::new(
            s.clone(),
            triggers.clone(),
            RuntimeConfig {
                shards,
                storage: StorageMode::Durable(storage),
                engine: engine_cfg.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_oracle_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, item, true)?;
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Claim 4: a transient fault on `evict_tenant` refuses and
/// retains. The first eviction attempt the runtime ever makes is
/// forced to fail; the evicting home must keep the tenant resident
/// (state bit-exact, zero jobs lost), must *not* poison, and the next
/// residency-pressure event must retry and succeed. A chaos-free
/// restart then proves everything acknowledged was durable.
#[test]
fn refused_eviction_retains_the_tenant_and_retries() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let triggers = runtime_triggers(11);
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let dir = tmpdir("evict-refused");
    let storage = DurabilityConfig {
        dir: dir.clone(),
        snapshot_every: 0, // no full snapshot: the restart replays the whole log
    };
    let counters = Arc::new(ChaosCounters::default());
    let wrap = {
        let counters = Arc::clone(&counters);
        StoreWrap::new(move |_, store| {
            Box::new(ChaosStore::with_counters(
                store,
                FaultPlan::none().fail_nth(StoreOp::Evict, 0, StorageFault::Transient),
                Arc::clone(&counters),
            ))
        })
    };
    let rt = Runtime::new(
        s.clone(),
        triggers.clone(),
        RuntimeConfig {
            shards: 1,
            storage: StorageMode::Durable(storage.clone()),
            engine: engine_cfg.clone(),
            store_wrap: Some(wrap),
            lifecycle: LifecycleConfig::with_max_resident(1),
            ..Default::default()
        },
    )
    .unwrap();
    let block = |t: u64| {
        vec![
            Job::Begin,
            Job::ExecBlock(vec![Op::Create {
                class: item,
                inits: vec![(AttrId(0), Value::Int(40 + t as i64))],
            }]),
            Job::Commit,
        ]
    };
    let mut per_tenant: Vec<Vec<Job>> = Vec::new();
    // tenant 0 becomes resident; tenant 1 pushes residency to 2 > 1 and
    // triggers the first eviction attempt — the faulted one
    for t in 0..2u64 {
        per_tenant.push(block(t));
        for job in block(t) {
            rt.submit(TenantId(t), job).unwrap();
        }
        rt.flush().unwrap();
    }
    // enforcement runs worker-side just after the release that
    // satisfied the flush; wait for the injected fault to be consumed
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counters.transient() == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(counters.transient(), 1, "the forced eviction fault must fire");
    let stats = rt.stats();
    assert_eq!(stats.shards_poisoned, 0, "a refused eviction must not poison");
    assert_eq!(stats.jobs_processed, stats.jobs_submitted, "no job may be lost");
    assert_eq!(stats.tenants, 2, "both tenants still addressable");
    // the refused tenant is bit-exact — refuse-and-retain, not degrade
    assert_oracle_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, item, true).unwrap();
    // more pressure retries the eviction; the plan only forced attempt
    // 0, so enforcement now succeeds and the working set settles
    per_tenant.push(block(2));
    for job in block(2) {
        rt.submit(TenantId(2), job).unwrap();
    }
    rt.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.stats().tenants_resident > 1 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let stats = rt.stats();
    assert!(
        stats.tenants_resident <= 1,
        "retried eviction must enforce the cap (got {} resident)",
        stats.tenants_resident
    );
    assert!(stats.evictions >= 1, "the retry must actually evict");
    assert_eq!(stats.shards_poisoned, 0);
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_oracle_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, item, true).unwrap();
    drop(rt);
    // chaos-free restart: evicted and resident tenants alike recover
    let (rt, _) = Runtime::recover(
        s.clone(),
        triggers.clone(),
        RuntimeConfig {
            shards: 1,
            storage: StorageMode::Durable(storage),
            engine: engine_cfg.clone(),
            lifecycle: LifecycleConfig::with_max_resident(1),
            ..Default::default()
        },
    )
    .unwrap();
    assert_oracle_equivalence(&rt, &s, &triggers, &engine_cfg, &per_tenant, item, true).unwrap();
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Claim 2: a permanent store fault poisons exactly one home; its
/// tenants get typed refusals while other homes proceed oracle-exactly;
/// `reopen_shard_store` repairs it and makes refused-era effects
/// durable.
#[test]
fn permanent_fault_poisons_one_home_and_reopen_repairs() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let dir = tmpdir("poison");
    let storage = DurabilityConfig {
        dir: dir.clone(),
        snapshot_every: 0,
    };
    // shard 0's third group commit breaks for good — but only while the
    // chaos is armed, so the reopened replacement store is healthy
    let armed = Arc::new(AtomicBool::new(true));
    let wrap = {
        let armed = Arc::clone(&armed);
        StoreWrap::new(move |shard, store| {
            let plan = if shard == 0 && armed.load(Ordering::Relaxed) {
                FaultPlan::none().fail_nth(StoreOp::Commit, 2, StorageFault::Permanent)
            } else {
                FaultPlan::none()
            };
            Box::new(ChaosStore::new(store, plan))
        })
    };
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards: 2,
            storage: StorageMode::Durable(storage.clone()),
            engine: engine_cfg.clone(),
            store_wrap: Some(wrap),
            ..Default::default()
        },
    )
    .unwrap();
    let victim = (0u64..64).map(TenantId).find(|t| rt.shard_of(*t) == 0).unwrap();
    let healthy = (0u64..64).map(TenantId).find(|t| rt.shard_of(*t) == 1).unwrap();
    // serial submission: one job per batch, so store commits count 1:1
    let run = |tenant: TenantId, job: Job| -> JobOutcome {
        let (_, rx) = rt.submit_with_reply(tenant, job).unwrap();
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every submission is answered")
            .outcome
    };
    let block = |v: i64| Job::ExecBlock(vec![Op::Create {
        class: item,
        inits: vec![(AttrId(0), Value::Int(v))],
    }]);

    // commits #0 and #1 succeed; #2 (the engine-level Commit) fails
    // permanently — the job *executed* in RAM, so the engine leaves the
    // transaction, but durability is refused and the home is poisoned
    assert!(run(victim, Job::Begin).is_done());
    assert!(run(victim, block(7)).is_done());
    let mut victim_executed = vec![Job::Begin, block(7), Job::Commit];
    match run(victim, Job::Commit) {
        JobOutcome::RefusedDurability(msg) => assert!(msg.contains("shard store failed"), "{msg}"),
        other => panic!("expected the demoted refusal, got {other:?}"),
    }
    // everything after arrives at a poisoned home: refused pre-execution
    for job in [Job::Begin, block(8), Job::Commit] {
        match run(victim, job) {
            JobOutcome::RefusedDurability(msg) => {
                assert!(msg.contains("shard store failed"), "{msg}")
            }
            other => panic!("expected a poisoned-home refusal, got {other:?}"),
        }
    }
    // the other home is untouched: a full script runs and matches the
    // oracle exactly
    let healthy_jobs = vec![Job::Begin, block(3), block(4), Job::Commit];
    for job in &healthy_jobs {
        assert!(run(healthy, job.clone()).is_done());
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.ready_queue_depth, 0);
    assert_eq!(stats.shards_poisoned, 1, "exactly the victim home is poisoned");
    let (verrors, vlast) = rt.tenant_errors(victim).unwrap();
    assert_eq!(
        verrors, 4,
        "the demoted Commit plus three pre-execution refusals were recorded"
    );
    assert!(vlast.unwrap().contains("shard store failed"));
    {
        let got = rt.with_tenant(healthy, |e| observe(e, item)).unwrap();
        let (want, want_errors, _) =
            oracle_replay(&s, &[], &engine_cfg, &healthy_jobs, item);
        assert_eq!(got, want, "healthy tenant diverged while the other home was down");
        assert_eq!(want_errors, 0);
    }

    // the repair: disarm the chaos, swap in a fresh store, poison clears
    armed.store(false, Ordering::Relaxed);
    rt.reopen_shard_store(0).unwrap();
    assert_eq!(rt.stats().shards_poisoned, 0, "reopen must clear the poison");
    for job in [Job::Begin, block(9), Job::Commit] {
        victim_executed.push(job.clone());
        assert!(run(victim, job).is_done(), "post-repair jobs must succeed");
    }
    // RAM was authoritative across the outage: the victim equals the
    // oracle over exactly the jobs that *executed* (the demoted Commit
    // included, the pre-execution refusals excluded)
    let got = rt.with_tenant(victim, |e| observe(e, item)).unwrap();
    let (want, _, _) = oracle_replay(&s, &[], &engine_cfg, &victim_executed, item);
    assert_eq!(got, want, "victim tenant diverged across poison + repair");
    drop(rt);

    // restart: the reopen's snapshot made the refused-era effects
    // durable, so recovery reproduces both tenants
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards: 2,
            storage: StorageMode::Durable(storage),
            engine: engine_cfg.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let got = rt.with_tenant(victim, |e| observe(e, item)).unwrap();
    let (want, _, _) = oracle_replay(&s, &[], &engine_cfg, &victim_executed, item);
    assert_eq!(got, want, "victim tenant lost state across the restart");
    let got = rt.with_tenant(healthy, |e| observe(e, item)).unwrap();
    let (want, _, _) = oracle_replay(&s, &[], &engine_cfg, &healthy_jobs, item);
    assert_eq!(got, want, "healthy tenant lost state across the restart");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (PR-8 roadmap follow-up): a permanent fault that strikes
/// *mid-transaction* used to strand the tenant — the poisoned home
/// refused every job pre-execution, including the `Rollback` that
/// [`Runtime::reopen_shard_store`] needs the tenant to reach a
/// committed-only state, so the repair path was unreachable. The fix
/// lets `Rollback` (and only `Rollback`) through on a poisoned home as
/// a RAM-only job: the store is dead, but rolling back needs nothing
/// from it.
#[test]
fn rollback_escapes_a_poisoned_home_and_unblocks_reopen() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let dir = tmpdir("poison-midtxn");
    let storage = DurabilityConfig {
        dir: dir.clone(),
        snapshot_every: 0,
    };
    let armed = Arc::new(AtomicBool::new(true));
    let wrap = {
        let armed = Arc::clone(&armed);
        StoreWrap::new(move |shard, store| {
            let plan = if shard == 0 && armed.load(Ordering::Relaxed) {
                FaultPlan::none().fail_nth(StoreOp::Commit, 2, StorageFault::Permanent)
            } else {
                FaultPlan::none()
            };
            Box::new(ChaosStore::new(store, plan))
        })
    };
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards: 2,
            storage: StorageMode::Durable(storage.clone()),
            engine: engine_cfg.clone(),
            store_wrap: Some(wrap),
            ..Default::default()
        },
    )
    .unwrap();
    let victim = (0u64..64).map(TenantId).find(|t| rt.shard_of(*t) == 0).unwrap();
    let run = |tenant: TenantId, job: Job| -> JobOutcome {
        let (_, rx) = rt.submit_with_reply(tenant, job).unwrap();
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every submission is answered")
            .outcome
    };
    let block = |v: i64| Job::ExecBlock(vec![Op::Create {
        class: item,
        inits: vec![(AttrId(0), Value::Int(v))],
    }]);

    // store commits #0 and #1 succeed; #2 — an exec block, which does
    // NOT end the transaction — fails permanently. The job executed in
    // RAM (demoted refusal), the home is poisoned, and the tenant is
    // stuck *inside* an open transaction.
    assert!(run(victim, Job::Begin).is_done());
    assert!(run(victim, block(7)).is_done());
    match run(victim, block(8)) {
        JobOutcome::RefusedDurability(msg) => assert!(msg.contains("shard store failed"), "{msg}"),
        other => panic!("expected the demoted refusal, got {other:?}"),
    }
    rt.flush().unwrap();
    assert_eq!(rt.stats().shards_poisoned, 1);
    assert!(rt.with_tenant(victim, |e| e.in_transaction()).unwrap());

    // the repair path is blocked: only committed state can be
    // snapshotted into the replacement store
    armed.store(false, Ordering::Relaxed);
    let err = rt.reopen_shard_store(0).unwrap_err().to_string();
    assert!(err.contains("open transaction"), "{err}");

    // Commit needs the dead store, so the poisoned home still refuses
    // it — but Rollback is let through as a RAM-only job and succeeds,
    // ending the transaction
    match run(victim, Job::Commit) {
        JobOutcome::RefusedDurability(msg) => assert!(msg.contains("shard store failed"), "{msg}"),
        other => panic!("expected a poisoned-home refusal, got {other:?}"),
    }
    assert!(
        run(victim, Job::Rollback).is_done(),
        "Rollback must escape a poisoned home"
    );
    assert!(!rt.with_tenant(victim, |e| e.in_transaction()).unwrap());

    // now the reopen goes through, and the tenant is healthy again
    rt.flush().unwrap();
    rt.reopen_shard_store(0).unwrap();
    assert_eq!(rt.stats().shards_poisoned, 0);
    let mut executed = vec![Job::Begin, block(7), block(8), Job::Rollback];
    for job in [Job::Begin, block(9), Job::Commit] {
        executed.push(job.clone());
        assert!(run(victim, job).is_done(), "post-repair jobs must succeed");
    }
    let got = rt.with_tenant(victim, |e| observe(e, item)).unwrap();
    let (want, _, _) = oracle_replay(&s, &[], &engine_cfg, &executed, item);
    assert_eq!(got, want, "victim diverged across mid-transaction poison + rollback + repair");
    drop(rt);

    // restart: the reopen snapshotted the rolled-back (committed-only)
    // state, and the post-repair transaction is in the fresh WAL
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards: 2,
            storage: StorageMode::Durable(storage),
            engine: engine_cfg.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let got = rt.with_tenant(victim, |e| observe(e, item)).unwrap();
    let (want, _, _) = oracle_replay(&s, &[], &engine_cfg, &executed, item);
    assert_eq!(got, want, "victim lost state across the restart");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: submission↔completion accounting under a poisoned home.
/// Forced commit failure on the only shard → every reply arrives (typed
/// refusals, never a hang), nothing leaks in the queues, and the flush
/// barrier still returns.
#[test]
fn poisoned_home_answers_everything_and_flush_returns() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let dir = tmpdir("accounting");
    let wrap = StoreWrap::new(|_, store| {
        Box::new(ChaosStore::new(
            store,
            FaultPlan::none().fail_nth(StoreOp::Commit, 0, StorageFault::Permanent),
        ))
    });
    let rt = Runtime::new(
        s,
        vec![],
        RuntimeConfig {
            shards: 1,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: dir.clone(),
                snapshot_every: 0,
            }),
            store_wrap: Some(wrap),
            ..Default::default()
        },
    )
    .unwrap();
    const JOBS: u64 = 30;
    let mut receivers = Vec::new();
    for k in 0..JOBS {
        let tenant = TenantId(k % 3);
        let job = match (k / 3) % 3 {
            0 => Job::Begin,
            1 => Job::ExecBlock(vec![Op::Create {
                class: item,
                inits: vec![(AttrId(0), Value::Int(k as i64))],
            }]),
            _ => Job::Commit,
        };
        let (_, rx) = rt.submit_with_reply(tenant, job).unwrap();
        receivers.push(rx);
    }
    rt.flush().unwrap();
    let (mut refused, mut errors, mut done) = (0u64, 0u64, 0u64);
    for rx in receivers {
        // the accounting claim: every reply slot is answered
        match rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a poisoned home must still answer every job")
            .outcome
        {
            JobOutcome::RefusedDurability(msg) => {
                assert!(msg.contains("shard store failed"), "{msg}");
                refused += 1;
            }
            JobOutcome::Error(_) => errors += 1,
            JobOutcome::Done(_) => done += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    // the very first group commit failed: any Done in that batch was
    // demoted, everything after was refused outright
    assert_eq!(done, 0, "no job can claim durable success");
    assert!(refused >= 1);
    assert_eq!(refused + errors + done, JOBS);
    let stats = rt.stats();
    assert_eq!(stats.jobs_submitted, JOBS);
    assert_eq!(stats.jobs_processed, JOBS, "no job leaked in the queues");
    assert_eq!(stats.ready_queue_depth, 0);
    assert_eq!(stats.shards_poisoned, 1);
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Claim 3: through a connection-cutting proxy, a reconnecting
    /// client resolves *every* submission — `Done`, engine `Error`, or
    /// the typed `Disconnected` — with exact orphan accounting, and the
    /// session heals once the cut budget is spent.
    #[test]
    fn cut_connections_resolve_every_submission(
        seed in any::<u64>(),
        max_cuts in 0u64..3,
        cut_lo in 400u64..900,
        cut_span in 1u64..2600,
    ) {
        let s = schema();
        let rt = Arc::new(
            Runtime::new(s, vec![], RuntimeConfig { shards: 2, ..Default::default() }).unwrap(),
        );
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&rt), ServerConfig::default()).unwrap();
        let proxy = ChaosProxy::start(
            server.local_addr(),
            NetChaosConfig {
                seed,
                // past the handshake, inside the job stream
                cut_bytes: Some((cut_lo, cut_lo + cut_span)),
                max_cuts,
                chunk_bytes: 16,
                ..NetChaosConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect_config(
            proxy.local_addr(),
            ClientConfig {
                request_timeout: Some(Duration::from_secs(5)),
                reconnect: Some(ReconnectPolicy {
                    max_attempts: 8,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                    jitter_seed: seed,
                }),
                ..ClientConfig::default()
            },
        )
        .unwrap();

        let mut completions = Vec::new();
        let mut submitted = 0u64;
        for round in 0..40u64 {
            let tenant = round % 3;
            let job = match round % 4 {
                0 => WireJob::Begin,
                1 | 2 => WireJob::RaiseExternal(vec![ExternalEvent {
                    class: 0,
                    channel: (round % 2) as u32,
                    oid: round,
                }]),
                _ => WireJob::Commit,
            };
            submitted += 1;
            completions.extend(c.submit(tenant, job).unwrap());
        }
        completions.extend(c.drain().unwrap());

        prop_assert_eq!(completions.len() as u64, submitted, "every submission resolves");
        let disconnected = completions
            .iter()
            .filter(|d| matches!(d.outcome, WireOutcome::Disconnected))
            .count() as u64;
        prop_assert_eq!(disconnected, c.orphaned(), "orphan accounting is exact");
        for d in &completions {
            prop_assert!(
                matches!(
                    d.outcome,
                    WireOutcome::Done { .. } | WireOutcome::Error { .. } | WireOutcome::Disconnected
                ),
                "unexpected outcome: {:?}",
                d.outcome
            );
            if matches!(d.outcome, WireOutcome::Disconnected) {
                prop_assert_eq!(d.job, JOB_DISCONNECTED);
            }
        }
        prop_assert!(
            c.reconnects() <= proxy.cuts(),
            "reconnects ({}) cannot exceed proxy cuts ({})",
            c.reconnects(),
            proxy.cuts()
        );

        // healing: the cut budget is finite, so a clean round (no
        // Disconnected) must arrive within a bounded number of attempts
        let mut healed = false;
        for _ in 0..20 {
            let mut round = Vec::new();
            round.extend(c.submit(7, WireJob::Begin).unwrap());
            round.extend(
                c.submit(
                    7,
                    WireJob::RaiseExternal(vec![ExternalEvent { class: 0, channel: 1, oid: 0 }]),
                )
                .unwrap(),
            );
            round.extend(c.submit(7, WireJob::Commit).unwrap());
            round.extend(c.drain().unwrap());
            if round
                .iter()
                .all(|d| !matches!(d.outcome, WireOutcome::Disconnected))
            {
                healed = true;
                break;
            }
        }
        prop_assert!(healed, "no clean round after {} cuts", proxy.cuts());

        // the flush barrier still works through whatever chaos remains
        let mut flushed = false;
        for _ in 0..10 {
            if c.flush().is_ok() {
                flushed = true;
                break;
            }
        }
        prop_assert!(flushed, "flush never made it through");
        // server-side accounting never leaked a job, cuts or not
        rt.flush().unwrap();
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.ready_queue_depth, 0);
        drop(c);
        proxy.shutdown();
        server.shutdown();
    }
}
