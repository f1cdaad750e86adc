//! Property suite for the parallel runtime (`chimera-runtime`) and the
//! partitioned check round (`chimera-rules`): parallelism must be
//! **observationally invisible**.
//!
//! * interleaved multi-tenant job streams through the sharded runtime
//!   (bounded queues, worker threads, intra-shard check parallelism)
//!   leave every tenant with the *identical* triggered-rule sets,
//!   consumption windows (`last_consideration` / `last_consumption` /
//!   `checked_upto`), engine counters, event log, and net store effects
//!   as a per-tenant sequential replay through a plain [`Engine`];
//! * a trigger-support check round with `check_workers > 1` leaves the
//!   rule table in exactly the state the sequential round produces, on
//!   random rule sets × random histories.
//!
//! The suite's configured default is 256 cases (the PR-4 acceptance
//! bar); CI runs it in a dedicated step at `PROPTEST_CASES=256`.

use chimera::events::Timestamp;
use chimera::exec::{Engine, EngineConfig, Op};
use chimera::model::{AttrDef, AttrType, ClassId, Oid, Schema, SchemaBuilder, Value};
use chimera::rules::{ActionStmt, RuleTable, TriggerDef, TriggerSupport};
use chimera::runtime::{Backpressure, Job, Runtime, RuntimeConfig, Scheduler, TenantId};
use chimera::workload::{ExprGenConfig, RandomExprGen, ZipfTenants, ZipfTenantsConfig};
use chimera::prelude::{EventBase, EventType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The test schema: one class, so its id is the `ClassId(0)` the random
/// expression generator emits external events on.
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

/// A random rule set over the generator's external event types; a third
/// of the rules carry a Create action (observable net effects, possible
/// cascades — capped by `max_rule_steps`).
fn random_rules(seed: u64) -> Vec<TriggerDef> {
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

/// One tenant-addressed job of the interleaved script.
fn random_job(rng: &mut StdRng, in_txn: bool, item: ClassId) -> Job {
    if !in_txn {
        return Job::Begin;
    }
    match rng.random_range(0..10u32) {
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
        5..=7 => {
            let n = rng.random_range(1..3usize);
            let ops = (0..n)
                .map(|_| Op::Create {
                    class: item,
                    inits: vec![],
                })
                .collect();
            Job::ExecBlock(ops)
        }
        8 => Job::Commit,
        _ => Job::Rollback,
    }
}

/// Everything observable about one tenant engine. The event base is
/// compared as its logical length, its clock and its live tail (the
/// occurrences since the last transaction start).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    stats: chimera::exec::EngineStats,
    in_txn: bool,
    eb_len: usize,
    eb_now: Timestamp,
    eb_log: Vec<(EventType, Oid, Timestamp)>,
    /// Per rule: (name, triggered, witness, last_consideration,
    /// last_consumption, checked_upto) — the consumption windows.
    rules: Vec<(String, bool, bool, Timestamp, Timestamp, Timestamp)>,
    /// Sorted extent of the item class (the net store effect; creations
    /// from both blocks and rule actions land here).
    extent: Vec<Oid>,
    /// Probe decisions: fresh evaluations + memo hits. The split between
    /// the two may differ across worker counts (per-worker memos), the
    /// sum may not.
    probe_decisions: u64,
    /// Worker-count-independent support counters.
    rules_checked: u64,
    skipped_by_filter: u64,
    check_rounds: u64,
}

fn snapshot(engine: &mut Engine, item: ClassId) -> Snapshot {
    let mut extent = engine.extent(item);
    extent.sort_unstable();
    let s = engine.support_stats();
    Snapshot {
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
        probe_decisions: s.ts_probes + s.probe_memo_hits,
        rules_checked: s.rules_checked,
        skipped_by_filter: s.skipped_by_filter,
        check_rounds: s.check_rounds,
    }
}

/// The sequential oracle: a fresh single-threaded engine replaying one
/// tenant's jobs in order. Returns its snapshot, its error count and the
/// event count of its longest transaction, which bounds the live tail.
fn replay(
    s: &Schema,
    rules: &[TriggerDef],
    engine_cfg: &EngineConfig,
    jobs: &[Job],
    item: ClassId,
) -> (Snapshot, u64, usize) {
    let mut engine = Engine::with_config(
        s.clone(),
        EngineConfig { check_workers: 1, ..engine_cfg.clone() },
    );
    for def in rules {
        engine.define_trigger(def.clone()).unwrap();
    }
    let (mut errors, mut started, mut longest_txn) = (0u64, 0usize, 0usize);
    for job in jobs {
        let res = match job.clone() {
            Job::Begin => engine.begin(),
            Job::ExecBlock(ops) => engine.exec_block(&ops).map(|_| ()),
            Job::RaiseExternal(ev) => engine.raise_external(&ev).map(|_| ()),
            Job::Commit => engine.commit(),
            Job::Rollback => engine.rollback(),
            _ => Ok(()),
        };
        match res {
            Err(_) => errors += 1,
            Ok(()) if matches!(job, Job::Begin) => started = engine.event_base().len(),
            Ok(()) => {}
        }
        longest_txn = longest_txn.max(engine.event_base().len() - started);
    }
    (snapshot(&mut engine, item), errors, longest_txn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The PR-4 tentpole invariant: interleaved multi-tenant traffic
    /// through the parallel runtime ≡ per-tenant sequential replay.
    #[test]
    fn runtime_matches_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        tenants in 1u64..6,
        steps in 1usize..40,
        shards in 1usize..4,
        check_workers in 1usize..4,
    ) {
        let s = schema();
        let item = s.class_by_name("item").unwrap();
        let rules = random_rules(rule_seed);
        let engine_cfg = EngineConfig {
            // errors (cascade limit, commit outside txn, ...) are part of
            // the equivalence: both sides must fail identically
            max_rule_steps: 64,
            check_workers,
            ..EngineConfig::default()
        };
        let rt = Runtime::new(
            s.clone(),
            rules.clone(),
            RuntimeConfig {
                shards,
                queue_capacity: 4, // small: exercise the Block policy
                backpressure: Backpressure::Block,
                engine: engine_cfg.clone(),
                ..Default::default()
            },
        )
        .unwrap();

        // one interleaved script over all tenants, submitted in order
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

        // sequential oracle: a fresh single-threaded engine per tenant,
        // replaying exactly that tenant's jobs in order
        for (t, jobs) in per_tenant.iter().enumerate() {
            let (want, want_errors, longest_txn) = replay(&s, &rules, &engine_cfg, jobs, item);
            let got = rt.with_tenant(TenantId(t as u64), |e| snapshot(e, item));
            if jobs.is_empty() {
                prop_assert!(got.is_none(), "tenant {} never submitted", t);
                continue;
            }
            let got = got.expect("tenant has an engine");
            prop_assert_eq!(&got, &want, "tenant {} diverged", t);
            prop_assert!(got.eb_log.len() <= longest_txn, "tenant {} kept more than a transaction", t);
            let (errors, _) = rt.tenant_errors(TenantId(t as u64)).unwrap();
            prop_assert_eq!(errors, want_errors, "tenant {} error count", t);
        }
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.jobs_shed, 0u64);
        prop_assert_eq!(stats.job_panics, 0u64);
    }

    /// The PR-7 scheduling invariant: configurations chosen to *maximize*
    /// cross-shard tenant stealing still replay identically, under both
    /// schedulers. Three adversarial shapes:
    ///
    /// * one tenant × many workers — every idle worker contends to claim
    ///   the single ready tenant, so per-tenant FIFO rests entirely on
    ///   the exclusive-claim protocol;
    /// * many tenants × two workers — constant migration pressure, every
    ///   release re-enqueues into a contended ready set;
    /// * a Zipf-skewed job mix — one hot tenant keeps its home worker
    ///   saturated while the cold tail gets stolen around it.
    #[test]
    fn steal_heavy_schedules_match_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        scenario in 0usize..3,
        pinned in any::<bool>(),
    ) {
        let (tenants, shards, steps) = match scenario {
            0 => (1u64, 6usize, 48usize),
            1 => (16, 2, 64),
            _ => (8, 4, 64),
        };
        let s = schema();
        let item = s.class_by_name("item").unwrap();
        let rules = random_rules(rule_seed);
        let engine_cfg = EngineConfig {
            max_rule_steps: 64,
            ..EngineConfig::default()
        };
        let scheduler = if pinned { Scheduler::Pinned } else { Scheduler::LoadAware };
        let rt = Runtime::new(
            s.clone(),
            rules.clone(),
            RuntimeConfig {
                shards,
                queue_capacity: 4,
                backpressure: Backpressure::Block,
                scheduler,
                engine: engine_cfg.clone(),
                ..Default::default()
            },
        )
        .unwrap();

        // the interleaved script; the skewed scenario draws its tenant
        // sequence from the Zipf generator (rank 0 is the hot tenant)
        let mut rng = StdRng::seed_from_u64(script_seed);
        let mut zipf = (scenario == 2).then(|| {
            ZipfTenants::new(ZipfTenantsConfig {
                tenants,
                s: 1.3,
                hot_boost: 4.0,
                seed: script_seed ^ 0x51E9,
            })
        });
        let mut in_txn = vec![false; tenants as usize];
        let mut per_tenant: Vec<Vec<Job>> = vec![Vec::new(); tenants as usize];
        for _ in 0..steps {
            let t = match zipf.as_mut() {
                Some(z) => z.next_rank() as usize,
                None => rng.random_range(0..tenants) as usize,
            };
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
        prop_assert_eq!(stats.jobs_shed, 0u64);
        prop_assert_eq!(stats.job_panics, 0u64);
        // per-shard accounting closes: homes account for every submission,
        // workers for every execution
        let sub: u64 = stats.per_shard.iter().map(|s| s.jobs_submitted).sum();
        let exec: u64 = stats.per_shard.iter().map(|s| s.jobs_executed).sum();
        prop_assert_eq!(sub, stats.jobs_submitted);
        prop_assert_eq!(exec, stats.jobs_processed);
        if pinned {
            // before shutdown, pinned scheduling never crosses homes
            prop_assert_eq!(stats.steals, 0u64);
            for (i, sh) in stats.per_shard.iter().enumerate() {
                prop_assert_eq!(
                    sh.jobs_executed, sh.jobs_submitted,
                    "pinned shard {} executed foreign work", i
                );
            }
        }

        for (t, jobs) in per_tenant.iter().enumerate() {
            let (want, want_errors, longest_txn) = replay(&s, &rules, &engine_cfg, jobs, item);
            let got = rt.with_tenant(TenantId(t as u64), |e| snapshot(e, item));
            if jobs.is_empty() {
                prop_assert!(got.is_none(), "tenant {} never submitted", t);
                continue;
            }
            let got = got.expect("tenant has an engine");
            prop_assert_eq!(&got, &want, "tenant {} diverged under {:?}", t, scheduler);
            prop_assert!(got.eb_log.len() <= longest_txn, "tenant {} kept more than a transaction", t);
            let (errors, _) = rt.tenant_errors(TenantId(t as u64)).unwrap();
            prop_assert_eq!(errors, want_errors, "tenant {} error count", t);
        }
    }

    /// Rules-layer core: the parallel probe phase leaves the rule table
    /// bit-identical to the sequential round at every block.
    #[test]
    fn parallel_check_round_equals_sequential(
        rule_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        blocks in 1usize..12,
        workers in 2usize..5,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 4,
            max_depth: 4,
            instance_prob: 0.5,
            negation_prob: 0.3,
            seed: rule_seed,
        });
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let nrules = rng.random_range(4..12usize);
        let mut rt_seq = RuleTable::new();
        let mut rt_par = RuleTable::new();
        for i in 0..nrules {
            let expr = g.generate();
            rt_seq
                .define(TriggerDef::new(format!("r{i}"), expr.clone()), Timestamp::ZERO)
                .unwrap();
            rt_par
                .define(TriggerDef::new(format!("r{i}"), expr), Timestamp::ZERO)
                .unwrap();
        }
        let mut seq = TriggerSupport::optimized();
        let mut par = TriggerSupport::optimized().with_workers(workers);
        let mut eb_seq = EventBase::new();
        let mut eb_par = EventBase::new();
        for _ in 0..blocks {
            for _ in 0..rng.random_range(0..4usize) {
                let ty = EventType::external(ClassId(0), rng.random_range(0..4u32));
                let oid = Oid(rng.random_range(1..4u64));
                eb_seq.append(ty, oid);
                eb_par.append(ty, oid);
            }
            eb_seq.tick();
            eb_par.tick();
            let now = eb_seq.now();
            prop_assert_eq!(eb_par.now(), now);
            let newly_seq = seq.check(&mut rt_seq, &eb_seq, now);
            let newly_par = par.check(&mut rt_par, &eb_par, now);
            prop_assert_eq!(&newly_seq, &newly_par);
            for i in 0..nrules {
                let name = format!("r{i}");
                let a = rt_seq.state(&name).unwrap();
                let b = rt_par.state(&name).unwrap();
                prop_assert_eq!(
                    (a.triggered, a.witness, a.checked_upto, a.last_consideration, a.last_consumption),
                    (b.triggered, b.witness, b.checked_upto, b.last_consideration, b.last_consumption),
                    "rule {} diverged at {}", &name, now
                );
            }
            // consider every newly triggered rule on both sides so
            // consumption windows advance identically
            for name in newly_seq {
                rt_seq.mark_considered(rt_seq.index_of(&name).unwrap(), now);
                rt_par.mark_considered(rt_par.index_of(&name).unwrap(), now);
            }
        }
        // identical probe decision totals (memoized or evaluated)
        prop_assert_eq!(
            seq.stats.ts_probes + seq.stats.probe_memo_hits,
            par.stats.ts_probes + par.stats.probe_memo_hits
        );
        prop_assert_eq!(seq.stats.rules_checked, par.stats.rules_checked);
        prop_assert_eq!(seq.stats.skipped_by_filter, par.stats.skipped_by_filter);
    }
}
