//! The PR-5 acceptance bar: **the network is observationally
//! invisible**.
//!
//! Blocks submitted by ≥ 2 concurrent TCP clients across ≥ 16 tenants
//! must produce — tenant for tenant — the same triggered sets, engine
//! stats, event logs, consumption windows, and store extents as an
//! in-process sequential replay of the same per-tenant job streams on a
//! plain [`Engine`]; and **every** submitted job must receive a per-job
//! completion reply (success or typed error) with *no* `flush` anywhere
//! in the client path — quiescence is established purely by draining
//! completions.
//!
//! Tenant-local triggers ride along over the wire too: some tenants
//! install a trigger mid-stream from concrete `define trigger` syntax
//! (`DefineTriggers`), which the oracle mirrors by lowering the same
//! source through `chimera-lang` at the same stream position.

use chimera::events::Timestamp;
use chimera::exec::{Engine, EngineConfig};
use chimera::lang::parse_trigger_decls;
use chimera::model::{AttrDef, AttrType, ClassId, Oid, Schema, SchemaBuilder, Value};
use chimera::net::{
    Client, ExternalEvent, Server, ServerConfig, WireJob, WireOp, WireOutcome,
};
use chimera::prelude::EventType;
use chimera::rules::{ActionStmt, TriggerDef};
use chimera::runtime::{Backpressure, Runtime, RuntimeConfig, TenantId};
use chimera::workload::{ExprGenConfig, RandomExprGen};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

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

/// A random runtime-wide rule set (same shape as the PR-4 suite): a
/// third of the rules carry Create actions, so firings have net effects.
fn random_rules(seed: u64) -> Vec<TriggerDef> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = RandomExprGen::new(ExprGenConfig {
        event_types: 4,
        max_depth: 3,
        instance_prob: 0.5,
        negation_prob: 0.2,
        seed: seed ^ 0xD1CE,
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

/// The tenant-local trigger some tenants install over the wire,
/// in concrete §2–§3 syntax.
const WIRE_TRIGGER_SRC: &str = "
define immediate trigger wireAudit for item
  events external(item#2)
  condition item(S)
  actions create(item)
end";

/// One step of a tenant's scripted stream.
#[derive(Debug, Clone)]
enum Step {
    Wire(WireJob),
    Define(&'static str),
}

/// The deterministic per-tenant script (wire form). Mirrored exactly by
/// the sequential oracle.
fn tenant_script(seed: u64, tenant: u64, steps: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed ^ tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut script = Vec::with_capacity(steps);
    let mut in_txn = false;
    for k in 0..steps {
        if !in_txn {
            script.push(Step::Wire(WireJob::Begin));
            in_txn = true;
            continue;
        }
        // one mid-stream trigger definition for half the tenants
        if k == steps / 2 && tenant % 2 == 0 {
            script.push(Step::Define(WIRE_TRIGGER_SRC));
            continue;
        }
        let step = match rng.random_range(0..10u32) {
            0..=4 => {
                let n = rng.random_range(1..4usize);
                Step::Wire(WireJob::RaiseExternal(
                    (0..n)
                        .map(|_| ExternalEvent {
                            class: 0,
                            channel: rng.random_range(0..4u32),
                            oid: rng.random_range(0..4u64),
                        })
                        .collect(),
                ))
            }
            5..=7 => {
                let n = rng.random_range(1..3usize);
                Step::Wire(WireJob::ExecBlock(
                    (0..n)
                        .map(|_| WireOp::Create {
                            class: 0,
                            inits: vec![(0, Value::Int(rng.random_range(0..100i64)))],
                        })
                        .collect(),
                ))
            }
            8 => {
                in_txn = false;
                Step::Wire(WireJob::Commit)
            }
            _ => {
                in_txn = false;
                Step::Wire(WireJob::Rollback)
            }
        };
        script.push(step);
    }
    script
}

/// Everything observable about one tenant engine (the PR-4 snapshot,
/// minus the probe counters that legitimately vary with batching). The
/// event base is compared as its logical length, its clock and its live
/// tail (the open transaction's occurrences; none between transactions).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Snapshot {
    stats: chimera::exec::EngineStats,
    in_txn: bool,
    eb_len: usize,
    eb_now: Timestamp,
    eb_log: Vec<(EventType, Oid, Timestamp)>,
    rules: Vec<(String, bool, bool, Timestamp, Timestamp, Timestamp)>,
    extent: Vec<Oid>,
}

fn snapshot(engine: &Engine, item: ClassId) -> Snapshot {
    let mut extent = engine.extent(item);
    extent.sort_unstable();
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
    }
}

/// Replay one tenant's script on a fresh sequential engine; returns the
/// snapshot, the engine-error count and the event count of the longest
/// transaction, which bounds the live tail.
fn replay_sequential(
    s: &Schema,
    rules: &[TriggerDef],
    engine_cfg: &EngineConfig,
    script: &[Step],
    item: ClassId,
) -> (Snapshot, u64, usize) {
    let mut engine = Engine::with_config(s.clone(), engine_cfg.clone());
    for def in rules {
        engine.define_trigger(def.clone()).unwrap();
    }
    let (mut errors, mut started, mut longest_txn) = (0u64, 0usize, 0usize);
    for step in script {
        let res = match step.clone() {
            Step::Wire(job) => match job {
                WireJob::Begin => engine.begin(),
                WireJob::ExecBlock(ops) => {
                    let ops: Vec<_> = ops.into_iter().map(WireOp::into_op).collect();
                    engine.exec_block(&ops).map(|_| ())
                }
                WireJob::RaiseExternal(evs) => {
                    let evs: Vec<_> = evs
                        .into_iter()
                        .map(|e| (ClassId(e.class), e.channel, Oid(e.oid)))
                        .collect();
                    engine.raise_external(&evs).map(|_| ())
                }
                WireJob::Commit => engine.commit(),
                WireJob::Rollback => engine.rollback(),
            },
            Step::Define(src) => {
                let decls = parse_trigger_decls(src, engine.schema()).unwrap();
                let mut r = Ok(());
                for decl in &decls {
                    let def = decl.lower(engine.schema()).unwrap();
                    if let e @ Err(_) = engine.define_trigger(def) {
                        r = e;
                        break;
                    }
                }
                r
            }
        };
        match res {
            Err(_) => errors += 1,
            Ok(()) if matches!(step, Step::Wire(WireJob::Begin)) => {
                started = engine.event_base().len()
            }
            Ok(()) => {}
        }
        longest_txn = longest_txn.max(engine.event_base().len() - started);
    }
    (snapshot(&engine, item), errors, longest_txn)
}

proptest! {
    // TCP sessions per case make this pricier than the in-process
    // suites; 48 cases of 2-3 clients × 16-24 tenants is still < 10 s.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn network_traffic_equals_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        extra_tenants in 0u64..8,
        steps in 4usize..24,
        shards in 1usize..4,
    ) {
        let s = schema();
        let item = s.class_by_name("item").unwrap();
        let rules = random_rules(rule_seed);
        let engine_cfg = EngineConfig {
            max_rule_steps: 64,
            ..EngineConfig::default()
        };
        let tenants = 16 + extra_tenants; // the bar says ≥ 16
        let runtime = Arc::new(
            Runtime::new(
                s.clone(),
                rules.clone(),
                RuntimeConfig {
                    shards,
                    queue_capacity: 4, // small: exercise backpressure
                    backpressure: Backpressure::Block,
                    engine: engine_cfg.clone(),
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&runtime),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr();

        // ≥ 2 concurrent clients, disjoint tenant ranges (per-tenant job
        // order must be deterministic; cross-tenant interleaving is free)
        let clients = 2 + (script_seed % 2) as usize;
        let scripts: Vec<Vec<Step>> = (0..tenants)
            .map(|t| tenant_script(script_seed, t, steps))
            .collect();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let scripts = &scripts;
                scope.spawn(move || {
                    let mut client =
                        Client::connect_with(addr, &format!("feeder-{c}"), 1 << 20).unwrap();
                    let mut submitted = 0usize;
                    let mut completions = Vec::new();
                    // round-robin over this client's own tenants so its
                    // pipeline interleaves tenants like production would
                    let mine: Vec<u64> =
                        (0..tenants).filter(|t| *t as usize % clients == c).collect();
                    let max_len = mine
                        .iter()
                        .map(|t| scripts[*t as usize].len())
                        .max()
                        .unwrap_or(0);
                    for k in 0..max_len {
                        for &t in &mine {
                            match scripts[t as usize].get(k) {
                                None => {}
                                Some(Step::Wire(job)) => {
                                    completions.extend(client.submit(t, job.clone()).unwrap());
                                    submitted += 1;
                                }
                                Some(Step::Define(src)) => {
                                    // synchronous: reads outstanding
                                    // completions into the client's
                                    // buffer (collected by the final
                                    // drain), then installs — in order
                                    client.define_triggers(t, src).unwrap();
                                }
                            }
                        }
                    }
                    // every job answered, no flush anywhere: draining
                    // completions is the only quiescence mechanism the
                    // client has
                    completions.extend(client.drain().unwrap());
                    assert_eq!(client.outstanding(), 0);
                    assert_eq!(completions.len(), submitted, "client {c}: a job went unanswered");
                    // completions arrive in submission order: job ids
                    // are monotone per connection
                    let ids: Vec<u64> = completions.iter().map(|d| d.job).collect();
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    assert_eq!(ids, sorted, "client {c}: completions out of order");
                    for d in &completions {
                        assert!(
                            matches!(
                                d.outcome,
                                WireOutcome::Done { .. } | WireOutcome::Error { .. }
                            ),
                            "job {} got {:?}",
                            d.job,
                            d.outcome
                        );
                    }
                });
            }
        });

        // all clients drained all completions ⇒ every tenant's stream is
        // fully retired; compare against the sequential oracle with no
        // flush ever issued
        for t in 0..tenants {
            let script = &scripts[t as usize];
            let (want, want_errors, longest_txn) =
                replay_sequential(&s, &rules, &engine_cfg, script, item);
            let got = runtime
                .with_tenant(TenantId(t), |e| snapshot(e, item))
                .expect("tenant has an engine");
            prop_assert_eq!(&got, &want, "tenant {} diverged", t);
            prop_assert!(got.eb_log.len() <= longest_txn, "tenant {} kept more than a transaction", t);
            let (errors, _) = runtime.tenant_errors(TenantId(t)).unwrap();
            prop_assert_eq!(errors, want_errors, "tenant {} error count", t);
        }
        let stats = runtime.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.jobs_shed, 0u64);
        prop_assert_eq!(stats.job_panics, 0u64);
        server.shutdown();
    }
}
