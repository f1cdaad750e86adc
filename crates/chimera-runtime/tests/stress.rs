//! Scheduling-stress suite: many feeder threads racing into small queues
//! under both backpressure policies. Run repeatedly in CI (`for i in $(seq 1 10)`) to shake out
//! scheduling-dependent flakiness — every assertion here must hold for
//! *any* interleaving.

use chimera_calculus::EventExpr;
use chimera_events::EventType;
use chimera_exec::EngineConfig;
use chimera_model::{AttrDef, AttrType, Oid, Schema, SchemaBuilder};
use chimera_rules::TriggerDef;
use chimera_runtime::{Backpressure, Runtime, RuntimeConfig, TenantId};

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class("item", None, vec![AttrDef::new("qty", AttrType::Integer)])
        .unwrap();
    b.build()
}

/// A handful of rules over external channels, including instance pairs,
/// so check rounds do real plan work.
fn triggers(schema: &Schema) -> Vec<TriggerDef> {
    let item = schema.class_by_name("item").unwrap();
    let p = |n: u32| EventExpr::prim(EventType::external(item, n));
    let mut defs = Vec::new();
    for i in 0..8u32 {
        let expr = match i % 4 {
            0 => p(i % 3),
            1 => p(i % 3).and(p((i + 1) % 3)),
            2 => p(i % 3).iand(p((i + 1) % 3)),
            _ => p(i % 3).iprec(p((i + 1) % 3)),
        };
        defs.push(TriggerDef::new(format!("r{i}"), expr));
    }
    defs
}

/// Feeders race into a blocking runtime; nothing may be lost and every
/// tenant must end with exactly its own event count.
#[test]
fn blocking_feeders_lose_nothing() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let rt = Runtime::new(
        s,
        triggers(&schema()),
        RuntimeConfig {
            shards: 4,
            queue_capacity: 2, // tiny: force constant backpressure
            backpressure: Backpressure::Block,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    const FEEDERS: u64 = 8;
    const TENANTS_PER_FEEDER: u64 = 4;
    const BLOCKS: u64 = 12;
    std::thread::scope(|scope| {
        for f in 0..FEEDERS {
            let rt = &rt;
            scope.spawn(move || {
                for k in 0..TENANTS_PER_FEEDER {
                    let t = TenantId(f * TENANTS_PER_FEEDER + k);
                    rt.begin(t).unwrap();
                    for b in 0..BLOCKS {
                        rt.raise_external(t, vec![(item, (b % 3) as u32, Oid(b % 4 + 1))])
                            .unwrap();
                    }
                    rt.commit(t).unwrap();
                }
            });
        }
    });
    rt.flush().unwrap();
    for t in 0..FEEDERS * TENANTS_PER_FEEDER {
        let len = rt
            .with_tenant(TenantId(t), |e| e.event_base().len())
            .unwrap();
        // BLOCKS external events; rule considerations add no occurrences
        // (the triggers have no actions)
        assert_eq!(len as u64, BLOCKS, "tenant {t}");
        assert_eq!(rt.tenant_errors(TenantId(t)), Some((0, None)));
    }
    let stats = rt.stats();
    assert_eq!(stats.tenants, (FEEDERS * TENANTS_PER_FEEDER) as usize);
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(
        stats.jobs_submitted,
        FEEDERS * TENANTS_PER_FEEDER * (BLOCKS + 2)
    );
    assert_eq!(stats.jobs_shed, 0);
    assert_eq!(stats.job_errors + stats.job_panics, 0);
    assert_eq!(stats.engine.commits, FEEDERS * TENANTS_PER_FEEDER);
}

/// Shedding runtime under racing feeders: jobs may be dropped, but the
/// accounting must balance exactly and the runtime must stay live.
#[test]
fn shedding_accounting_balances() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let rt = Runtime::new(
        s,
        triggers(&schema()),
        RuntimeConfig {
            shards: 2,
            queue_capacity: 1,
            backpressure: Backpressure::Shed,
            engine: EngineConfig::default(),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    const FEEDERS: u64 = 6;
    const SUBMITS: u64 = 50;
    let mut accepted: u64 = 0;
    let mut shed: u64 = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FEEDERS)
            .map(|f| {
                let rt = &rt;
                scope.spawn(move || {
                    let t = TenantId(f);
                    let mut ok = 0u64;
                    let mut dropped = 0u64;
                    for i in 0..SUBMITS {
                        let job_ok = if i == 0 {
                            rt.begin(t).is_ok()
                        } else {
                            rt.raise_external(t, vec![(item, (i % 3) as u32, Oid(1))])
                                .is_ok()
                        };
                        if job_ok {
                            ok += 1;
                        } else {
                            dropped += 1;
                        }
                    }
                    (ok, dropped)
                })
            })
            .collect();
        for h in handles {
            let (ok, dropped) = h.join().unwrap();
            accepted += ok;
            shed += dropped;
        }
    });
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_submitted, accepted);
    assert_eq!(stats.jobs_processed, accepted);
    assert_eq!(stats.jobs_shed, shed);
    assert_eq!(accepted + shed, FEEDERS * SUBMITS);
    assert_eq!(stats.job_panics, 0);
    // a begin may have been shed: tolerate NoActiveTransaction errors,
    // but the error count is bounded by the processed jobs
    assert!(stats.job_errors <= stats.jobs_processed);
}

/// Multiple flushers racing feeders: flush must never return while its
/// shard still holds queued work, and never deadlock.
#[test]
fn concurrent_flush_is_safe() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let rt = Runtime::new(
        s,
        vec![],
        RuntimeConfig {
            shards: 3,
            queue_capacity: 4,
            backpressure: Backpressure::Block,
            engine: EngineConfig::default(),
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    std::thread::scope(|scope| {
        for f in 0..4u64 {
            let rt = &rt;
            scope.spawn(move || {
                let t = TenantId(f);
                rt.begin(t).unwrap();
                for i in 0..30u64 {
                    rt.raise_external(t, vec![(item, (i % 2) as u32, Oid(1))])
                        .unwrap();
                    if i % 10 == 0 {
                        rt.flush().unwrap();
                    }
                }
                rt.commit(t).unwrap();
            });
        }
        for _ in 0..2 {
            let rt = &rt;
            scope.spawn(move || {
                for _ in 0..20 {
                    rt.flush().unwrap();
                    std::thread::yield_now();
                }
            });
        }
    });
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.engine.commits, 4);
}
