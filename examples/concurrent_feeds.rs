//! Multiple tenant feeds racing into one sharded runtime.
//!
//! Four feeder threads share a single [`Runtime`] handle and drive eight
//! tenants each: every tenant gets its own engine (hashed onto one of the
//! runtime's shards), a composite-event trigger reacts to each tenant's
//! external feed independently, and the bounded queues absorb the racing
//! submissions with the Block backpressure policy. At the end, the flush
//! barrier quiesces the runtime, and per-tenant inspection shows that
//! every feed was processed in order with zero cross-talk.
//!
//! ```sh
//! cargo run --example concurrent_feeds
//! ```

use chimera::calculus::EventExpr;
use chimera::events::EventType;
use chimera::model::{AttrDef, AttrType, Oid, SchemaBuilder};
use chimera::rules::{ActionStmt, TriggerDef};
use chimera::runtime::{Backpressure, Runtime, RuntimeConfig, TenantId};

const FEEDERS: u64 = 4;
const TENANTS_PER_FEEDER: u64 = 8;
const BLOCKS_PER_TENANT: u64 = 25;

fn main() {
    let mut b = SchemaBuilder::new();
    b.class(
        "sensor",
        None,
        vec![AttrDef::new("reading", AttrType::Integer)],
    )
    .unwrap();
    let schema = b.build();
    let sensor = schema.class_by_name("sensor").unwrap();

    // an instance pair: channel 0 followed by channel 1 on the same
    // pseudo-object raises an alert (creates a sensor object)
    let p = |n: u32| EventExpr::prim(EventType::external(sensor, n));
    let mut alert = TriggerDef::new("alert_on_pair", p(0).iprec(p(1)));
    alert.actions = vec![ActionStmt::Create {
        class: "sensor".into(),
        inits: vec![],
    }];

    let rt = Runtime::new(
        schema,
        vec![alert],
        RuntimeConfig {
            shards: 4,
            queue_capacity: 16,
            backpressure: Backpressure::Block,
            ..RuntimeConfig::default()
        },
    )
    .expect("valid trigger set");

    println!(
        "feeding {} tenants from {FEEDERS} threads into {} shards...",
        FEEDERS * TENANTS_PER_FEEDER,
        rt.shard_count()
    );
    std::thread::scope(|scope| {
        for f in 0..FEEDERS {
            let rt = &rt;
            scope.spawn(move || {
                for k in 0..TENANTS_PER_FEEDER {
                    let t = TenantId(f * TENANTS_PER_FEEDER + k);
                    rt.begin(t).unwrap();
                    for i in 0..BLOCKS_PER_TENANT {
                        // alternate the pair channels over two objects;
                        // every second block completes a same-object pair
                        let ch = (i % 2) as u32;
                        let obj = Oid(i / 2 % 2 + 1);
                        rt.raise_external(t, vec![(sensor, ch, obj)]).unwrap();
                    }
                    rt.commit(t).unwrap();
                }
            });
        }
    });
    rt.flush().expect("all queues drained");

    let mut alerts = 0usize;
    for t in 0..FEEDERS * TENANTS_PER_FEEDER {
        let tenant_alerts = rt
            .with_tenant(TenantId(t), |e| e.extent(sensor).len())
            .expect("tenant engine exists");
        assert_eq!(rt.tenant_errors(TenantId(t)), Some((0, None)));
        alerts += tenant_alerts;
    }
    let stats = rt.stats();
    println!(
        "processed {} jobs ({} blocked submits, {} shed), {} tenants",
        stats.jobs_processed, stats.submits_blocked, stats.jobs_shed, stats.tenants
    );
    println!(
        "engine totals: {} blocks, {} events, {} considerations, {} executions, {} commits",
        stats.engine.blocks,
        stats.engine.events,
        stats.engine.considerations,
        stats.engine.executions,
        stats.engine.commits
    );
    println!(
        "trigger support: {} check rounds, {} probes, {} filter skips",
        stats.support.check_rounds, stats.support.ts_probes, stats.support.skipped_by_filter
    );
    println!("alerts raised across all tenants: {alerts}");
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.engine.commits, FEEDERS * TENANTS_PER_FEEDER);
}
