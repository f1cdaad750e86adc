//! Full-stack integration: every extension crate working together.
//!
//! A deadline-monitoring database: static analysis vets the rule set,
//! clock events drive it, and a one-tenant durable runtime makes its
//! effects survive a crash. This is the composition a downstream adopter
//! would actually run, so it gets an integration test of its own.

use chimera::analysis::analyze;
use chimera::calculus::EventExpr;
use chimera::events::EventType;
use chimera::exec::Op;
use chimera::model::{AttrDef, AttrType, Schema, SchemaBuilder, Value};
use chimera::rules::{ActionStmt, CmpOp, Condition, Formula, Term, TriggerDef, VarDecl};
use chimera::runtime::{DurabilityConfig, Job, Runtime, RuntimeConfig, StorageMode, TenantId};
use chimera::temporal::{ClockDriver, ClockSpec};
use chimera_oracle::TempDir;

const AUDIT: u32 = 1;

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class("clock", None, vec![]).unwrap();
    b.class(
        "order",
        None,
        vec![
            AttrDef::with_default("filled", AttrType::Integer, Value::Int(0)),
            AttrDef::with_default("escalations", AttrType::Integer, Value::Int(0)),
        ],
    )
    .unwrap();
    b.build()
}

/// Audit tick + no fill in the window ⇒ escalate open orders.
fn escalate(schema: &Schema) -> TriggerDef {
    let clock = schema.class_by_name("clock").unwrap();
    let order = schema.class_by_name("order").unwrap();
    let filled = schema.attr_by_name(order, "filled").unwrap();
    let mut def = TriggerDef::new(
        "escalateUnfilled",
        EventExpr::prim(EventType::external(clock, AUDIT))
            .and(EventExpr::prim(EventType::modify(order, filled)).not()),
    );
    def.condition = Condition {
        decls: vec![VarDecl {
            name: "O".into(),
            class: "order".into(),
        }],
        formulas: vec![Formula::Compare {
            lhs: Term::attr("O", "filled"),
            op: CmpOp::Eq,
            rhs: Term::int(0),
        }],
    };
    def.actions = vec![ActionStmt::Modify {
        var: "O".into(),
        attr: "escalations".into(),
        value: Term::Add(
            Box::new(Term::attr("O", "escalations")),
            Box::new(Term::int(1)),
        ),
    }];
    def
}

#[test]
fn analyzed_temporal_rules_on_a_durable_engine() {
    let schema = schema();
    let order = schema.class_by_name("order").unwrap();
    let clock = schema.class_by_name("clock").unwrap();
    let defs = vec![escalate(&schema)];

    // 1. static analysis vets the rule set: the escalation writes only
    //    `escalations`, which nothing listens on — guaranteed to terminate.
    let report = analyze(&defs, &schema).unwrap();
    assert!(report.termination.is_terminating(), "{}", report.termination);
    assert!(report.confluence.is_empty());
    assert_eq!(report.max_cascade_depth, Some(1));

    // 2. run it durably, as the one tenant of a one-shard runtime, with a
    //    clock driver anchored on the tenant's engine.
    let dir = TempDir::new("stack-run");
    let config = || RuntimeConfig {
        shards: 1,
        storage: StorageMode::Durable(DurabilityConfig::new(&*dir)),
        ..Default::default()
    };
    let tenant = TenantId(0);
    let oids;
    {
        let rt = Runtime::new(schema.clone(), defs.clone(), config()).unwrap();
        let run = |job: Job| {
            let (_, reply) = rt.submit_with_reply(tenant, job).unwrap();
            let outcome = reply.recv().unwrap().outcome;
            assert!(outcome.is_done(), "{outcome:?}");
        };
        run(Job::Begin);
        let mut driver = rt
            .with_tenant(tenant, |e| ClockDriver::new(e, clock))
            .unwrap();
        driver.register(ClockSpec::After { delay: 2 }, AUDIT);
        for _ in 0..2 {
            run(Job::ExecBlock(vec![Op::Create {
                class: order,
                inits: vec![],
            }]));
        }
        // tick due at anchor+2: delivered as a logged job
        let now = rt.with_tenant(tenant, |e| e.event_base().now()).unwrap();
        let due = driver.collect_due(now);
        assert_eq!(due.len(), 1);
        run(Job::RaiseExternal(due));
        // no fills happened: both orders escalated
        oids = rt.with_tenant(tenant, |e| e.extent(order)).unwrap();
        assert_eq!(oids.len(), 2);
        for &oid in &oids {
            let escalations = rt.with_tenant(tenant, |e| e.read_attr(oid, "escalations"));
            assert_eq!(escalations.unwrap().unwrap(), Value::Int(1));
        }
        run(Job::Commit);
        // crash: drop without further commits
    }

    // 3. recovery: the escalation — a *rule* effect triggered by a
    //    *clock* event — survived the crash.
    let (rt, report) = Runtime::recover(schema.clone(), defs, config()).unwrap();
    // begin, two creates, the tick, commit
    assert_eq!(report.jobs_replayed, 5);
    assert!(report.torn_tails.is_empty());
    rt.with_tenant(tenant, |e| {
        assert!(!e.in_transaction());
        assert_eq!(e.extent(order), oids);
        for &oid in &oids {
            assert_eq!(e.read_attr(oid, "escalations").unwrap(), Value::Int(1));
        }
    })
    .unwrap();
}

#[test]
fn collect_due_and_pump_agree() {
    // the wrapper-agnostic path must deliver the same firings as pump
    let schema = schema();
    let clock = schema.class_by_name("clock").unwrap();
    let order = schema.class_by_name("order").unwrap();

    let mut plain = chimera::exec::Engine::new(schema.clone());
    let mut d1 = ClockDriver::new(&plain, clock);
    d1.register(ClockSpec::Every { period: 2, phase: 0 }, AUDIT);
    plain.begin().unwrap();
    for _ in 0..3 {
        plain
            .exec_block(&[Op::Create {
                class: order,
                inits: vec![],
            }])
            .unwrap();
    }
    let via_pump = d1.pump(&mut plain).unwrap();

    let mut other = chimera::exec::Engine::new(schema);
    let mut d2 = ClockDriver::new(&other, clock);
    d2.register(ClockSpec::Every { period: 2, phase: 0 }, AUDIT);
    other.begin().unwrap();
    for _ in 0..3 {
        other
            .exec_block(&[Op::Create {
                class: order,
                inits: vec![],
            }])
            .unwrap();
    }
    let due = d2.collect_due(other.event_base().now());
    let via_collect = other.raise_external(&due).unwrap();
    assert_eq!(via_pump.len(), via_collect.len());
    assert_eq!(
        via_pump.iter().map(|o| o.ty).collect::<Vec<_>>(),
        via_collect.iter().map(|o| o.ty).collect::<Vec<_>>()
    );
    plain.commit().unwrap();
    other.commit().unwrap();
}
