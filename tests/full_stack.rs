//! Full-stack integration: static analysis, the runtime and the durable
//! store working together.
//!
//! A deadline-monitoring database: static analysis vets the rule set, an
//! external audit event on a `clock` channel drives it, and a one-tenant
//! durable runtime makes its effects survive a crash. This is the
//! composition a downstream adopter would actually run, so it gets an
//! integration test of its own.

use chimera::analysis::analyze;
use chimera::calculus::EventExpr;
use chimera::events::EventType;
use chimera::exec::Op;
use chimera::model::{AttrDef, AttrType, Oid, Schema, SchemaBuilder, Value};
use chimera::rules::{ActionStmt, CmpOp, Condition, Formula, Term, TriggerDef, VarDecl};
use chimera::runtime::{DurabilityConfig, Job, Runtime, RuntimeConfig, StorageMode, TenantId};
use chimera_oracle::TempDir;

/// The audit channel of the `clock` class.
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
fn analyzed_audit_rule_on_a_durable_engine() {
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

    // 2. run it durably, as the one tenant of a one-shard runtime.
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
        for _ in 0..2 {
            run(Job::ExecBlock(vec![Op::Create {
                class: order,
                inits: vec![],
            }]));
        }
        // the audit tick, delivered as a logged job (`Oid(0)` is never
        // allocated, so the tick aliases no order)
        run(Job::RaiseExternal(vec![(clock, AUDIT, Oid(0))]));
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

    // 3. recovery: the escalation — a *rule* effect triggered by an
    //    *external* audit event — survived the crash.
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
