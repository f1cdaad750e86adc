//! Engine corner cases: trigger lifecycle, migrations through scripts,
//! select events as triggers, targeted-rule enforcement, transaction
//! isolation of rule windows, and a deadline rule over an external tick.

use chimera::calculus::EventExpr;
use chimera::events::EventType;
use chimera::exec::{Engine, Op};
use chimera::interp::Interpreter;
use chimera::model::{AttrDef, AttrId, AttrType, ClassId, Oid, SchemaBuilder, Value};
use chimera::rules::condition::{Condition, Formula, Term, VarDecl};
use chimera::rules::{ActionStmt, TriggerDef};

#[test]
fn drop_trigger_stops_reactions() {
    let mut b = SchemaBuilder::new();
    b.class("c", None, vec![AttrDef::new("x", AttrType::Integer)])
        .unwrap();
    let schema = b.build();
    let class = schema.class_by_name("c").unwrap();
    let mut engine = Engine::new(schema);
    let mut def = TriggerDef::new("t", EventExpr::prim(EventType::create(class)));
    def.condition = Condition {
        decls: vec![VarDecl {
            name: "S".into(),
            class: "c".into(),
        }],
        formulas: vec![Formula::Occurred {
            expr: EventExpr::prim(EventType::create(class)),
            var: "S".into(),
        }],
    };
    def.actions = vec![ActionStmt::Modify {
        var: "S".into(),
        attr: "x".into(),
        value: Term::int(1),
    }];
    engine.define_trigger(def).unwrap();
    engine.begin().unwrap();
    let a = engine
        .exec_block(&[Op::Create {
            class,
            inits: vec![],
        }])
        .unwrap()[0]
        .oid;
    assert_eq!(engine.read_attr(a, "x").unwrap(), Value::Int(1));
    engine.drop_trigger("t").unwrap();
    assert!(engine.drop_trigger("t").is_err(), "double drop");
    let b2 = engine
        .exec_block(&[Op::Create {
            class,
            inits: vec![],
        }])
        .unwrap()[0]
        .oid;
    assert_eq!(engine.read_attr(b2, "x").unwrap(), Value::Null);
    engine.commit().unwrap();
}

#[test]
fn select_event_triggers_rule() {
    // a rule on select(c): auditing reads — Chimera counts select among
    // the event types (§2).
    let mut b = SchemaBuilder::new();
    b.class(
        "c",
        None,
        vec![AttrDef::with_default(
            "reads",
            AttrType::Integer,
            Value::Int(0),
        )],
    )
    .unwrap();
    let schema = b.build();
    let class = schema.class_by_name("c").unwrap();
    let mut engine = Engine::new(schema);
    let mut def = TriggerDef::new("audit", EventExpr::prim(EventType::select(class)));
    def.condition = Condition {
        decls: vec![VarDecl {
            name: "S".into(),
            class: "c".into(),
        }],
        formulas: vec![Formula::Occurred {
            expr: EventExpr::prim(EventType::select(class)),
            var: "S".into(),
        }],
    };
    def.actions = vec![ActionStmt::Modify {
        var: "S".into(),
        attr: "reads".into(),
        value: Term::Add(Box::new(Term::attr("S", "reads")), Box::new(Term::int(1))),
    }];
    engine.define_trigger(def).unwrap();
    engine.begin().unwrap();
    let oid = engine
        .exec_block(&[Op::Create {
            class,
            inits: vec![],
        }])
        .unwrap()[0]
        .oid;
    engine
        .exec_block(&[Op::Select { class, deep: true }])
        .unwrap();
    assert_eq!(engine.read_attr(oid, "reads").unwrap(), Value::Int(1));
    engine.commit().unwrap();
}

#[test]
fn rule_windows_do_not_cross_transactions() {
    // a conjunction rule whose two halves arrive in different committed
    // transactions must NOT fire: windows reset at begin (§4.1: the EB is
    // the log "since the beginning of the transaction").
    let mut b = SchemaBuilder::new();
    b.class("c", None, vec![AttrDef::new("x", AttrType::Integer)])
        .unwrap();
    b.class("d", None, vec![]).unwrap();
    let schema = b.build();
    let c = schema.class_by_name("c").unwrap();
    let d = schema.class_by_name("d").unwrap();
    let mut engine = Engine::new(schema);
    let expr = EventExpr::prim(EventType::create(c)).and(EventExpr::prim(EventType::create(d)));
    let mut def = TriggerDef::new("conj", expr);
    def.actions = vec![ActionStmt::Create {
        class: "d".into(),
        inits: vec![],
    }];
    // empty condition is always-true: track firings through stats
    engine.define_trigger(def).unwrap();

    engine.begin().unwrap();
    engine
        .exec_block(&[Op::Create {
            class: c,
            inits: vec![],
        }])
        .unwrap();
    engine.commit().unwrap();
    assert_eq!(engine.stats().executions, 0);

    engine.begin().unwrap();
    engine
        .exec_block(&[Op::Create {
            class: d,
            inits: vec![],
        }])
        .unwrap();
    engine.commit().unwrap();
    assert_eq!(
        engine.stats().executions,
        0,
        "halves in different transactions must not combine"
    );

    // both in one transaction: fires
    engine.begin().unwrap();
    engine
        .exec_block(&[
            Op::Create {
                class: c,
                inits: vec![],
            },
            Op::Create {
                class: d,
                inits: vec![],
            },
        ])
        .unwrap();
    engine.commit().unwrap();
    assert_eq!(engine.stats().executions, 1);
}

#[test]
fn migrations_through_scripts_fire_specialize_rules() {
    let mut chim = Interpreter::from_source(
        r#"
define class vehicle
  attributes wheels: integer default 4, tagged: boolean default false
end
define class truck extends vehicle
  attributes axles: integer default 2
end
define immediate trigger onSpecialize
  events specialize(truck)
  condition truck(T), occurred(specialize(truck), T)
  actions modify(T.tagged, true)
end
begin;
let v = create vehicle;
specialize v to truck;
commit;
"#,
    )
    .unwrap();
    chim.run_all().unwrap();
    let v = chim.var("v").unwrap();
    let obj = chim.engine().get_object(v).unwrap();
    assert_eq!(
        chim.engine().schema().class_name(obj.class),
        "truck",
        "migrated"
    );
    assert_eq!(chim.engine().read_attr(v, "tagged").unwrap(), Value::Bool(true));
    assert_eq!(chim.engine().read_attr(v, "axles").unwrap(), Value::Int(2));
}

#[test]
fn generalize_via_script_drops_subclass_attrs() {
    let mut chim = Interpreter::from_source(
        r#"
define class vehicle attributes wheels: integer default 4 end
define class truck extends vehicle attributes axles: integer default 3 end
begin;
let t = create truck;
generalize t to vehicle;
commit;
"#,
    )
    .unwrap();
    chim.run_all().unwrap();
    let t = chim.var("t").unwrap();
    let obj = chim.engine().get_object(t).unwrap();
    assert_eq!(chim.engine().schema().class_name(obj.class), "vehicle");
    assert_eq!(obj.attrs.len(), 1);
    assert!(chim.engine().read_attr(t, "axles").is_err());
}

#[test]
fn empty_condition_rule_runs_once_per_trigger() {
    // no declarations, no formulas: one empty binding tuple → the action
    // runs exactly once per consideration.
    let mut b = SchemaBuilder::new();
    b.class("c", None, vec![]).unwrap();
    b.class("log", None, vec![]).unwrap();
    let schema = b.build();
    let c = schema.class_by_name("c").unwrap();
    let log = schema.class_by_name("log").unwrap();
    let mut engine = Engine::new(schema);
    let mut def = TriggerDef::new("t", EventExpr::prim(EventType::create(c)));
    def.actions = vec![ActionStmt::Create {
        class: "log".into(),
        inits: vec![],
    }];
    engine.define_trigger(def).unwrap();
    engine.begin().unwrap();
    // three creations in ONE block → one consideration → one log entry
    engine
        .exec_block(&[
            Op::Create { class: c, inits: vec![] },
            Op::Create { class: c, inits: vec![] },
            Op::Create { class: c, inits: vec![] },
        ])
        .unwrap();
    assert_eq!(engine.extent(log).len(), 1);
    engine.commit().unwrap();
}

/// An engine with the deadline rule `external(clock#1) + -modify(task.done)`:
/// at a tick, every task is marked overdue (`done = -1`) unless some task
/// was completed since the rule last considered. Returns the engine and
/// the `clock` class, `task` class and `done` attribute.
fn deadline_engine() -> (Engine, ClassId, ClassId, AttrId) {
    let mut b = SchemaBuilder::new();
    b.class("clock", None, vec![]).unwrap();
    b.class(
        "task",
        None,
        vec![AttrDef::with_default(
            "done",
            AttrType::Integer,
            Value::Int(0),
        )],
    )
    .unwrap();
    let schema = b.build();
    let clock = schema.class_by_name("clock").unwrap();
    let task = schema.class_by_name("task").unwrap();
    let done = schema.attr_by_name(task, "done").unwrap();
    let mut engine = Engine::new(schema);
    let expr = EventExpr::prim(EventType::external(clock, 1))
        .and(EventExpr::prim(EventType::modify(task, done)).not());
    let mut alert = TriggerDef::new("deadline", expr);
    alert.condition = Condition {
        decls: vec![VarDecl {
            name: "T".into(),
            class: "task".into(),
        }],
        formulas: vec![],
    };
    alert.actions = vec![ActionStmt::Modify {
        var: "T".into(),
        attr: "done".into(),
        value: Term::int(-1),
    }];
    engine.define_trigger(alert).unwrap();
    (engine, clock, task, done)
}

/// The audit tick: `Oid(0)` is never allocated, so it aliases no task.
const TICK_OID: Oid = Oid(0);

#[test]
fn deadline_rule_fires_on_tick_without_completion() {
    let (mut engine, clock, task, _) = deadline_engine();
    engine.begin().unwrap();
    for _ in 0..2 {
        engine
            .exec_block(&[Op::Create {
                class: task,
                inits: vec![],
            }])
            .unwrap();
    }
    // no task.done modification before the tick: every task is overdue
    let occs = engine.raise_external(&[(clock, 1, TICK_OID)]).unwrap();
    assert_eq!(occs.len(), 1);
    let tasks = engine.extent(task);
    assert_eq!(tasks.len(), 2);
    for oid in tasks {
        assert_eq!(engine.read_attr(oid, "done").unwrap(), Value::Int(-1));
    }
    engine.commit().unwrap();
}

#[test]
fn deadline_rule_suppressed_by_completion() {
    let (mut engine, clock, task, done) = deadline_engine();
    engine.begin().unwrap();
    let oid = engine
        .exec_block(&[Op::Create {
            class: task,
            inits: vec![],
        }])
        .unwrap()[0]
        .oid;
    engine
        .exec_block(&[Op::Modify {
            oid,
            attr: done,
            value: Value::Int(1),
        }])
        .unwrap();
    // completed before the tick: the negation is inactive at the tick
    // instant, so the rule never fires and the `-1` marker never appears
    engine.raise_external(&[(clock, 1, TICK_OID)]).unwrap();
    assert_eq!(engine.read_attr(oid, "done").unwrap(), Value::Int(1));
    engine.commit().unwrap();
}
