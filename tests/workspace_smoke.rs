//! Build-surface smoke test.
//!
//! The seed of this repo shipped without any Cargo manifests, so nothing —
//! not even the crate roots — was ever compile-checked. This test pins the
//! build surface: it imports every public root re-export of every crate the
//! `chimera` facade wires in (so a future manifest or re-export regression
//! fails *this* test by name instead of breaking a random downstream
//! target), then runs one tiny end-to-end flow through the facade prelude.

#![allow(unused_imports)]

// chimera-model
use chimera::model::{
    AttrDef, AttrId, AttrType, ClassDef, ClassId, ModelError, Mutation, MutationKind, Object,
    ObjectStore, Oid, Schema, SchemaBuilder, TxnStatus, Value,
};

// chimera-events
use chimera::events::{
    fig3_event_base, EventBase, EventId, EventKind, EventOccurrence, EventType, LogicalClock,
    Timestamp, Window,
};

// chimera-calculus
use chimera::calculus::{
    at_occurrences, nnf, occurred_objects, ots_algebraic, ots_logical, simplify, ts_algebraic,
    ts_logical, CalculusError, EventExpr, IncrementalTs, Law, OperatorInfo, RelevanceFilter, Scope,
    Sign, TsVal, Variation, VariationSet, FIG1_OPERATORS, LAWS,
};

// chimera-rules
use chimera::rules::{
    is_triggered, probe_instants, ActionStmt, CmpOp, Condition, ConsumptionMode, CouplingMode,
    Formula, RuleState, RuleTable, Term, TriggerDef, TriggerSupport, VarDecl,
};

// chimera-lang
use chimera::lang::{
    lex, parse_event_expr, parse_program, print_class, print_event_expr, print_trigger, AttrSpec,
    ClassDecl, Item, ParseError, Parser, Program, ScriptStmt, Span, Token, TokenKind, TriggerDecl,
};

// chimera-exec
use chimera::exec::{
    evaluate_condition, net_created, net_deleted, net_modified, Binding, Engine, EngineConfig,
    EngineStats, ExecError, Op,
};

// chimera-runtime
use chimera::runtime::{
    Backpressure, Job, JobId, JobOutcome, JobReply, JobSummary, Runtime, RuntimeConfig,
    RuntimeError, RuntimeStats, TenantId,
};

// chimera-net
use chimera::net::{
    read_frame, write_frame, Client, ExternalEvent, JobDone, NetError, Request, Response, Server,
    ServerConfig, TenantQuery, TenantReply, WireError, WireJob, WireOp, WireOutcome, WireStats,
    MAX_FRAME, PIPELINE_WINDOW, PROTOCOL_VERSION,
};

// chimera-workload
use chimera::workload::{
    stock_schema, stock_triggers, ExprGenConfig, RandomExprGen, StockWorkload,
    StockWorkloadConfig, StreamConfig, StreamGen, Trace, TraceOp,
};

// chimera-analysis
use chimera::analysis::{
    action_effects, analyze, confluence_warnings, AnalysisReport, ConfluenceWarning,
    TerminationVerdict, TriggerSensitivity, TriggeringGraph, WriteSet,
};

// chimera-persist
use chimera::persist::{
    DurableStore, InMemoryStore, JobGroup, JobLog, JobLogOutcome, JobRecord, PersistError,
    ShardRecovery, ShardSnapshot, StateStore, StoreCounters, TenantSnapshot,
};

// facade-local interpreter module
use chimera::interp::{InterpError, Interpreter};

#[test]
fn prelude_covers_the_working_set() {
    // A minimal end-to-end touch of the facade: build a schema, run a
    // block through the engine, and observe the event base via the
    // calculus — one call into each layer the prelude exposes.
    use chimera::prelude::*;

    let mut builder = SchemaBuilder::new();
    builder
        .class(
            "stock",
            None,
            vec![AttrDef::new("quantity", AttrType::Integer)],
        )
        .unwrap();
    let schema = builder.build();

    let mut engine = Engine::new(schema);
    let stock = engine.schema().class_by_name("stock").unwrap();
    let quantity = engine.schema().attr_by_name(stock, "quantity").unwrap();
    engine.begin().unwrap();
    let occs = engine
        .exec_block(&[Op::Create {
            class: stock,
            inits: vec![(quantity, Value::Int(5))],
        }])
        .unwrap();
    engine.commit().unwrap();
    assert_eq!(occs.len(), 1, "create must be logged in the event base");

    // ...and the same block through the sharded multi-tenant runtime
    let mut builder = SchemaBuilder::new();
    builder
        .class(
            "stock",
            None,
            vec![AttrDef::new("quantity", AttrType::Integer)],
        )
        .unwrap();
    let rt = Runtime::new(builder.build(), vec![], RuntimeConfig::default()).unwrap();
    rt.submit(TenantId(1), Job::Begin).unwrap();
    rt.exec_block(
        TenantId(1),
        vec![Op::Create {
            class: stock,
            inits: vec![],
        }],
    )
    .unwrap();
    rt.commit(TenantId(1)).unwrap();
    rt.flush().unwrap();
    let stats: RuntimeStats = rt.stats();
    assert_eq!(stats.engine.commits, 1);
}

#[test]
fn loopback_server_smoke() {
    // The same tiny flow, through the TCP front-end: a server on an
    // ephemeral loopback port, one client, per-job completion replies
    // (no flush), and a tenant query back over the wire.
    use chimera::prelude::*;

    let mut builder = SchemaBuilder::new();
    builder
        .class(
            "stock",
            None,
            vec![AttrDef::new("quantity", AttrType::Integer)],
        )
        .unwrap();
    let rt = std::sync::Arc::new(
        Runtime::new(builder.build(), vec![], RuntimeConfig::default()).unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", rt, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.begin(1).unwrap();
    client
        .exec_block(1, vec![WireOp::Create { class: 0, inits: vec![] }])
        .unwrap();
    client.commit(1).unwrap();
    let done = client.drain().unwrap();
    assert_eq!(done.len(), 3);
    assert!(done.iter().all(|d| d.outcome.is_done()));
    match client
        .tenant_query(1, TenantQuery::Extent { class: 0 })
        .unwrap()
    {
        chimera::net::TenantReply::Extent(oids) => assert_eq!(oids.len(), 1),
        other => panic!("expected Extent, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn interpreter_quickstart_surface_is_callable() {
    // The same program as the `chimera::interp` doc-test quickstart; kept
    // here as a plain test so the surface stays exercised even when
    // doc-tests are filtered out (e.g. `cargo test --tests`).
    let mut chim = Interpreter::from_source(
        r#"
define class stock
  attributes quantity: integer,
             max_quantity: integer default 100
end

define immediate trigger checkStockQty for stock
  events create , modify(quantity)
  condition stock(S), occurred(create ,= modify(quantity), S),
            S.quantity > S.max_quantity
  actions modify(S.quantity, S.max_quantity)
end

begin;
let s1 = create stock(quantity: 250);
commit;
"#,
    )
    .unwrap();
    chim.run_all().unwrap();
    let s1 = chim.var("s1").unwrap();
    assert_eq!(
        chim.engine().read_attr(s1, "quantity").unwrap(),
        Value::Int(100)
    );
}
