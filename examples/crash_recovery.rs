//! Durability walk-through: commit, crash, recover, compact.
//!
//! A durable engine is the one tenant of a one-shard runtime whose store
//! is the group-commit job log plus shard snapshot. The walk-through
//! commits two transactions (the paper's §2 clamp trigger firing inside
//! the first), simulates a crash by tearing the second transaction's
//! first job-log group in half, and shows recovery cutting the torn tail
//! back to the end of the first commit. It then commits a third
//! transaction under `snapshot_every`, which compacts the log into
//! `snap.chi`, and reopens cleanly from that snapshot. Every step is
//! asserted, so the example fails on any divergence.
//!
//! Run with: `cargo run --example crash_recovery`

use chimera::calculus::EventExpr;
use chimera::events::EventType;
use chimera::exec::Op;
use chimera::model::{AttrDef, AttrType, Oid, Schema, SchemaBuilder, Value};
use chimera::persist::{JobLog, ShardSnapshot};
use chimera::rules::{ActionStmt, CmpOp, Condition, Formula, Term, TriggerDef, VarDecl};
use chimera::runtime::{
    DurabilityConfig, Job, RecoveryReport, Runtime, RuntimeConfig, StorageMode, TenantId,
};
use std::fs;
use std::path::Path;

const TENANT: TenantId = TenantId(0);

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class(
        "stock",
        None,
        vec![
            AttrDef::new("quantity", AttrType::Integer),
            AttrDef::with_default("max_quantity", AttrType::Integer, Value::Int(100)),
        ],
    )
    .expect("schema");
    b.build()
}

fn clamp(schema: &Schema) -> TriggerDef {
    let stock = schema.class_by_name("stock").expect("stock");
    let mut def = TriggerDef::new("checkStockQty", EventExpr::prim(EventType::create(stock)));
    def.condition = Condition {
        decls: vec![VarDecl {
            name: "S".into(),
            class: "stock".into(),
        }],
        formulas: vec![
            Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock)),
                var: "S".into(),
            },
            Formula::Compare {
                lhs: Term::attr("S", "quantity"),
                op: CmpOp::Gt,
                rhs: Term::attr("S", "max_quantity"),
            },
        ],
    };
    def.actions = vec![ActionStmt::Modify {
        var: "S".into(),
        attr: "quantity".into(),
        value: Term::attr("S", "max_quantity"),
    }];
    def
}

/// Open (or recover) the one-shard durable runtime rooted at `dir`.
fn open(schema: &Schema, dir: &Path, snapshot_every: u64) -> (Runtime, RecoveryReport) {
    Runtime::recover(
        schema.clone(),
        vec![clamp(schema)],
        RuntimeConfig {
            shards: 1,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: dir.to_path_buf(),
                snapshot_every,
            }),
            ..Default::default()
        },
    )
    .expect("open")
}

/// Run one job and wait for its reply. A reply is released only after
/// its group's fsync, so waiting makes every job its own durable group.
fn run(rt: &Runtime, job: Job) {
    let (_, reply) = rt.submit_with_reply(TENANT, job).expect("submit");
    let outcome = reply.recv().expect("reply").outcome;
    assert!(outcome.is_done(), "{outcome:?}");
}

fn quantity(rt: &Runtime, oid: Oid) -> Value {
    rt.with_tenant(TENANT, |e| e.read_attr(oid, "quantity").expect("read"))
        .expect("tenant")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("chimera-demo-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let schema = schema();
    let stock = schema.class_by_name("stock").expect("stock");
    let q = schema.attr_by_name(stock, "quantity").expect("quantity");
    let log_path = dir.join("shard-0").join("jobs.wal");
    let snap_path = dir.join("shard-0").join("snap.chi");

    // ── two committed transactions ────────────────────────────────────
    let (rt, report) = open(&schema, &dir, 0);
    assert_eq!(report, RecoveryReport::default());
    println!("fresh open: {report:?}");
    run(&rt, Job::Begin);
    run(
        &rt,
        Job::ExecBlock(vec![Op::Create {
            class: stock,
            inits: vec![(q, Value::Int(500))],
        }]),
    );
    run(&rt, Job::Commit);
    let oid = rt
        .with_tenant(TENANT, |e| e.extent(stock)[0])
        .expect("tenant");
    assert_eq!(quantity(&rt, oid), Value::Int(100), "the clamp fired");
    println!("commit 1: created {oid} with quantity 500, trigger clamped it to 100");
    let commit1_len = fs::metadata(&log_path).expect("log").len() as usize;

    run(&rt, Job::Begin);
    run(
        &rt,
        Job::ExecBlock(vec![Op::Modify {
            oid,
            attr: q,
            value: Value::Int(42),
        }]),
    );
    run(&rt, Job::Commit);
    assert_eq!(quantity(&rt, oid), Value::Int(42));
    drop(rt);
    let log = JobLog::read(&log_path, 1).expect("read log");
    assert_eq!(log.groups.len(), 6, "one group per job");
    println!("commit 2: quantity set to 42; jobs.wal holds 6 groups");

    // ── simulated crash: tear transaction 2's first group in half ─────
    let bytes = fs::read(&log_path).expect("read log");
    let cut = commit1_len + log.groups[3].render().len() / 2;
    fs::write(&log_path, &bytes[..cut]).expect("tear");
    println!(
        "\nsimulated crash: truncated jobs.wal from {} to {cut} bytes, mid group 4",
        bytes.len()
    );

    let (rt, report) = open(&schema, &dir, 3);
    assert_eq!(report.jobs_replayed, 3, "commit 1's three groups survive");
    assert_eq!(report.torn_tails.len(), 1, "{report:?}");
    assert_eq!(
        fs::metadata(&log_path).expect("log").len() as usize,
        commit1_len
    );
    let in_txn = rt.with_tenant(TENANT, |e| e.in_transaction());
    assert_eq!(in_txn, Some(false), "transaction 2's begin was torn too");
    assert_eq!(quantity(&rt, oid), Value::Int(100));
    println!(
        "recovery: replayed {} jobs, torn tail cut ({}); quantity = 100, \
         commit 1's clamped value — transaction 2 was torn",
        report.jobs_replayed, report.torn_tails[0]
    );

    // ── compaction through snapshot_every ─────────────────────────────
    // The recovered log already holds 3 groups, so the threshold of 3 is
    // met at once; the store still waits for a point between
    // transactions, which is this transaction's commit.
    run(&rt, Job::Begin);
    run(
        &rt,
        Job::ExecBlock(vec![Op::Modify {
            oid,
            attr: q,
            value: Value::Int(7),
        }]),
    );
    run(&rt, Job::Commit);
    assert_eq!(rt.shutdown().snapshots, 1, "one compaction, at the commit");
    let snap = ShardSnapshot::read(&snap_path)
        .expect("read snapshot")
        .expect("snap.chi written");
    assert_eq!((snap.seq, snap.tenants.len()), (6, 1));
    assert_eq!(fs::metadata(&log_path).expect("log").len(), 0);
    println!(
        "\ncommit 3: quantity = 7, compacted into snap.chi at seq {}; jobs.wal now 0 bytes",
        snap.seq
    );

    // ── clean reopen from snap.chi ────────────────────────────────────
    let (rt, report) = open(&schema, &dir, 3);
    assert_eq!(
        report,
        RecoveryReport {
            tenants_recovered: 1,
            jobs_replayed: 0,
            torn_tails: vec![],
        }
    );
    assert_eq!(quantity(&rt, oid), Value::Int(7));
    println!("final open from the snapshot alone: {report:?}, quantity = 7");
    drop(rt);
    let _ = fs::remove_dir_all(&dir);
}
