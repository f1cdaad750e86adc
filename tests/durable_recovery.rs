//! Crash-recovery oracle for the durable runtime (the PR-6 tentpole).
//!
//! The claim under test: **an acknowledged job is durable, and recovery
//! is bit-identical to a sequential replay of exactly the surviving
//! prefix.** The suite simulates a crash by byte-truncating one shard's
//! job log at an arbitrary position — including mid-record, the torn
//! final write a real crash leaves — then recovers a fresh runtime from
//! the directory and compares every tenant against a plain sequential
//! [`Engine`] replaying the first `survived(t)` of that tenant's jobs:
//! objects and extents, the event base (logical length, clock and the
//! open transaction's live tail, with timestamps), rule
//! consumption windows (`last_consideration` / `last_consumption` /
//! `checked_upto`), engine counters, open-transaction state, and the
//! error bookkeeping.
//!
//! `survived(t)` is computed from the on-disk state itself through the
//! persist layer's readers (snapshot `jobs_applied` + the tenant's jobs
//! in the valid log tail), so the oracle makes no assumption about
//! where the cut landed: whole surviving groups count, the torn tail
//! does not.
//!
//! The suite: a deterministic single-shard run cut at *every* byte of
//! the log; a snapshot-after-every-group run whose deletions and oid
//! counter come back from the snapshot alone; a corrupt-snapshot
//! refusal; and proptests over random multi-tenant scripts (creates,
//! modifies, deletes, external events, trigger definitions) × shard
//! counts × sync policies × snapshot cadences × cut positions.

use chimera::events::Timestamp;
use chimera::exec::{Engine, EngineConfig, Op};
use chimera::model::{AttrDef, AttrId, AttrType, ClassId, Oid, Schema, SchemaBuilder, Value};
use chimera::persist::{JobLog, ShardSnapshot};
use chimera::prelude::EventType;
use chimera::rules::{ActionStmt, TriggerDef};
use chimera::runtime::{
    DurabilityConfig, Job, Runtime, RuntimeConfig, Scheduler, StorageMode, TenantId,
};
use chimera::workload::{ExprGenConfig, RandomExprGen, ZipfTenants, ZipfTenantsConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Runtime-wide triggers: random §3 expressions, a third with Create
/// actions so firings have net store effects the oracle can diff.
fn runtime_triggers(seed: u64) -> Vec<TriggerDef> {
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

/// A tenant-local trigger source (one declaration). Only 3 distinct
/// names exist, so scripts redefine names and exercise the error path —
/// a duplicate definition must fail identically at replay.
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

/// `item.qty`.
const QTY: AttrId = AttrId(0);

fn random_job(rng: &mut StdRng, in_txn: bool, item: ClassId) -> Job {
    if !in_txn {
        // occasionally define a trigger before any transaction exists
        if rng.random_range(0..5u32) == 0 {
            return Job::DefineTriggerSource(trigger_source(rng.random_range(0..3u64)));
        }
        return Job::Begin;
    }
    match rng.random_range(0..13u32) {
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
                    inits: vec![(QTY, Value::Int(rng.random_range(0..200i64)))],
                })
                .collect();
            Job::ExecBlock(ops)
        }
        // small oids, so these hit live, deleted and never-created
        // objects alike; an op on a missing object is a job error, which
        // the oracle must see too
        7 => Job::ExecBlock(vec![Op::Modify {
            oid: Oid(rng.random_range(1..6u64)),
            attr: QTY,
            value: Value::Int(rng.random_range(0..200i64)),
        }]),
        8 => Job::ExecBlock(vec![Op::Delete {
            oid: Oid(rng.random_range(1..6u64)),
        }]),
        9 => Job::Commit,
        10 => Job::Rollback,
        _ => Job::DefineTriggerSource(trigger_source(rng.random_range(0..3u64))),
    }
}

/// Everything observable about one tenant engine *except* the
/// trigger-support probe counters: those measure probe work done by
/// *this process* (a recovered engine re-probed only the replayed
/// tail), not tenant state.
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

/// The state every transaction end leaves an engine in, which is what
/// lets a tenant snapshot carry no event tail and no rule stamp: an empty
/// live event base and every rule reset at the current instant.
fn assert_at_rest(engine: &Engine) {
    let now = engine.event_base().now();
    assert_eq!(engine.event_base().live_len(), 0, "a live tail outside a transaction");
    for (rule, st) in engine.rules().iter() {
        let state = (
            st.triggered,
            st.witness,
            st.last_consideration,
            st.last_consumption,
            st.checked_upto,
        );
        assert_eq!(state, (false, false, now, now, now), "rule `{}`", rule.def.name);
    }
}

/// The sequential oracle: a fresh single-threaded engine replaying the
/// first `prefix` of one tenant's jobs, with the exact semantics of the
/// shard worker's `apply` (including the all-or-nothing trigger-source
/// job). Returns the observed state plus the error bookkeeping.
fn oracle_replay(
    schema: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    jobs: &[Job],
    prefix: usize,
    item: ClassId,
) -> (Observed, u64, Option<String>) {
    let mut engine = Engine::with_config(schema.clone(), engine_cfg.clone());
    for def in triggers {
        engine.define_trigger(def.clone()).unwrap();
    }
    let mut errors = 0u64;
    let mut last_error = None;
    let (mut started, mut longest_txn) = (0usize, 0usize);
    for job in &jobs[..prefix] {
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
        if !engine.in_transaction() {
            assert_at_rest(&engine);
        }
    }
    // the live tail the suite compares holds at most one transaction
    assert!(
        engine.event_base().live_len() <= longest_txn,
        "the event base kept more than its longest transaction"
    );
    (observe(&engine, item), errors, last_error)
}

/// Mirror of the shard worker's trigger-source application: every
/// declaration defines or the job undoes its own definitions.
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

/// `survived(t)` for every tenant, from the on-disk state alone: each
/// shard's snapshot `jobs_applied` plus the tenant's jobs in the valid
/// tail of its (possibly truncated) log. Whole groups survive; a torn
/// tail does not.
fn survived_jobs(dir: &Path, shards: usize) -> HashMap<u64, u64> {
    let mut survived: HashMap<u64, u64> = HashMap::new();
    for i in 0..shards {
        let shard_dir = dir.join(format!("shard-{i}"));
        let snap_seq = match ShardSnapshot::read(&shard_dir.join("snap.chi")) {
            Ok(Some(snap)) => {
                for t in &snap.tenants {
                    *survived.entry(t.tenant).or_default() += t.jobs_applied;
                }
                snap.seq
            }
            _ => 0,
        };
        let wal = shard_dir.join("jobs.wal");
        if !wal.exists() {
            continue;
        }
        let outcome = JobLog::read(&wal, snap_seq + 1).expect("log tail is readable");
        for group in &outcome.groups {
            for (tenant, _) in &group.jobs {
                *survived.entry(*tenant).or_default() += 1;
            }
        }
    }
    survived
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chimera-durable-recovery-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one interleaved multi-tenant script against a durable runtime,
/// then shut it down cleanly. Returns the per-tenant job lists. With
/// `wait_each`, every job's reply is awaited before the next submit; a
/// reply is released only after its group's fsync, so every group in
/// the log then holds exactly one job.
#[allow(clippy::too_many_arguments)]
fn run_live(
    dir: &Path,
    s: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    shards: usize,
    wait_each: bool,
    snapshot_every: u64,
    script_seed: u64,
    tenants: u64,
    steps: usize,
) -> Vec<Vec<Job>> {
    let item = s.class_by_name("item").unwrap();
    let rt = Runtime::new(
        s.clone(),
        triggers.to_vec(),
        RuntimeConfig {
            shards,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: dir.to_path_buf(),
                snapshot_every,
            }),
            engine: engine_cfg.clone(),
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
        if wait_each {
            let (_, reply) = rt.submit_with_reply(TenantId(t as u64), job).unwrap();
            reply.recv().unwrap();
        } else {
            rt.submit(TenantId(t as u64), job).unwrap();
        }
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert!(stats.wal_syncs >= 1, "durable run must have synced");
    if wait_each {
        assert_eq!(stats.wal_syncs, stats.wal_appends, "one job per group");
    }
    per_tenant
}

/// Recover from `dir` and compare every tenant with the sequential
/// oracle replaying exactly the on-disk surviving prefix.
fn check_recovery(
    storage: &DurabilityConfig,
    s: &Schema,
    triggers: &[TriggerDef],
    engine_cfg: &EngineConfig,
    shards: usize,
    per_tenant: &[Vec<Job>],
) -> Result<(), TestCaseError> {
    let dir = storage.dir.clone();
    let dir = dir.as_path();
    let item = s.class_by_name("item").unwrap();
    let survived = survived_jobs(dir, shards);
    let (rt, report) = Runtime::recover(
        s.clone(),
        triggers.to_vec(),
        RuntimeConfig {
            shards,
            storage: StorageMode::Durable(storage.clone()),
            engine: engine_cfg.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let mut replayed_total = 0u64;
    for (t, jobs) in per_tenant.iter().enumerate() {
        let n = survived.get(&(t as u64)).copied().unwrap_or(0);
        prop_assert!(
            (n as usize) <= jobs.len(),
            "tenant {t}: survived {n} > submitted {}",
            jobs.len()
        );
        replayed_total += n;
        let got = rt.with_tenant(TenantId(t as u64), |e| observe(e, item));
        if n == 0 {
            prop_assert!(got.is_none(), "tenant {t}: no surviving jobs, but an engine exists");
            continue;
        }
        let got = got.expect("tenant with surviving jobs has an engine");
        let (want, want_errors, want_last) =
            oracle_replay(s, triggers, engine_cfg, jobs, n as usize, item);
        prop_assert_eq!(&got, &want, "tenant {} diverged after recovery", t);
        let (errors, last) = rt.tenant_errors(TenantId(t as u64)).unwrap();
        prop_assert_eq!(errors, want_errors, "tenant {} error count", t);
        prop_assert_eq!(last, want_last, "tenant {} last error", t);
    }
    // the report's totals agree with the on-disk arithmetic: every
    // surviving job was either inside a snapshot or replayed
    let stats = rt.stats();
    prop_assert_eq!(
        stats.jobs_replayed + snapshot_applied(dir, shards),
        replayed_total,
        "snapshot + tail replay must cover every surviving job"
    );
    prop_assert_eq!(report.tenants_recovered, snapshot_tenants(dir, shards));
    Ok(())
}

/// Jobs accounted to snapshots (not replayed) across all shards.
fn snapshot_applied(dir: &Path, shards: usize) -> u64 {
    (0..shards)
        .filter_map(|i| {
            ShardSnapshot::read(&dir.join(format!("shard-{i}")).join("snap.chi"))
                .ok()
                .flatten()
        })
        .flat_map(|snap| snap.tenants.into_iter().map(|t| t.jobs_applied))
        .sum()
}

fn snapshot_tenants(dir: &Path, shards: usize) -> u64 {
    (0..shards)
        .filter_map(|i| {
            ShardSnapshot::read(&dir.join(format!("shard-{i}")).join("snap.chi"))
                .ok()
                .flatten()
        })
        .map(|snap| snap.tenants.len() as u64)
        .sum()
}

/// Deterministic torn-tail sweep: one shard, one tenant-pair script,
/// the job log cut at every byte from empty to full. Recovery must be
/// exactly the surviving prefix at every single cut.
#[test]
fn every_byte_cut_recovers_the_surviving_prefix() {
    let s = schema();
    let triggers = runtime_triggers(7);
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let dir = tmpdir("bytesweep");
    let per_tenant = run_live(&dir, &s, &triggers, &engine_cfg, 1, true, 0, 0xC0FFEE, 2, 14);
    let wal = dir.join("shard-0").join("jobs.wal");
    let full = std::fs::read(&wal).unwrap();
    assert!(!full.is_empty(), "the run must have logged something");

    for cut in 0..=full.len() {
        let case_dir = tmpdir("bytesweep-case");
        std::fs::create_dir_all(case_dir.join("shard-0")).unwrap();
        std::fs::copy(dir.join("meta.chi"), case_dir.join("meta.chi")).unwrap();
        std::fs::write(case_dir.join("shard-0").join("jobs.wal"), &full[..cut]).unwrap();
        let cfg = DurabilityConfig {
            dir: case_dir.clone(),
            snapshot_every: 0,
        };
        check_recovery(&cfg, &s, &triggers, &engine_cfg, 1, &per_tenant)
            .unwrap_or_else(|e| panic!("cut at byte {cut}/{}: {e}", full.len()));
        let _ = std::fs::remove_dir_all(&case_dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot restore meets deletions: with a snapshot after every group,
/// a script that deletes, modifies and fails on a missing object ends
/// with an empty log, so recovery comes from the snapshot alone. The
/// restored oid counter must then keep allocating where the crashed
/// runtime stopped — a deleted oid is never reused — and a second
/// crash recovers that too.
#[test]
fn snapshot_restore_meets_deletions_and_continues_the_oid_counter() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let triggers: Vec<TriggerDef> = vec![];
    let engine_cfg = EngineConfig::default();
    let dir = tmpdir("snap-deletes");
    let storage = DurabilityConfig {
        dir: dir.clone(),
        snapshot_every: 1,
    };
    let config = || RuntimeConfig {
        shards: 1,
        storage: StorageMode::Durable(storage.clone()),
        engine: engine_cfg.clone(),
        ..Default::default()
    };
    let create = |qty| Op::Create {
        class: item,
        inits: vec![(QTY, Value::Int(qty))],
    };
    let before = vec![
        Job::Begin,
        Job::ExecBlock(vec![create(1), create(2), create(3)]),
        Job::Commit,
        Job::Begin,
        // delete the newest object, so only the restored counter, not
        // the surviving extent, knows that oid 3 was ever allocated
        Job::ExecBlock(vec![Op::Delete { oid: Oid(3) }]),
        Job::ExecBlock(vec![Op::Modify {
            oid: Oid(2),
            attr: QTY,
            value: Value::Int(30),
        }]),
        Job::ExecBlock(vec![Op::Delete { oid: Oid(9) }]), // a job error
        Job::Commit,
    ];
    let after = vec![Job::Begin, Job::ExecBlock(vec![create(4)]), Job::Commit];
    let mut jobs = Vec::new();
    for script in [before, after] {
        // one job per group, so a snapshot follows every commit
        let rt = Runtime::new(s.clone(), triggers.clone(), config()).unwrap();
        for job in script {
            rt.submit(TenantId(0), job.clone()).unwrap();
            rt.flush().unwrap();
            jobs.push(job);
        }
        drop(rt);
        let log = std::fs::metadata(dir.join("shard-0").join("jobs.wal")).unwrap();
        assert_eq!(log.len(), 0, "the last commit's snapshot truncated the log");
        let per_tenant = std::slice::from_ref(&jobs);
        check_recovery(&storage, &s, &triggers, &engine_cfg, 1, per_tenant)
            .unwrap_or_else(|e| panic!("after {} jobs: {e}", jobs.len()));
    }
    let (rt, report) = Runtime::recover(s.clone(), triggers, config()).unwrap();
    assert_eq!((report.tenants_recovered, report.jobs_replayed), (1, 0));
    let extent = rt.with_tenant(TenantId(0), |e| e.extent(item)).unwrap();
    assert_eq!(extent, vec![Oid(1), Oid(2), Oid(4)]);
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn log tail is repairable damage; a corrupt *snapshot* is not —
/// the snapshot is the replay base, so silently dropping it would
/// resurrect a stale prefix as if it were current. Recovery must
/// refuse with a typed error instead, for a flipped bit, for a
/// truncation, for a rewritten event-base cut in a tenant header and for
/// a checksummed tenant header in the older ten-field layout (which also
/// carried the live event tail and the rule stamps), and succeed again
/// once the snapshot is restored.
#[test]
fn corrupt_snapshot_fails_recovery_with_typed_error() {
    use chimera::runtime::RuntimeError;
    let s = schema();
    let triggers: Vec<TriggerDef> = vec![];
    let engine_cfg = EngineConfig {
        max_rule_steps: 64,
        ..EngineConfig::default()
    };
    let dir = tmpdir("corrupt-snap");
    // snapshot after every group so the run is guaranteed to compact
    let rt = Runtime::new(
        s.clone(),
        triggers.clone(),
        RuntimeConfig {
            shards: 1,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: dir.clone(),
                snapshot_every: 1,
            }),
            engine: engine_cfg.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let item = s.class_by_name("item").unwrap();
    // two transactions: each commit cuts its own event
    for _ in 0..2 {
        for job in [
            Job::Begin,
            Job::ExecBlock(vec![Op::Create {
                class: item,
                inits: vec![(QTY, Value::Int(5))],
            }]),
            Job::Commit,
        ] {
            rt.submit(TenantId(0), job).unwrap();
            rt.flush().unwrap(); // one job per group; a snapshot follows each
        }
    }
    drop(rt);
    let snap = dir.join("shard-0").join("snap.chi");
    let pristine = std::fs::read(&snap).expect("the run must have snapshotted");
    let cfg = || RuntimeConfig {
        shards: 1,
        storage: StorageMode::Durable(DurabilityConfig {
            dir: dir.clone(),
            snapshot_every: 1,
        }),
        engine: engine_cfg.clone(),
        ..Default::default()
    };
    let expect_refusal = |what: &str| {
        match Runtime::recover(s.clone(), triggers.clone(), cfg()) {
            Err(RuntimeError::Persist(msg)) => {
                assert!(msg.contains("snapshot"), "{what}: untyped error: {msg}")
            }
            Ok(_) => panic!("{what}: recovery accepted a corrupt snapshot"),
            Err(other) => panic!("{what}: expected Persist, got {other:?}"),
        }
    };
    // a single flipped bit mid-file
    let mut dirty = pristine.clone();
    let mid = dirty.len() / 2;
    dirty[mid] ^= 0x40;
    std::fs::write(&snap, &dirty).unwrap();
    expect_refusal("bit flip");
    // a truncated snapshot (crash-during-copy style damage)
    std::fs::write(&snap, &pristine[..pristine.len() / 2]).unwrap();
    expect_refusal("truncation");
    // a well-formed header whose event-base cut was rewritten: the tenant
    // line is `T <tenant> <jobs> <errors> <next-oid> <nobj> <cut> <nsrc>`
    let text = String::from_utf8(pristine.clone()).unwrap();
    let header = text.lines().find(|l| l.starts_with("T ")).unwrap();
    let mut fields: Vec<&str> = header.split(' ').collect();
    assert_eq!(fields.len(), 8);
    assert_eq!(fields[6], "2", "each commit cut its own event");
    fields[6] = "7";
    std::fs::write(&snap, text.replacen(header, &fields.join(" "), 1)).unwrap();
    expect_refusal("rewritten cut");
    // the older layout `.. <cut> <nev> <nsrc> <nrule>`, with no event or
    // rule record and a valid checksum: only the header's arity is wrong
    let mut fields: Vec<&str> = header.split(' ').collect();
    fields.insert(7, "0");
    fields.push("0");
    let body = text[..text.rfind("C ").unwrap()].replacen(header, &fields.join(" "), 1);
    let seq = text[text.rfind("C ").unwrap()..].split(' ').nth(1).unwrap();
    let crc = chimera::persist::fnv1a(body.as_bytes());
    std::fs::write(&snap, format!("{body}C {seq} {crc:016x}\n")).unwrap();
    match chimera::persist::ShardSnapshot::read(&snap) {
        Err(chimera::persist::PersistError::Corrupt(m)) => {
            assert!(m.contains("bad tenant header"), "refused for another reason: {m}")
        }
        other => panic!("ten-field tenant header: {other:?}"),
    }
    expect_refusal("ten-field tenant header");
    // restoring the pristine bytes recovers cleanly
    std::fs::write(&snap, &pristine).unwrap();
    let (rt, _) = Runtime::recover(s.clone(), triggers.clone(), cfg()).unwrap();
    let (extent, len, cut, tail) = rt
        .with_tenant(TenantId(0), |e| {
            let eb = e.event_base();
            (e.extent(item).len(), eb.len(), eb.cut(), eb.live_len())
        })
        .unwrap();
    assert_eq!((extent, len, cut, tail), (2, 2, 2, 0));
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: random scripts × shard counts × group
    /// shapes (one job per group, or whatever batches the workers drain)
    /// × snapshot cadences × an arbitrary byte cut in one shard's log ⇒
    /// recovery ≡ sequential replay of the surviving prefix, for every
    /// tenant.
    #[test]
    fn crashed_runtime_recovers_acknowledged_prefix(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        tenants in 1u64..4,
        steps in 4usize..28,
        shards in 1usize..3,
        wait_each in any::<bool>(),
        snapshot_choice in 0u64..2,
        cut_shard in 0usize..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let snapshot_every = snapshot_choice * 3; // 0 (never) or every 3 groups
        let s = schema();
        let triggers = runtime_triggers(rule_seed);
        let engine_cfg = EngineConfig { max_rule_steps: 64, ..EngineConfig::default() };
        let dir = tmpdir("prop");
        let per_tenant = run_live(
            &dir, &s, &triggers, &engine_cfg,
            shards, wait_each, snapshot_every, script_seed, tenants, steps,
        );
        // the crash: truncate one shard's log at an arbitrary byte
        let wal = dir.join(format!("shard-{}", cut_shard % shards)).join("jobs.wal");
        if let Ok(bytes) = std::fs::read(&wal) {
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            std::fs::write(&wal, &bytes[..cut.min(bytes.len())]).unwrap();
        }
        let cfg = DurabilityConfig {
            dir: dir.clone(),
            snapshot_every,
        };
        check_recovery(&cfg, &s, &triggers, &engine_cfg, shards, &per_tenant)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The PR-7 durability property: load-aware stealing must not move a
    /// tenant's persistence. A Zipf-skewed submission mix (one hot tenant
    /// drawing most jobs, a cold tail getting stolen around it) runs on
    /// the load-aware scheduler, then the crash truncates the *hot
    /// tenant's home shard's* log — the shard whose store every claiming
    /// worker, wherever it ran, must have appended that tenant's jobs to.
    /// Recovery must still be the per-tenant surviving prefix.
    #[test]
    fn skewed_submission_crash_recovers_per_tenant_prefix(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        tenants in 2u64..6,
        steps in 8usize..32,
        shards in 2usize..4,
        snapshot_choice in 0u64..2,
        cut_frac in 0.0f64..1.0,
    ) {
        let snapshot_every = snapshot_choice * 3;
        let s = schema();
        let triggers = runtime_triggers(rule_seed);
        let engine_cfg = EngineConfig { max_rule_steps: 64, ..EngineConfig::default() };
        let dir = tmpdir("skew");
        let item = s.class_by_name("item").unwrap();
        let hot_home;
        let per_tenant = {
            let rt = Runtime::new(
                s.clone(),
                triggers.clone(),
                RuntimeConfig {
                    shards,
                    scheduler: Scheduler::LoadAware,
                    storage: StorageMode::Durable(DurabilityConfig {
                        dir: dir.clone(),
                        snapshot_every,
                    }),
                    engine: engine_cfg.clone(),
                    ..Default::default()
                },
            )
            .unwrap();
            hot_home = rt.shard_of(TenantId(0));
            let mut zipf = ZipfTenants::new(ZipfTenantsConfig {
                tenants,
                s: 1.2,
                hot_boost: 6.0,
                seed: script_seed ^ 0x21BF,
            });
            let mut rng = StdRng::seed_from_u64(script_seed);
            let mut in_txn = vec![false; tenants as usize];
            let mut per_tenant: Vec<Vec<Job>> = vec![Vec::new(); tenants as usize];
            for _ in 0..steps {
                let t = zipf.next_rank() as usize;
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
            prop_assert!(stats.wal_syncs >= 1, "durable run must have synced");
            per_tenant
        };
        // the crash lands on the hot tenant's home shard
        let wal = dir.join(format!("shard-{hot_home}")).join("jobs.wal");
        if let Ok(bytes) = std::fs::read(&wal) {
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            std::fs::write(&wal, &bytes[..cut.min(bytes.len())]).unwrap();
        }
        let cfg = DurabilityConfig {
            dir: dir.clone(),
            snapshot_every,
        };
        check_recovery(&cfg, &s, &triggers, &engine_cfg, shards, &per_tenant)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
