//! Crash-recovery oracle for the durable runtime.
//!
//! The claim under test: **an acknowledged job is durable, and recovery
//! is bit-identical to a sequential replay of exactly the surviving
//! prefix.** The medium is a crash: a [`Script`] runs against a durable
//! runtime, one shard's job log is byte-truncated at an arbitrary
//! position — including mid-record, the torn final write a real crash
//! leaves — and a fresh runtime recovers from the directory. Every
//! tenant must then equal the shared sequential oracle
//! (`chimera-oracle`) replaying the first `survived(t)` of its jobs:
//! observed state, error count and last error, a live tail within the
//! longest transaction. Recovery's own arithmetic must close too: every
//! surviving job was either inside a snapshot or replayed, and the
//! report counts the snapshots' tenants.
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
//! refusal; and proptests over random multi-tenant scripts × shard
//! counts × group shapes × snapshot cadences × cut positions.

use chimera::exec::Op;
use chimera::model::{Oid, Value};
use chimera::persist::ShardSnapshot;
use chimera::runtime::{Job, Runtime, RuntimeConfig, Scheduler, TenantId};
use chimera_oracle::{
    compare, durable, medium, survived_jobs, Pick, Script, Setup, TempDir, QTY,
};
use proptest::prelude::*;
use std::path::Path;

/// Run `script` against a durable runtime, then shut it down cleanly.
/// With `wait_each`, every group in the log holds exactly one job.
fn run_live(
    dir: &Path,
    setup: &Setup,
    shards: usize,
    wait_each: bool,
    snapshot_every: u64,
    script: &Script,
) {
    let rt = setup.runtime(RuntimeConfig {
        storage: durable(dir, snapshot_every),
        ..setup.config(shards)
    });
    medium::submit(&rt, script, wait_each);
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert!(stats.wal_syncs >= 1, "durable run must have synced");
    if wait_each {
        assert_eq!(stats.wal_syncs, stats.wal_appends, "one job per group");
    }
}

/// Recover from `dir` and compare every tenant with the sequential
/// oracle replaying exactly the on-disk surviving prefix.
fn check_recovery(
    dir: &Path,
    snapshot_every: u64,
    setup: &Setup,
    shards: usize,
    per_tenant: &[Vec<Job>],
) -> Result<(), TestCaseError> {
    let survived = survived_jobs(dir, shards);
    let (rt, report) = setup.recover(RuntimeConfig {
        storage: durable(dir, snapshot_every),
        ..setup.config(shards)
    });
    compare(&rt, setup, per_tenant, Some(&survived), false)?;
    // the report's totals agree with the on-disk arithmetic: every
    // surviving job was either inside a snapshot or replayed
    let snaps: Vec<ShardSnapshot> = (0..shards)
        .filter_map(|i| {
            ShardSnapshot::read(&dir.join(format!("shard-{i}")).join("snap.chi"))
                .ok()
                .flatten()
        })
        .collect();
    let applied: u64 = snaps.iter().flat_map(|s| &s.tenants).map(|t| t.jobs_applied).sum();
    prop_assert_eq!(
        rt.stats().jobs_replayed + applied,
        survived.values().sum::<u64>(),
        "snapshot + tail replay must cover every surviving job"
    );
    let snapshot_tenants: usize = snaps.iter().map(|s| s.tenants.len()).sum();
    prop_assert_eq!(report.tenants_recovered, snapshot_tenants as u64);
    Ok(())
}

/// Deterministic torn-tail sweep: one shard, one tenant-pair script,
/// the job log cut at every byte from empty to full. Recovery must be
/// exactly the surviving prefix at every single cut.
#[test]
fn every_byte_cut_recovers_the_surviving_prefix() {
    let setup = Setup::seeded(7);
    let dir = TempDir::new("durable-bytesweep");
    let script = Script::draw(0xC0FFEE, 2, 14, Pick::Uniform);
    run_live(&dir, &setup, 1, true, 0, &script);
    let full = std::fs::read(dir.join("shard-0").join("jobs.wal")).unwrap();
    assert!(!full.is_empty(), "the run must have logged something");

    for cut in 0..=full.len() {
        let case_dir = TempDir::new("durable-bytesweep-case");
        std::fs::create_dir_all(case_dir.join("shard-0")).unwrap();
        std::fs::copy(dir.join("meta.chi"), case_dir.join("meta.chi")).unwrap();
        std::fs::write(case_dir.join("shard-0").join("jobs.wal"), &full[..cut]).unwrap();
        check_recovery(&case_dir, 0, &setup, 1, &script.per_tenant)
            .unwrap_or_else(|e| panic!("cut at byte {cut}/{}: {e}", full.len()));
    }
}

/// Snapshot restore meets deletions: with a snapshot after every group,
/// a script that deletes, modifies and fails on a missing object ends
/// with an empty log, so recovery comes from the snapshot alone. The
/// restored oid counter must then keep allocating where the crashed
/// runtime stopped — a deleted oid is never reused — and a second
/// crash recovers that too.
#[test]
fn snapshot_restore_meets_deletions_and_continues_the_oid_counter() {
    let setup = Setup::new(vec![]);
    let item = setup.item;
    let dir = TempDir::new("durable-snap-deletes");
    let config = || RuntimeConfig {
        storage: durable(&dir, 1),
        ..setup.config(1)
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
        let rt = setup.runtime(config());
        for job in script {
            rt.submit(TenantId(0), job.clone()).unwrap();
            rt.flush().unwrap();
            jobs.push(job);
        }
        drop(rt);
        let log = std::fs::metadata(dir.join("shard-0").join("jobs.wal")).unwrap();
        assert_eq!(log.len(), 0, "the last commit's snapshot truncated the log");
        check_recovery(&dir, 1, &setup, 1, std::slice::from_ref(&jobs))
            .unwrap_or_else(|e| panic!("after {} jobs: {e}", jobs.len()));
    }
    let (rt, report) = setup.recover(config());
    assert_eq!((report.tenants_recovered, report.jobs_replayed), (1, 0));
    let extent = rt.with_tenant(TenantId(0), |e| e.extent(item)).unwrap();
    assert_eq!(extent, vec![Oid(1), Oid(2), Oid(4)]);
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
    let setup = Setup::new(vec![]);
    let item = setup.item;
    let dir = TempDir::new("durable-corrupt-snap");
    // snapshot after every group so the run is guaranteed to compact
    let cfg = || RuntimeConfig {
        storage: durable(&dir, 1),
        ..setup.config(1)
    };
    let rt = setup.runtime(cfg());
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
    let expect_refusal = |what: &str| {
        match Runtime::recover(setup.schema.clone(), vec![], cfg()) {
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
    match ShardSnapshot::read(&snap) {
        Err(chimera::persist::PersistError::Corrupt(m)) => {
            assert!(m.contains("bad tenant header"), "refused for another reason: {m}")
        }
        other => panic!("ten-field tenant header: {other:?}"),
    }
    expect_refusal("ten-field tenant header");
    // restoring the pristine bytes recovers cleanly
    std::fs::write(&snap, &pristine).unwrap();
    let (rt, _) = setup.recover(cfg());
    let (extent, len, cut, tail) = rt
        .with_tenant(TenantId(0), |e| {
            let eb = e.event_base();
            (e.extent(item).len(), eb.len(), eb.cut(), eb.live_len())
        })
        .unwrap();
    assert_eq!((extent, len, cut, tail), (2, 2, 2, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random scripts × shard counts × group shapes (one job per group,
    /// or whatever batches the workers drain) × snapshot cadences × an
    /// arbitrary byte cut in one shard's log ⇒ recovery ≡ sequential
    /// replay of the surviving prefix, for every tenant.
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
        let setup = Setup::seeded(rule_seed);
        let dir = TempDir::new("durable-prop");
        let script = Script::draw(script_seed, tenants, steps, Pick::Uniform);
        run_live(&dir, &setup, shards, wait_each, snapshot_every, &script);
        medium::crash(&dir.join(format!("shard-{}", cut_shard % shards)).join("jobs.wal"), cut_frac);
        check_recovery(&dir, snapshot_every, &setup, shards, &script.per_tenant)?;
    }

    /// Load-aware stealing must not move a tenant's persistence. A
    /// Zipf-skewed submission mix (one hot tenant drawing most jobs, a
    /// cold tail getting stolen around it) runs on the load-aware
    /// scheduler, then the crash truncates the *hot tenant's home
    /// shard's* log — the shard whose store every claiming worker,
    /// wherever it ran, must have appended that tenant's jobs to.
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
        let setup = Setup::seeded(rule_seed);
        let dir = TempDir::new("durable-skew");
        let script =
            Script::draw(script_seed, tenants, steps, Pick::Zipf { s: 1.2, hot_boost: 6.0 });
        let rt = setup.runtime(RuntimeConfig {
            scheduler: Scheduler::LoadAware,
            storage: durable(&dir, snapshot_every),
            ..setup.config(shards)
        });
        let hot_home = rt.shard_of(TenantId(0));
        medium::submit(&rt, &script, false);
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert!(stats.wal_syncs >= 1, "durable run must have synced");
        drop(rt);
        // the crash lands on the hot tenant's home shard
        medium::crash(&dir.join(format!("shard-{hot_home}")).join("jobs.wal"), cut_frac);
        check_recovery(&dir, snapshot_every, &setup, shards, &script.per_tenant)?;
    }
}
