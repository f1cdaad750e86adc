//! Chaos oracle for the robustness layer.
//!
//! The medium is `chimera-chaos`'s deterministic fault injection: a
//! `ChaosStore` wrapped around every shard's store, and a `ChaosProxy`
//! between a client and the server. Four claims:
//!
//! 1. **Transient and torn storage faults are invisible.** A seeded
//!    schedule of retryable append/commit/snapshot failures — including
//!    the ambiguous torn commit, where data reached disk but the caller
//!    was told it didn't — must be fully absorbed by the runtime's
//!    bounded in-place retry: every job is acknowledged, no home is
//!    poisoned, every injected fault is a counted retry, and every
//!    tenant equals the shared fault-free sequential oracle
//!    (`chimera-oracle`) — observed state, error count and last error —
//!    live and after a restart from the directory (an acknowledged job
//!    is durable *even under fault injection*).
//!
//! 2. **A permanent fault degrades exactly one home, and the repair
//!    path heals it.** Breaking one shard's store poisons that home
//!    only: its tenants keep being answered — with the typed
//!    [`JobOutcome::RefusedDurability`] — while tenants homed elsewhere
//!    proceed oracle-identically. [`Runtime::reopen_shard_store`] then
//!    clears the poison, new jobs succeed, and a restart shows the
//!    repair made the refused-era RAM effects durable.
//!
//! 3. **A cut-happy network resolves every submission.** A client with
//!    a reconnect policy talking through a `ChaosProxy` that severs
//!    connections mid-frame must never hang and never silently drop a
//!    submission: every one resolves as `Done`, an engine `Error`, or
//!    the typed `Disconnected`, the client's orphan accounting matches,
//!    and once the proxy's cut budget is spent the session heals.
//!
//! 4. **A faulted eviction refuses and retains.** Eviction is optional
//!    work: when the store rejects the tenant snapshot write, the engine
//!    stays resident, nothing is poisoned, no job is lost, and the next
//!    residency-pressure event simply retries.

use chimera::chaos::{
    ChaosCounters, ChaosProxy, ChaosStore, FaultPlan, NetChaosConfig, StorageFault, StoreOp,
};
use chimera::exec::Op;
use chimera::lifecycle::LifecycleConfig;
use chimera::model::{ClassId, Value};
use chimera::net::{
    Client, ClientConfig, ExternalEvent, ReconnectPolicy, Server, ServerConfig, WireJob,
    WireOutcome, JOB_DISCONNECTED,
};
use chimera::runtime::{Job, JobOutcome, Runtime, RuntimeConfig, StoreWrap, TenantId};
use chimera_oracle::{
    compare, compare_tenant, durable, medium, observe, oracle_replay, Pick, Script, Setup,
    TempDir, QTY,
};
use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 1: transient + torn storage faults are invisible — every
    /// job acknowledged, nothing poisoned, end state (live *and* after
    /// a restart) identical to a fault-free sequential replay.
    #[test]
    fn transient_and_torn_faults_are_invisible(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        tenants in 1u64..4,
        steps in 6usize..24,
        shards in 1usize..3,
        snapshot_choice in 0u64..2,
    ) {
        let setup = Setup::seeded(rule_seed);
        let dir = TempDir::new("chaos-transient");
        let config = || RuntimeConfig {
            storage: durable(&dir, snapshot_choice * 2),
            ..setup.config(shards)
        };
        let (wrap, counters) = medium::transient_faults(chaos_seed);
        let script = Script::draw(script_seed, tenants, steps, Pick::Uniform);
        {
            let rt = setup.runtime(RuntimeConfig { store_wrap: Some(wrap), ..config() });
            medium::submit(&rt, &script, false);
            let stats = rt.stats();
            prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
            prop_assert_eq!(stats.shards_poisoned, 0, "retryable faults must never poison");
            prop_assert!(
                stats.store_retries >= counters.total(),
                "every injected fault ({}) must surface as a counted retry ({})",
                counters.total(),
                stats.store_retries
            );
            compare(&rt, &setup, &script.per_tenant, None, false)?;
        }
        // restart: every acknowledged job survived the fault schedule,
        // torn commits included — reopen without chaos and re-compare
        let rt = setup.runtime(config());
        compare(&rt, &setup, &script.per_tenant, None, false)?;
    }
}

/// Claim 4: a transient fault on `evict_tenant` refuses and
/// retains. The first eviction attempt the runtime ever makes is
/// forced to fail; the evicting home must keep the tenant resident
/// (state bit-exact, zero jobs lost), must *not* poison, and the next
/// residency-pressure event must retry and succeed. A chaos-free
/// restart then proves everything acknowledged was durable.
#[test]
fn refused_eviction_retains_the_tenant_and_retries() {
    // rules whose cascades end, so every transaction commits and its
    // tenant becomes evictable
    let setup = Setup::seeded(13);
    let dir = TempDir::new("chaos-evict-refused");
    // no full snapshot: the restart replays the whole log
    let config = || RuntimeConfig {
        storage: durable(&dir, 0),
        lifecycle: LifecycleConfig::with_max_resident(1),
        ..setup.config(1)
    };
    let counters = Arc::new(ChaosCounters::default());
    let wrap = {
        let counters = Arc::clone(&counters);
        StoreWrap::new(move |_, store| {
            Box::new(ChaosStore::with_counters(
                store,
                FaultPlan::none().fail_nth(StoreOp::Evict, 0, StorageFault::Transient),
                Arc::clone(&counters),
            ))
        })
    };
    let rt = setup.runtime(RuntimeConfig {
        store_wrap: Some(wrap),
        ..config()
    });
    let txn = |t: u64| vec![Job::Begin, block(40 + t as i64), Job::Commit];
    assert_eq!(oracle_replay(&setup, &txn(0), 3).errors, 0, "a transaction commits");
    let mut per_tenant: Vec<Vec<Job>> = Vec::new();
    // tenant 0 becomes resident; tenant 1 pushes residency to 2 > 1 and
    // triggers the first eviction attempt — the faulted one
    for t in 0..2u64 {
        per_tenant.push(txn(t));
        for job in txn(t) {
            rt.submit(TenantId(t), job).unwrap();
        }
        rt.flush().unwrap();
    }
    // enforcement runs worker-side just after the release that
    // satisfied the flush; wait for the injected fault to be consumed
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counters.transient() == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(counters.transient(), 1, "the forced eviction fault must fire");
    let stats = rt.stats();
    assert_eq!(stats.shards_poisoned, 0, "a refused eviction must not poison");
    assert_eq!(stats.jobs_processed, stats.jobs_submitted, "no job may be lost");
    assert_eq!(stats.tenants, 2, "both tenants still addressable");
    // the refused tenant is bit-exact — refuse-and-retain, not degrade
    compare(&rt, &setup, &per_tenant, None, false).unwrap();
    // more pressure retries the eviction; the plan only forced attempt
    // 0, so enforcement now succeeds and the working set settles
    per_tenant.push(txn(2));
    for job in txn(2) {
        rt.submit(TenantId(2), job).unwrap();
    }
    rt.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.stats().tenants_resident > 1 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let stats = rt.stats();
    assert!(
        stats.tenants_resident <= 1,
        "retried eviction must enforce the cap (got {} resident)",
        stats.tenants_resident
    );
    assert!(stats.evictions >= 1, "the retry must actually evict");
    assert_eq!(stats.shards_poisoned, 0);
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    compare(&rt, &setup, &per_tenant, None, false).unwrap();
    drop(rt);
    // chaos-free restart: evicted and resident tenants alike recover
    let (rt, _) = setup.recover(config());
    compare(&rt, &setup, &per_tenant, None, false).unwrap();
}

/// A two-shard durable runtime without rules in `dir`, whose shard 0
/// store fails its third group commit for good while `armed`, so the
/// store a reopen builds after disarming is healthy.
fn poisonable(setup: &Setup, dir: &Path, armed: &Arc<AtomicBool>) -> Runtime {
    let armed = Arc::clone(armed);
    let wrap = StoreWrap::new(move |shard, store| {
        let plan = if shard == 0 && armed.load(Ordering::Relaxed) {
            FaultPlan::none().fail_nth(StoreOp::Commit, 2, StorageFault::Permanent)
        } else {
            FaultPlan::none()
        };
        Box::new(ChaosStore::new(store, plan))
    });
    setup.runtime(RuntimeConfig {
        storage: durable(dir, 0),
        store_wrap: Some(wrap),
        ..setup.config(2)
    })
}

/// Submit one job and wait for its outcome: serial submission, so store
/// commits count 1:1 with jobs.
fn run(rt: &Runtime, tenant: TenantId, job: Job) -> JobOutcome {
    let (_, rx) = rt.submit_with_reply(tenant, job).unwrap();
    rx.recv_timeout(Duration::from_secs(30))
        .expect("every submission is answered")
        .outcome
}

/// Panics unless `outcome` is a refusal by a failed shard store.
fn assert_refused(outcome: JobOutcome) {
    match outcome {
        JobOutcome::RefusedDurability(msg) => assert!(msg.contains("shard store failed"), "{msg}"),
        other => panic!("expected a durability refusal, got {other:?}"),
    }
}

fn block(v: i64) -> Job {
    Job::ExecBlock(vec![Op::Create {
        class: ClassId(0),
        inits: vec![(QTY, Value::Int(v))],
    }])
}

/// Panics unless `tenant` equals the oracle's replay of `jobs`, which
/// are the jobs it executed: a refusal before execution is not one. The
/// error bookkeeping is not compared, since it counts refusals the
/// oracle never sees.
fn assert_replays(rt: &Runtime, setup: &Setup, tenant: TenantId, jobs: &[Job], what: &str) {
    let got = rt.with_tenant(tenant, |e| observe(e, setup.item)).unwrap();
    assert_eq!(got, oracle_replay(setup, jobs, jobs.len()).observed, "{what}");
}

/// Claim 2: a permanent store fault poisons exactly one home; its
/// tenants get typed refusals while other homes proceed oracle-exactly;
/// `reopen_shard_store` repairs it and makes refused-era effects
/// durable.
#[test]
fn permanent_fault_poisons_one_home_and_reopen_repairs() {
    let setup = Setup::new(vec![]);
    let dir = TempDir::new("chaos-poison");
    let armed = Arc::new(AtomicBool::new(true));
    let rt = poisonable(&setup, &dir, &armed);
    let victim = (0u64..64).map(TenantId).find(|t| rt.shard_of(*t) == 0).unwrap();
    let healthy = (0u64..64).map(TenantId).find(|t| rt.shard_of(*t) == 1).unwrap();

    // commits #0 and #1 succeed; #2 (the engine-level Commit) fails
    // permanently — the job *executed* in RAM, so the engine leaves the
    // transaction, but durability is refused and the home is poisoned
    assert!(run(&rt, victim, Job::Begin).is_done());
    assert!(run(&rt, victim, block(7)).is_done());
    let mut victim_executed = vec![Job::Begin, block(7), Job::Commit];
    assert_refused(run(&rt, victim, Job::Commit));
    // everything after arrives at a poisoned home: refused pre-execution
    for job in [Job::Begin, block(8), Job::Commit] {
        assert_refused(run(&rt, victim, job));
    }
    // the other home is untouched: a full script runs and matches the
    // oracle exactly
    let healthy_jobs = vec![Job::Begin, block(3), block(4), Job::Commit];
    for job in &healthy_jobs {
        assert!(run(&rt, healthy, job.clone()).is_done());
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.ready_queue_depth, 0);
    assert_eq!(stats.shards_poisoned, 1, "exactly the victim home is poisoned");
    let (verrors, vlast) = rt.tenant_errors(victim).unwrap();
    assert_eq!(
        verrors, 4,
        "the demoted Commit plus three pre-execution refusals were recorded"
    );
    assert!(vlast.unwrap().contains("shard store failed"));
    // healthy tenant while the other home was down
    compare_tenant(&rt, &setup, healthy.0, &healthy_jobs, false).unwrap();

    // the repair: disarm the chaos, swap in a fresh store, poison clears
    armed.store(false, Ordering::Relaxed);
    rt.reopen_shard_store(0).unwrap();
    assert_eq!(rt.stats().shards_poisoned, 0, "reopen must clear the poison");
    for job in [Job::Begin, block(9), Job::Commit] {
        victim_executed.push(job.clone());
        assert!(run(&rt, victim, job).is_done(), "post-repair jobs must succeed");
    }
    // RAM was authoritative across the outage: the victim equals the
    // oracle over exactly the jobs that *executed* (the demoted Commit
    // included, the pre-execution refusals excluded)
    let what = "victim tenant diverged across poison + repair";
    assert_replays(&rt, &setup, victim, &victim_executed, what);
    drop(rt);

    // restart: the reopen's snapshot made the refused-era effects
    // durable, so recovery reproduces both tenants
    let rt = setup.runtime(RuntimeConfig {
        storage: durable(&dir, 0),
        ..setup.config(2)
    });
    let what = "victim tenant lost state across the restart";
    assert_replays(&rt, &setup, victim, &victim_executed, what);
    compare_tenant(&rt, &setup, healthy.0, &healthy_jobs, false).unwrap();
}

/// Regression: a permanent fault that strikes *mid-transaction* used to
/// strand the tenant — the poisoned home refused every job
/// pre-execution, including the `Rollback` that
/// [`Runtime::reopen_shard_store`] needs the tenant to reach a
/// committed-only state, so the repair path was unreachable. The fix
/// lets `Rollback` (and only `Rollback`) through on a poisoned home as
/// a RAM-only job: the store is dead, but rolling back needs nothing
/// from it.
#[test]
fn rollback_escapes_a_poisoned_home_and_unblocks_reopen() {
    let setup = Setup::new(vec![]);
    let dir = TempDir::new("chaos-poison-midtxn");
    let armed = Arc::new(AtomicBool::new(true));
    let rt = poisonable(&setup, &dir, &armed);
    let victim = (0u64..64).map(TenantId).find(|t| rt.shard_of(*t) == 0).unwrap();

    // store commits #0 and #1 succeed; #2 — an exec block, which does
    // NOT end the transaction — fails permanently. The job executed in
    // RAM (demoted refusal), the home is poisoned, and the tenant is
    // stuck *inside* an open transaction.
    assert!(run(&rt, victim, Job::Begin).is_done());
    assert!(run(&rt, victim, block(7)).is_done());
    assert_refused(run(&rt, victim, block(8)));
    rt.flush().unwrap();
    assert_eq!(rt.stats().shards_poisoned, 1);
    assert!(rt.with_tenant(victim, |e| e.in_transaction()).unwrap());

    // the repair path is blocked: only committed state can be
    // snapshotted into the replacement store
    armed.store(false, Ordering::Relaxed);
    let err = rt.reopen_shard_store(0).unwrap_err().to_string();
    assert!(err.contains("open transaction"), "{err}");

    // Commit needs the dead store, so the poisoned home still refuses
    // it — but Rollback is let through as a RAM-only job and succeeds,
    // ending the transaction
    assert_refused(run(&rt, victim, Job::Commit));
    assert!(
        run(&rt, victim, Job::Rollback).is_done(),
        "Rollback must escape a poisoned home"
    );
    assert!(!rt.with_tenant(victim, |e| e.in_transaction()).unwrap());

    // now the reopen goes through, and the tenant is healthy again
    rt.flush().unwrap();
    rt.reopen_shard_store(0).unwrap();
    assert_eq!(rt.stats().shards_poisoned, 0);
    let mut executed = vec![Job::Begin, block(7), block(8), Job::Rollback];
    for job in [Job::Begin, block(9), Job::Commit] {
        executed.push(job.clone());
        assert!(run(&rt, victim, job).is_done(), "post-repair jobs must succeed");
    }
    let what = "victim diverged across mid-transaction poison + rollback + repair";
    assert_replays(&rt, &setup, victim, &executed, what);
    drop(rt);

    // restart: the reopen snapshotted the rolled-back (committed-only)
    // state, and the post-repair transaction is in the fresh WAL
    let rt = setup.runtime(RuntimeConfig {
        storage: durable(&dir, 0),
        ..setup.config(2)
    });
    assert_replays(&rt, &setup, victim, &executed, "victim lost state across the restart");
}

/// Satellite: submission↔completion accounting under a poisoned home.
/// Forced commit failure on the only shard → every reply arrives (typed
/// refusals, never a hang), nothing leaks in the queues, and the flush
/// barrier still returns.
#[test]
fn poisoned_home_answers_everything_and_flush_returns() {
    let setup = Setup::new(vec![]);
    let dir = TempDir::new("chaos-accounting");
    let wrap = StoreWrap::new(|_, store| {
        Box::new(ChaosStore::new(
            store,
            FaultPlan::none().fail_nth(StoreOp::Commit, 0, StorageFault::Permanent),
        ))
    });
    let rt = setup.runtime(RuntimeConfig {
        storage: durable(&dir, 0),
        store_wrap: Some(wrap),
        ..setup.config(1)
    });
    const JOBS: u64 = 30;
    let mut receivers = Vec::new();
    for k in 0..JOBS {
        let tenant = TenantId(k % 3);
        let job = match (k / 3) % 3 {
            0 => Job::Begin,
            1 => block(k as i64),
            _ => Job::Commit,
        };
        let (_, rx) = rt.submit_with_reply(tenant, job).unwrap();
        receivers.push(rx);
    }
    rt.flush().unwrap();
    let (mut refused, mut errors, mut done) = (0u64, 0u64, 0u64);
    for rx in receivers {
        // the accounting claim: every reply slot is answered
        match rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a poisoned home must still answer every job")
            .outcome
        {
            JobOutcome::RefusedDurability(msg) => {
                assert!(msg.contains("shard store failed"), "{msg}");
                refused += 1;
            }
            JobOutcome::Error(_) => errors += 1,
            JobOutcome::Done(_) => done += 1,
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    // the very first group commit failed: any Done in that batch was
    // demoted, everything after was refused outright
    assert_eq!(done, 0, "no job can claim durable success");
    assert!(refused >= 1);
    assert_eq!(refused + errors + done, JOBS);
    let stats = rt.stats();
    assert_eq!(stats.jobs_submitted, JOBS);
    assert_eq!(stats.jobs_processed, JOBS, "no job leaked in the queues");
    assert_eq!(stats.ready_queue_depth, 0);
    assert_eq!(stats.shards_poisoned, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 3: through a connection-cutting proxy, a reconnecting
    /// client resolves *every* submission — `Done`, engine `Error`, or
    /// the typed `Disconnected` — with exact orphan accounting, and the
    /// session heals once the cut budget is spent.
    #[test]
    fn cut_connections_resolve_every_submission(
        seed in any::<u64>(),
        max_cuts in 0u64..3,
        cut_lo in 400u64..900,
        cut_span in 1u64..2600,
    ) {
        let setup = Setup::new(vec![]);
        let rt = Arc::new(setup.runtime(setup.config(2)));
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&rt), ServerConfig::default()).unwrap();
        let proxy = ChaosProxy::start(
            server.local_addr(),
            NetChaosConfig {
                seed,
                // past the handshake, inside the job stream
                cut_bytes: Some((cut_lo, cut_lo + cut_span)),
                max_cuts,
                chunk_bytes: 16,
                ..NetChaosConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect_config(
            proxy.local_addr(),
            ClientConfig {
                request_timeout: Some(Duration::from_secs(5)),
                reconnect: Some(ReconnectPolicy {
                    max_attempts: 8,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                    jitter_seed: seed,
                }),
                ..ClientConfig::default()
            },
        )
        .unwrap();

        let mut completions = Vec::new();
        let mut submitted = 0u64;
        for round in 0..40u64 {
            let tenant = round % 3;
            let job = match round % 4 {
                0 => WireJob::Begin,
                1 | 2 => WireJob::RaiseExternal(vec![ExternalEvent {
                    class: 0,
                    channel: (round % 2) as u32,
                    oid: round,
                }]),
                _ => WireJob::Commit,
            };
            submitted += 1;
            completions.extend(c.submit(tenant, job).unwrap());
        }
        completions.extend(c.drain().unwrap());

        prop_assert_eq!(completions.len() as u64, submitted, "every submission resolves");
        let disconnected = completions
            .iter()
            .filter(|d| matches!(d.outcome, WireOutcome::Disconnected))
            .count() as u64;
        prop_assert_eq!(disconnected, c.orphaned(), "orphan accounting is exact");
        for d in &completions {
            prop_assert!(
                matches!(
                    d.outcome,
                    WireOutcome::Done { .. } | WireOutcome::Error { .. } | WireOutcome::Disconnected
                ),
                "unexpected outcome: {:?}",
                d.outcome
            );
            if matches!(d.outcome, WireOutcome::Disconnected) {
                prop_assert_eq!(d.job, JOB_DISCONNECTED);
            }
        }
        prop_assert!(
            c.reconnects() <= proxy.cuts(),
            "reconnects ({}) cannot exceed proxy cuts ({})",
            c.reconnects(),
            proxy.cuts()
        );

        // healing: the cut budget is finite, so a clean round (no
        // Disconnected) must arrive within a bounded number of attempts
        let mut healed = false;
        for _ in 0..20 {
            let mut round = Vec::new();
            round.extend(c.submit(7, WireJob::Begin).unwrap());
            round.extend(
                c.submit(
                    7,
                    WireJob::RaiseExternal(vec![ExternalEvent { class: 0, channel: 1, oid: 0 }]),
                )
                .unwrap(),
            );
            round.extend(c.submit(7, WireJob::Commit).unwrap());
            round.extend(c.drain().unwrap());
            if round
                .iter()
                .all(|d| !matches!(d.outcome, WireOutcome::Disconnected))
            {
                healed = true;
                break;
            }
        }
        prop_assert!(healed, "no clean round after {} cuts", proxy.cuts());

        // the flush barrier still works through whatever chaos remains
        let mut flushed = false;
        for _ in 0..10 {
            if c.flush().is_ok() {
                flushed = true;
                break;
            }
        }
        prop_assert!(flushed, "flush never made it through");
        // server-side accounting never leaked a job, cuts or not
        rt.flush().unwrap();
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.ready_queue_depth, 0);
        drop(c);
        proxy.shutdown();
        server.shutdown();
    }
}
