//! Chaos soak: the robustness layer under sustained fire, as an
//! operator would drill it. Two phases, both watchdogged so any hang
//! exits nonzero instead of wedging CI:
//!
//! 1. **Storage chaos** — a durable multi-shard runtime whose every
//!    store is wrapped in a seeded `ChaosStore` injecting transient,
//!    torn and (late in the run) one permanent fault, fed a Zipf-skewed
//!    tenant mix. Every job must be answered, the poisoned home must be
//!    repairable with `reopen_shard_store`, and every tenant's end
//!    state must equal a fault-free sequential replay of the jobs that
//!    executed.
//! 2. **Eviction pressure** — a durable runtime with a tight tenant
//!    residency cap whose stores inject transient faults into the
//!    eviction path. Evictions under fault must *refuse-and-retain*
//!    (the tenant stays resident, nothing poisons, no job is lost), the
//!    cap must hold once traffic settles, and every tenant — evicted or
//!    resident — must equal its fault-free oracle.
//! 3. **Network chaos** — a TCP server behind a `ChaosProxy` that cuts
//!    connections mid-frame, driven by a reconnecting client. Every
//!    submission must resolve (`Done`/`Error`/typed `Disconnected`),
//!    orphan accounting must be exact, and the session must heal once
//!    the cut budget is spent.
//!
//! Run with `cargo run --release --example chaos_soak`. Exits 0 only if
//! every claim held; a panic or the watchdog exits nonzero.
//!
//! Both runtimes run with telemetry on, and the soak prints a summary —
//! stage latency p50/p99 plus the last 32 postmortem trace events — on
//! normal exit *and* from the watchdog, so a hang leaves behind the
//! evidence of where the pipeline stalled instead of just a timeout.

use chimera::chaos::{
    ChaosCounters, ChaosProxy, ChaosRates, ChaosStore, FaultPlan, NetChaosConfig, StorageFault,
    StoreOp,
};
use chimera::exec::{Engine, EngineConfig, Op};
use chimera::model::{AttrDef, AttrId, AttrType, ClassId, SchemaBuilder, Schema, Value};
use chimera::net::{
    Client, ClientConfig, ExternalEvent, ReconnectPolicy, Server, ServerConfig, WireJob,
    WireOutcome,
};
use chimera::runtime::{
    DurabilityConfig, Job, JobOutcome, Runtime, RuntimeConfig, StorageMode, StoreWrap, TenantId,
};
use chimera::telemetry::Telemetry;
use chimera::workload::{ZipfTenants, ZipfTenantsConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEED: u64 = 0xC4A0_50AC;
const TENANTS: u64 = 12;
const STORAGE_JOBS: usize = 600;
const NET_JOBS: u64 = 300;

/// The current phase's recorder, registered so the watchdog thread can
/// dump it when the soak hangs. The `Telemetry` handle is a cheap
/// Arc-backed clone; it outlives the runtime it came from.
static WATCH_TEL: Mutex<Option<Telemetry>> = Mutex::new(None);

fn watch(tel: &Telemetry) {
    *WATCH_TEL.lock().unwrap() = Some(tel.clone());
}

/// Stage latency p50/p99 for every stage that recorded anything, plus
/// the last 32 events out of the postmortem trace ring. Called on
/// normal exit and from the watchdog.
fn telemetry_summary(label: &str) {
    let tel = match WATCH_TEL.lock().unwrap().clone() {
        Some(tel) => tel,
        None => return,
    };
    let m = tel.snapshot();
    println!("telemetry [{label}]:");
    for h in &m.hists {
        if h.count() == 0 {
            continue;
        }
        println!(
            "  {:<16} n={:<7} p50={}ns p99={}ns max={}ns",
            h.name,
            h.count(),
            h.p50(),
            h.p99(),
            h.max()
        );
    }
    let tail: Vec<_> = m.traces.iter().rev().take(32).rev().collect();
    println!("  trace tail ({} of {} drained events):", tail.len(), m.traces.len());
    for ev in tail {
        println!(
            "    #{:<6} +{:>12}ns {:<14} a={} b={}",
            ev.seq,
            ev.at_ns,
            ev.kind.name(),
            ev.a,
            ev.b
        );
    }
}

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
    b.build()
}

/// Fault-free sequential replay of one tenant's jobs; returns the
/// comparable end state (counters, transaction flag, sorted extent).
fn oracle(s: &Schema, jobs: &[Job], item: ClassId) -> (chimera::exec::EngineStats, bool, Vec<u64>) {
    let mut engine = Engine::with_config(
        s.clone(),
        EngineConfig {
            max_rule_steps: 64,
            ..EngineConfig::default()
        },
    );
    for job in jobs {
        let _ = match job.clone() {
            Job::Begin => engine.begin().map(|_| ()).map_err(|_| ()),
            Job::ExecBlock(ops) => engine.exec_block(&ops).map(|_| ()).map_err(|_| ()),
            Job::RaiseExternal(ev) => engine.raise_external(&ev).map(|_| ()).map_err(|_| ()),
            Job::Commit => engine.commit().map(|_| ()).map_err(|_| ()),
            Job::Rollback => engine.rollback().map(|_| ()).map_err(|_| ()),
            _ => Ok(()),
        };
    }
    let mut extent: Vec<u64> = engine.extent(item).iter().map(|o| o.0).collect();
    extent.sort_unstable();
    (engine.stats(), engine.in_transaction(), extent)
}

fn storage_soak() {
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let dir = std::env::temp_dir().join(format!("chimera-chaos-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = 4usize;
    // tenant→home is a hash, so "shard 0" could be a cold corner of the
    // Zipf mix; aim the permanent break at the *hot* tenant's home so the
    // poison/repair path is guaranteed traffic. A throwaway in-memory
    // runtime with the same shard count answers the mapping.
    let victim_shard = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards,
            ..Default::default()
        },
    )
    .unwrap()
    .shard_of(TenantId(0));
    // The wrap switches behaviour by phase. MIX: heavy but retryable
    // rates everywhere (chaos must be invisible). ARMED: a clean plan
    // except one scheduled permanent break on the victim home's 3rd
    // commit — `reopen_shard_store` re-applies the wrap, which is how
    // the armed store gets installed, and why REPAIRED must hand out a
    // faultless plan (otherwise repair would re-break itself).
    const MIX: usize = 0;
    const ARMED: usize = 1;
    const REPAIRED: usize = 2;
    let mode = Arc::new(std::sync::atomic::AtomicUsize::new(MIX));
    let counters = Arc::new(ChaosCounters::default());
    let wrap = {
        let counters = Arc::clone(&counters);
        let mode = Arc::clone(&mode);
        StoreWrap::new(move |shard, store| {
            let plan = match mode.load(std::sync::atomic::Ordering::SeqCst) {
                MIX => FaultPlan::seeded(
                    SEED ^ shard as u64,
                    ChaosRates {
                        append_transient: 1000,
                        commit_transient: 1500,
                        commit_torn: 1000,
                        snapshot_transient: 1500,
                        evict_transient: 0,
                    },
                ),
                ARMED if shard == victim_shard => {
                    FaultPlan::none().fail_nth(StoreOp::Commit, 2, StorageFault::Permanent)
                }
                _ => FaultPlan::none(),
            };
            Box::new(ChaosStore::with_counters(store, plan, Arc::clone(&counters)))
        })
    };
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: dir.clone(),
                snapshot_every: 8,
            }),
            engine: EngineConfig {
                max_rule_steps: 64,
                ..EngineConfig::default()
            },
            store_wrap: Some(wrap),
            telemetry: true,
            ..Default::default()
        },
    )
    .unwrap();
    watch(rt.telemetry());

    // Phase 1 — the mix. Zipf-skewed traffic, every job submitted with
    // a reply slot so the accounting claim ("every job is answered") is
    // checked literally. Faults here are all retryable, so a refusal is
    // a straight failure of the invisibility claim.
    let mut zipf = ZipfTenants::new(ZipfTenantsConfig {
        tenants: TENANTS,
        s: 1.2,
        hot_boost: 4.0,
        seed: SEED,
    });
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF00D);
    let mut in_txn = vec![false; TENANTS as usize];
    let mut executed: Vec<Vec<Job>> = vec![Vec::new(); TENANTS as usize];
    let (mut done, mut errors) = (0u64, 0u64);
    let run = |t: usize, job: Job| -> JobOutcome {
        let (_, rx) = rt.submit_with_reply(TenantId(t as u64), job).unwrap();
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a chaos-wrapped runtime must answer every job")
            .outcome
    };
    for _ in 0..STORAGE_JOBS {
        let t = zipf.next_rank() as usize;
        let job = if !in_txn[t] {
            Job::Begin
        } else {
            match rng.random_range(0..6u32) {
                0..=2 => Job::ExecBlock(vec![Op::Create {
                    class: item,
                    inits: vec![(AttrId(0), Value::Int(rng.random_range(0..100i64)))],
                }]),
                3..=4 => Job::Commit,
                _ => Job::Rollback,
            }
        };
        match run(t, job.clone()) {
            JobOutcome::Done(_) => done += 1,
            JobOutcome::Error(_) => errors += 1,
            other => panic!("retryable chaos must stay invisible, got {other:?}"),
        }
        match job {
            Job::Begin => in_txn[t] = true,
            Job::Commit | Job::Rollback => in_txn[t] = false,
            _ => {}
        }
        executed[t].push(job);
    }
    // close every open transaction (the repair drill below swaps the
    // victim store, which requires committed-only tenant state), then
    // settle and check the mix claims: no leaks, retries happened,
    // nothing poisoned, and every tenant equals the fault-free oracle.
    for t in 0..TENANTS as usize {
        if in_txn[t] {
            assert!(matches!(run(t, Job::Commit), JobOutcome::Done(_)));
            executed[t].push(Job::Commit);
            in_txn[t] = false;
        }
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted, "job leak");
    assert_eq!(stats.ready_queue_depth, 0, "queue leak");
    assert_eq!(stats.shards_poisoned, 0, "retryable faults must not poison");
    assert!(
        stats.store_retries >= 1,
        "chaos rates this high must have caused retries"
    );
    let mix_retries = stats.store_retries;
    let mix_faults = counters.total();
    let check_tenant = |t: usize, jobs: &[Job]| {
        let (want_stats, want_txn, want_extent) = oracle(&s, jobs, item);
        let got = rt
            .with_tenant(TenantId(t as u64), |e| {
                let mut extent: Vec<u64> = e.extent(item).iter().map(|o| o.0).collect();
                extent.sort_unstable();
                (e.stats(), e.in_transaction(), extent)
            })
            .expect("tenant with jobs has an engine");
        assert_eq!(
            got,
            (want_stats, want_txn, want_extent),
            "tenant {t} diverged from the fault-free oracle"
        );
    };
    let mut checked = 0;
    for (t, jobs) in executed.iter().enumerate() {
        if !jobs.is_empty() {
            check_tenant(t, jobs);
            checked += 1;
        }
    }
    assert!(checked >= 2, "the soak must oracle-check most tenants");

    // Phase 2 — the repair drill. Install the armed store on the victim
    // home, break it on the hot tenant's engine-level Commit (a demoted
    // job: executed in RAM, answered RefusedDurability, transaction
    // exited), watch the home refuse follow-ups, then disarm, repair
    // with reopen_shard_store, and require full service and oracle
    // equivalence afterwards.
    let victim = 0usize; // tenant 0 is the Zipf-hot tenant by construction
    mode.store(ARMED, std::sync::atomic::Ordering::SeqCst);
    rt.reopen_shard_store(victim_shard).unwrap();
    let block = Job::ExecBlock(vec![Op::Create {
        class: item,
        inits: vec![(AttrId(0), Value::Int(41))],
    }]);
    assert!(matches!(run(victim, Job::Begin), JobOutcome::Done(_)));
    assert!(matches!(run(victim, block.clone()), JobOutcome::Done(_)));
    // 3rd commit on the armed store: the scheduled permanent fault
    let demoted = run(victim, Job::Commit);
    assert!(
        matches!(demoted, JobOutcome::RefusedDurability(_)),
        "the armed store's 3rd commit must demote, got {demoted:?}"
    );
    executed[victim].extend([Job::Begin, block.clone(), Job::Commit]);
    let refusal = run(victim, block.clone());
    assert!(
        matches!(refusal, JobOutcome::RefusedDurability(_)),
        "a poisoned home must refuse pre-execution, got {refusal:?}"
    );
    rt.flush().unwrap();
    assert_eq!(rt.stats().shards_poisoned, 1, "exactly one home poisoned");
    mode.store(REPAIRED, std::sync::atomic::Ordering::SeqCst);
    rt.reopen_shard_store(victim_shard).unwrap();
    assert_eq!(rt.stats().shards_poisoned, 0, "repair must clear the poison");
    for job in [Job::Begin, block.clone(), Job::Commit] {
        assert!(matches!(run(victim, job.clone()), JobOutcome::Done(_)));
        executed[victim].push(job);
    }
    rt.flush().unwrap();
    check_tenant(victim, &executed[victim]);
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted, "job leak");
    println!(
        "storage soak: {} mix jobs ({done} done, {errors} engine errors), \
         {mix_faults} injected faults, {mix_retries} retries, {checked} tenants \
         oracle-checked; poison/repair drill on shard {victim_shard} passed",
        STORAGE_JOBS,
    );
    telemetry_summary("storage soak");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Phase 2: eviction under fire. A tight residency cap forces constant
/// eviction/rehydration churn while every store injects transient faults
/// into `evict_tenant` (and nothing else — any divergence is the
/// lifecycle's fault alone). The claims: a faulted eviction refuses and
/// retains (no poison, no loss), the cap holds at quiescence, and every
/// tenant equals its fault-free oracle whether it ended resident or
/// evicted.
fn lifecycle_soak() {
    use chimera::lifecycle::LifecycleConfig;
    const CAP: usize = 3;
    const JOBS: usize = 400;
    let s = schema();
    let item = s.class_by_name("item").unwrap();
    let dir = std::env::temp_dir().join(format!("chimera-evict-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let counters = Arc::new(ChaosCounters::default());
    let wrap = {
        let counters = Arc::clone(&counters);
        StoreWrap::new(move |shard, store| {
            let plan = FaultPlan::seeded(
                SEED ^ 0xE71C ^ shard as u64,
                ChaosRates {
                    evict_transient: 2000, // 20% of evictions refused
                    ..ChaosRates::default()
                },
            );
            Box::new(ChaosStore::with_counters(store, plan, Arc::clone(&counters)))
        })
    };
    let rt = Runtime::new(
        s.clone(),
        vec![],
        RuntimeConfig {
            shards: 2,
            storage: StorageMode::Durable(DurabilityConfig {
                dir: dir.clone(),
                snapshot_every: 0, // no full snapshot: recovery replays the whole log
            }),
            engine: EngineConfig {
                max_rule_steps: 64,
                ..EngineConfig::default()
            },
            store_wrap: Some(wrap),
            telemetry: true,
            lifecycle: LifecycleConfig::with_max_resident(CAP),
            ..Default::default()
        },
    )
    .unwrap();
    watch(rt.telemetry());

    let mut zipf = ZipfTenants::new(ZipfTenantsConfig {
        tenants: TENANTS,
        s: 1.1,
        hot_boost: 2.0,
        seed: SEED ^ 0xE71C,
    });
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xE71C);
    let mut in_txn = vec![false; TENANTS as usize];
    let mut executed: Vec<Vec<Job>> = vec![Vec::new(); TENANTS as usize];
    let run = |t: usize, job: Job| -> JobOutcome {
        let (_, rx) = rt.submit_with_reply(TenantId(t as u64), job).unwrap();
        rx.recv_timeout(Duration::from_secs(60))
            .expect("an eviction-churning runtime must answer every job")
            .outcome
    };
    for _ in 0..JOBS {
        let t = zipf.next_rank() as usize;
        let job = if !in_txn[t] {
            Job::Begin
        } else {
            match rng.random_range(0..6u32) {
                0..=2 => Job::ExecBlock(vec![Op::Create {
                    class: item,
                    inits: vec![(AttrId(0), Value::Int(rng.random_range(0..100i64)))],
                }]),
                3..=4 => Job::Commit,
                _ => Job::Rollback,
            }
        };
        match run(t, job.clone()) {
            JobOutcome::Done(_) | JobOutcome::Error(_) => {}
            other => panic!("eviction churn must stay invisible, got {other:?}"),
        }
        match job {
            Job::Begin => in_txn[t] = true,
            Job::Commit | Job::Rollback => in_txn[t] = false,
            _ => {}
        }
        executed[t].push(job);
    }
    rt.flush().unwrap();
    // Two legal sources of overshoot at rest: tenants parked inside a
    // transaction are unevictable, and a *refused* (fault-injected)
    // eviction retains its tenant until the next activity retries.
    // Enforcement only runs on claim/release, so nudge the runtime with
    // no-op claims until the working set fits cap + mid-txn tenants.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stuck = in_txn.iter().filter(|&&b| b).count();
        if rt.stats().tenants_resident <= (CAP + stuck) as u64
            || std::time::Instant::now() >= deadline
        {
            break;
        }
        let job = if in_txn[0] { Job::Commit } else { Job::Begin };
        match run(0, job.clone()) {
            JobOutcome::Done(_) | JobOutcome::Error(_) => {}
            other => panic!("retry nudge must stay invisible, got {other:?}"),
        }
        match job {
            Job::Begin => in_txn[0] = true,
            Job::Commit | Job::Rollback => in_txn[0] = false,
            _ => {}
        }
        executed[0].push(job);
        rt.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let stuck = in_txn.iter().filter(|&&b| b).count();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted, "job leak");
    assert_eq!(stats.shards_poisoned, 0, "a refused eviction must not poison");
    assert_eq!(stats.tenants as u64, TENANTS, "no tenant may vanish");
    assert!(
        stats.tenants_resident <= (CAP + stuck) as u64,
        "cap {CAP} (+{stuck} mid-txn) violated at quiescence: {} resident",
        stats.tenants_resident
    );
    assert!(stats.evictions >= 1, "a 4x-over-cap mix must evict");
    assert!(stats.rehydrations >= 1, "revisited tenants must rehydrate");
    assert!(
        counters.transient() >= 1,
        "a 20% fault rate over {} evictions must have fired",
        stats.evictions
    );
    // refuse-and-retain, bit-for-bit: every tenant (resident or parked as
    // a snapshot) equals the fault-free sequential oracle
    for (t, jobs) in executed.iter().enumerate() {
        if jobs.is_empty() {
            continue;
        }
        let (want_stats, want_txn, want_extent) = oracle(&s, jobs, item);
        let got = rt
            .with_tenant(TenantId(t as u64), |e| {
                let mut extent: Vec<u64> = e.extent(item).iter().map(|o| o.0).collect();
                extent.sort_unstable();
                (e.stats(), e.in_transaction(), extent)
            })
            .expect("tenant with jobs is inspectable even when evicted");
        assert_eq!(
            got,
            (want_stats, want_txn, want_extent),
            "tenant {t} diverged under eviction churn"
        );
    }
    println!(
        "eviction soak: {JOBS} jobs over {TENANTS} tenants, cap {CAP}: {} evictions \
         ({} refused by injected faults), {} rehydrations, {} resident at rest",
        stats.evictions,
        counters.transient(),
        stats.rehydrations,
        stats.tenants_resident,
    );
    telemetry_summary("eviction soak");
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}

fn net_soak() {
    let rt = Arc::new(
        Runtime::new(
            schema(),
            vec![],
            RuntimeConfig {
                shards: 2,
                telemetry: true,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    watch(rt.telemetry());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&rt), ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(
        server.local_addr(),
        NetChaosConfig {
            seed: SEED,
            cut_bytes: Some((500, 6000)),
            max_cuts: 6,
            chunk_bytes: 32,
            ..NetChaosConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect_config(
        proxy.local_addr(),
        ClientConfig {
            request_timeout: Some(Duration::from_secs(10)),
            reconnect: Some(ReconnectPolicy {
                max_attempts: 10,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                jitter_seed: SEED,
            }),
            ..ClientConfig::default()
        },
    )
    .unwrap();

    let mut completions = Vec::new();
    for round in 0..NET_JOBS {
        let tenant = round % 5;
        let job = match round % 4 {
            0 => WireJob::Begin,
            1 | 2 => WireJob::RaiseExternal(vec![ExternalEvent {
                class: 0,
                channel: (round % 2) as u32,
                oid: round,
            }]),
            _ => WireJob::Commit,
        };
        completions.extend(c.submit(tenant, job).expect("reconnect must keep the client alive"));
    }
    completions.extend(c.drain().unwrap());
    assert_eq!(
        completions.len() as u64,
        NET_JOBS,
        "every submission must resolve exactly once"
    );
    let disconnected = completions
        .iter()
        .filter(|d| matches!(d.outcome, WireOutcome::Disconnected))
        .count() as u64;
    assert_eq!(disconnected, c.orphaned(), "orphan accounting drifted");

    // heal: the cut budget is finite, so clean rounds must return
    let mut healed = false;
    for _ in 0..30 {
        let mut round = Vec::new();
        round.extend(c.submit(9, WireJob::Begin).unwrap());
        round.extend(c.submit(9, WireJob::Commit).unwrap());
        round.extend(c.drain().unwrap());
        if round.iter().all(|d| !matches!(d.outcome, WireOutcome::Disconnected)) {
            healed = true;
            break;
        }
    }
    assert!(healed, "session never healed after {} cuts", proxy.cuts());
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted, "server-side job leak");
    println!(
        "net soak: {NET_JOBS} submissions, {} cuts, {} reconnects, {disconnected} orphaned, healed",
        proxy.cuts(),
        c.reconnects(),
    );
    drop(c);
    proxy.shutdown();
    server.shutdown();
}

fn main() {
    // the watchdog: chaos bugs present as hangs; CI needs an exit code
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(240));
        eprintln!("chaos_soak: watchdog fired — some chaos path is hanging");
        // the postmortem: where did the pipeline stall?
        telemetry_summary("watchdog");
        std::process::exit(2);
    });
    storage_soak();
    lifecycle_soak();
    net_soak();
    telemetry_summary("net soak");
    println!("chaos soak passed");
}
