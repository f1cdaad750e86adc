//! The traced run: the same jobs replayed through a ladder of rungs,
//! each adding one layer, each timed from outside around public calls.
//!
//! `engine` (one sequential `Engine` per tenant — also the oracle) →
//! `runtime` (`Runtime::submit_with_reply`, in memory, no cap) → `store`
//! (+ the workload's `StorageMode`) → `cap` (+ its residency cap) →
//! `wire` (+ `Server`/`Client` over loopback) → `wire_traced` (+
//! telemetry and a timing wrapper around every `StateStore` call).
//!
//! A layer's self-cost is the CPU difference between adjacent rungs.
//! Everything runs in this one process, so "CPU" is this process's
//! `utime + stime` over the rung's timed part, feeder and client threads
//! included — the same on every rung that has them.

use crate::e2e::{on_each, paced_schedule, Conn, DataDir, Outcome, PacedConn, PacedSummary};
use crate::json::Json;
use crate::proc;
use crate::stats::quantile;
use crate::workload::{plan, ConnPlan, Expect, Layers, Oracle, Sample, Shape, Spec, Txns, CONNS};
use chimera_net::{
    Client, Request, Response, Server, ServerConfig, WireJob, WireOutcome, PIPELINE_WINDOW,
};
use chimera_persist::{JobRecord, ShardRecovery, StateStore, StoreCounters, TenantSnapshot};
use chimera_runtime::{JobReply, Runtime, RuntimeStats, StoreWrap, TenantId};
use chimera_telemetry::{bucket_floor, HistSnapshot, MetricsSnapshot};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

/// Share of the end-to-end run's `sat` + `paced` jobs each rung replays.
const LADDER_SHARE: f64 = 0.25;

/// One rung's timed part.
#[derive(Clone)]
struct Rung {
    wall_s: f64,
    cpu_s: f64,
    jobs: u64,
    events: u64,
    /// Jobs (prefill included) whose outcome differed from the oracle's.
    failed: u64,
}

impl Rung {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
    fn cpu_us_per_job(&self) -> f64 {
        self.cpu_s * 1e6 / self.jobs as f64
    }
}

/// Times a closure the way every rung is timed.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64, f64), String> {
    let cpu0 = proc::own_cpu_seconds()?;
    let started = Instant::now();
    let out = f()?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok((out, wall_s, proc::own_cpu_seconds()? - cpu0))
}

/// Busy time of one `StateStore` method, summed over shards.
#[derive(Default)]
struct Busy {
    ns: AtomicU64,
}

impl Busy {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
    fn us(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e3
    }
}

#[derive(Default)]
struct StoreTimers {
    append: Busy,
    commit: Busy,
    snapshot: Busy,
    evict: Busy,
}

/// The timing `StoreWrap`: forwards every call, clocking the four that
/// do work on the job path.
struct TimedStore {
    inner: Box<dyn StateStore>,
    timers: Arc<StoreTimers>,
}

impl StateStore for TimedStore {
    fn recover(&mut self) -> chimera_persist::Result<ShardRecovery> {
        self.inner.recover()
    }
    fn append(&mut self, tenant: u64, record: &JobRecord) -> chimera_persist::Result<()> {
        self.timers
            .append
            .time(|| self.inner.append(tenant, record))
    }
    fn commit(&mut self) -> chimera_persist::Result<()> {
        self.timers.commit.time(|| self.inner.commit())
    }
    fn snapshot(&mut self, tenants: &[TenantSnapshot]) -> chimera_persist::Result<()> {
        self.timers.snapshot.time(|| self.inner.snapshot(tenants))
    }
    fn evict_tenant(&mut self, snap: &TenantSnapshot) -> chimera_persist::Result<()> {
        self.timers.evict.time(|| self.inner.evict_tenant(snap))
    }
    fn groups_since_snapshot(&self) -> u64 {
        self.inner.groups_since_snapshot()
    }
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }
}

/// Feed `jobs` through `submit_with_reply`, at most `PIPELINE_WINDOW`
/// unanswered (the wire client's own window, so every rung pipelines
/// alike). Returns the events done and the jobs that missed the oracle.
fn feed(
    runtime: &Runtime,
    jobs: Vec<(u64, WireJob)>,
    expect: &[Expect],
) -> Result<(u64, u64), String> {
    let mut pending: VecDeque<(usize, Receiver<JobReply>)> = VecDeque::new();
    let (mut events, mut failed) = (0u64, 0u64);
    let mut settle =
        |k: usize, rx: Receiver<JobReply>| match rx.recv().map(|r| WireOutcome::from(r.outcome)) {
            Ok(outcome) if expect[k].matches(&outcome) => events += expect[k].events,
            _ => failed += 1,
        };
    for (k, (tenant, job)) in jobs.into_iter().enumerate() {
        if pending.len() >= PIPELINE_WINDOW {
            let (done, rx) = pending.pop_front().expect("window is full");
            settle(done, rx);
        }
        let (_, rx) = runtime
            .submit_with_reply(TenantId(tenant), job.into_job())
            .map_err(|e| format!("submit: {e}"))?;
        pending.push_back((k, rx));
    }
    for (done, rx) in pending {
        settle(done, rx);
    }
    Ok((events, failed))
}

/// Both feeders at once over `range` of their plans. The jobs are copied
/// out of the plans before the clock starts.
fn feed_all(
    runtime: &Runtime,
    plans: &[ConnPlan],
    range: std::ops::Range<usize>,
) -> Result<((u64, u64), f64, f64), String> {
    let slices: Vec<_> = plans
        .iter()
        .map(|p| (p.jobs[range.clone()].to_vec(), &p.expect[range.clone()]))
        .collect();
    timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .into_iter()
                .map(|(jobs, expect)| scope.spawn(move || feed(runtime, jobs, expect)))
                .collect();
            let mut total = (0, 0);
            for h in handles {
                let (events, failed) = h
                    .join()
                    .map_err(|_| "feeder thread panicked".to_string())??;
                total = (total.0 + events, total.1 + failed);
            }
            Ok(total)
        })
    })
}

/// An in-process rung: prefill untimed, then the closed-loop part timed.
fn in_process(
    spec: &Spec,
    layers: &Layers<'_>,
    plans: &[ConnPlan],
    prefill: usize,
    sat: usize,
) -> Result<(Rung, RuntimeStats), String> {
    let (rt, _) = spec.recover(layers)?;
    let ((_, warm_failed), _, _) = feed_all(&rt, plans, 0..prefill)?;
    let ((events, failed), wall_s, cpu_s) = feed_all(&rt, plans, prefill..prefill + sat)?;
    rt.flush().map_err(|e| e.to_string())?;
    let stats = rt.shutdown();
    Ok((
        Rung {
            wall_s,
            cpu_s,
            jobs: (sat * CONNS) as u64,
            events,
            failed: warm_failed + failed,
        },
        stats,
    ))
}

/// What only the last rung collects.
struct Traced {
    timers: Arc<StoreTimers>,
    /// Telemetry after the closed-loop part and after the paced tail.
    before_tail: MetricsSnapshot,
    after_tail: MetricsSnapshot,
    tail: Vec<PacedConn>,
    tail_start_us: f64,
    stats: RuntimeStats,
    recover_s: f64,
    jobs_replayed: u64,
    disk_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// End a wire rung: close the connections, stop the server, drain the
/// runtime. Returns the jobs that missed the oracle and the final stats.
fn stop(conns: Vec<Conn>, server: Server, rt: Arc<Runtime>) -> Result<(u64, RuntimeStats), String> {
    let failed = conns.iter().map(|c| c.failed).sum();
    drop(conns);
    server.shutdown();
    let rt = Arc::try_unwrap(rt).map_err(|_| "server still holds the runtime")?;
    rt.flush().map_err(|e| e.to_string())?;
    Ok((failed, rt.shutdown()))
}

/// A wire rung: the runtime behind `Server` on a loopback port, driven
/// by the same client loop the end-to-end run uses. With `traced`, also
/// the paced depth-1 tail, telemetry, store timers, and a recovery of
/// what the rung left on disk.
fn wire(
    spec: &Spec,
    dir: Option<&Path>,
    plans: &[ConnPlan],
    (prefill, sat, tail): (usize, usize, usize),
    traced: bool,
    epoch: Instant,
) -> Result<(Rung, Option<Traced>), String> {
    let timers = Arc::new(StoreTimers::default());
    let wrap = traced.then(|| {
        let timers = Arc::clone(&timers);
        StoreWrap::new(move |_, inner| {
            Box::new(TimedStore {
                inner,
                timers: Arc::clone(&timers),
            })
        })
    });
    let layers = Layers {
        store: dir,
        cap: true,
        telemetry: traced,
        wrap,
    };
    let rt = Arc::new(spec.recover(&layers)?.0);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&rt), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::new();
    for plan in plans {
        let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        conns.push(Conn::new(client, plan.clone()));
    }
    on_each(&mut conns, |_, c| c.pipelined(prefill))?;
    let ((), wall_s, cpu_s) = timed(|| on_each(&mut conns, |_, c| c.pipelined(sat)).map(|_| ()))?;
    let rung = Rung {
        wall_s,
        cpu_s,
        jobs: (sat * CONNS) as u64,
        events: conns
            .iter()
            .flat_map(|c| &c.seen[prefill..])
            .map(|s| s.events)
            .sum(),
        failed: 0,
    };
    if !traced {
        let (failed, _) = stop(conns, server, rt)?;
        return Ok((Rung { failed, ..rung }, None));
    }

    let before_tail = rt.telemetry().snapshot();
    let (interval, offset) = paced_schedule(spec);
    let start = Instant::now();
    let tail_jobs = on_each(&mut conns, |i, c| c.paced(tail, start, offset(i), interval))?;
    let after_tail = rt.telemetry().snapshot();
    let (failed, stats) = stop(conns, server, rt)?;
    // what the rung left on disk: its size, and how long it takes to
    // come back from it
    let (mut disk_bytes, mut recover_s, mut jobs_replayed) = (0, 0.0, 0);
    if let Some(dir) = dir.filter(|_| spec.durable) {
        disk_bytes = dir_bytes(dir);
        let started = Instant::now();
        let (rt, report) = spec.recover(&Layers {
            store: Some(dir),
            cap: true,
            ..Layers::default()
        })?;
        recover_s = started.elapsed().as_secs_f64();
        jobs_replayed = report.jobs_replayed;
        drop(rt);
    }
    Ok((
        Rung { failed, ..rung },
        Some(Traced {
            timers,
            before_tail,
            after_tail,
            tail: tail_jobs,
            tail_start_us: (start - epoch).as_secs_f64() * 1e6,
            stats,
            recover_s,
            jobs_replayed,
            disk_bytes,
        }),
    ))
}

/// Estimated total nanoseconds in a log₂ histogram's growth from
/// `before` to `after`: each bucket `[2^i, 2^(i+1))` counted at its
/// midpoint. Coarse by construction.
fn hist_total_ns(before: Option<&HistSnapshot>, after: &HistSnapshot) -> f64 {
    after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let was = before.map_or(0, |b| b.buckets[i]);
            (n - was.min(n)) as f64 * bucket_floor(i).max(1) as f64 * 1.5
        })
        .sum()
}

/// Stages a depth-1 job passes through one after another, server side.
const SERIAL_STAGES: [&str; 8] = [
    "net_frame_decode",
    "net_handler",
    "queue_wait",
    "append",
    "execute",
    "commit",
    "reply",
    "rehydrate",
];

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    job: Option<u64>,
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let items = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name.clone())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("job", s.job.map_or(Json::Null, |j| Json::Num(j as f64))),
            ])
        })
        .collect();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, Json::Arr(items).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, build_dir: &Path) -> Result<Outcome, String> {
    let full = Txns::for_seconds(spec, seconds);
    let share = |txns: usize| ((txns as f64 * LADDER_SHARE).ceil() as usize).max(1);
    let txns = Txns {
        prefill: full.prefill,
        sat: share(full.sat + full.paced),
        paced: share(full.paced),
    };
    let counts = txns.jobs(spec);
    let (prefill, sat, tail) = counts;
    let epoch = Instant::now();
    let mut spans: Vec<Span> = Vec::new();
    let mut rung_span = |name: &str, wall_s: f64| {
        let end_us = epoch.elapsed().as_secs_f64() * 1e6;
        spans.push(Span {
            name: format!("rung.{name}"),
            start_us: end_us - wall_s * 1e6,
            end_us,
            parent: None,
            job: None,
        });
    };

    // rung `engine`: the oracle, every tenant, one thread
    let generator_needs = match spec.shape {
        Shape::Stock { .. } => Sample::All,
        Shape::External { .. } => Sample::Nothing,
    };
    let (generated, _) = plan(spec, seed, txns, generator_needs);
    let streams: Vec<_> = generated.into_iter().map(|p| p.jobs).collect();
    let mut oracle = Oracle::new(spec, Sample::All);
    let mut expect: Vec<Vec<Expect>> = streams.iter().map(|s| oracle.feed(&s[..prefill])).collect();
    let ((), wall_s, cpu_s) = timed(|| {
        for (s, e) in streams.iter().zip(&mut expect) {
            e.extend(oracle.feed(&s[prefill..prefill + sat]));
        }
        Ok(())
    })?;
    for (s, e) in streams.iter().zip(&mut expect) {
        e.extend(oracle.feed(&s[prefill + sat..]));
    }
    drop(oracle);
    let plans: Vec<ConnPlan> = streams
        .into_iter()
        .zip(expect)
        .map(|(jobs, expect)| ConnPlan { jobs, expect })
        .collect();
    let engine = Rung {
        wall_s,
        cpu_s,
        jobs: (sat * CONNS) as u64,
        events: plans
            .iter()
            .flat_map(|p| &p.expect[prefill..prefill + sat])
            .map(|e| e.events)
            .sum(),
        failed: 0,
    };
    rung_span("engine", engine.wall_s);

    // a layer the workload does not configure would repeat the rung
    // below it: its numbers are carried up instead
    let fresh_dir = |label: &str| DataDir::create(build_dir, label);
    let (runtime_rung, runtime_stats) = in_process(spec, &Layers::default(), &plans, prefill, sat)?;
    rung_span("runtime", runtime_rung.wall_s);
    let store_rung = if spec.durable {
        let dir = fresh_dir("store")?;
        let layers = Layers {
            store: Some(&dir.0),
            ..Layers::default()
        };
        let (rung, _) = in_process(spec, &layers, &plans, prefill, sat)?;
        rung_span("store", rung.wall_s);
        rung
    } else {
        runtime_rung.clone()
    };
    let cap_rung = if spec.max_resident.is_some() {
        let dir = fresh_dir("cap")?;
        let layers = Layers {
            store: Some(&dir.0),
            cap: true,
            ..Layers::default()
        };
        let (rung, _) = in_process(spec, &layers, &plans, prefill, sat)?;
        rung_span("cap", rung.wall_s);
        rung
    } else {
        store_rung.clone()
    };
    let dir = fresh_dir("wire")?;
    let (wire_rung, _) = wire(spec, Some(&dir.0), &plans, counts, false, epoch)?;
    rung_span("wire", wire_rung.wall_s);
    let dir = fresh_dir("wire_traced")?;
    let (traced_rung, traced) = wire(spec, Some(&dir.0), &plans, counts, true, epoch)?;
    rung_span("wire_traced", traced_rung.wall_s);
    drop(dir);
    let t = traced.expect("the traced rung collects its extras");

    // spans of the paced tail: one `job` per job, its send and its wait
    for (conn, paced) in t.tail.iter().enumerate() {
        for (k, j) in paced.jobs.iter().enumerate() {
            let id = (conn as u64) << 32 | k as u64;
            let at = |us: f64| t.tail_start_us + us;
            let parent = spans.len();
            spans.push(Span {
                name: "job".into(),
                start_us: at(j.due_us),
                end_us: at(j.done_us),
                parent: None,
                job: Some(id),
            });
            spans.push(Span {
                name: "client.send".into(),
                start_us: at(j.sent_us),
                end_us: at(j.flushed_us),
                parent: Some(parent),
                job: Some(id),
            });
            spans.push(Span {
                name: "client.wait".into(),
                start_us: at(j.flushed_us),
                end_us: at(j.done_us),
                parent: Some(parent),
                job: Some(id),
            });
        }
    }
    write_spans(
        &build_dir.join(format!("bench-trace/{}.json", spec.name)),
        &spans,
    )?;

    let (interval, _) = paced_schedule(spec);
    let tail_seen = PacedSummary::of(&t.tail, interval);
    let tail_rtt_ns: f64 = t
        .tail
        .iter()
        .flat_map(|c| &c.jobs)
        .map(|j| (j.done_us - j.sent_us) * 1e3)
        .sum();
    let staged_ns: f64 = SERIAL_STAGES
        .iter()
        .filter_map(|name| {
            Some(hist_total_ns(
                t.before_tail.hist(name),
                t.after_tail.hist(name)?,
            ))
        })
        .sum();
    let hist_us = |name: &str, q: f64| {
        t.after_tail
            .hist(name)
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let all_jobs = ((prefill + sat + tail) * CONNS) as f64;
    let all_events: u64 = plans.iter().flat_map(|p| &p.expect).map(|e| e.events).sum();
    let wire_bytes: usize = plans
        .iter()
        .flat_map(|p| p.jobs.iter().zip(&p.expect))
        .map(|((tenant, job), e)| {
            let request = Request::SubmitBlock {
                tenant: *tenant,
                job: job.clone(),
            };
            let (considerations, executions) = e.rules.unwrap_or_default();
            let response = Response::JobDone {
                job: 0,
                tenant: *tenant,
                outcome: WireOutcome::Done {
                    events: e.events,
                    considerations,
                    executions,
                },
            };
            // each frame carries a 4-byte length prefix
            request.encode().len() + response.encode().len() + 8
        })
        .sum();
    let support = runtime_stats.support;
    let s = &t.stats;
    let batches = t.after_tail.counter("batches_claimed").unwrap_or(0) as f64;
    let self_cpu = |upper: &Rung, lower: &Rung| upper.cpu_us_per_job() - lower.cpu_us_per_job();

    let metrics = vec![
        ("ladder.engine.events_per_s", engine.events_per_s(), "1/s"),
        (
            "ladder.runtime.events_per_s",
            runtime_rung.events_per_s(),
            "1/s",
        ),
        (
            "ladder.store.events_per_s",
            store_rung.events_per_s(),
            "1/s",
        ),
        ("ladder.cap.events_per_s", cap_rung.events_per_s(), "1/s"),
        ("ladder.wire.events_per_s", wire_rung.events_per_s(), "1/s"),
        (
            "ladder.wire_traced.events_per_s",
            traced_rung.events_per_s(),
            "1/s",
        ),
        (
            "ladder.runtime.cpu_us_per_job",
            runtime_rung.cpu_us_per_job(),
            "us",
        ),
        (
            "ladder.store.cpu_us_per_job",
            store_rung.cpu_us_per_job(),
            "us",
        ),
        ("ladder.cap.cpu_us_per_job", cap_rung.cpu_us_per_job(), "us"),
        (
            "ladder.wire.cpu_us_per_job",
            wire_rung.cpu_us_per_job(),
            "us",
        ),
        (
            "ladder.wire_traced.cpu_us_per_job",
            traced_rung.cpu_us_per_job(),
            "us",
        ),
        ("exec.cpu_us_per_job", engine.cpu_us_per_job(), "us"),
        ("exec.execute_p50_us", hist_us("execute", 0.50), "us"),
        ("exec.execute_p99_us", hist_us("execute", 0.99), "us"),
        (
            "exec.considerations",
            runtime_stats.engine.considerations as f64,
            "count",
        ),
        (
            "exec.executions",
            runtime_stats.engine.executions as f64,
            "count",
        ),
        (
            "events.appended",
            runtime_stats.engine.events as f64,
            "count",
        ),
        ("rules.rules_checked", support.rules_checked as f64, "count"),
        (
            "rules.filter_skip_share",
            ratio(
                support.skipped_by_filter as f64,
                support.rules_checked as f64,
            ),
            "share",
        ),
        (
            "rules.probe_memo_hit_share",
            ratio(
                support.probe_memo_hits as f64,
                (support.ts_probes + support.probe_memo_hits) as f64,
            ),
            "share",
        ),
        ("calculus.ts_probes", support.ts_probes as f64, "count"),
        (
            "calculus.probes_per_event",
            ratio(support.ts_probes as f64, runtime_stats.engine.events as f64),
            "count",
        ),
        (
            "runtime.self_cpu_us_per_job",
            self_cpu(&runtime_rung, &engine),
            "us",
        ),
        (
            "runtime.queue_wait_p50_us",
            hist_us("queue_wait", 0.50),
            "us",
        ),
        (
            "runtime.queue_wait_p99_us",
            hist_us("queue_wait", 0.99),
            "us",
        ),
        ("runtime.reply_p50_us", hist_us("reply", 0.50), "us"),
        ("runtime.batches", batches, "count"),
        ("runtime.jobs_per_batch", ratio(all_jobs, batches), "count"),
        ("runtime.steals", s.steals as f64, "count"),
        (
            "net.self_cpu_us_per_job",
            self_cpu(&wire_rung, &cap_rung),
            "us",
        ),
        (
            "net.frame_decode_p50_us",
            hist_us("net_frame_decode", 0.50),
            "us",
        ),
        ("net.bytes_per_job", wire_bytes as f64 / all_jobs, "B"),
        ("client.send_p50_us", tail_seen.send_p50_us, "us"),
        ("client.wait_p50_us", tail_seen.wait_p50_us, "us"),
        (
            "persist.self_cpu_us_per_job",
            self_cpu(&store_rung, &runtime_rung),
            "us",
        ),
        (
            "persist.append_busy_us_per_job",
            t.timers.append.us() / all_jobs,
            "us",
        ),
        (
            "persist.commit_busy_us_per_job",
            t.timers.commit.us() / all_jobs,
            "us",
        ),
        ("persist.commit_p50_us", hist_us("commit", 0.50), "us"),
        ("persist.commit_p99_us", hist_us("commit", 0.99), "us"),
        ("persist.wal_syncs", s.wal_syncs as f64, "count"),
        (
            "persist.jobs_per_sync",
            ratio(s.wal_appends as f64, s.wal_syncs as f64),
            "count",
        ),
        (
            "persist.disk_bytes_per_event",
            t.disk_bytes as f64 / all_events as f64,
            "B",
        ),
        ("persist.snapshots", s.snapshots as f64, "count"),
        (
            "persist.snapshot_busy_ms",
            t.timers.snapshot.us() / 1e3,
            "ms",
        ),
        ("persist.recover_s", t.recover_s, "s"),
        ("persist.jobs_replayed", t.jobs_replayed as f64, "count"),
        (
            "lifecycle.self_cpu_us_per_job",
            self_cpu(&cap_rung, &store_rung),
            "us",
        ),
        ("lifecycle.evictions", s.evictions as f64, "count"),
        ("lifecycle.rehydrations", s.rehydrations as f64, "count"),
        (
            "lifecycle.resident_claim_share",
            1.0 - ratio(s.rehydrations as f64, batches),
            "share",
        ),
        (
            "lifecycle.rehydrate_p50_us",
            hist_us("rehydrate", 0.50),
            "us",
        ),
        (
            "lifecycle.rehydrate_p99_us",
            hist_us("rehydrate", 0.99),
            "us",
        ),
        (
            "lifecycle.evict_busy_us_per_job",
            t.timers.evict.us() / all_jobs,
            "us",
        ),
        (
            "lifecycle.tenants_resident",
            s.tenants_resident as f64,
            "count",
        ),
        (
            "telemetry.overhead_share",
            1.0 - traced_rung.events_per_s() / wire_rung.events_per_s(),
            "share",
        ),
        (
            "trace.unattributed_share",
            1.0 - ratio(staged_ns, tail_rtt_ns),
            "share",
        ),
        ("client.rtt_p99_us", quantile(&tail_seen.rtt_us, 0.99), "us"),
        ("client.gen_lag_p99_us", tail_seen.gen_lag_p99_us, "us"),
        (
            "client.paced_achieved_share",
            tail_seen.achieved_share,
            "share",
        ),
        ("client.cpu_share", tail_seen.cpu_share, "share"),
    ];

    let rungs = [
        &engine,
        &runtime_rung,
        &store_rung,
        &cap_rung,
        &wire_rung,
        &traced_rung,
    ];
    let failed: u64 = rungs.iter().map(|r| r.failed).sum();
    // every rung that ran submitted prefill + sat; the last also the tail
    let ran = 3 + usize::from(spec.durable) + usize::from(spec.max_resident.is_some());
    let attempted = (((prefill + sat) * ran + tail) * CONNS) as u64;
    let accounted = s.jobs_processed == s.jobs_submitted && s.job_errors + s.job_panics == 0;
    let details = Json::obj([
        (
            "jobs_per_connection",
            Json::obj([
                ("prefill", Json::Num(prefill as f64)),
                ("closed_loop", Json::Num(sat as f64)),
                ("paced_tail", Json::Num(tail as f64)),
            ]),
        ),
        ("paced_jobs_per_s", Json::Num(spec.paced_jobs_per_s)),
        (
            "samples",
            Json::obj([
                ("paced_tail_rtt", Json::Num(tail_seen.rtt_us.len() as f64)),
                (
                    "execute",
                    Json::Num(t.after_tail.hist("execute").map_or(0, HistSnapshot::count) as f64),
                ),
                (
                    "commit",
                    Json::Num(t.after_tail.hist("commit").map_or(0, HistSnapshot::count) as f64),
                ),
                (
                    "rehydrate",
                    Json::Num(
                        t.after_tail
                            .hist("rehydrate")
                            .map_or(0, HistSnapshot::count) as f64,
                    ),
                ),
            ]),
        ),
        (
            "client.rtt_p50_us",
            Json::Num(quantile(&tail_seen.rtt_us, 0.50)),
        ),
        (
            "runtime.submits_blocked",
            Json::Num(s.submits_blocked as f64),
        ),
        ("persist.store_retries", Json::Num(s.store_retries as f64)),
        ("server_accounting_closed", Json::Bool(accounted)),
        ("ladder_s", Json::Num(epoch.elapsed().as_secs_f64())),
    ]);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: failed == 0 && accounted,
        details,
    })
}
