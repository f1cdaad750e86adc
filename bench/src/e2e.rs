//! The end-to-end run: `stackbench serve` children driven over two TCP
//! connections by two load-generator threads, using only the public
//! client API.
//!
//! Per server instance: `setup` (spawn, recover, connect, untimed
//! prefill) → `sat` (closed loop, both connections pipelining to the
//! client's 32-job window) → `paced` (open loop, depth 1, each job timed
//! from the instant it was due) → verify against the oracle and the
//! server's own accounting → on durable workloads, SIGKILL, recover, and
//! compare what came back with what was acknowledged.

use crate::json::Json;
use crate::proc;
use crate::stats::{median, quantile};
use crate::workload::{plan, ConnPlan, Expect, Sample, Spec, Txns, CONNS};
use chimera_net::{Client, JobDone, NetError, TenantQuery, TenantReply, WireJob, WireOutcome};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tenants checked after kill-and-recover (all of them when fewer).
const RECOVER_SAMPLE: usize = 64;

/// A live `stackbench serve` child. Dropping it kills and reaps it, so
/// no exit path of the load generator leaves a server behind.
pub struct Server {
    child: std::process::Child,
    pub port: u16,
    /// `Runtime::recover` time and replayed jobs, as the child reported.
    pub recover_s: f64,
    pub jobs_replayed: u64,
}

impl Server {
    pub fn spawn(spec: &Spec, dir: Option<&Path>) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--workload", spec.name]);
        if let Some(dir) = dir {
            cmd.arg("--dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        let mut server = Server {
            child,
            port: 0,
            recover_s: 0.0,
            jobs_replayed: 0,
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            ["READY", port, recover_s, _tenants, replayed] => {
                server.port = port.parse().map_err(|_| "bad port")?;
                server.recover_s = recover_s.parse().map_err(|_| "bad recover_s")?;
                server.jobs_replayed = replayed.parse().map_err(|_| "bad jobs_replayed")?;
                Ok(server)
            }
            _ => Err(format!("server did not come up: {line:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(("127.0.0.1", self.port)).map_err(|e| format!("connect: {e}"))
    }

    /// The clean stop: a wire `Shutdown` (which flushes the runtime),
    /// and once it is acknowledged, end of input, on which the child
    /// exits. Waits for the process to end.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self.child.stdin.take());
        match self.child.wait() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("server exited with {status}")),
            Err(e) => Err(format!("wait: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // SIGKILL; a child that already exited makes both calls no-ops
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch data directory under the build directory, removed on drop.
///
/// Every one is a new subdirectory of `<build>/bench-data`, which
/// carries ext's `T` attribute ("top of a directory hierarchy"): the
/// allocator then puts each subdirectory, and so every file a server
/// makes in it, in a block group of its own instead of next to its
/// parent. Without that, all data directories of all runs share one
/// block group, and on the reference host's ext4 (no journal) a file
/// creation there scans past every inode the group freed in the last
/// minutes: `tenant_churn`, which makes and removes a file per eviction,
/// paid 8 µs of kernel time per creation after a pause and 200 µs after
/// half a minute of runs, so a run measured what had run before it.
/// Where the attribute cannot be set the directories are plain ones.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn create(root: &Path, label: &str) -> Result<DataDir, String> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let parent = root.join("bench-data");
        std::fs::create_dir_all(&parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        let _ = Command::new("chattr")
            .arg("+T")
            .arg(&parent)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        // the name decides the block group: one per directory ever made
        let dir = parent.join(format!(
            "{}-{}-{label}",
            std::process::id(),
            CREATED.fetch_add(1, Ordering::Relaxed)
        ));
        // what a killed run with this process id may have left
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One completion as the load generator saw it.
#[derive(Clone, Copy)]
pub struct Seen {
    pub at: Instant,
    pub events: u64,
    pub considerations: u64,
    pub executions: u64,
}

/// One connection: its client, the rest of its job stream, and
/// everything it has seen come back (in submission order — the protocol
/// answers in request order).
pub struct Conn {
    pub client: Client,
    jobs: std::vec::IntoIter<(u64, WireJob)>,
    tenants: Vec<u64>,
    expect: Vec<Expect>,
    pub seen: Vec<Seen>,
    pub failed: u64,
}

impl Conn {
    pub fn new(client: Client, plan: ConnPlan) -> Conn {
        Conn {
            client,
            tenants: plan.jobs.iter().map(|(t, _)| *t).collect(),
            jobs: plan.jobs.into_iter(),
            expect: plan.expect,
            seen: Vec::new(),
            failed: 0,
        }
    }

    fn record(&mut self, done: JobDone) {
        let k = self.seen.len();
        if !self.expect[k].matches(&done.outcome) || done.tenant != self.tenants[k] {
            self.failed += 1;
        }
        let (events, considerations, executions) = match done.outcome {
            WireOutcome::Done {
                events,
                considerations,
                executions,
            } => (events, considerations, executions),
            _ => (0, 0, 0),
        };
        self.seen.push(Seen {
            at: Instant::now(),
            events,
            considerations,
            executions,
        });
    }

    /// Closed loop over the next `n` jobs: pipeline to the client's own
    /// window, then drain.
    pub fn pipelined(&mut self, n: usize) -> Result<(), NetError> {
        for _ in 0..n {
            let (tenant, job) = self.jobs.next().expect("plan covers every phase");
            if let Some(done) = self.client.submit(tenant, job)? {
                self.record(done);
            }
        }
        while self.client.outstanding() > 0 {
            let done = self.client.recv_job_done()?;
            self.record(done);
        }
        Ok(())
    }

    /// Open loop, depth 1: job `k` is due at `start + offset + k ×
    /// interval` whether or not the server kept up, and its round trip is
    /// counted from that instant.
    pub fn paced(
        &mut self,
        n: usize,
        start: Instant,
        offset: Duration,
        interval: Duration,
    ) -> Result<PacedConn, NetError> {
        let mut out = Vec::with_capacity(n);
        let us = |at: Instant| (at - start).as_secs_f64() * 1e6;
        let cpu0 = proc::thread_cpu_seconds();
        for k in 0..n {
            let due = start + offset + interval * k as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (tenant, job) = self.jobs.next().expect("plan covers every phase");
            let sent = Instant::now();
            let early = self.client.submit(tenant, job)?;
            debug_assert!(early.is_none(), "depth 1 never fills the window");
            let flushed = Instant::now();
            let done = self.client.recv_job_done()?;
            self.record(done);
            out.push(PacedJob {
                due_us: us(due),
                sent_us: us(sent),
                flushed_us: us(flushed),
                done_us: us(self.seen.last().expect("just recorded").at),
            });
        }
        Ok(PacedConn {
            jobs: out,
            cpu_s: proc::thread_cpu_seconds() - cpu0,
        })
    }
}

/// One connection's paced phase.
pub struct PacedConn {
    pub jobs: Vec<PacedJob>,
    /// CPU time of the generator thread over the phase.
    pub cpu_s: f64,
}

/// One paced job's instants, in microseconds since the phase started.
#[derive(Clone, Copy)]
pub struct PacedJob {
    pub due_us: f64,
    /// The generator got to it (≥ due: sleep overshoot, or a backlog).
    pub sent_us: f64,
    /// The request was encoded, written and flushed.
    pub flushed_us: f64,
    /// Its `JobDone` was read and decoded.
    pub done_us: f64,
}

/// The paced phase as the client saw it.
pub struct PacedSummary {
    /// Due → done, ascending.
    pub rtt_us: Vec<f64>,
    pub gen_lag_p99_us: f64,
    pub send_p50_us: f64,
    pub wait_p50_us: f64,
    /// Achieved ÷ offered rate, of the slower connection.
    pub achieved_share: f64,
    /// Generator threads' CPU time ÷ their wall time.
    pub cpu_share: f64,
}

impl PacedSummary {
    pub fn of(conns: &[PacedConn], interval: Duration) -> PacedSummary {
        let sorted = |f: &dyn Fn(&PacedJob) -> f64| {
            let mut v: Vec<f64> = conns.iter().flat_map(|c| &c.jobs).map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let spans: Vec<(f64, f64, f64)> = conns
            .iter()
            .filter_map(|c| {
                let (first, last) = (c.jobs.first()?, c.jobs.last()?);
                // the schedule spans n intervals; the generator kept it if its
                // last send was on time (how long that job then took is
                // the round trip's business, not the rate's)
                let interval_us = interval.as_secs_f64() * 1e6;
                let offered_us = c.jobs.len() as f64 * interval_us;
                let took_us = last.sent_us - first.due_us + interval_us;
                Some((offered_us, took_us, c.cpu_s))
            })
            .collect();
        let achieved_share = spans
            .iter()
            .map(|&(offered_us, took_us, _)| (offered_us / took_us).min(1.0))
            .fold(1.0, f64::min);
        let cpu_share =
            spans.iter().map(|s| s.2 * 1e6).sum::<f64>() / spans.iter().map(|s| s.1).sum::<f64>();
        PacedSummary {
            rtt_us: sorted(&|j| j.done_us - j.due_us),
            gen_lag_p99_us: quantile(&sorted(&|j| j.sent_us - j.due_us), 0.99),
            send_p50_us: quantile(&sorted(&|j| j.flushed_us - j.sent_us), 0.50),
            wait_p50_us: quantile(&sorted(&|j| j.done_us - j.flushed_us), 0.50),
            achieved_share,
            cpu_share,
        }
    }
}

/// The paced schedule of a workload: the interval between one
/// connection's jobs, and connection `i`'s offset into it.
pub fn paced_schedule(spec: &Spec) -> (Duration, impl Fn(usize) -> Duration) {
    let interval = Duration::from_secs_f64(CONNS as f64 / spec.paced_jobs_per_s);
    (interval, move |i| interval * i as u32 / CONNS as u32)
}

/// Run `f` on every connection at once, one thread each.
pub fn on_each<T: Send>(
    conns: &mut [Conn],
    f: impl Fn(usize, &mut Conn) -> Result<T, NetError> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let f = &f;
                scope.spawn(move || f(i, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "load-generator thread panicked".to_string())?
                    .map_err(|e| format!("connection failed: {e}"))
            })
            .collect()
    })
}

/// Everything one run produced.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Numbers that explain the metrics (sample counts, client health,
    /// recovery) for the result record.
    pub details: Json,
}

/// What one server instance measured.
struct Instance {
    setup_s: f64,
    sat_s: f64,
    sat_events: u64,
    events_per_s: f64,
    cpu_us_per_event: f64,
    /// The part of `cpu_us_per_event` spent in the kernel.
    sys_us_per_event: f64,
    peak_rss_mb: f64,
    paced: Vec<PacedConn>,
    attempted: u64,
    failed: u64,
    /// The server's accounting closed: every job submitted was
    /// processed, none errored or panicked.
    accounted: bool,
    /// `(recover_s, jobs_replayed, tenants checked, tenants lost)`.
    recovered: Option<(f64, u64, u64, u64)>,
}

/// One instance: a fresh server on a fresh data directory, taken
/// through set-up, `sat`, `paced`, verification and (durable workloads)
/// kill-and-recover.
fn instance(
    spec: &Spec,
    seed: u64,
    plans: Vec<ConnPlan>,
    txns: Txns,
    build_dir: &Path,
) -> Result<Instance, String> {
    let (prefill, sat, paced) = txns.jobs(spec);
    let dir = DataDir::create(build_dir, "run")?;
    let data_dir = spec.durable.then_some(dir.0.as_path());

    // set-up: spawn → recover → connect → untimed prefill
    let started = Instant::now();
    let mut server = Server::spawn(spec, data_dir)?;
    let mut conns = Vec::new();
    for plan in plans {
        conns.push(Conn::new(server.connect()?, plan));
    }
    on_each(&mut conns, |_, c| c.pipelined(prefill))?;
    let setup_s = started.elapsed().as_secs_f64();

    // sat: the rate while both connections were still submitting
    let (user0, sys0) = proc::cpu_user_sys(server.pid())?;
    let sat_start = Instant::now();
    on_each(&mut conns, |_, c| c.pipelined(sat))?;
    let sat_s = sat_start.elapsed().as_secs_f64();
    let (user1, sys1) = proc::cpu_user_sys(server.pid())?;
    let both_busy_until = conns
        .iter()
        .filter_map(|c| c.seen.last().map(|s| s.at))
        .min()
        .ok_or("no connections")?;
    let sat_seen = || conns.iter().flat_map(|c| &c.seen[prefill..]);
    let sat_events: u64 = sat_seen().map(|s| s.events).sum();
    let busy_events: u64 = sat_seen()
        .filter(|s| s.at <= both_busy_until)
        .map(|s| s.events)
        .sum();

    // paced
    let (interval, offset) = paced_schedule(spec);
    let paced_start = Instant::now();
    let paced_conns = on_each(&mut conns, |i, c| {
        c.paced(paced, paced_start, offset(i), interval)
    })?;

    // verify: the oracle per job (counted as the jobs came back), then
    // the server's own accounting
    let mut failed: u64 = conns.iter().map(|c| c.failed).sum();
    let attempted: u64 = conns.iter().map(|c| c.seen.len() as u64).sum();
    // a worker answers its batch before it books the batch as processed;
    // the flush barrier closes that window so the counters are exact
    conns[0].client.flush().map_err(|e| format!("flush: {e}"))?;
    let stats = conns[0].client.stats().map_err(|e| format!("stats: {e}"))?;
    let accounted = stats.jobs_submitted == attempted
        && stats.jobs_processed == attempted
        && stats.job_errors + stats.job_panics == 0;
    let peak_rss_mb = proc::peak_rss_mb(server.pid())?;

    // what each tenant was told it had done
    let mut acked: HashMap<u64, [u64; 3]> = HashMap::new();
    for c in &conns {
        for (k, s) in c.seen.iter().enumerate() {
            let t = acked.entry(c.tenants[k]).or_default();
            t[0] += s.events;
            t[1] += s.considerations;
            t[2] += s.executions;
        }
    }

    // kill-and-recover: what comes back must be what was acknowledged
    let mut recovered = None;
    let mut control = conns.swap_remove(0).client;
    drop(conns);
    if let Some(data_dir) = data_dir {
        drop(control);
        drop(server); // SIGKILL, reaped
        server = Server::spawn(spec, Some(data_dir))?;
        control = server.connect()?;
        let mut tenants: Vec<u64> = acked.keys().copied().collect();
        tenants.sort_unstable();
        let stride = (tenants.len() / RECOVER_SAMPLE).max(1);
        let sample = tenants.iter().skip(seed as usize % stride).step_by(stride);
        let (mut checked, mut lost) = (0u64, 0u64);
        for tenant in sample {
            let want = acked[tenant];
            let stats = control.tenant_query(*tenant, TenantQuery::EngineStats);
            let log = control.tenant_query(*tenant, TenantQuery::EventLogLen);
            let same = matches!(
                (stats, log),
                (
                    Ok(TenantReply::EngineStats { events, considerations, executions, .. }),
                    Ok(TenantReply::EventLogLen(len)),
                ) if [events, considerations, executions, len] == [want[0], want[1], want[2], want[0]]
            );
            checked += 1;
            lost += u64::from(!same);
        }
        failed += lost;
        recovered = Some((server.recover_s, server.jobs_replayed, checked, lost));
    }
    server.shutdown(&mut control)?;

    Ok(Instance {
        setup_s,
        sat_s,
        sat_events,
        events_per_s: busy_events as f64 / (both_busy_until - sat_start).as_secs_f64(),
        cpu_us_per_event: (user1 - user0 + sys1 - sys0) * 1e6 / sat_events as f64,
        sys_us_per_event: (sys1 - sys0) * 1e6 / sat_events as f64,
        peak_rss_mb,
        paced: paced_conns,
        attempted,
        failed,
        accounted,
        recovered,
    })
}

/// The end-to-end run: `instances` servers one after another, each on
/// its own seeded stream and `seconds / instances` of measurement; every
/// metric is the median over the instances (the round-trip percentiles
/// pool the instances' samples). A server process carries its own
/// hash seeds, memory layout and thread placement, which move its speed
/// by several percent for its whole life; only more processes average
/// that out.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    instances: usize,
    build_dir: &Path,
) -> Result<Outcome, String> {
    let txns = Txns::for_seconds(spec, seconds / instances as f64);
    let (prefill, sat, paced) = txns.jobs(spec);
    let plan_started = Instant::now();
    let all_plans: Vec<Vec<ConnPlan>> = (0..instances as u64)
        .map(|i| {
            let stream_seed = seed.wrapping_mul(1009).wrapping_add(i);
            plan(spec, stream_seed, txns, Sample::Seeded(stream_seed)).0
        })
        .collect();
    let plan_s = plan_started.elapsed().as_secs_f64();

    let mut done = Vec::new();
    for plans in all_plans {
        done.push(instance(spec, seed, plans, txns, build_dir)?);
    }
    let (interval, _) = paced_schedule(spec);
    let paced_conns: Vec<PacedConn> = done.iter_mut().flat_map(|d| d.paced.drain(..)).collect();
    let paced_seen = PacedSummary::of(&paced_conns, interval);
    let over = |f: &dyn Fn(&Instance) -> f64| done.iter().map(f).collect::<Vec<f64>>();
    let attempted: u64 = done.iter().map(|d| d.attempted).sum();
    let failed: u64 = done.iter().map(|d| d.failed).sum();
    let accounted = done.iter().all(|d| d.accounted);
    let recovered: Vec<(f64, u64, u64, u64)> = done.iter().filter_map(|d| d.recovered).collect();

    let metrics = vec![
        ("events_per_s", median(&over(&|d| d.events_per_s)), "1/s"),
        ("rtt_p50_us", quantile(&paced_seen.rtt_us, 0.50), "us"),
        (
            "server_cpu_us_per_event",
            median(&over(&|d| d.cpu_us_per_event)),
            "us",
        ),
        ("peak_rss_mb", median(&over(&|d| d.peak_rss_mb)), "MB"),
        ("setup_s", median(&over(&|d| d.setup_s)), "s"),
    ];
    let nums = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::Num).collect());
    let details = Json::obj([
        ("instances", Json::Num(instances as f64)),
        (
            "jobs_per_connection_per_instance",
            Json::obj([
                ("prefill", Json::Num(prefill as f64)),
                ("sat", Json::Num(sat as f64)),
                ("paced", Json::Num(paced as f64)),
            ]),
        ),
        ("paced_jobs_per_s", Json::Num(spec.paced_jobs_per_s)),
        (
            "samples",
            Json::obj([
                ("events_per_s", Json::Num(instances as f64)),
                ("server_cpu_us_per_event", Json::Num(instances as f64)),
                ("peak_rss_mb", Json::Num(instances as f64)),
                ("setup_s", Json::Num(instances as f64)),
                ("rtt_us", Json::Num(paced_seen.rtt_us.len() as f64)),
            ]),
        ),
        ("instance_events_per_s", nums(over(&|d| d.events_per_s))),
        ("instance_setup_s", nums(over(&|d| d.setup_s))),
        (
            "instance_cpu_us_per_event",
            nums(over(&|d| d.cpu_us_per_event)),
        ),
        (
            "instance_sys_us_per_event",
            nums(over(&|d| d.sys_us_per_event)),
        ),
        ("instance_sat_s", nums(over(&|d| d.sat_s))),
        (
            "sat_jobs_per_s",
            Json::Num(median(&over(&|d| (sat * CONNS) as f64 / d.sat_s))),
        ),
        (
            "sat_events",
            Json::Num(done.iter().map(|d| d.sat_events).sum::<u64>() as f64),
        ),
        (
            "client.rtt_p99_us",
            Json::Num(quantile(&paced_seen.rtt_us, 0.99)),
        ),
        ("plan_s", Json::Num(plan_s)),
        ("server_accounting_closed", Json::Bool(accounted)),
        (
            "client.gen_lag_p99_us",
            Json::Num(paced_seen.gen_lag_p99_us),
        ),
        (
            "client.paced_achieved_share",
            Json::Num(paced_seen.achieved_share),
        ),
        ("client.cpu_share", Json::Num(paced_seen.cpu_share)),
        (
            "recover",
            Json::obj([
                (
                    "recover_s",
                    Json::Num(median(&recovered.iter().map(|r| r.0).collect::<Vec<_>>())),
                ),
                (
                    "jobs_replayed",
                    Json::Num(recovered.iter().map(|r| r.1).sum::<u64>() as f64),
                ),
                (
                    "tenants_checked",
                    Json::Num(recovered.iter().map(|r| r.2).sum::<u64>() as f64),
                ),
                (
                    "tenants_lost",
                    Json::Num(recovered.iter().map(|r| r.3).sum::<u64>() as f64),
                ),
            ]),
        ),
    ]);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: failed == 0 && accounted,
        details,
    })
}
