//! The media a [`Script`] reaches tenant engines through, beyond the
//! runtime's own configuration: in-process submission, TCP clients, a
//! storage wrapper that injects retryable faults, and a crash's torn job
//! log.

use crate::Script;
use chimera_chaos::{ChaosCounters, ChaosRates, ChaosStore, FaultPlan};
use chimera_exec::Op;
use chimera_net::{Client, ExternalEvent, WireJob, WireOp, WireOutcome};
use chimera_runtime::{Job, Runtime, StoreWrap, TenantId};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

/// Submit the script's steps to `rt` in order, then flush. With
/// `await_each`, every job's reply is awaited before the next submit; a
/// durable runtime releases a reply only after its group's fsync, so
/// every group in the log then holds exactly one job.
pub fn submit(rt: &Runtime, script: &Script, await_each: bool) {
    for (t, job) in &script.steps {
        if await_each {
            let (_, reply) = rt.submit_with_reply(TenantId(*t), job.clone()).unwrap();
            reply.recv().unwrap();
        } else {
            rt.submit(TenantId(*t), job.clone()).unwrap();
        }
    }
    rt.flush().unwrap();
}

/// Submit the script through `clients` concurrent TCP clients of the
/// server at `addr`. Client `c` owns the tenants `t` with
/// `t % clients == c` and sends their steps in script order; a trigger
/// definition travels as a synchronous `define_triggers` call. No client
/// ever flushes: draining completions is its only quiescence mechanism.
/// Panics unless every job was answered, in submission order, with
/// `Done` or an engine `Error`.
pub fn submit_over_wire(addr: SocketAddr, script: &Script, clients: usize) {
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client =
                    Client::connect_with(addr, &format!("feeder-{c}"), 1 << 20).unwrap();
                let (mut submitted, mut completions) = (0usize, Vec::new());
                for (t, job) in script
                    .steps
                    .iter()
                    .filter(|(t, _)| *t as usize % clients == c)
                {
                    match job {
                        // synchronous: reads outstanding completions into
                        // the client's buffer (collected by the final
                        // drain), then installs, in order
                        Job::DefineTriggerSource(src) => {
                            client.define_triggers(*t, src).unwrap();
                        }
                        job => {
                            completions.extend(client.submit(*t, wire_job(job)).unwrap());
                            submitted += 1;
                        }
                    }
                }
                completions.extend(client.drain().unwrap());
                assert_eq!(client.outstanding(), 0);
                assert_eq!(
                    completions.len(),
                    submitted,
                    "client {c}: a job went unanswered"
                );
                // job ids are monotone per connection
                let ids: Vec<u64> = completions.iter().map(|d| d.job).collect();
                assert!(ids.is_sorted(), "client {c}: completions out of order");
                for d in &completions {
                    assert!(
                        matches!(
                            d.outcome,
                            WireOutcome::Done { .. } | WireOutcome::Error { .. }
                        ),
                        "job {} got {:?}",
                        d.job,
                        d.outcome
                    );
                }
            });
        }
    });
}

/// The wire form of a job a [`Script`] draws.
fn wire_job(job: &Job) -> WireJob {
    let op = |op: &Op| match op {
        Op::Create { class, inits } => WireOp::Create {
            class: class.0,
            inits: inits.iter().map(|(a, v)| (a.0, v.clone())).collect(),
        },
        Op::Modify { oid, attr, value } => WireOp::Modify {
            oid: oid.0,
            attr: attr.0,
            value: value.clone(),
        },
        Op::Delete { oid } => WireOp::Delete { oid: oid.0 },
        other => unreachable!("scripts draw no {other:?}"),
    };
    match job {
        Job::Begin => WireJob::Begin,
        Job::ExecBlock(ops) => WireJob::ExecBlock(ops.iter().map(op).collect()),
        Job::RaiseExternal(evs) => WireJob::RaiseExternal(
            evs.iter()
                .map(|(class, channel, oid)| ExternalEvent {
                    class: class.0,
                    channel: *channel,
                    oid: oid.0,
                })
                .collect(),
        ),
        Job::Commit => WireJob::Commit,
        Job::Rollback => WireJob::Rollback,
        other => unreachable!("no wire form for {other:?}"),
    }
}

/// A store wrapper injecting a seeded schedule of aggressive but strictly
/// retryable faults into every shard's store: transient append, commit
/// and snapshot failures and the ambiguous torn commit, whose data
/// reached disk although the caller was told it did not. The counters
/// total what was injected.
pub fn transient_faults(seed: u64) -> (StoreWrap, Arc<ChaosCounters>) {
    // units of 1/10000
    let rates = ChaosRates {
        append_transient: 1500,
        commit_transient: 2000,
        commit_torn: 1500,
        snapshot_transient: 2000,
        evict_transient: 0,
    };
    let counters = Arc::new(ChaosCounters::default());
    let shared = Arc::clone(&counters);
    let wrap = StoreWrap::new(move |shard, store| {
        Box::new(ChaosStore::with_counters(
            store,
            FaultPlan::seeded(seed ^ shard as u64, rates),
            Arc::clone(&shared),
        ))
    });
    (wrap, counters)
}

/// The crash: truncate the job log `wal` at the fraction `cut_frac` of
/// its length, mid-record included, as a torn final write leaves it. A
/// shard that never logged has no file to cut.
pub fn crash(wal: &Path, cut_frac: f64) {
    if let Ok(bytes) = std::fs::read(wal) {
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(wal, &bytes[..cut.min(bytes.len())]).unwrap();
    }
}
