//! PERF-11 — what durable tenants cost under runtime traffic.
//!
//! This bench prices the sharded runtime with a per-shard
//! [`StateStore`] underneath the job loop, where a whole drained queue
//! batch rides one fsync (group commit). Three storage modes over the
//! same ingestion session:
//!
//! * `in_memory`   — PR-4 baseline, no store.
//! * `per_job`     — durable, `group_commit: false`: one sync per job
//!   group even when the queue drained many (the pathological policy).
//! * `group_commit` — durable, default policy: the drained batch is
//!   staged and fsynced once.
//!
//! Crossed with the block size (1 / 16 / 256 external events per
//! submitted job) so the sync cost is visible both where it dominates
//! (tiny jobs) and where it amortizes (big blocks). Submission is
//! fire-and-forget into a deep queue (`queue_capacity: 256`) with one
//! `flush` at the end — the shape group commit is designed for.
//!
//! The self-reported acceptance criterion (printed in measure mode):
//! at 256-event blocks, `group_commit` throughput must land within 5×
//! of `in_memory`. WAL directories live under the OS temp dir, which on
//! this host is a real (virtual) disk, not tmpfs — the durable path is
//! bandwidth-bound there (~100–200 MB/s effective with `fdatasync`),
//! which is exactly why the job log's binary record format matters:
//! bytes per event is the durable-throughput ratio. Single passes see
//! multi-ms fsync jitter, so the acceptance line times the best of
//! three passes per mode.

use chimera_events::EventType;
use chimera_model::{AttrDef, AttrType, ClassId, Oid, Schema, SchemaBuilder};
use chimera_runtime::{
    DurabilityConfig, Job, Runtime, RuntimeConfig, StorageMode, TenantId,
};
use chimera_rules::TriggerDef;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

fn measure_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class("item", None, vec![AttrDef::new("qty", AttrType::Integer)])
        .unwrap();
    b.build()
}

/// The house throughput workload (same rule shapes as `parallel.rs` /
/// `static_opt.rs`): 100 conjunction/precedence rules over 16
/// "rule-only" external channels. Durability cost is only meaningful
/// relative to real detection work — against an empty rule table the
/// in-memory baseline degenerates to a raw log append and any storage
/// layer looks arbitrarily expensive.
fn rules(schema: &Schema) -> Vec<TriggerDef> {
    use chimera_calculus::EventExpr;
    let item = schema.class_by_name("item").unwrap();
    let p = |n: u32| EventExpr::prim(EventType::external(item, n));
    (0..100usize)
        .map(|i| {
            let a = 1000 + (i as u32 % 16);
            let b = 1000 + ((i as u32 + 7) % 16);
            let expr = if i % 2 == 0 { p(a).and(p(b)) } else { p(a).prec(p(b)) };
            TriggerDef::new(format!("r{i}"), expr)
        })
        .collect()
}

fn storage(mode: &str, tag: &str) -> (StorageMode, Option<PathBuf>) {
    match mode {
        "in_memory" => (StorageMode::InMemory, None),
        _ => {
            let dir = std::env::temp_dir().join(format!(
                "chimera-bench-durability-{tag}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = DurabilityConfig::new(&dir);
            cfg.group_commit = mode == "group_commit";
            (StorageMode::Durable(cfg), Some(dir))
        }
    }
}

/// One ingestion session: 4 tenants × `blocks` jobs of `per_block`
/// external events each, fire-and-forget, one flush. Returns events fed.
fn run_session(
    schema: &Schema,
    defs: &[TriggerDef],
    mode: &str,
    tag: &str,
    per_block: usize,
    events_per_tenant: usize,
) -> u64 {
    const TENANTS: u64 = 4;
    let blocks = (events_per_tenant / per_block) as u64;
    let item = schema.class_by_name("item").unwrap();
    let (storage, dir) = storage(mode, tag);
    let rt = Runtime::new(
        schema.clone(),
        defs.to_vec(),
        RuntimeConfig {
            shards: 2,
            queue_capacity: 256,
            storage,
            ..Default::default()
        },
    )
    .unwrap();
    let mut k = 0x5EEDu64;
    for _ in 0..blocks {
        for t in 0..TENANTS {
            let events: Vec<(ClassId, u32, Oid)> = (0..per_block)
                .map(|_| {
                    k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // ~50% of events on channels the rules listen to
                    // (the static_opt mid relevance point)
                    let ch = if (k >> 33) % 100 < 50 {
                        1000 + ((k >> 13) % 16) as u32
                    } else {
                        ((k >> 13) % 16) as u32
                    };
                    (item, ch, Oid((k >> 7) % 32 + 1))
                })
                .collect();
            rt.submit(TenantId(t), Job::RaiseExternal(events)).unwrap();
        }
    }
    rt.flush().unwrap();
    let stats = rt.shutdown();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(stats.jobs_processed, blocks * TENANTS);
    blocks * TENANTS * per_block as u64
}

fn bench_durability(crit: &mut Criterion) {
    let schema = schema();
    let defs = rules(&schema);
    let mut group = crit.benchmark_group("durability");
    group.sample_size(10);
    for per_block in [1usize, 16, 256] {
        group.throughput(Throughput::Elements(8192));
        for mode in ["in_memory", "per_job", "group_commit"] {
            group.bench_with_input(
                BenchmarkId::new(mode, per_block),
                &per_block,
                |b, &n| {
                    b.iter(|| black_box(run_session(&schema, &defs, mode, "crit", n, 2048)))
                },
            );
        }
    }
    group.finish();
}

/// The acceptance line: durable group commit within 5× of in-memory at
/// 256-event blocks.
fn report_acceptance(c: &mut Criterion) {
    let _ = c;
    let schema = schema();
    let defs = rules(&schema);
    if !measure_mode() {
        // still cover the durable path once in test mode
        black_box(run_session(&schema, &defs, "group_commit", "smoke", 256, 2048));
        return;
    }
    let time = |mode: &str| {
        // warm-up pass, then best of three timed passes: single passes
        // are exposed to multi-ms fsync jitter on the host disk
        run_session(&schema, &defs, mode, "accept-warm", 256, 65536);
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let events = run_session(&schema, &defs, mode, "accept", 256, 65536);
                (events as f64) / start.elapsed().as_secs_f64()
            })
            .fold(0.0f64, f64::max)
    };
    let memory = time("in_memory");
    let group = time("group_commit");
    let ratio = memory / group;
    println!(
        "durability acceptance: in_memory {:.0} ev/s, group_commit {:.0} ev/s, \
         slowdown {ratio:.2}x (bar: <= 5x at 256-event blocks)",
        memory, group
    );
}

criterion_group!(benches, bench_durability, report_acceptance);
criterion_main!(benches);
