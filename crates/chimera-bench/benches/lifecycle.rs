//! PERF-lifecycle — the cost of living under a residency budget (the
//! PR-10 tentpole): session throughput at 1024 tenants as the cap
//! tightens, and the latency a cold claim pays for transparent
//! rehydration.
//!
//! Two experiments:
//!
//! * **`lifecycle/throughput/{unbounded,256,64}`**: one full ingestion
//!   session — 1024 tenants, a Zipf job mix, flush — per residency cap,
//!   as separate Criterion ids so all three land in
//!   `CHIMERA_BENCH_JSON`. The unbounded run is the pre-lifecycle
//!   baseline; the capped runs price the evict/rehydrate churn a 16×
//!   over-subscribed working set (cap 64) forces.
//! * **the self-reported cold-claim numbers**: p50/p99 round-trip of a
//!   job submitted to a long-evicted tenant (claim → rehydrate →
//!   execute → flush) against the same round-trip on a resident tenant,
//!   sampled across the cold population and merged into `BENCH.json` as
//!   `lifecycle/cold_claim_{p50,p99}_us` / `lifecycle/hot_claim_p50_us`.
//!
//! Runs on in-memory storage: eviction parks snapshots in the home's
//! RAM map there, so the numbers isolate the engine freeze/rebuild cost
//! from disk noise (the durable path is priced in `durability.rs`).

use chimera_calculus::EventExpr;
use chimera_events::EventType;
use chimera_exec::EngineConfig;
use chimera_lifecycle::LifecycleConfig;
use chimera_model::{AttrDef, AttrType, Oid, Schema, SchemaBuilder};
use chimera_rules::TriggerDef;
use chimera_runtime::{Backpressure, Job, Runtime, RuntimeConfig, Scheduler, TenantId};
use chimera_workload::{ZipfTenants, ZipfTenantsConfig};
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

/// A small rule set over 8 external channels, so every engine carries
/// rule state (the part of a snapshot round-trip that isn't just bytes).
fn rules(schema: &Schema) -> Vec<TriggerDef> {
    let item = schema.class_by_name("item").unwrap();
    let p = |n: u32| EventExpr::prim(EventType::external(item, n));
    (0..4usize)
        .map(|i| {
            let a = 1000 + (i as u32 % 8);
            let b = 1000 + ((i as u32 + 3) % 8);
            let expr = if i % 2 == 0 { p(a).and(p(b)) } else { p(a).prec(p(b)) };
            TriggerDef::new(format!("r{i}"), expr)
        })
        .collect()
}

/// Job `j` for tenant `tenant`: `per_block` external events, half on
/// the rules' channels.
fn block(
    schema: &Schema,
    tenant: u64,
    j: u64,
    per_block: usize,
) -> Vec<(chimera_model::ClassId, u32, Oid)> {
    let item = schema.class_by_name("item").unwrap();
    let mut k = tenant.wrapping_mul(0x9E37_79B9).wrapping_add(j);
    (0..per_block)
        .map(|_| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let ch = if (k >> 33) % 2 == 0 {
                1000 + ((k >> 13) % 8) as u32
            } else {
                ((k >> 13) % 8) as u32
            };
            (item, ch, Oid((k >> 7) % 32 + 1))
        })
        .collect()
}

fn runtime(schema: &Schema, defs: &[TriggerDef], shards: usize, cap: Option<usize>) -> Runtime {
    Runtime::new(
        schema.clone(),
        defs.to_vec(),
        RuntimeConfig {
            shards,
            queue_capacity: 256,
            backpressure: Backpressure::Block,
            scheduler: Scheduler::LoadAware,
            engine: EngineConfig {
                max_rule_steps: usize::MAX / 2,
                ..EngineConfig::default()
            },
            lifecycle: match cap {
                Some(n) => LifecycleConfig::with_max_resident(n),
                None => LifecycleConfig::unbounded(),
            },
            ..RuntimeConfig::default()
        },
    )
    .expect("valid rule set")
}

/// One full ingestion session over `tenants` tenants; returns events fed.
fn run_session(
    schema: &Schema,
    defs: &[TriggerDef],
    shards: usize,
    cap: Option<usize>,
    mix: &[u64],
    per_block: usize,
) -> u64 {
    let rt = runtime(schema, defs, shards, cap);
    for (j, &t) in mix.iter().enumerate() {
        // each block is its own transaction: a tenant parked mid-txn is
        // unevictable, and the lifecycle churn is the thing under test
        submit_block(&rt, schema, t, j as u64, per_block);
    }
    rt.flush().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.job_errors + stats.job_panics, 0);
    if let Some(cap) = cap {
        // every distinct tenant past the cap was shed at least once
        let distinct = {
            let mut seen: Vec<u64> = mix.to_vec();
            seen.sort_unstable();
            seen.dedup();
            seen.len() as u64
        };
        assert!(
            stats.evictions >= distinct.saturating_sub(cap as u64),
            "an over-subscribed cap must evict"
        );
    }
    mix.len() as u64 * per_block as u64
}

/// One transactional block for `t`: begin → raise → commit, through the
/// per-tenant FIFO.
fn submit_block(rt: &Runtime, schema: &Schema, t: u64, j: u64, per_block: usize) {
    rt.submit(TenantId(t), Job::Begin).unwrap();
    rt.submit(TenantId(t), Job::RaiseExternal(block(schema, t, j, per_block)))
        .unwrap();
    rt.submit(TenantId(t), Job::Commit).unwrap();
}

/// The fixed Zipf job mix, drawn once so every cap times the identical
/// workload.
fn job_mix(tenants: u64, jobs: usize) -> Vec<u64> {
    ZipfTenants::new(ZipfTenantsConfig {
        tenants,
        s: 1.1,
        hot_boost: 1.0,
        seed: 0xBEEF,
    })
    .ranks(jobs)
}

fn bench_lifecycle(c: &mut Criterion) {
    let schema = schema();
    let defs = rules(&schema);
    let (tenants, jobs, per_block, shards) =
        if measure_mode() { (1024u64, 4096usize, 8usize, 2usize) } else { (16, 48, 4, 2) };
    let caps: &[(&str, Option<usize>)] = if measure_mode() {
        &[("unbounded", None), ("256", Some(256)), ("64", Some(64))]
    } else {
        &[("unbounded", None), ("4", Some(4))]
    };
    let mix = job_mix(tenants, jobs);
    let mut g = c.benchmark_group("lifecycle");
    g.throughput(Throughput::Elements(jobs as u64 * per_block as u64));
    for &(name, cap) in caps {
        g.bench_with_input(BenchmarkId::new("throughput", name), &cap, |b, &cap| {
            b.iter(|| {
                black_box(run_session(&schema, &defs, shards, cap, &mix, per_block))
            });
        });
    }
    g.finish();
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let i = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[i]
}

/// Where the shim puts `BENCH.json` (same resolution rules as the
/// criterion shim's `CHIMERA_BENCH_JSON` handling), or `None` when
/// emission is off.
fn bench_json_path() -> Option<PathBuf> {
    let v = std::env::var_os("CHIMERA_BENCH_JSON")?;
    if v.is_empty() || v == "0" {
        return None;
    }
    if v != "1" {
        return Some(PathBuf::from(v));
    }
    if let Ok(exe) = std::env::current_exe() {
        for anc in exe.ancestors() {
            if anc.file_name().is_some_and(|n| n == "target") {
                return Some(anc.join("BENCH.json"));
            }
        }
    }
    Some(PathBuf::from("target/BENCH.json"))
}

/// Merge the claim-latency numbers into `BENCH.json` alongside the
/// shim's per-bench means (read-modify-write of the shim's line format;
/// bench targets run sequentially, so nothing races this).
fn record_latencies(entries_new: &[(&str, f64)]) {
    let Some(path) = bench_json_path() else {
        return;
    };
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut entries: Vec<(String, f64)> = text
        .lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let rest = line.strip_prefix('"')?;
            let (name, value) = rest.split_once("\": ")?;
            Some((name.to_string(), value.trim().parse::<f64>().ok()?))
        })
        .collect();
    for &(name, v) in entries_new {
        match entries.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1 = v,
            None => entries.push((name.to_string(), v)),
        }
    }
    let mut s = String::from("{\n");
    for (i, (name, v)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("\"{name}\": {v:.1}{sep}\n"));
    }
    s.push_str("}\n");
    if let Err(e) = std::fs::write(&path, s) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The cold-claim tail, reported by the bench itself: fill 1024 tenants
/// through a cap of 64, then time the full submit→flush round-trip
/// against long-evicted tenants (each claim rehydrates) and against
/// resident ones (the baseline the rehydration delta rides on).
fn report_cold_claims(c: &mut Criterion) {
    let _ = c;
    let schema = schema();
    let defs = rules(&schema);
    let (tenants, cap, shards, samples) =
        if measure_mode() { (1024u64, 64usize, 2usize, 96usize) } else { (16, 4, 2, 4) };
    let rt = runtime(&schema, &defs, shards, Some(cap));
    // populate: every tenant runs a few blocks, so each engine carries
    // objects into its snapshot
    for t in 0..tenants {
        for j in 0..3u64 {
            submit_block(&rt, &schema, t, j, 8);
        }
    }
    rt.flush().unwrap();
    let roundtrip = |t: u64| {
        let start = Instant::now();
        submit_block(&rt, &schema, t, 99, 8);
        rt.flush().unwrap();
        start.elapsed().as_secs_f64() * 1e6
    };
    // cold samples: the low ids went cold first and stayed cold — spread
    // across them, re-checking residency so a sample never lands hot
    let mut cold: Vec<f64> = Vec::with_capacity(samples);
    let stride = (tenants / 2) / samples as u64;
    for i in 0..samples as u64 {
        let t = i * stride.max(1);
        cold.push(roundtrip(t));
    }
    // hot samples: immediately re-claim the same tenant — resident now
    let mut hot: Vec<f64> = Vec::with_capacity(samples);
    for i in 0..samples as u64 {
        let t = tenants - 1 - (i % cap as u64);
        submit_block(&rt, &schema, t, 98, 8);
        rt.flush().unwrap();
        hot.push(roundtrip(t));
    }
    let stats = rt.stats();
    assert!(stats.rehydrations >= cold.len() as u64 / 2, "cold samples must rehydrate");
    cold.sort_by(f64::total_cmp);
    hot.sort_by(f64::total_cmp);
    let (c50, c99) = (percentile(&cold, 0.50), percentile(&cold, 0.99));
    let h50 = percentile(&hot, 0.50);
    if !measure_mode() {
        return; // the run above is the coverage; tiny samples aren't numbers
    }
    println!(
        "lifecycle cold claims, {tenants} tenants / cap {cap}: cold p50 {c50:.0}us \
         p99 {c99:.0}us, hot p50 {h50:.0}us ({} rehydrations, {} evictions)",
        stats.rehydrations, stats.evictions
    );
    record_latencies(&[
        ("lifecycle/cold_claim_p50_us", c50),
        ("lifecycle/cold_claim_p99_us", c99),
        ("lifecycle/hot_claim_p50_us", h50),
    ]);
}

criterion_group!(benches, bench_lifecycle, report_cold_claims);
criterion_main!(benches);
