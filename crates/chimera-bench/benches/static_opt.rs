//! PERF-2 — the §5.1 static optimization, as an ablation: Trigger Support
//! with and without the `V(E)` relevance filter, swept over rule count and
//! the fraction of arrivals that are relevant to the rules. The expected
//! shape: the win grows with the rule count and shrinks as more arrivals
//! become relevant (at 100% relevance the filter is pure overhead, which
//! must be small).

use chimera_bench::{et, p};
use chimera_calculus::EventExpr;
use chimera_events::{EventBase, Timestamp};
use chimera_model::Oid;
use chimera_rules::{RuleTable, TriggerDef, TriggerSupport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// `nrules` rules over "rule-only" event types (offset 1000+), so stream
/// relevance is controlled purely by the generated arrivals.
fn make_table(nrules: usize) -> RuleTable {
    let mut rt = RuleTable::new();
    for i in 0..nrules {
        let a = 1000 + (i as u32 % 16);
        let b = 1000 + ((i as u32 + 7) % 16);
        // conjunction + precedence mix, no vacuous rules
        let expr: EventExpr = if i % 2 == 0 {
            p(a).and(p(b))
        } else {
            p(a).prec(p(b))
        };
        rt.define(TriggerDef::new(format!("r{i}"), expr), Timestamp::ZERO)
            .unwrap();
    }
    rt
}

/// A stream of `blocks` blocks × `per_block` arrivals; `relevant_pct` of
/// arrivals hit the rules' type range.
fn stream(blocks: usize, per_block: usize, relevant_pct: u32) -> Vec<Vec<(u32, u64)>> {
    let mut out = Vec::with_capacity(blocks);
    let mut k = 0u32;
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(per_block);
        for _ in 0..per_block {
            k = k.wrapping_mul(1664525).wrapping_add(1013904223);
            let roll = k % 100;
            let ty = if roll < relevant_pct {
                1000 + (k / 100) % 16
            } else {
                (k / 100) % 16 // types no rule listens to
            };
            block.push((ty, 1 + (k % 32) as u64));
        }
        out.push(block);
    }
    out
}

fn run(support: &mut TriggerSupport, rt: &mut RuleTable, blocks: &[Vec<(u32, u64)>]) -> u64 {
    let mut eb = EventBase::new();
    let mut fired = 0u64;
    for block in blocks {
        for &(ty, oid) in block {
            eb.append(et(ty), Oid(oid));
        }
        let now = eb.now();
        let newly = support.check(rt, &eb, now);
        for name in newly {
            fired += 1;
            rt.mark_considered(rt.index_of(&name).unwrap(), now);
        }
    }
    fired
}

fn bench_static_opt(c: &mut Criterion) {
    const BLOCKS: usize = 50;
    const PER_BLOCK: usize = 4;
    for &nrules in &[10usize, 100, 1_000] {
        let mut g = c.benchmark_group(format!("static_opt_rules_{nrules}"));
        g.throughput(Throughput::Elements(BLOCKS as u64));
        for &pct in &[1u32, 10, 100] {
            let blocks = stream(BLOCKS, PER_BLOCK, pct);
            g.bench_with_input(
                BenchmarkId::new("optimized", format!("{pct}pct")),
                &blocks,
                |b, blocks| {
                    b.iter(|| {
                        let mut rt = make_table(nrules);
                        let mut s = TriggerSupport::optimized();
                        black_box(run(&mut s, &mut rt, blocks))
                    });
                },
            );
            g.bench_with_input(
                BenchmarkId::new("unoptimized", format!("{pct}pct")),
                &blocks,
                |b, blocks| {
                    b.iter(|| {
                        let mut rt = make_table(nrules);
                        let mut s = TriggerSupport::unoptimized();
                        black_box(run(&mut s, &mut rt, blocks))
                    });
                },
            );
        }
        g.finish();
    }

    // report the skip ratio once (goes into EXPERIMENTS.md / ROADMAP.md).
    // `probes` counts actual plan evaluations; `memo` counts probes
    // answered by the per-epoch cross-rule memo (rules sharing an
    // expression and a window re-use each other's witnesses).
    for &pct in &[1u32, 10, 100] {
        let blocks = stream(BLOCKS, PER_BLOCK, pct);
        let mut rt = make_table(100);
        let mut s = TriggerSupport::optimized();
        run(&mut s, &mut rt, &blocks);
        let st = s.stats;
        println!(
            "skip ratio @ {pct}% relevant, 100 rules: {:.1}% ({} skipped / {} checked, {} probes + {} memo hits)",
            100.0 * st.skipped_by_filter as f64 / st.rules_checked as f64,
            st.skipped_by_filter,
            st.rules_checked,
            st.ts_probes,
            st.probe_memo_hits
        );
    }
}

criterion_group!(benches, bench_static_opt);
criterion_main!(benches);
