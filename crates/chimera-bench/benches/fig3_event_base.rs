//! FIG3/FIG4 — the Event Base: reconstructs the paper's Fig. 3 table
//! (printed once per run) and measures the EB operations the
//! §5 implementation depends on: append, most-recent-stamp lookup
//! (Occurred-Events tree leaf), window slicing and per-object lookup.

use chimera_bench::{et, history};
use chimera_events::fig3::{fig3_event_base, render_fig3_table};
use chimera_events::{Timestamp, Window};
use chimera_model::Oid;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn print_fig3_once() {
    let (schema, eb) = fig3_event_base();
    println!("\n=== Fig. 3 reconstruction ===");
    println!("{}", render_fig3_table(&schema, &eb));
}

fn bench_append(c: &mut Criterion) {
    print_fig3_once();
    let mut g = c.benchmark_group("eb_append");
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut eb = chimera_events::EventBase::new();
                for i in 0..n {
                    eb.append(et((i % 8) as u32), Oid(1 + (i % 64) as u64));
                }
                black_box(eb.len())
            });
        });
    }
    g.finish();
}

fn bench_lookups(c: &mut Criterion) {
    let mut g = c.benchmark_group("eb_lookup");
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let eb = history(7, n, 8, 64);
        let w = Window::from_origin(eb.now());
        g.bench_with_input(BenchmarkId::new("last_of_type", n), &n, |b, _| {
            b.iter(|| black_box(eb.last_of_type_in(et(3), w)));
        });
        g.bench_with_input(BenchmarkId::new("last_of_type_obj", n), &n, |b, _| {
            b.iter(|| black_box(eb.last_of_type_obj_in(et(3), Oid(5), w)));
        });
        let half = Window::new(Timestamp((n / 2) as u64), eb.now());
        g.bench_with_input(BenchmarkId::new("slice_half_window", n), &n, |b, _| {
            b.iter(|| black_box(eb.slice(half).len()));
        });
        g.bench_with_input(BenchmarkId::new("objects_in_window", n), &n, |b, _| {
            b.iter(|| black_box(eb.objects_in(half).len()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_append, bench_lookups);
criterion_main!(benches);
