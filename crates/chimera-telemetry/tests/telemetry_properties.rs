//! Property suite for the histogram math and the recorder's
//! concurrency story.
//!
//! What is pinned here, against brute-force oracles:
//!
//! - bucket boundaries are exact at powers of two (`2^k` opens bucket
//!   `k`, `2^k - 1` closes bucket `k-1`),
//! - merging two histograms equals recording all samples into one,
//! - bucket-floor quantile estimates are within one bucket of a
//!   sorted-vec oracle,
//! - concurrent recording from many threads loses no counts.

use chimera_telemetry::{
    bucket_ceil, bucket_floor, bucket_of, Counter, HistSnapshot, Histogram, Stage, Telemetry,
    BUCKETS,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Nanosecond samples with the distribution telemetry actually sees:
/// mostly small-to-medium latencies, plus boundary noise from
/// `any::<u64>()` (which biases toward 0 and `u64::MAX`).
fn arb_ns() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..=64,
        1u64..1_000_000,
        1_000u64..10_000_000_000,
        any::<u64>(),
    ]
    .boxed()
}

fn snapshot_of(samples: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &ns in samples {
        h.record(ns);
    }
    let mut s = HistSnapshot::empty("t");
    h.merge_into(&mut s);
    s
}

/// The exact sample a `HistSnapshot::quantile(q)` call is estimating:
/// rank `⌈q·n⌉` (clamped to `[1, n]`) of the sorted samples.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    /// `2^k` is the smallest value in bucket `k`; `2^k - 1` the largest
    /// in bucket `k-1`. Also: every sample is inside its own bucket's
    /// `[floor, ceil]` range.
    #[test]
    fn bucket_boundaries_exact_at_powers_of_two(k in 1usize..64, ns in arb_ns()) {
        if k < 63 {
            prop_assert_eq!(bucket_of(1u64 << k), k);
            prop_assert_eq!(bucket_of((1u64 << k) - 1), k - 1);
            prop_assert_eq!(bucket_floor(k), 1u64 << k);
            prop_assert_eq!(bucket_ceil(k - 1), (1u64 << k) - 1);
        }
        let b = bucket_of(ns);
        prop_assert!(b < BUCKETS);
        prop_assert!(bucket_floor(b) <= ns.max(1));
        prop_assert!(ns <= bucket_ceil(b));
    }

    /// Histogram merge is exactly the histogram of the union of the
    /// samples: record a split workload into two histograms, merge the
    /// snapshots, compare bit-for-bit with one histogram that saw
    /// everything.
    #[test]
    fn merge_equals_record_all_in_one(
        left in prop::collection::vec(arb_ns(), 0..200),
        right in prop::collection::vec(arb_ns(), 0..200),
    ) {
        let mut merged = snapshot_of(&left);
        merged.merge(&snapshot_of(&right));

        let mut all = left.clone();
        all.extend_from_slice(&right);
        let direct = snapshot_of(&all);

        prop_assert_eq!(merged.buckets, direct.buckets);
        prop_assert_eq!(merged.count(), (left.len() + right.len()) as u64);
    }

    /// Quantile estimates are bucket-floor values of the bucket holding
    /// the oracle sample: the estimate never exceeds the true quantile,
    /// and the true quantile stays inside the estimate's bucket —
    /// "within one power-of-two bucket" of a sorted-vec oracle.
    #[test]
    fn quantiles_within_one_bucket_of_oracle(
        mut samples in prop::collection::vec(arb_ns(), 1..300),
        q in 0.0f64..1.0,
    ) {
        let snap = snapshot_of(&samples);
        samples.sort_unstable();
        for q in [q, 0.50, 0.90, 0.99, 1.0] {
            let est = snap.quantile(q);
            let truth = oracle_quantile(&samples, q);
            prop_assert!(
                est <= truth.max(1),
                "q={q}: estimate {est} above oracle {truth}"
            );
            prop_assert!(
                truth <= bucket_ceil(bucket_of(est)),
                "q={q}: oracle {truth} outside estimate bucket of {est}"
            );
        }
        // max() is the same contract at the top end.
        let top = *samples.last().unwrap();
        prop_assert_eq!(snap.max(), bucket_floor(bucket_of(top)));
    }
}

proptest! {
    // Thread spawning per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hammer one `Telemetry` from several threads — every sample and
    /// every counter increment must appear in the final snapshot
    /// (relaxed atomics lose no updates, sharded or not).
    #[test]
    fn concurrent_recording_loses_no_counts(
        per_thread in 1usize..400,
        threads in 1usize..5,
        shards in 1usize..4,
        ns in arb_ns(),
    ) {
        let tel = Telemetry::new(shards);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tel = tel.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // Deterministic per-thread sample spread.
                        let sample = ns ^ ((t * 1_000_003 + i) as u64);
                        tel.record_ns(t, Stage::Execute, sample);
                        tel.count(t, Counter::Batches, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = tel.snapshot();
        let expect = (threads * per_thread) as u64;
        let hist = snap.hist(Stage::Execute.name()).expect("execute histogram");
        prop_assert_eq!(hist.count(), expect);
        prop_assert_eq!(snap.counter(Counter::Batches.name()), Some(expect));
    }
}

/// A fixed heavier run of the concurrency property — 8 threads onto 4
/// shards, 10k samples each — as a deterministic smoke test (Arc'd
/// handle shared the way the runtime shares it).
#[test]
fn concurrent_smoke_eight_threads() {
    let tel = Arc::new(Telemetry::new(4));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let tel = Arc::clone(&tel);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    tel.record_ns(t, Stage::Commit, i * 37 + t as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = tel.snapshot();
    assert_eq!(snap.hist("commit").unwrap().count(), 80_000);
}
