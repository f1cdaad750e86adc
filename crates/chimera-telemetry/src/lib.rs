//! Observability for the Chimera runtime: lock-cheap latency
//! histograms, hot-path stage timing, a postmortem trace ring, and
//! wire-ready metrics snapshots.
//!
//! The paper's detection engine is now wrapped in a production-shaped
//! stack — sharded scheduling, group-commit durability, fault
//! injection — and counts alone can no longer answer the operator
//! questions that stack raises ("*where* does durable lose its 3–4×?",
//! "what happened right before that home got poisoned?"). This crate
//! is the measurement substrate, built hand-rolled (no external
//! dependencies) around three pieces:
//!
//! - **[`Histogram`]** — fixed 64-bucket power-of-two nanosecond
//!   latency histograms. Recording is one `Instant` delta plus one
//!   relaxed `fetch_add`; count, p50/p90/p99 and max are derived at
//!   read time (merge-on-read), bucket-granular by construction.
//! - **[`Telemetry`]** — the per-worker-sharded recorder handle:
//!   counters, gauges, stage histograms and trace rings, one bank per
//!   worker so hot-path increments never contend. [`Telemetry::off`]
//!   is the zero-cost mode: every call is one `None` check, and the
//!   clock is never read.
//! - **[`TraceRing`]** — a fixed-capacity lock-free flight recorder of
//!   compact [`TraceEvent`]s (job claimed/demoted, home poisoned,
//!   connection reaped, ...), drained oldest-first with honest
//!   wrap-loss accounting.
//!
//! [`MetricsSnapshot`] is the read side: the full registry (histogram
//! buckets included) plus the drained trace tail, as plain data —
//! the runtime exposes it in-process via `Runtime::telemetry()`, the
//! net layer ships it over the wire (the `MetricsSnapshot` request),
//! and [`MetricsSnapshot::render_text`] renders the
//! Prometheus-style text exposition.

mod hist;
mod recorder;
mod trace;

pub use hist::{bucket_ceil, bucket_floor, bucket_of, HistSnapshot, Histogram, BUCKETS};
pub use recorder::{
    Counter, Gauge, MetricsSnapshot, Stage, Telemetry, COUNTERS, GAUGES, STAGES,
};
pub use trace::{TraceEvent, TraceKind, TraceRing, TRACE_CAPACITY};

// Compile-time guarantees: the handle and its data cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Telemetry>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<TraceRing>();
    assert_send_sync::<MetricsSnapshot>();
};
