//! # chimera-net
//!
//! A framed wire protocol and TCP server/client front-end over the
//! multi-tenant [`chimera_runtime::Runtime`].
//!
//! The paper's §5 execution architecture places the detector *inside*
//! the database transaction; this workspace's north star points the
//! other way — composite-event detection as a service under heavy
//! external traffic. PR 4's sharded runtime made the engine
//! multi-tenant but only reachable in-process, with fire-and-forget
//! jobs. This crate closes the client/server gap:
//!
//! * **[`wire`]** — length-prefixed binary framing and primitives,
//!   hand-rolled on `std::net` (no crates.io in the build container;
//!   the no-serde decision is documented in `chimera-persist`). Bounded
//!   frames, typed errors, no panics on garbage input.
//! * **[`proto`]** — the request/response vocabulary: `Hello`,
//!   `DefineTriggers` (concrete §2–§3 trigger syntax parsed server-side
//!   through `chimera-lang`), `SubmitBlock`, `Flush`, `Stats`,
//!   `WithTenantQuery`, `Shutdown`; answered by `HelloAck`, per-job
//!   `JobDone` completions carrying trigger-firing summaries, stats and
//!   tenant-inspection replies.
//! * **[`server`]** — a multi-threaded acceptor driving one shared
//!   `Runtime`: per-connection handler threads parse frames, submit
//!   through the runtime's per-job completion path
//!   (`Runtime::submit_with_reply`), and stream every job's outcome
//!   back in request order. No flush-and-poll anywhere. The accepted
//!   connection count is capped ([`ServerConfig::max_connections`]);
//!   a connection over the cap gets one typed [`Response::Busy`] frame.
//!
//! Protocol version 7 ([`PROTOCOL_VERSION`]) gives each message exactly
//! one layout with every field present. The handshake negotiates a
//! [`WireDurability`] level (a client can *require* group commit via
//! [`Client::connect_requiring`]). `DefineTriggers` is answered with one
//! [`TriggerOutcome`] per declaration. `Stats` reports the runtime, store,
//! scheduler, robustness and lifecycle counters with the per-home-shard
//! [`WireShardStats`] breakdown, plus the server's own
//! `net_reads_throttled` (reads deferred under the per-connection
//! bytes-in-flight cap, [`ServerConfig::max_bytes_in_flight`]) and
//! `net_conns_reaped` (connections closed on an expired handshake or
//! read deadline: `ServerConfig::handshake_timeout`, `read_timeout`,
//! `write_timeout`). A job whose home shard's durability is poisoned is
//! answered [`WireOutcome::RefusedDurability`]; with a
//! [`ReconnectPolicy`] ([`ClientConfig`]) the client resolves every
//! in-flight submission on a lost connection as a typed
//! [`WireOutcome::Disconnected`] completion (at-most-once, explicit loss)
//! before redialing with backoff and jitter and replaying the session's
//! trigger definitions. [`Request::MetricsSnapshot`] returns the server
//! runtime's full [`chimera_telemetry`] registry — counters, gauges, the
//! log₂-bucketed stage latency histograms and the drained trace tail —
//! as a [`Response::MetricsReply`]. The server feeds that recorder
//! itself (per-frame decode and handler timings, per-connection
//! round-trip latency, accept/reap/cut traces, the live connection
//! gauge), and the client keeps its own recorder of synchronous request
//! latency ([`Client::telemetry`]). The extension
//! rule: any layout change or new tag bumps the version, and the server
//! refuses a `Hello` of any other version, so no decoder carries an
//! earlier layout.
//! * **[`client`]** — a blocking client with submission pipelining,
//!   used by the examples, stackbench (`bench/`) and the network
//!   equivalence suite.
//!
//! The correctness bar is the house style: traffic through the server
//! is **observationally identical** to the same blocks replayed on an
//! in-process sequential `Engine`, tenant by tenant —
//! `tests/net_equivalence.rs` (facade level) proves it with concurrent
//! TCP clients against the per-tenant sequential oracle.

pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, JobDone, NetError, ReconnectPolicy, PIPELINE_WINDOW};
pub use chimera_telemetry::MetricsSnapshot;
pub use proto::{
    ExternalEvent, Request, Response, TenantQuery, TenantReply, TriggerOutcome, WireDurability,
    WireJob, WireOp, WireOutcome, WireShardStats, WireStats, JOB_DISCONNECTED, JOB_REJECTED,
};
pub use server::{Server, ServerConfig};
pub use wire::{read_frame, write_frame, WireError, MAX_FRAME, PROTOCOL_VERSION};

/// Compile-time `Send`/`Sync` audit of what crosses the server's thread
/// boundaries.
#[allow(dead_code)]
const fn assert_send<T: Send>() {}
#[allow(dead_code)]
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<Server>();
    assert_send::<Client>();
    assert_send::<Request>();
    assert_send::<Response>();
    assert_send_sync::<ServerConfig>();
};
