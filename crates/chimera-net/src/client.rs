//! The blocking client: a handshaked TCP connection with request
//! pipelining for submissions.
//!
//! Responses arrive in strict request order (the server guarantees one
//! response per request), so the client keeps the tenant of every
//! outstanding [`Request::SubmitBlock`] in a FIFO: [`Client::submit`]
//! fires without waiting (bounded by [`PIPELINE_WINDOW`] — the oldest
//! completion is drained when the window fills), [`Client::drain`]
//! collects every outstanding completion, and the synchronous calls
//! (`stats`, `flush`, queries) drain first so their response is the
//! next frame on the stream.
//!
//! ## Reconnect
//!
//! With a [`ReconnectPolicy`] configured, a dead connection is not the
//! end of the session: every in-flight submission is resolved as a
//! *typed* [`WireOutcome::Disconnected`] completion (job id
//! [`JOB_DISCONNECTED`] — the job may or may not have run; it is never
//! resubmitted, so delivery is **at-most-once with explicit loss**),
//! then the client redials with capped exponential backoff plus
//! deterministic jitter, re-runs the handshake, and replays every
//! previously acknowledged `DefineTriggers` batch so the session's
//! trigger vocabulary survives the reconnect. Without a policy the
//! client behaves exactly as before: the first transport error is
//! surfaced and the client is done.

use crate::proto::{
    Request, Response, TenantQuery, TenantReply, TriggerOutcome, WireDurability, WireJob,
    WireOutcome, WireStats, JOB_DISCONNECTED,
};
use crate::wire::{read_frame, write_frame, WireError, MAX_FRAME, PROTOCOL_VERSION};
use chimera_telemetry::{MetricsSnapshot, Stage, Telemetry};
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Outstanding pipelined submissions before [`Client::submit`] drains
/// the oldest completion. Keeps the socket's send buffer comfortably
/// unfilled (requests are small) so a non-reading writer cannot
/// deadlock against a non-writing reader.
pub const PIPELINE_WINDOW: usize = 32;

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Transport/codec failure.
    Wire(WireError),
    /// The server answered [`Response::Error`].
    Remote(String),
    /// The server answered, but with the wrong response kind.
    Unexpected(String),
    /// The server closed the connection mid-conversation.
    Closed,
    /// The server refused the connection: its accepted-connection cap
    /// is reached. Retry later — nothing about the request was wrong.
    Busy {
        /// Connections the server had accepted.
        active: u32,
        /// The server's connection cap.
        limit: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::Remote(msg) => write!(f, "server error: {msg}"),
            NetError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            NetError::Closed => write!(f, "server closed the connection"),
            NetError::Busy { active, limit } => {
                write!(f, "server busy: {active} of {limit} connections in use")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Wire(WireError::from(e))
    }
}

/// Does this error mean the *connection* is gone (as opposed to a
/// well-formed refusal on a healthy stream)? Only these trigger the
/// orphan-and-reconnect path.
fn is_conn_fatal(e: &NetError) -> bool {
    matches!(
        e,
        NetError::Closed
            | NetError::Wire(WireError::Io(_))
            | NetError::Wire(WireError::TimedOut)
            | NetError::Wire(WireError::Truncated)
    )
}

/// Redial behavior after a lost connection (see the module docs).
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Redial attempts before the original error is surfaced.
    pub max_attempts: u32,
    /// First backoff; doubles per attempt.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Seed for the deterministic jitter added to each backoff (up to
    /// half the backoff), so a fleet of clients with distinct seeds
    /// does not redial in lockstep — and a test with a fixed seed
    /// replays the exact same schedule.
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 6,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            jitter_seed: 0,
        }
    }
}

/// Client knobs ([`Client::connect_config`]).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Name announced in `Hello`.
    pub name: String,
    /// Per-frame payload bound for both directions.
    pub max_frame: usize,
    /// Fail the handshake unless the server provides exactly this
    /// durability level (a client about to stream irreplaceable events
    /// can insist on group commit before sending anything).
    pub require_durability: Option<WireDurability>,
    /// TCP connect deadline per resolved address; `None` blocks.
    pub connect_timeout: Option<Duration>,
    /// Socket deadline for any single response read (and any send): a
    /// server that goes quiet mid-conversation turns into a typed
    /// timeout — and, with a reconnect policy, into `Disconnected`
    /// completions — instead of an unbounded hang. `None` waits
    /// forever.
    pub request_timeout: Option<Duration>,
    /// Redial after a lost connection; `None` (the default) keeps the
    /// classic fail-fast behavior.
    pub reconnect: Option<ReconnectPolicy>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            name: "chimera-client".into(),
            max_frame: MAX_FRAME,
            require_durability: None,
            connect_timeout: Some(Duration::from_secs(10)),
            request_timeout: None,
            reconnect: None,
        }
    }
}

/// SplitMix64 finalizer — the house mixing function; drives the
/// deterministic reconnect jitter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One job's completion, as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDone {
    /// Runtime-wide job id ([`JOB_DISCONNECTED`] for a submission
    /// orphaned by a lost connection — no server id is known for it).
    pub job: u64,
    /// The tenant the job ran for.
    pub tenant: u64,
    /// How it ended.
    pub outcome: crate::proto::WireOutcome,
}

/// One live handshaked connection's moving parts, replaced wholesale on
/// reconnect.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    server: String,
    shards: u32,
    durability: WireDurability,
}

/// Dial, apply the socket deadlines, and run the handshake — raw, so
/// reconnects cannot recurse into the client's own error handling.
fn establish(addrs: &[SocketAddr], config: &ClientConfig) -> Result<Wire, NetError> {
    let mut last: Option<std::io::Error> = None;
    let mut stream = None;
    for addr in addrs {
        let dialed = match config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match dialed {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last = Some(e),
        }
    }
    let Some(stream) = stream else {
        return Err(last.map(NetError::from).unwrap_or_else(|| {
            NetError::Unexpected("address resolved to no socket addresses".into())
        }));
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(config.request_timeout).ok();
    stream.set_write_timeout(config.request_timeout).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        client: config.name.clone(),
        durability: config.require_durability,
    };
    write_frame(&mut writer, &hello.encode())?;
    writer.flush()?;
    let payload = read_frame(&mut reader, config.max_frame)?.ok_or(NetError::Closed)?;
    match Response::decode(&payload)? {
        Response::HelloAck {
            server,
            shards,
            durability,
            ..
        } => Ok(Wire {
            reader,
            writer,
            server,
            shards,
            durability,
        }),
        Response::Busy { active, limit } => Err(NetError::Busy { active, limit }),
        Response::Error { message } => Err(NetError::Remote(message)),
        other => Err(NetError::Unexpected(format!("{other:?}"))),
    }
}

/// A blocking protocol client.
pub struct Client {
    wire: Wire,
    config: ClientConfig,
    /// The resolved dial targets, kept for reconnects.
    addrs: Vec<SocketAddr>,
    /// Tenant of each outstanding SubmitBlock whose JobDone is still
    /// unread from the socket, in request order.
    pending: VecDeque<u64>,
    /// Completions read off the socket (to unblock a synchronous call)
    /// but not yet delivered to the caller. No completion is ever
    /// silently dropped: [`Client::recv_job_done`] and
    /// [`Client::drain`] serve these first, oldest first.
    buffered: VecDeque<JobDone>,
    /// Acknowledged DefineTriggers batches, replayed after a reconnect
    /// (recorded only when a reconnect policy is configured).
    trigger_replay: Vec<(u64, String)>,
    /// Successful reconnects.
    reconnects: u64,
    /// In-flight submissions resolved as [`WireOutcome::Disconnected`].
    orphaned: u64,
    /// Monotone ordinal driving the jitter stream across reconnects.
    backoffs: u64,
    /// The client's own (local, single-shard) recorder: every
    /// synchronous call's send → response latency lands in its
    /// [`Stage::ClientRequest`] histogram. Always on — one `Instant`
    /// read and one relaxed `fetch_add` per call is noise next to a
    /// network round trip.
    tel: Telemetry,
}

impl Client {
    /// Connect and handshake with the default frame bound.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        Client::connect_config(addr, ClientConfig::default())
    }

    /// Connect, announcing `name`, with an explicit frame bound.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        name: &str,
        max_frame: usize,
    ) -> Result<Client, NetError> {
        Client::connect_config(
            addr,
            ClientConfig {
                name: name.into(),
                max_frame,
                ..ClientConfig::default()
            },
        )
    }

    /// Connect, *requiring* a durability level: the handshake fails with
    /// [`NetError::Remote`] unless the server's runtime provides exactly
    /// `durability` (a client about to stream irreplaceable events can
    /// insist on group commit before sending anything).
    pub fn connect_requiring(
        addr: impl ToSocketAddrs,
        name: &str,
        durability: WireDurability,
    ) -> Result<Client, NetError> {
        Client::connect_config(
            addr,
            ClientConfig {
                name: name.into(),
                require_durability: Some(durability),
                ..ClientConfig::default()
            },
        )
    }

    /// Connect with the full knob set ([`ClientConfig`]).
    pub fn connect_config(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let wire = establish(&addrs, &config)?;
        Ok(Client {
            wire,
            config,
            addrs,
            pending: VecDeque::new(),
            buffered: VecDeque::new(),
            trigger_replay: Vec::new(),
            reconnects: 0,
            orphaned: 0,
            backoffs: 0,
            tel: Telemetry::new(1),
        })
    }

    /// The server's announced name.
    pub fn server_name(&self) -> &str {
        &self.wire.server
    }

    /// The server runtime's shard count.
    pub fn shards(&self) -> u32 {
        self.wire.shards
    }

    /// The durability level the server announced in its ack.
    pub fn server_durability(&self) -> WireDurability {
        self.wire.durability
    }

    /// Completions not yet delivered to the caller (unread from the
    /// socket plus buffered by a synchronous call).
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.buffered.len()
    }

    /// Successful reconnects over this client's lifetime.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// In-flight submissions resolved as [`WireOutcome::Disconnected`]
    /// across every lost connection.
    pub fn orphaned(&self) -> u64 {
        self.orphaned
    }

    // ------------------------------------------------------- raw plumbing

    fn send(&mut self, req: &Request) -> Result<(), NetError> {
        write_frame(&mut self.wire.writer, &req.encode())?;
        self.wire.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, NetError> {
        let payload =
            read_frame(&mut self.wire.reader, self.config.max_frame)?.ok_or(NetError::Closed)?;
        Ok(Response::decode(&payload)?)
    }

    /// React to an error from the socket: if it is connection-fatal and
    /// a reconnect policy is configured, resolve every in-flight
    /// submission as a typed [`WireOutcome::Disconnected`] completion
    /// and redial; otherwise surface the error unchanged.
    fn recover(&mut self, e: NetError) -> Result<(), NetError> {
        if self.config.reconnect.is_none() || !is_conn_fatal(&e) {
            return Err(e);
        }
        self.orphan_pending();
        self.reconnect()
    }

    /// Every in-flight submission becomes a buffered `Disconnected`
    /// completion (oldest first, keeping delivery order): the job may
    /// or may not have run server-side, and it is never resubmitted.
    fn orphan_pending(&mut self) {
        while let Some(tenant) = self.pending.pop_front() {
            self.orphaned += 1;
            self.buffered.push_back(JobDone {
                job: JOB_DISCONNECTED,
                tenant,
                outcome: WireOutcome::Disconnected,
            });
        }
    }

    /// Redial with capped exponential backoff + seeded jitter, re-run
    /// the handshake, and replay the session's trigger definitions.
    fn reconnect(&mut self) -> Result<(), NetError> {
        let policy = self
            .config
            .reconnect
            .clone()
            .expect("recover() checked the policy");
        let mut last = NetError::Closed;
        for attempt in 0..policy.max_attempts {
            let backoff = policy
                .base
                .saturating_mul(1u32 << attempt.min(20))
                .min(policy.cap);
            let jitter_range = backoff.as_millis() as u64 / 2 + 1;
            let jitter = mix(policy.jitter_seed.wrapping_add(self.backoffs)) % jitter_range;
            self.backoffs += 1;
            std::thread::sleep(backoff + Duration::from_millis(jitter));
            match establish(&self.addrs, &self.config) {
                Ok(wire) => {
                    self.wire = wire;
                    self.reconnects += 1;
                    match self.replay_triggers() {
                        Ok(()) => return Ok(()),
                        // the fresh connection died mid-replay: another
                        // attempt (the budget bounds this)
                        Err(e) => last = e,
                    }
                }
                // a handshake *refusal* (version or durability
                // mismatch) cannot heal by redialing
                Err(e @ NetError::Remote(_)) => return Err(e),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Re-run every acknowledged `DefineTriggers` batch on a fresh
    /// connection, so the session's installed triggers survive it.
    fn replay_triggers(&mut self) -> Result<(), NetError> {
        for (tenant, source) in self.trigger_replay.clone() {
            self.send(&Request::DefineTriggers { tenant, source })?;
            match self.recv()? {
                Response::TriggersDefined { .. } => {}
                Response::Error { message } => return Err(NetError::Remote(message)),
                other => return Err(NetError::Unexpected(format!("{other:?}"))),
            }
        }
        Ok(())
    }

    /// Read one completion off the socket into `buffered` (or, on a
    /// lost connection with a reconnect policy, orphan everything
    /// in-flight into `buffered`). Either way, on `Ok` the buffer has
    /// grown by at least one completion.
    fn pump_one(&mut self) -> Result<(), NetError> {
        debug_assert!(!self.pending.is_empty(), "no submission outstanding");
        match self.recv() {
            Ok(Response::JobDone {
                job,
                tenant,
                outcome,
            }) => {
                self.pending.pop_front();
                self.buffered.push_back(JobDone {
                    job,
                    tenant,
                    outcome,
                });
                Ok(())
            }
            Ok(Response::Error { message }) => {
                self.pending.pop_front();
                Err(NetError::Remote(message))
            }
            Ok(other) => {
                self.pending.pop_front();
                Err(NetError::Unexpected(format!("{other:?}")))
            }
            Err(e) => self.recover(e),
        }
    }

    /// Send one request and read *its* response. Outstanding completions
    /// are read off the socket first (stream order) and buffered for the
    /// caller to collect later — never dropped. On a lost connection
    /// with a reconnect policy, an *idempotent* request is retried
    /// exactly once on the fresh connection; a non-idempotent one
    /// (`DefineTriggers`) is never blindly resent — the connection may
    /// have died after the server processed it, and a duplicate run
    /// would surface bogus already-defined refusals (and double-record
    /// the batch for replay). The session still heals (in-flight
    /// submissions resolve, acknowledged triggers replay), but the
    /// caller gets the transport error and decides for itself.
    fn call(&mut self, req: Request) -> Result<Response, NetError> {
        while !self.pending.is_empty() {
            self.pump_one()?;
        }
        // request latency as this caller experiences it: send → response,
        // a reconnect-and-retry episode included
        let started = self.tel.start();
        let result = match self.send(&req).and_then(|()| self.recv()) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                let retryable = !matches!(req, Request::DefineTriggers { .. });
                self.recover(e.clone())?;
                if !retryable {
                    return Err(e);
                }
                self.send(&req)?;
                self.recv()
            }
        };
        self.tel.record_since(0, Stage::ClientRequest, started);
        result
    }

    // -------------------------------------------------------- submissions

    /// Pipeline one job: fire the request without waiting for its
    /// completion. When [`PIPELINE_WINDOW`] submissions are in flight,
    /// the oldest completion is drained (and returned) to make room.
    pub fn submit(
        &mut self,
        tenant: u64,
        job: WireJob,
    ) -> Result<Option<JobDone>, NetError> {
        let drained = if self.pending.len() >= PIPELINE_WINDOW {
            // read one off the socket to shrink the in-flight window,
            // and hand the caller the *oldest* undelivered completion
            self.pump_one()?;
            self.buffered.pop_front()
        } else {
            None
        };
        self.send_job(tenant, job)?;
        Ok(drained)
    }

    /// Submit one job and wait for its completion. Any older buffered
    /// completions stay buffered (collect them with [`Client::drain`]).
    pub fn submit_wait(&mut self, tenant: u64, job: WireJob) -> Result<JobDone, NetError> {
        while !self.pending.is_empty() {
            self.pump_one()?;
        }
        self.send_job(tenant, job)?;
        if !self.pending.is_empty() {
            self.pump_one()?;
        }
        // the newest buffered completion is this job's — either its
        // real outcome or its Disconnected resolution
        self.buffered
            .pop_back()
            .ok_or_else(|| NetError::Unexpected("completion vanished".into()))
    }

    /// Fire one SubmitBlock. A failed send with a reconnect policy
    /// orphans the job — the bytes may have partially left, so
    /// resubmitting could double-run it — and takes the reconnect path
    /// like any other lost connection. Without one (or when the error
    /// is not connection-fatal) the error surfaces with *nothing*
    /// recorded as pending: no recovery will resolve the slot, so
    /// counting it would wedge a later [`Client::drain`] waiting on a
    /// completion the server will never send.
    fn send_job(&mut self, tenant: u64, job: WireJob) -> Result<(), NetError> {
        match self.send(&Request::SubmitBlock { tenant, job }) {
            Ok(()) => {
                self.pending.push_back(tenant);
                Ok(())
            }
            Err(e) => {
                if self.config.reconnect.is_none() || !is_conn_fatal(&e) {
                    return Err(e);
                }
                self.pending.push_back(tenant);
                self.recover(e)
            }
        }
    }

    /// The oldest outstanding completion: buffered first, then the
    /// socket. Errs immediately if nothing is outstanding (a blocking
    /// read would otherwise hang forever on a server with nothing to
    /// say).
    pub fn recv_job_done(&mut self) -> Result<JobDone, NetError> {
        if let Some(done) = self.buffered.pop_front() {
            return Ok(done);
        }
        if self.pending.is_empty() {
            return Err(NetError::Unexpected(
                "no submission outstanding: nothing to receive".into(),
            ));
        }
        self.pump_one()?;
        self.buffered
            .pop_front()
            .ok_or_else(|| NetError::Unexpected("completion vanished".into()))
    }

    /// Drain every outstanding completion, oldest first.
    pub fn drain(&mut self) -> Result<Vec<JobDone>, NetError> {
        let mut done = Vec::with_capacity(self.outstanding());
        while self.outstanding() > 0 {
            done.push(self.recv_job_done()?);
        }
        Ok(done)
    }

    // ---------------------------------------------- job conveniences

    /// `submit(tenant, WireJob::Begin)`.
    pub fn begin(&mut self, tenant: u64) -> Result<Option<JobDone>, NetError> {
        self.submit(tenant, WireJob::Begin)
    }
    /// `submit(tenant, WireJob::ExecBlock(ops))`.
    pub fn exec_block(
        &mut self,
        tenant: u64,
        ops: Vec<crate::proto::WireOp>,
    ) -> Result<Option<JobDone>, NetError> {
        self.submit(tenant, WireJob::ExecBlock(ops))
    }
    /// `submit(tenant, WireJob::RaiseExternal(events))`.
    pub fn raise_external(
        &mut self,
        tenant: u64,
        events: Vec<crate::proto::ExternalEvent>,
    ) -> Result<Option<JobDone>, NetError> {
        self.submit(tenant, WireJob::RaiseExternal(events))
    }
    /// `submit(tenant, WireJob::Commit)`.
    pub fn commit(&mut self, tenant: u64) -> Result<Option<JobDone>, NetError> {
        self.submit(tenant, WireJob::Commit)
    }
    /// `submit(tenant, WireJob::Rollback)`.
    pub fn rollback(&mut self, tenant: u64) -> Result<Option<JobDone>, NetError> {
        self.submit(tenant, WireJob::Rollback)
    }

    // --------------------------------------------------- synchronous calls

    /// Install tenant-local triggers from `define trigger` source text.
    /// Every declaration in the source is attempted; the returned
    /// outcomes (one per declaration, in source order) say which were
    /// installed and why the others were refused. `Err` is reserved for
    /// transport failures and unparseable source. Under a reconnect
    /// policy, acknowledged batches are recorded and replayed on every
    /// reconnect — but a batch whose connection died before the ack is
    /// *not* resent (the server may already have run it): the transport
    /// error surfaces and the caller decides whether to resubmit.
    pub fn define_triggers(
        &mut self,
        tenant: u64,
        source: &str,
    ) -> Result<Vec<TriggerOutcome>, NetError> {
        match self.call(Request::DefineTriggers {
            tenant,
            source: source.into(),
        })? {
            Response::TriggersDefined { outcomes } => {
                if self.config.reconnect.is_some() {
                    self.trigger_replay.push((tenant, source.to_string()));
                }
                Ok(outcomes)
            }
            Response::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Runtime-wide flush barrier.
    pub fn flush(&mut self) -> Result<(), NetError> {
        match self.call(Request::Flush)? {
            Response::FlushDone => Ok(()),
            Response::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Aggregate runtime stats.
    pub fn stats(&mut self) -> Result<WireStats, NetError> {
        match self.call(Request::Stats)? {
            Response::StatsReply(s) => Ok(s),
            Response::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The server runtime's full telemetry registry — counters, gauges,
    /// latency histograms (buckets included) and the drained trace tail.
    /// A server with telemetry disabled answers with `enabled = false`
    /// and empty series, not an error.
    pub fn metrics_snapshot(&mut self) -> Result<MetricsSnapshot, NetError> {
        match self.call(Request::MetricsSnapshot)? {
            Response::MetricsReply(m) => Ok(m),
            Response::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The client's own recorder: the [`Stage::ClientRequest`] histogram
    /// of every synchronous call's send → response latency. Snapshot it
    /// with [`chimera_telemetry::Telemetry::snapshot`].
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Inspect one tenant's engine.
    pub fn tenant_query(
        &mut self,
        tenant: u64,
        query: TenantQuery,
    ) -> Result<TenantReply, NetError> {
        match self.call(Request::WithTenantQuery { tenant, query })? {
            Response::TenantReply(reply) => Ok(reply),
            Response::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to stop (flushes the runtime first). The
    /// connection is closed by the server afterwards.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            Response::Error { message } => Err(NetError::Remote(message)),
            other => Err(NetError::Unexpected(format!("{other:?}"))),
        }
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("server", &self.wire.server)
            .field("shards", &self.wire.shards)
            .field("pending", &self.pending.len())
            .field("reconnects", &self.reconnects)
            .finish_non_exhaustive()
    }
}
