//! The TCP front-end: accept connections, parse frames, drive the
//! shared [`Runtime`], stream per-job completions back.
//!
//! Each connection runs as a reader/writer thread pair (the runtime
//! underneath is the scaling layer — shard workers bound the actual
//! engine parallelism; connection threads mostly park in socket reads
//! and reply waits). The protocol is strictly ordered: one response per
//! request, in request order — but the *reader* submits every
//! [`Request::SubmitBlock`] through [`Runtime::submit_with_reply`]
//! without waiting, handing the per-job reply slot to the *writer*'s
//! bounded FIFO; the writer resolves slots in order and frames each
//! [`Response::JobDone`] — success summary, engine error, or panic
//! notice — as the shards retire the jobs. A client that pipelines
//! blocks across tenants therefore keeps all of its submissions in
//! flight across the shards, and still observes every job's outcome
//! without a flush anywhere.
//!
//! Replies leave in bursts: the writer frames every response that is
//! already resolved into one buffer and flushes it — one `write` — only
//! when it is about to park, on an empty queue or on a job still
//! running. Accepted sockets set `TCP_NODELAY`, because under Nagle's
//! algorithm a burst written while the previous one is unacknowledged
//! waits for the client's delayed ACK (≈ 40 ms on Linux); with one write
//! per burst Nagle has nothing left to coalesce.
//!
//! Error containment: a payload that fails to *decode* is answered with
//! [`Response::Error`] and the connection continues (frame boundaries
//! are still sound); a broken *frame* (oversized length prefix,
//! truncation) desynchronizes the stream, so the connection is dropped.
//! Neither path panics the server (fuzzed in `tests/loopback.rs`).

use crate::proto::{
    Request, Response, TenantQuery, TenantReply, TriggerOutcome, WireDurability, WireStats,
};
use crate::wire::{read_frame, write_frame, WireError, MAX_FRAME, PROTOCOL_VERSION};
use chimera_lang::{parse_trigger_decls, pretty::print_trigger};
use chimera_runtime::{Job, JobReply, Runtime, TenantId};
use chimera_telemetry::{Counter as TelCounter, Gauge, Stage, Telemetry, TraceKind};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Responses queued between a connection's reader and writer halves.
/// Larger than any sane client pipeline window (the bundled client uses
/// 32), so a cooperating client never blocks the reader on this bound.
const SERVER_PIPELINE: usize = 256;

/// Wake a `listener.incoming()` loop parked on `addr` by connecting to
/// it once. A wildcard bind (0.0.0.0 / ::) is not self-connectable, so
/// the connection targets loopback on the bound port instead; the
/// attempt is time-bounded so a non-connectable address degrades to a
/// delay, never a hang.
fn wake_accept_loop(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let _ = TcpStream::connect_timeout(&target, std::time::Duration::from_secs(1));
}

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name announced in [`Response::HelloAck`].
    pub name: String,
    /// Per-frame payload bound for both directions.
    pub max_frame: usize,
    /// Accepted-connection cap: every connection holds a handler thread
    /// (reader + scoped writer), so an uncapped accept loop is an easy
    /// thread-exhaustion vector. A connection over the cap is answered
    /// with one typed [`Response::Busy`] frame and closed — never
    /// silently dropped.
    pub max_connections: usize,
    /// Bytes-in-flight cap per connection: the reader stops draining the
    /// socket while more than this many bytes of decoded-but-unanswered
    /// request payload are pending on the connection, resuming as the
    /// writer flushes responses. Without it a firehose client that
    /// pipelines faster than its jobs retire balloons server memory with
    /// decoded payloads parked in the writer queue; with it the excess
    /// stays in the socket's own (kernel-bounded) buffers and TCP
    /// backpressure reaches the client. One frame may overshoot the
    /// budget by its own length, so a single request larger than the cap
    /// still makes progress. `0` disables the cap. Throttle episodes are
    /// counted in the `Stats` reply (`net_reads_throttled`).
    pub max_bytes_in_flight: usize,
    /// Deadline for the *handshake*: a connection that has not delivered
    /// its `Hello` this long after being accepted is reaped (closed
    /// without an answer). Without it, an idle pre-handshake socket
    /// pins a handler thread forever — `max_connections` of them is a
    /// trivial denial of service against the connection cap.
    pub handshake_timeout: std::time::Duration,
    /// Idle deadline *after* the handshake: a connection whose next
    /// frame does not arrive within this window is reaped. `None`
    /// waits forever. Reaps of either kind are counted in the `Stats`
    /// reply (`net_conns_reaped`).
    pub read_timeout: Option<std::time::Duration>,
    /// Socket write deadline for responses: a peer that stops draining
    /// its receive window while completions are streaming out would
    /// otherwise park the writer in `write` forever. `None` waits
    /// forever.
    pub write_timeout: Option<std::time::Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "chimera-net".into(),
            max_frame: MAX_FRAME,
            max_connections: 256,
            max_bytes_in_flight: 1 << 20,
            handshake_timeout: std::time::Duration::from_secs(10),
            read_timeout: Some(std::time::Duration::from_secs(120)),
            write_timeout: Some(std::time::Duration::from_secs(30)),
        }
    }
}

/// Server-wide wire-layer counters, spliced into `Stats` replies (the
/// runtime underneath knows nothing about the wire layer).
#[derive(Default)]
struct NetCounters {
    /// Reader throttle episodes under the bytes-in-flight cap.
    throttled: AtomicU64,
    /// Connections reaped on an expired handshake or idle deadline.
    reaped: AtomicU64,
}

/// A connection's undecoded/unanswered payload budget, shared between
/// its reader (adds on decode, waits at the cap) and writer (subtracts
/// once a burst of responses is flushed).
struct InFlight {
    budget: Mutex<Budget>,
    changed: Condvar,
}

struct Budget {
    bytes: usize,
    /// Readers parked in [`InFlight::wait_below`] (0 or 1). A futex
    /// `notify` is a syscall even when no thread waits, so
    /// [`InFlight::sub`] signals only when one does.
    waiters: usize,
    /// The writer died on a socket error ([`InFlight::close`]): nothing
    /// pending will ever be answered, so the reader must not wait.
    closed: bool,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            budget: Mutex::new(Budget {
                bytes: 0,
                waiters: 0,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Budget> {
        self.budget.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn add(&self, cost: usize) {
        self.lock().bytes += cost;
    }

    fn sub(&self, cost: usize) {
        let mut b = self.lock();
        b.bytes -= cost.min(b.bytes);
        let waiting = b.waiters > 0;
        drop(b);
        if waiting {
            self.changed.notify_all();
        }
    }

    /// Release the whole budget for good: queued requests will never be
    /// answered, and a reader parked at the cap (or about to park) must
    /// leave instead of stranding there.
    fn close(&self) {
        let mut b = self.lock();
        b.bytes = 0;
        b.closed = true;
        drop(b);
        self.changed.notify_all();
    }

    /// Park until the in-flight total is under `budget` (re-checking
    /// `stop` periodically — a server shutdown must not strand a reader
    /// here). Returns `false` if the server stopped or the writer closed
    /// the budget while waiting. Counts one throttle episode into
    /// `throttled` if any waiting happened at all.
    fn wait_below(&self, budget: usize, stop: &AtomicBool, throttled: &AtomicU64) -> bool {
        let mut b = self.lock();
        if b.closed {
            return false;
        }
        if b.bytes < budget {
            return true;
        }
        throttled.fetch_add(1, Ordering::Relaxed);
        while b.bytes >= budget {
            if b.closed || stop.load(Ordering::SeqCst) {
                return false;
            }
            b.waiters += 1;
            let (guard, _) = self
                .changed
                .wait_timeout(b, std::time::Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner);
            b = guard;
            b.waiters -= 1;
        }
        !b.closed
    }
}

/// A live connection's bookkeeping: the handler thread plus a clone of
/// its stream, kept so shutdown can close the socket out from under a
/// blocked read (a parked handler can't observe the stop flag).
struct Conn {
    handle: JoinHandle<()>,
    stream: TcpStream,
}

/// A running server: an accept-loop thread plus one handler thread per
/// live connection, all over one shared [`Runtime`].
pub struct Server {
    addr: SocketAddr,
    runtime: Arc<Runtime>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl Server {
    /// Bind and start serving `runtime` on `addr` (use port 0 for an
    /// ephemeral port; [`Server::local_addr`] reports the real one).
    pub fn bind(
        addr: impl ToSocketAddrs,
        runtime: Arc<Runtime>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(NetCounters::default());
        let accept = {
            let runtime = Arc::clone(&runtime);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("chimera-net-accept".into())
                .spawn(move || {
                    // connection ids are handed out by the (single)
                    // accept thread; they key the telemetry traces and
                    // pick the recording shard for net-side series
                    let mut next_conn: u64 = 0;
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        let Ok(stream_clone) = stream.try_clone() else {
                            continue;
                        };
                        {
                            // the resource cap: reap finished handlers,
                            // then refuse with one typed Busy frame if
                            // the live count is still at the limit
                            let mut conns =
                                conns.lock().unwrap_or_else(PoisonError::into_inner);
                            conns.retain(|c| !c.handle.is_finished());
                            if conns.len() >= config.max_connections {
                                let busy = Response::Busy {
                                    active: conns.len() as u32,
                                    limit: config.max_connections as u32,
                                };
                                drop(conns);
                                let _ = write_frame(&mut stream, &busy.encode());
                                let _ = stream.shutdown(std::net::Shutdown::Both);
                                continue;
                            }
                        }
                        let conn_id = next_conn;
                        next_conn += 1;
                        {
                            let tel = runtime.telemetry();
                            tel.count(conn_id as usize, TelCounter::ConnsAccepted, 1);
                            tel.trace(conn_id as usize, TraceKind::ConnAccepted, conn_id, 0);
                            tel.gauge_add(Gauge::ConnsActive, 1);
                        }
                        let runtime = Arc::clone(&runtime);
                        let stop_conn = Arc::clone(&stop);
                        let counters_conn = Arc::clone(&counters);
                        let config = config.clone();
                        let handle = std::thread::Builder::new()
                            .name("chimera-net-conn".into())
                            .spawn(move || {
                                let done = stream.try_clone().ok();
                                let result = serve_conn(
                                    stream,
                                    conn_id,
                                    addr,
                                    &runtime,
                                    &config,
                                    &stop_conn,
                                    &counters_conn,
                                );
                                // classify the ending for the postmortem
                                // trace: reaped at a deadline, cut by a
                                // transport/framing error, or clean
                                let tel = runtime.telemetry();
                                match &result {
                                    Err(WireError::TimedOut) => {
                                        tel.count(conn_id as usize, TelCounter::ConnsReaped, 1);
                                        tel.trace(
                                            conn_id as usize,
                                            TraceKind::ConnReaped,
                                            conn_id,
                                            0,
                                        );
                                    }
                                    Err(_) => {
                                        tel.count(conn_id as usize, TelCounter::ConnsCut, 1);
                                        tel.trace(conn_id as usize, TraceKind::ConnCut, conn_id, 0);
                                    }
                                    Ok(()) => {}
                                }
                                tel.gauge_add(Gauge::ConnsActive, -1);
                                // actively close the TCP connection: the
                                // registry's clone would otherwise hold
                                // the socket open past the handler's
                                // death, and the peer would never see EOF
                                if let Some(s) = done {
                                    let _ = s.shutdown(std::net::Shutdown::Both);
                                }
                            })
                            .expect("spawn connection handler");
                        let mut conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                        conns.push(Conn {
                            handle,
                            stream: stream_clone,
                        });
                    }
                    // the stop flag is up (wire-side Shutdown or host
                    // shutdown): actively close every live connection so
                    // handlers parked in socket reads terminate now, not
                    // at the host's eventual join
                    let conns = conns.lock().unwrap_or_else(PoisonError::into_inner);
                    for conn in conns.iter() {
                        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    }
                })
                .expect("spawn accept loop")
        };
        Ok(Server {
            addr,
            runtime,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (real port, also when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared runtime (the host can inspect tenants directly).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Has a wire-side [`Request::Shutdown`] (or a host-side
    /// [`Server::shutdown`]) stopped the accept loop?
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stop accepting, close down the handler threads, and join them.
    /// The runtime is left running (it belongs to the host).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // wake the accept loop with a throwaway connection
        wake_accept_loop(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns: Vec<Conn> = {
            let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
            conns.drain(..).collect()
        };
        for conn in &conns {
            // unblock a handler parked in a socket read; an already
            // closed peer makes this a no-op error
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        for conn in conns {
            let _ = conn.handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("stopped", &self.is_stopped())
            .finish_non_exhaustive()
    }
}

/// One ordered response slot of a connection's writer queue.
enum Out {
    /// A submitted job's completion path: the writer takes the slot in
    /// FIFO order (preserving response-per-request order), parking on
    /// it only if the shard has not retired the job yet, and frames the
    /// `JobDone`. Job id and tenant ride along so even a vanished worker
    /// gets a correlated reply.
    Job {
        job: u64,
        tenant: u64,
        rx: Receiver<JobReply>,
    },
    /// An already-computed response, boxed so the channel payload stays
    /// small next to the job-completion variant.
    Resp(Box<Response>),
}

/// One writer-queue entry: the response slot, its request's payload
/// length (charged against the connection's bytes-in-flight budget
/// until the response is flushed) and the instant its frame finished
/// arriving (the connection-RTT histogram's start mark).
type Queued = (Out, usize, Option<std::time::Instant>);

/// One connection, split in two halves so pipelined submissions overlap
/// inside the runtime: the **reader** decodes requests and *submits*
/// jobs without waiting (their completion slots go into a bounded FIFO),
/// while the **writer** ([`write_replies`]) resolves that FIFO in order
/// and puts each burst of ready responses on the wire with one write —
/// so a client that pipelines N blocks across N tenants keeps N jobs in
/// flight across the shards instead of one. Response order remains
/// exactly request order. Returns when the peer closes cleanly, the
/// stream desynchronizes, or the server stops.
///
/// The socket runs with `TCP_NODELAY`: under Nagle's algorithm a burst
/// written while the previous one is unacknowledged waits out the
/// client's delayed ACK (see the module docs).
fn serve_conn(
    stream: TcpStream,
    conn: u64,
    server_addr: SocketAddr,
    runtime: &Runtime,
    config: &ServerConfig,
    stop: &AtomicBool,
    counters: &NetCounters,
) -> Result<(), WireError> {
    // deadlines are socket-level options, so setting them once on the
    // original stream covers both clones; reads and writes each consult
    // only their own deadline
    stream.set_write_timeout(config.write_timeout).ok();
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(WireError::from)?);
    let writer_stream = stream;
    let inflight = InFlight::new();
    let tel = runtime.telemetry().clone();
    std::thread::scope(|scope| {
        let (out_tx, out_rx) = sync_channel::<Queued>(SERVER_PIPELINE);
        let inflight = &inflight;
        let tel_writer = tel.clone();
        let writer =
            scope.spawn(move || write_replies(writer_stream, out_rx, inflight, &tel_writer, conn));
        let read_result = read_loop(
            &mut reader,
            conn,
            runtime,
            config,
            stop,
            counters,
            inflight,
            &out_tx,
        );
        // closing the queue lets the writer drain what's pending (every
        // accepted job still gets its completion on the wire) and exit
        drop(out_tx);
        let write_result = writer.join().expect("connection writer panicked");
        if matches!(read_result, Ok(true)) {
            // this connection acked a wire-side Shutdown. Only now —
            // with the writer drained, so the ack (and every pending
            // completion) is on the wire — wake the accept loop, whose
            // exit sweep force-closes the live sockets
            wake_accept_loop(server_addr);
        }
        read_result.map(|_| ()).and(write_result)
    })
}

/// The writer half of [`serve_conn`]: resolve `queue` in order and
/// frame each response into one buffer, flushing only when about to
/// park — on an empty queue, or on a job the shards have not retired
/// yet. Each flush is one `write`, so a burst of ready responses costs
/// one syscall rather than one per response. At each flush the burst's
/// payload budget goes back to `inflight` in one step and its requests'
/// connection-RTT samples are recorded (request fully read → response
/// flushed, queue waits and job execution included). On a socket error
/// the whole budget is released ([`InFlight::close`]), so the reader
/// never strands at the cap. Returns once the reader has closed the
/// queue and everything pending is on the wire.
fn write_replies<W: Write>(
    sink: W,
    queue: Receiver<Queued>,
    inflight: &InFlight,
    tel: &Telemetry,
    conn: u64,
) -> Result<(), WireError> {
    let mut burst = Burst {
        w: BufWriter::new(sink),
        frames: 0,
        cost: 0,
        arrivals: Vec::new(),
    };
    let result = burst.drain(&queue, inflight, tel, conn);
    if result.is_err() {
        inflight.close();
    }
    result
}

/// The responses [`write_replies`] has framed since its last flush.
struct Burst<W: Write> {
    w: BufWriter<W>,
    frames: usize,
    /// Their requests' payload bytes, still charged to the budget.
    cost: usize,
    /// Their requests' arrival marks (empty when telemetry is off).
    arrivals: Vec<std::time::Instant>,
}

impl<W: Write> Burst<W> {
    fn drain(
        &mut self,
        queue: &Receiver<Queued>,
        inflight: &InFlight,
        tel: &Telemetry,
        conn: u64,
    ) -> Result<(), WireError> {
        let mut next = queue.recv().ok();
        while let Some((item, cost, read_at)) = next {
            let resp = match item {
                Out::Job { job, tenant, rx } => {
                    let reply = match rx.try_recv() {
                        Ok(reply) => Ok(reply),
                        Err(TryRecvError::Empty) => {
                            // about to park on the shard: what is ready
                            // goes out first
                            self.flush(inflight, tel, conn)?;
                            rx.recv().map_err(|_| ())
                        }
                        Err(TryRecvError::Disconnected) => Err(()),
                    };
                    match reply {
                        Ok(reply) => Response::job_done(reply),
                        Err(()) => worker_gone(job, tenant),
                    }
                }
                Out::Resp(resp) => *resp,
            };
            write_frame(&mut self.w, &resp.encode())?;
            self.frames += 1;
            self.cost += cost;
            self.arrivals.extend(read_at);
            next = match queue.try_recv() {
                Ok(item) => Some(item),
                Err(TryRecvError::Empty) => {
                    self.flush(inflight, tel, conn)?;
                    queue.recv().ok()
                }
                Err(TryRecvError::Disconnected) => None,
            };
        }
        self.flush(inflight, tel, conn)
    }

    /// Put the burst on the wire, release its budget and record its
    /// connection-RTT samples. A no-op on an empty burst.
    fn flush(&mut self, inflight: &InFlight, tel: &Telemetry, conn: u64) -> Result<(), WireError> {
        if self.frames == 0 {
            return Ok(());
        }
        self.w.flush()?;
        inflight.sub(self.cost);
        for read_at in self.arrivals.drain(..) {
            tel.record_since(conn as usize, Stage::NetConnRtt, Some(read_at));
        }
        self.frames = 0;
        self.cost = 0;
        Ok(())
    }
}

/// The `JobDone` for a job whose shard worker vanished mid-job (only a
/// killed thread can do this): the job's fate is unknown.
fn worker_gone(job: u64, tenant: u64) -> Response {
    Response::JobDone {
        job,
        tenant,
        outcome: crate::proto::WireOutcome::Error {
            message: "shard worker is gone; job outcome unknown".into(),
        },
    }
}

/// The reader half of [`serve_conn`]. A failed `send` into the writer
/// queue means the writer died on a socket error — the connection is
/// over, so the reader just leaves. `Ok(true)` means this connection
/// acked a wire-side Shutdown (the caller wakes the accept loop once
/// the ack is flushed).
#[allow(clippy::too_many_arguments)]
fn read_loop(
    reader: &mut BufReader<TcpStream>,
    conn: u64,
    runtime: &Runtime,
    config: &ServerConfig,
    stop: &AtomicBool,
    counters: &NetCounters,
    inflight: &InFlight,
    out: &SyncSender<Queued>,
) -> Result<bool, WireError> {
    let tel = runtime.telemetry();
    let worker = conn as usize;
    // the handshake gate: nothing but a version-matched Hello is served
    // until one has been seen, so the version check cannot be bypassed
    let mut greeted = false;
    let accepted_at = std::time::Instant::now();
    loop {
        // a wire-side Shutdown from *any* connection stops this one at
        // its next request (and the accept loop closes parked sockets)
        if stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        // the bytes-in-flight cap: stop draining the socket while too
        // much unanswered payload is already pending — the backlog then
        // accumulates in the kernel socket buffers and TCP pushes back
        // on the client instead of this process allocating for it
        if config.max_bytes_in_flight > 0
            && !inflight.wait_below(config.max_bytes_in_flight, stop, &counters.throttled)
        {
            return Ok(false);
        }
        // until the handshake lands, arm each read with whatever is left
        // of the handshake window (the idle deadline is armed once, when
        // the Hello is accepted)
        if !greeted {
            match config.handshake_timeout.checked_sub(accepted_at.elapsed()) {
                Some(left) if !left.is_zero() => {
                    reader.get_ref().set_read_timeout(Some(left)).ok();
                }
                // window already spent (slow-trickle peer): reap now
                _ => {
                    counters.reaped.fetch_add(1, Ordering::Relaxed);
                    return Err(WireError::TimedOut);
                }
            }
        }
        let payload = match read_frame(reader, config.max_frame) {
            Ok(Some(p)) => p,
            // clean close between frames: the peer is done
            Ok(None) => return Ok(false),
            // deadline expired: the peer went quiet (possibly mid-frame,
            // so the stream position is unknowable) — reap without an
            // answer
            Err(WireError::TimedOut) => {
                counters.reaped.fetch_add(1, Ordering::Relaxed);
                return Err(WireError::TimedOut);
            }
            // broken framing: the stream position is unknowable, so
            // answer once and drop the connection
            Err(e) => {
                let _ = out.send((
                    Out::Resp(Box::new(Response::Error {
                        message: e.to_string(),
                    })),
                    0,
                    None,
                ));
                return Err(e);
            }
        };
        // the frame is fully in: the connection-RTT clock starts here
        // (one shared reading also serves as the decode stage's start)
        let read_at = tel.start();
        // charge the request's payload against the budget until its
        // response is flushed (the writer releases it)
        let cost = payload.len();
        inflight.add(cost);
        let req = Request::decode(&payload);
        tel.record_since(worker, Stage::NetFrameDecode, read_at);
        let req = match req {
            // a payload-level decode error leaves frame boundaries
            // intact: answer and keep serving (the handshake, if still
            // pending, stays pending)
            Err(e) => {
                let sent = out.send((
                    Out::Resp(Box::new(Response::Error {
                        message: e.to_string(),
                    })),
                    cost,
                    read_at,
                ));
                if sent.is_err() {
                    return Ok(false);
                }
                continue;
            }
            Ok(req) => req,
        };
        if !greeted && !matches!(req, Request::Hello { .. }) {
            let _ = out.send((
                Out::Resp(Box::new(Response::Error {
                    message: "handshake required: the first request must be Hello".into(),
                })),
                cost,
                read_at,
            ));
            return Ok(false);
        }
        match req {
            // the hot path: submit and move on — the writer delivers
            // the completion when the shard retires the job
            Request::SubmitBlock { tenant, job } => {
                let item = match runtime.submit_with_reply(TenantId(tenant), job.into_job())
                {
                    Ok((id, rx)) => Out::Job {
                        job: id.0,
                        tenant,
                        rx,
                    },
                    // a rejected submission (shed, worker gone) still
                    // gets a JobDone-shaped reply so pipelined clients
                    // keep exact submission↔completion accounting
                    Err(e) => Out::Resp(Box::new(Response::JobDone {
                        job: crate::proto::JOB_REJECTED,
                        tenant,
                        outcome: crate::proto::WireOutcome::Error {
                            message: e.to_string(),
                        },
                    })),
                };
                if out.send((item, cost, read_at)).is_err() {
                    return Ok(false);
                }
            }
            Request::Hello { .. } => {
                let resp = timed_handle(req, runtime, config, counters, worker);
                let rejected = matches!(resp, Response::Error { .. });
                let sent = out.send((Out::Resp(Box::new(resp)), cost, read_at));
                if rejected || sent.is_err() {
                    // a version-mismatched client must not keep talking:
                    // its frames would be misread under this version
                    return Ok(false);
                }
                greeted = true;
                reader.get_ref().set_read_timeout(config.read_timeout).ok();
            }
            Request::Shutdown => {
                let resp = timed_handle(req, runtime, config, counters, worker);
                // only an acked shutdown stops the server: a failed
                // pre-shutdown flush is answered with Error and the
                // server keeps serving (no side effect behind an error)
                let acked = matches!(resp, Response::ShutdownAck);
                if acked {
                    // stop *before* the ack is on the wire, so a client
                    // that saw the ack observes a stopped server
                    stop.store(true, Ordering::SeqCst);
                }
                let sent = out.send((Out::Resp(Box::new(resp)), cost, read_at));
                if acked {
                    // the caller wakes the accept loop once the writer
                    // has flushed the ack (waking earlier would let the
                    // exit sweep close this socket under the ack)
                    return Ok(true);
                }
                if sent.is_err() {
                    return Ok(false);
                }
            }
            req => {
                let resp = timed_handle(req, runtime, config, counters, worker);
                let sent = out.send((Out::Resp(Box::new(resp)), cost, read_at));
                if sent.is_err() {
                    return Ok(false);
                }
            }
        }
    }
}

/// [`handle`] with its wall-clock cost recorded into the
/// [`Stage::NetHandler`] histogram (no clock read when telemetry is
/// off). The submit path is not routed through here — its cost is the
/// job's own pipeline, measured stage by stage on the runtime side.
fn timed_handle(
    req: Request,
    runtime: &Runtime,
    config: &ServerConfig,
    counters: &NetCounters,
    worker: usize,
) -> Response {
    let tel = runtime.telemetry();
    let started = tel.start();
    let resp = handle(req, runtime, config, counters);
    tel.record_since(worker, Stage::NetHandler, started);
    resp
}

/// Serve one decoded request. `counters` are the server-wide wire-layer
/// counts (throttle episodes, reaped connections), spliced into the
/// `Stats` reply (the runtime knows nothing about the wire layer).
fn handle(
    req: Request,
    runtime: &Runtime,
    config: &ServerConfig,
    counters: &NetCounters,
) -> Response {
    match req {
        Request::Hello {
            version,
            client: _,
            durability,
        } => {
            let provided = WireDurability::of_storage(runtime.storage());
            if version != PROTOCOL_VERSION {
                Response::Error {
                    message: format!(
                        "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                    ),
                }
            } else if let Some(required) = durability.filter(|&d| d != provided) {
                Response::Error {
                    message: format!(
                        "durability mismatch: client requires {required}, server provides {provided}"
                    ),
                }
            } else {
                Response::HelloAck {
                    version: PROTOCOL_VERSION,
                    server: config.name.clone(),
                    shards: runtime.shard_count() as u32,
                    durability: provided,
                }
            }
        }
        Request::DefineTriggers { tenant, source } => {
            define_triggers(runtime, TenantId(tenant), &source)
        }
        Request::SubmitBlock { tenant, job } => {
            submit_block(runtime, TenantId(tenant), job.into_job())
        }
        Request::Flush => match runtime.flush() {
            Ok(()) => Response::FlushDone,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Stats => {
            let mut stats = WireStats::from(runtime.stats());
            stats.net_reads_throttled = counters.throttled.load(Ordering::Relaxed);
            stats.net_conns_reaped = counters.reaped.load(Ordering::Relaxed);
            Response::StatsReply(stats)
        }
        Request::WithTenantQuery { tenant, query } => {
            Response::TenantReply(tenant_query(runtime, TenantId(tenant), query))
        }
        Request::MetricsSnapshot => Response::MetricsReply(runtime.telemetry().snapshot()),
        Request::Shutdown => match runtime.flush() {
            Ok(()) => Response::ShutdownAck,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
    }
}

/// Blocking fallback for a [`Request::SubmitBlock`] that reaches
/// [`handle`]: submit and park on the completion slot. The read loop
/// normally intercepts submissions before `handle` to pipeline them
/// through the writer queue; this path keeps `handle` total.
fn submit_block(runtime: &Runtime, tenant: TenantId, job: Job) -> Response {
    match runtime.submit_with_reply(tenant, job) {
        Err(e) => Response::JobDone {
            job: crate::proto::JOB_REJECTED,
            tenant: tenant.0,
            outcome: crate::proto::WireOutcome::Error {
                message: e.to_string(),
            },
        },
        Ok((id, rx)) => match rx.recv() {
            Ok(reply) => Response::job_done(reply),
            Err(_) => worker_gone(id.0, tenant.0),
        },
    }
}

/// Parse `define trigger` source against the runtime schema and install
/// each declaration on the tenant's engine, waiting for every definition
/// to be applied. Every declaration is attempted and gets its own
/// [`TriggerOutcome`] — a failed one no longer hides the rest (only a
/// source that fails to *parse* is answered with [`Response::Error`],
/// since no declarations exist to report on). Each declaration travels
/// as [`Job::DefineTriggerSource`] — its pretty-printed source text —
/// so a durable runtime logs it replayably.
fn define_triggers(runtime: &Runtime, tenant: TenantId, source: &str) -> Response {
    let decls = match parse_trigger_decls(source, runtime.schema()) {
        Ok(d) => d,
        Err(e) => {
            return Response::Error {
                message: format!("trigger parse error: {e}"),
            }
        }
    };
    let mut outcomes = Vec::with_capacity(decls.len());
    for decl in &decls {
        let src = print_trigger(decl, runtime.schema());
        let submitted = runtime.submit_with_reply(tenant, Job::DefineTriggerSource(src));
        let outcome = match submitted {
            Ok((_, rx)) => rx.recv().map_err(|_| "shard worker is gone".to_string()),
            Err(e) => Err(e.to_string()),
        };
        let error = match outcome {
            Ok(reply) if reply.outcome.is_done() => None,
            Ok(reply) => Some(format!("rejected: {:?}", reply.outcome)),
            Err(message) => Some(message),
        };
        outcomes.push(TriggerOutcome {
            name: decl.name.clone(),
            error,
        });
    }
    Response::TriggersDefined { outcomes }
}

/// Read one tenant engine through [`Runtime::with_tenant`].
fn tenant_query(runtime: &Runtime, tenant: TenantId, query: TenantQuery) -> TenantReply {
    match query {
        TenantQuery::Extent { class } => runtime
            .with_tenant(tenant, |e| {
                let mut oids: Vec<u64> =
                    e.extent(chimera_model::ClassId(class)).iter().map(|o| o.0).collect();
                oids.sort_unstable();
                TenantReply::Extent(oids)
            })
            .unwrap_or(TenantReply::NoSuchTenant),
        TenantQuery::EventLogLen => runtime
            .with_tenant(tenant, |e| {
                TenantReply::EventLogLen(e.event_base().len() as u64)
            })
            .unwrap_or(TenantReply::NoSuchTenant),
        TenantQuery::Errors => runtime
            .tenant_errors(tenant)
            .map(|(count, last)| TenantReply::Errors { count, last })
            .unwrap_or(TenantReply::NoSuchTenant),
        TenantQuery::EngineStats => runtime
            .with_tenant(tenant, |e| {
                let s = e.stats();
                TenantReply::EngineStats {
                    blocks: s.blocks,
                    events: s.events,
                    considerations: s.considerations,
                    executions: s.executions,
                    commits: s.commits,
                    rollbacks: s.rollbacks,
                }
            })
            .unwrap_or(TenantReply::NoSuchTenant),
    }
}

#[cfg(test)]
mod tests {
    //! The connection writer over an in-memory sink: no sockets, no
    //! sleeps. Every wait on the writer thread is watchdogged.

    use super::*;
    use chimera_runtime::{JobId, JobOutcome};
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Sender};
    use std::time::Duration;

    const WATCHDOG: Duration = Duration::from_secs(5);

    /// A `Write` that keeps what it is given, counts its `write` calls
    /// and reports the bytes held at each `flush`.
    struct Sink {
        bytes: Arc<Mutex<Vec<u8>>>,
        writes: Arc<AtomicUsize>,
        flushes: Sender<usize>,
        fail: bool,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.fail {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
            }
            self.writes.fetch_add(1, Ordering::SeqCst);
            self.bytes.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            let _ = self.flushes.send(self.bytes.lock().unwrap().len());
            Ok(())
        }
    }

    struct Wire {
        bytes: Arc<Mutex<Vec<u8>>>,
        writes: Arc<AtomicUsize>,
        flushes: Receiver<usize>,
    }

    fn sink(fail: bool) -> (Sink, Wire) {
        let (tx, rx) = channel();
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let writes = Arc::new(AtomicUsize::new(0));
        let sink = Sink {
            bytes: Arc::clone(&bytes),
            writes: Arc::clone(&writes),
            flushes: tx,
            fail,
        };
        (
            sink,
            Wire {
                bytes,
                writes,
                flushes: rx,
            },
        )
    }

    /// The responses in the first `len` bytes on the wire.
    fn frames(wire: &Wire, len: usize) -> Vec<Response> {
        let bytes = wire.bytes.lock().unwrap();
        let mut cursor = &bytes[..len];
        let mut out = Vec::new();
        while let Some(payload) = read_frame(&mut cursor, MAX_FRAME).unwrap() {
            out.push(Response::decode(&payload).unwrap());
        }
        out
    }

    fn resp(n: u32) -> Response {
        Response::Busy {
            active: n,
            limit: n,
        }
    }

    fn reply(job: u64) -> JobReply {
        JobReply {
            job: JobId(job),
            tenant: TenantId(job + 100),
            outcome: JobOutcome::Error(format!("job {job}")),
        }
    }

    /// A job slot and the sender that resolves it.
    fn slot(job: u64) -> (Out, SyncSender<JobReply>) {
        let (tx, rx) = sync_channel(1);
        (
            Out::Job {
                job,
                tenant: job + 100,
                rx,
            },
            tx,
        )
    }

    fn budget(inflight: &InFlight) -> usize {
        inflight.lock().bytes
    }

    #[test]
    fn a_ready_burst_goes_out_in_request_order_with_one_write() {
        let (sink, wire) = sink(false);
        let (tx, rx) = sync_channel::<Queued>(SERVER_PIPELINE);
        let inflight = InFlight::new();
        let tel = Telemetry::new(1);
        let mut expected = Vec::new();
        let mut resolvers = Vec::new();
        for i in 0..8u64 {
            let item = if i % 2 == 0 {
                let (out, resolve) = slot(i);
                resolve.send(reply(i)).unwrap();
                resolvers.push(resolve);
                expected.push(Response::job_done(reply(i)));
                out
            } else {
                expected.push(resp(i as u32));
                Out::Resp(Box::new(resp(i as u32)))
            };
            inflight.add(10);
            tx.send((item, 10, tel.start())).unwrap();
        }
        drop(tx);
        write_replies(sink, rx, &inflight, &tel, 0).unwrap();
        let flushes: Vec<usize> = wire.flushes.try_iter().collect();
        assert_eq!(flushes.len(), 1, "one flush for the whole burst");
        assert_eq!(
            wire.writes.load(Ordering::SeqCst),
            1,
            "one write for the whole burst"
        );
        assert_eq!(frames(&wire, flushes[0]), expected);
        assert_eq!(budget(&inflight), 0);
        let rtt = tel.snapshot();
        assert_eq!(
            rtt.hist("net_conn_rtt").unwrap().count(),
            8,
            "one RTT sample per frame"
        );
    }

    #[test]
    fn an_unresolved_job_flushes_the_frames_before_it_first() {
        let (sink, wire) = sink(false);
        let (tx, rx) = sync_channel::<Queued>(SERVER_PIPELINE);
        let (pending, resolve) = slot(7);
        for item in [
            Out::Resp(Box::new(resp(1))),
            Out::Resp(Box::new(resp(2))),
            pending,
            Out::Resp(Box::new(resp(3))),
        ] {
            tx.send((item, 0, None)).unwrap();
        }
        let (done_tx, done_rx) = channel();
        let writer = std::thread::spawn(move || {
            let inflight = InFlight::new();
            let result = write_replies(sink, rx, &inflight, &Telemetry::off(), 0);
            done_tx.send(result.is_ok()).unwrap();
        });
        // the writer parks on job 7 only after the two frames before it
        // are on the wire
        let first = wire
            .flushes
            .recv_timeout(WATCHDOG)
            .expect("no flush before parking");
        assert_eq!(frames(&wire, first), vec![resp(1), resp(2)]);
        resolve.send(reply(7)).unwrap();
        let second = wire
            .flushes
            .recv_timeout(WATCHDOG)
            .expect("no flush after the job");
        assert_eq!(
            frames(&wire, second),
            vec![resp(1), resp(2), Response::job_done(reply(7)), resp(3)]
        );
        drop(tx);
        assert!(done_rx
            .recv_timeout(WATCHDOG)
            .expect("writer never returned"));
        writer.join().unwrap();
        assert!(
            wire.flushes.try_recv().is_err(),
            "nothing left to flush at close"
        );
    }

    #[test]
    fn a_failing_writer_releases_the_whole_pending_budget() {
        let (sink, _wire) = sink(true);
        let (tx, rx) = sync_channel::<Queued>(SERVER_PIPELINE);
        let inflight = Arc::new(InFlight::new());
        // the unresolved job makes the writer flush (and fail) while the
        // job and the response behind it are still charged
        let (pending, _resolve) = slot(1);
        for (item, cost) in [
            (Out::Resp(Box::new(resp(0))), 10),
            (pending, 20),
            (Out::Resp(Box::new(resp(2))), 30),
        ] {
            inflight.add(cost);
            tx.send((item, cost, None)).unwrap();
        }
        let (done_tx, done_rx) = channel();
        let writer = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || {
                let result = write_replies(sink, rx, &inflight, &Telemetry::off(), 0);
                done_tx.send(result.is_err()).unwrap();
            })
        };
        assert!(done_rx
            .recv_timeout(WATCHDOG)
            .expect("writer parked without flushing"));
        writer.join().unwrap();
        assert_eq!(budget(&inflight), 0);
        // and a reader at (or arriving at) the cap leaves instead of
        // stranding there
        inflight.add(100);
        let (left_tx, left_rx) = channel();
        let reader = std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            let admitted = inflight.wait_below(1, &stop, &AtomicU64::new(0));
            left_tx.send(admitted).unwrap();
        });
        assert!(!left_rx
            .recv_timeout(WATCHDOG)
            .expect("reader stranded at the cap"));
        reader.join().unwrap();
        drop(tx);
    }

    #[test]
    fn a_vanished_worker_still_gets_its_correlated_job_done() {
        let (sink, wire) = sink(false);
        let (tx, rx) = sync_channel::<Queued>(SERVER_PIPELINE);
        let (gone, resolve) = slot(9);
        drop(resolve);
        tx.send((gone, 0, None)).unwrap();
        drop(tx);
        write_replies(sink, rx, &InFlight::new(), &Telemetry::off(), 0).unwrap();
        let len = wire.bytes.lock().unwrap().len();
        assert_eq!(frames(&wire, len), vec![worker_gone(9, 109)]);
        assert!(matches!(
            &frames(&wire, len)[0],
            Response::JobDone {
                job: 9,
                tenant: 109,
                outcome: crate::proto::WireOutcome::Error { .. }
            }
        ));
    }
}
