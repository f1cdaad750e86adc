//! Loopback server suite: a live end-to-end smoke over every request
//! kind, per-job completion semantics, and a malformed-input fuzz loop
//! against the server's frame parser (the server must never panic and
//! must keep serving well-formed clients afterwards).

use chimera_calculus::EventExpr;
use chimera_events::EventType;
use chimera_model::{AttrDef, AttrType, Schema, SchemaBuilder, Value};
use chimera_net::wire::write_frame;
use chimera_net::{
    Client, ExternalEvent, NetError, Server, ServerConfig, TenantQuery, TenantReply, WireJob,
    WireOp, WireOutcome,
};
use chimera_rules::TriggerDef;
use chimera_runtime::{Backpressure, Runtime, RuntimeConfig};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class(
        "stock",
        None,
        vec![
            AttrDef::new("quantity", AttrType::Integer),
            AttrDef::with_default("max_quantity", AttrType::Integer, Value::Int(100)),
        ],
    )
    .unwrap();
    b.build()
}

/// One runtime-wide trigger: every external tick on channel 1 creates a
/// stock object (an observable firing).
fn tick_trigger(s: &Schema) -> TriggerDef {
    let stock = s.class_by_name("stock").unwrap();
    let mut def = TriggerDef::new("onTick", EventExpr::prim(EventType::external(stock, 1)));
    def.actions = vec![chimera_rules::ActionStmt::Create {
        class: "stock".into(),
        inits: vec![],
    }];
    def
}

fn start_server(triggers: Vec<TriggerDef>) -> Server {
    let s = schema();
    let rt = Runtime::new(
        s,
        triggers,
        RuntimeConfig {
            shards: 2,
            queue_capacity: 16,
            backpressure: Backpressure::Block,
            engine: Default::default(),
            ..Default::default()
        },
    )
    .unwrap();
    Server::bind("127.0.0.1:0", Arc::new(rt), ServerConfig::default()).unwrap()
}

#[test]
fn full_request_vocabulary_round_trips() {
    let server = start_server(vec![tick_trigger(&schema())]);
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.server_name(), "chimera-net");
    assert_eq!(c.shards(), 2);

    let stock = 0u32; // ClassId(0) in this schema
    let tenant = 7u64;

    // begin + raise: the tick trigger fires, summary says so
    c.begin(tenant).unwrap();
    let done = c
        .submit_wait(
            tenant,
            WireJob::RaiseExternal(vec![ExternalEvent {
                class: stock,
                channel: 1,
                oid: 0,
            }]),
        )
        .unwrap();
    match done.outcome {
        WireOutcome::Done {
            events,
            considerations,
            executions,
        } => {
            assert_eq!(events, 2, "1 external + 1 rule-action create");
            assert_eq!(considerations, 1);
            assert_eq!(executions, 1);
        }
        other => panic!("expected Done, got {other:?}"),
    }

    // an exec block with a typed Value payload
    let done = c
        .submit_wait(
            tenant,
            WireJob::ExecBlock(vec![WireOp::Create {
                class: stock,
                inits: vec![(0, Value::Int(42))],
            }]),
        )
        .unwrap();
    assert!(done.outcome.is_done());
    c.commit(tenant).unwrap();

    // an engine error comes back as an Error outcome on the job itself
    let done = c.submit_wait(tenant, WireJob::Commit).unwrap();
    match &done.outcome {
        WireOutcome::Error { message } => assert!(message.contains("no active transaction")),
        other => panic!("expected Error outcome, got {other:?}"),
    }

    // tenant-local triggers defined over the wire, from concrete syntax
    let outcomes = c
        .define_triggers(
            tenant,
            "define immediate trigger clampQty for stock
               events modify(quantity)
               condition stock(S), S.quantity > S.max_quantity
               actions modify(S.quantity, S.max_quantity)
             end",
        )
        .unwrap();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].name, "clampQty");
    assert!(outcomes[0].is_defined(), "{:?}", outcomes[0].error);
    // a bad one is a remote error, not a dead connection
    match c.define_triggers(tenant, "define trigger t events create(ghost) end") {
        Err(NetError::Remote(msg)) => assert!(msg.contains("parse error"), "{msg}"),
        other => panic!("expected Remote, got {other:?}"),
    }

    // flush + stats + tenant inspection
    c.flush().unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.job_errors, 1);
    assert_eq!(stats.commits, 1);
    match c.tenant_query(tenant, TenantQuery::Extent { class: stock }).unwrap() {
        // tick-created + block-created objects survived the commit
        TenantReply::Extent(oids) => assert_eq!(oids.len(), 2),
        other => panic!("expected Extent, got {other:?}"),
    }
    match c.tenant_query(tenant, TenantQuery::Errors).unwrap() {
        TenantReply::Errors { count, last } => {
            assert_eq!(count, 1);
            assert!(last.unwrap().contains("no active transaction"));
        }
        other => panic!("expected Errors, got {other:?}"),
    }
    // a tenant that never submitted has no engine
    assert_eq!(
        c.tenant_query(99, TenantQuery::EventLogLen).unwrap(),
        TenantReply::NoSuchTenant
    );

    server.shutdown();
}

#[test]
fn pipelined_submissions_all_complete_in_order() {
    let server = start_server(vec![]);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let stock = 0u32;
    const TENANTS: u64 = 16;
    const BLOCKS: u64 = 8;
    let mut completions = Vec::new();
    for t in 0..TENANTS {
        if let Some(d) = c.begin(t).unwrap() {
            completions.push(d);
        }
    }
    for b in 0..BLOCKS {
        for t in 0..TENANTS {
            let d = c
                .raise_external(
                    t,
                    vec![ExternalEvent {
                        class: stock,
                        channel: (b % 3) as u32,
                        oid: b,
                    }],
                )
                .unwrap();
            completions.extend(d);
        }
    }
    for t in 0..TENANTS {
        completions.extend(c.commit(t).unwrap());
    }
    completions.extend(c.drain().unwrap());
    // every submission got exactly one completion, in submission order,
    // with no flush anywhere
    assert_eq!(completions.len() as u64, TENANTS * (BLOCKS + 2));
    let ids: Vec<u64> = completions.iter().map(|d| d.job).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "completions arrive in submission order");
    assert!(completions.iter().all(|d| d.outcome.is_done()));
    let stats = c.stats().unwrap();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert_eq!(stats.tenants, TENANTS);
    server.shutdown();
}

/// A pipelined burst must not wait out the client's delayed ACK. With
/// Nagle's algorithm on the accepted socket and one write per reply, a
/// reply written while the previous one was unacknowledged was held
/// until that ACK (≈ 40 ms on Linux), so each round below paid one
/// timeout and 50 rounds took over 2 s. The bound leaves a wide margin
/// for a loaded host.
#[test]
fn pipelined_bursts_do_not_wait_out_a_delayed_ack() {
    let server = start_server(vec![]);
    let mut c = Client::connect(server.local_addr()).unwrap();
    let tick = |oid| ExternalEvent {
        class: 0,
        channel: 2,
        oid,
    };
    let started = std::time::Instant::now();
    for round in 0..50u64 {
        let t = round % 4;
        assert!(c.begin(t).unwrap().is_none());
        assert!(c.raise_external(t, vec![tick(round)]).unwrap().is_none());
        assert!(c
            .raise_external(t, vec![tick(round + 1)])
            .unwrap()
            .is_none());
        assert!(c.commit(t).unwrap().is_none());
        let done = c.drain().unwrap();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|d| d.outcome.is_done()));
    }
    let took = started.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "50 pipelined rounds took {took:?}: replies are waiting for delayed ACKs"
    );
    server.shutdown();
}

#[test]
fn malformed_input_cannot_kill_the_server() {
    let server = start_server(vec![]);
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(0xBADF00D);

    for round in 0..20 {
        let mut sock = TcpStream::connect(addr).unwrap();
        match round % 4 {
            // raw byte soup (usually an insane length prefix)
            0 => {
                let n = rng.random_range(1..64usize);
                let soup: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
                let _ = sock.write_all(&soup);
            }
            // a well-framed payload full of garbage
            1 => {
                let n = rng.random_range(1..48usize);
                let soup: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
                let _ = write_frame(&mut sock, &soup);
            }
            // a frame announcing more than it delivers, then a hangup
            2 => {
                let _ = sock.write_all(&1000u32.to_le_bytes());
                let _ = sock.write_all(&[0u8; 10]);
            }
            // a frame over the server's bound
            _ => {
                let _ = sock.write_all(&(u32::MAX).to_le_bytes());
            }
        }
        drop(sock);
    }

    // truncated *valid* requests: cut a real encoding mid-frame
    let hello = chimera_net::Request::Hello {
        version: chimera_net::PROTOCOL_VERSION,
        client: "fuzz".into(),
        durability: None,
    }
    .encode();
    for cut in 1..hello.len() {
        let mut sock = TcpStream::connect(addr).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &hello).unwrap();
        let _ = sock.write_all(&framed[..4 + cut]);
        drop(sock);
    }

    // a garbage payload in a sound frame gets an Error *response* and
    // the connection keeps serving
    let mut sock = TcpStream::connect(addr).unwrap();
    write_frame(&mut sock, &[0xEE, 0x01, 0x02]).unwrap();
    let reply = chimera_net::read_frame(&mut sock, 1 << 20).unwrap().unwrap();
    match chimera_net::Response::decode(&reply).unwrap() {
        chimera_net::Response::Error { message } => {
            assert!(message.contains("unknown tag"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // same connection, now a valid request
    write_frame(
        &mut sock,
        &chimera_net::Request::Hello {
            version: chimera_net::PROTOCOL_VERSION,
            client: "post-garbage".into(),
            durability: None,
        }
        .encode(),
    )
    .unwrap();
    let reply = chimera_net::read_frame(&mut sock, 1 << 20).unwrap().unwrap();
    assert!(matches!(
        chimera_net::Response::decode(&reply).unwrap(),
        chimera_net::Response::HelloAck { .. }
    ));
    drop(sock);

    // after all that, a fresh well-formed client still works end to end
    let mut c = Client::connect(addr).unwrap();
    c.begin(1).unwrap();
    c.commit(1).unwrap();
    let done = c.drain().unwrap();
    assert_eq!(done.len(), 2);
    assert!(done.iter().all(|d| d.outcome.is_done()));
    server.shutdown();
}

#[test]
fn wire_shutdown_stops_the_server() {
    let server = start_server(vec![]);
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.begin(3).unwrap();
    c.commit(3).unwrap();
    c.drain().unwrap();
    c.shutdown_server().unwrap();
    assert!(server.is_stopped());
    server.shutdown(); // idempotent from the host side
    // the listener is gone: new connections fail outright
    assert!(Client::connect(addr).is_err());
}

#[test]
fn handshake_is_mandatory() {
    let server = start_server(vec![]);
    let addr = server.local_addr();
    // first well-formed request is not Hello: answered + closed
    let mut sock = TcpStream::connect(addr).unwrap();
    write_frame(&mut sock, &chimera_net::Request::Stats.encode()).unwrap();
    let reply = chimera_net::read_frame(&mut sock, 1 << 20).unwrap().unwrap();
    match chimera_net::Response::decode(&reply).unwrap() {
        chimera_net::Response::Error { message } => {
            assert!(message.contains("handshake required"), "{message}")
        }
        other => panic!("expected Error, got {other:?}"),
    }
    let mut rest = Vec::new();
    let _ = sock.read_to_end(&mut rest); // server closed the connection
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn version_mismatch_is_rejected() {
    let server = start_server(vec![]);
    let addr = server.local_addr();
    // the previous version is refused like any other: no decoder keeps
    // an earlier layout
    let current = chimera_net::PROTOCOL_VERSION;
    for version in [current - 1, current + 1, 999] {
        let mut sock = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut sock,
            &chimera_net::Request::Hello {
                version,
                client: "time traveler".into(),
                durability: None,
            }
            .encode(),
        )
        .unwrap();
        let reply = chimera_net::read_frame(&mut sock, 1 << 20).unwrap().unwrap();
        match chimera_net::Response::decode(&reply).unwrap() {
            chimera_net::Response::Error { message } => {
                assert!(message.contains("version mismatch"), "{message}")
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // keep the read half open so the server-side write can't race the
        // hangup; explicit shutdown of our write half signals we're done
        let _ = sock.shutdown(std::net::Shutdown::Write);
        let mut rest = Vec::new();
        let _ = sock.read_to_end(&mut rest);
    }
    server.shutdown();
}

#[test]
fn per_trigger_outcomes_survive_a_bad_declaration() {
    let server = start_server(vec![]);
    let mut c = Client::connect(server.local_addr()).unwrap();
    // three declarations: ok, duplicate name (engine refusal), ok — the
    // middle failure must not hide the third
    let outcomes = c
        .define_triggers(
            5,
            "define immediate trigger first for stock
               events modify(quantity)
               condition stock(S), S.quantity > S.max_quantity
               actions modify(S.quantity, S.max_quantity)
             end
             define immediate trigger first for stock
               events modify(quantity)
               condition stock(S), S.quantity > S.max_quantity
               actions modify(S.quantity, S.max_quantity)
             end
             define immediate trigger second for stock
               events modify(quantity)
               condition stock(S), S.quantity < 0
               actions modify(S.quantity, 0)
             end",
        )
        .unwrap();
    assert_eq!(outcomes.len(), 3);
    assert!(outcomes[0].is_defined(), "{:?}", outcomes[0].error);
    assert!(!outcomes[1].is_defined(), "duplicate name must be refused");
    assert!(outcomes[2].is_defined(), "{:?}", outcomes[2].error);
    assert_eq!(
        outcomes.iter().map(|o| o.name.as_str()).collect::<Vec<_>>(),
        ["first", "first", "second"]
    );
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_typed_busy() {
    let s = schema();
    let rt = Runtime::new(s, vec![], RuntimeConfig::default()).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(rt),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let c1 = Client::connect(addr).unwrap();
    let c2 = Client::connect(addr).unwrap();
    // over the cap: one typed Busy frame, then the connection closes
    match Client::connect(addr) {
        Err(NetError::Busy { active: 2, limit: 2 }) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    // freeing a slot lets a new connection in (the accept loop reaps
    // finished handlers; give the dropped client's handler a moment)
    drop(c1);
    let mut again = Err(NetError::Closed);
    for _ in 0..100 {
        again = Client::connect(addr);
        if again.is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let c3 = again.expect("slot freed by dropping c1");
    drop(c3);
    drop(c2);
    server.shutdown();
}

#[test]
fn bytes_in_flight_cap_throttles_reads_but_answers_everything() {
    let s = schema();
    let rt = Runtime::new(
        s,
        vec![],
        RuntimeConfig {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(rt),
        ServerConfig {
            // every request payload exceeds this budget, so the reader
            // must stop draining the socket after each decoded frame
            // until its response is flushed — maximum throttling, while
            // a pipelining client keeps pushing frames into the socket
            max_bytes_in_flight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let stock = 0u32;
    const BLOCKS: u64 = 64;
    let tenant = 9u64;
    let mut completions = Vec::new();
    completions.extend(c.begin(tenant).unwrap());
    for b in 0..BLOCKS {
        completions.extend(
            c.raise_external(
                tenant,
                vec![ExternalEvent {
                    class: stock,
                    channel: 0,
                    oid: b,
                }],
            )
            .unwrap(),
        );
    }
    completions.extend(c.commit(tenant).unwrap());
    completions.extend(c.drain().unwrap());
    // the cap slows the reader down; it must not lose or reorder anything
    assert_eq!(completions.len() as u64, BLOCKS + 2);
    assert!(completions.iter().all(|d| d.outcome.is_done()));
    let ids: Vec<u64> = completions.iter().map(|d| d.job).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted);
    let stats = c.stats().unwrap();
    assert_eq!(stats.jobs_processed, stats.jobs_submitted);
    assert!(
        stats.net_reads_throttled >= 1,
        "reader never hit the 1-byte budget: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn silent_connection_is_reaped_at_handshake_deadline() {
    let s = schema();
    let rt = Runtime::new(s, vec![], RuntimeConfig::default()).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(rt),
        ServerConfig {
            handshake_timeout: std::time::Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // connect and say nothing: the server must close the connection at
    // the handshake deadline without answering anything
    let start = std::time::Instant::now();
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut buf = [0u8; 16];
    let n = sock.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a silent connection gets no bytes, just a close");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "the reap must happen at the deadline, not at some idle timeout"
    );
    drop(sock);
    // the reaped connection is counted, and well-behaved clients (which
    // complete the handshake immediately) are unaffected
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.net_conns_reaped >= 1, "stats = {stats:?}");
    c.begin(1).unwrap();
    c.commit(1).unwrap();
    assert!(c.drain().unwrap().iter().all(|d| d.outcome.is_done()));
    server.shutdown();
}

#[test]
fn handshake_negotiates_durability() {
    use chimera_net::WireDurability;
    let server = start_server(vec![]);
    let addr = server.local_addr();
    // this runtime is in-memory: requiring group commit must fail the
    // handshake with a typed reason, before any job is accepted
    match Client::connect_requiring(addr, "strict", WireDurability::GroupCommit) {
        Err(NetError::Remote(msg)) => {
            assert!(msg.contains("durability mismatch"), "{msg}")
        }
        other => panic!("expected Remote, got {other:?}"),
    }
    // requiring what the server provides succeeds, and the ack reports
    // the effective level either way
    let c = Client::connect_requiring(addr, "strict", WireDurability::InMemory).unwrap();
    assert_eq!(c.server_durability(), WireDurability::InMemory);
    drop(c);
    let c = Client::connect(addr).unwrap();
    assert_eq!(c.server_durability(), WireDurability::InMemory);
    drop(c);
    server.shutdown();
}

/// The PR's wire-level acceptance: a live durable server with telemetry
/// on answers `MetricsSnapshot` with non-zero stage histograms for
/// queue-wait, execute and group-commit, plus the postmortem trace tail
/// — and a telemetry-off server answers the same request with a
/// well-formed disabled snapshot, never an error.
#[test]
fn live_metrics_snapshot_over_the_wire() {
    use chimera_runtime::{DurabilityConfig, StorageMode};
    let dir = std::env::temp_dir().join(format!(
        "chimera-net-metrics-loopback-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RuntimeConfig {
        shards: 2,
        storage: StorageMode::Durable(DurabilityConfig::new(&dir)),
        telemetry: true,
        ..Default::default()
    };
    let rt = Runtime::new(schema(), vec![tick_trigger(&schema())], config).unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(rt), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for tenant in 0..4u64 {
        c.raise_external(
            tenant,
            vec![ExternalEvent {
                class: 0,
                channel: 1,
                oid: 1 + tenant,
            }],
        )
        .unwrap();
    }
    c.drain().unwrap();
    c.flush().unwrap();

    let m = c.metrics_snapshot().unwrap();
    assert!(m.enabled, "server telemetry is on");
    for stage in ["queue_wait", "execute", "commit"] {
        let h = m.hist(stage).unwrap_or_else(|| panic!("{stage} missing"));
        assert!(h.count() > 0, "{stage} histogram is empty: {m:?}");
    }
    assert!(m.counter("batches_claimed").unwrap() > 0);
    assert!(m.counter("conns_accepted").unwrap() >= 1);
    assert!(
        m.traces.iter().any(|t| t.kind.name() == "job_claimed"),
        "trace tail should show claimed batches: {:?}",
        m.traces
    );
    // the text exposition renders every series it was asked about
    let text = m.render_text();
    assert!(text.contains("queue_wait"), "{text}");
    // the client's own recorder measured those synchronous calls
    let local = c.telemetry().snapshot();
    assert!(local.hist("client_request").unwrap().count() > 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // telemetry off (the default config): a typed disabled snapshot
    let rt = Runtime::new(schema(), vec![], RuntimeConfig::default()).unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(rt), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let m = c.metrics_snapshot().unwrap();
    assert!(!m.enabled);
    assert!(m.hists.is_empty() && m.traces.is_empty());
    server.shutdown();
}

#[test]
fn durable_server_round_trip() {
    use chimera_net::WireDurability;
    use chimera_runtime::{DurabilityConfig, StorageMode};
    let dir = std::env::temp_dir().join(format!(
        "chimera-net-durable-loopback-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = RuntimeConfig {
        shards: 2,
        storage: StorageMode::Durable(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let rt = Runtime::new(schema(), vec![], config.clone()).unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(rt), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect_requiring(addr, "durable", WireDurability::GroupCommit).unwrap();
    assert_eq!(c.server_durability(), WireDurability::GroupCommit);
    let outcomes = c
        .define_triggers(
            3,
            "define immediate trigger clampQty for stock
               events modify(quantity)
               condition stock(S), S.quantity > S.max_quantity
               actions modify(S.quantity, S.max_quantity)
             end",
        )
        .unwrap();
    assert!(outcomes.iter().all(|o| o.is_defined()));
    c.begin(3).unwrap();
    c.exec_block(
        3,
        vec![WireOp::Create {
            class: 0,
            inits: vec![(0, Value::Int(7))],
        }],
    )
    .unwrap();
    c.commit(3).unwrap();
    c.drain().unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.wal_appends >= 4, "stats = {stats:?}");
    assert!(stats.wal_syncs >= 1);
    server.shutdown();

    // reopening the same directory recovers the tenant over the wire
    let rt = Runtime::new(schema(), vec![], config).unwrap();
    let server = Server::bind("127.0.0.1:0", Arc::new(rt), ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let stats = c.stats().unwrap();
    // no snapshot was due yet (threshold 1024 groups), so the tenant was
    // rebuilt purely from job-log replay
    assert_eq!(stats.tenants, 1, "stats = {stats:?}");
    assert!(stats.jobs_replayed >= 4, "stats = {stats:?}");
    match c
        .tenant_query(3, TenantQuery::Extent { class: 0 })
        .unwrap()
    {
        TenantReply::Extent(oids) => assert_eq!(oids.len(), 1),
        other => panic!("expected Extent, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
