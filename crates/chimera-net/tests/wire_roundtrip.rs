//! Codec property suite: `decode(encode(x)) == x` on arbitrary
//! messages, and *no* input — truncated, garbage-prefixed, bit-flipped,
//! or lying about its length — makes the decoder panic or allocate
//! unboundedly.

use chimera_model::{Oid, TotalF64, Value};
use chimera_net::wire::{read_frame, write_frame, WireError};
use chimera_net::{
    ExternalEvent, Request, Response, TenantQuery, TenantReply, TriggerOutcome, WireDurability,
    WireJob, WireOp, WireOutcome, WireStats,
};
use chimera_telemetry::{HistSnapshot, MetricsSnapshot, TraceEvent, TraceKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

// ------------------------------------------------- arbitrary generators

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| char::from_u32(rng.random_range(0x20..0x2FF)).unwrap_or('x'))
        .collect()
}

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..7u32) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        // raw bit patterns: NaNs and signed zeros must round-trip too
        2 => Value::Float(TotalF64::from_bits(rng.next_u64())),
        3 => Value::Str(arb_string(rng)),
        4 => Value::Bool(rng.next_u32() & 1 == 1),
        5 => Value::Time(rng.next_u64()),
        _ => Value::Ref(Oid(rng.next_u64())),
    }
}

fn arb_op(rng: &mut StdRng) -> WireOp {
    match rng.random_range(0..6u32) {
        0 => WireOp::Create {
            class: rng.next_u32(),
            inits: (0..rng.random_range(0..4usize))
                .map(|_| (rng.next_u32(), arb_value(rng)))
                .collect(),
        },
        1 => WireOp::Modify {
            oid: rng.next_u64(),
            attr: rng.next_u32(),
            value: arb_value(rng),
        },
        2 => WireOp::Delete {
            oid: rng.next_u64(),
        },
        3 => WireOp::Specialize {
            oid: rng.next_u64(),
            class: rng.next_u32(),
        },
        4 => WireOp::Generalize {
            oid: rng.next_u64(),
            class: rng.next_u32(),
        },
        _ => WireOp::Select {
            class: rng.next_u32(),
            deep: rng.next_u32() & 1 == 1,
        },
    }
}

fn arb_job(rng: &mut StdRng) -> WireJob {
    match rng.random_range(0..5u32) {
        0 => WireJob::Begin,
        1 => WireJob::ExecBlock((0..rng.random_range(0..5usize)).map(|_| arb_op(rng)).collect()),
        2 => WireJob::RaiseExternal(
            (0..rng.random_range(0..5usize))
                .map(|_| ExternalEvent {
                    class: rng.next_u32(),
                    channel: rng.next_u32(),
                    oid: rng.next_u64(),
                })
                .collect(),
        ),
        3 => WireJob::Commit,
        _ => WireJob::Rollback,
    }
}

fn arb_query(rng: &mut StdRng) -> TenantQuery {
    match rng.random_range(0..4u32) {
        0 => TenantQuery::Extent {
            class: rng.next_u32(),
        },
        1 => TenantQuery::EventLogLen,
        2 => TenantQuery::Errors,
        _ => TenantQuery::EngineStats,
    }
}

fn arb_durability(rng: &mut StdRng) -> WireDurability {
    if rng.next_u32() & 1 == 1 {
        WireDurability::GroupCommit
    } else {
        WireDurability::InMemory
    }
}

fn arb_metrics(rng: &mut StdRng) -> MetricsSnapshot {
    MetricsSnapshot {
        enabled: rng.next_u32() & 1 == 1,
        counters: (0..rng.random_range(0..4usize))
            .map(|_| (arb_string(rng), rng.next_u64()))
            .collect(),
        gauges: (0..rng.random_range(0..3usize))
            .map(|_| (arb_string(rng), rng.next_u64() as i64))
            .collect(),
        hists: (0..rng.random_range(0..3usize))
            .map(|_| HistSnapshot {
                name: arb_string(rng),
                buckets: (0..rng.random_range(0..65usize))
                    .map(|_| rng.next_u64())
                    .collect(),
            })
            .collect(),
        traces: (0..rng.random_range(0..4usize))
            .map(|_| TraceEvent {
                seq: rng.next_u64(),
                at_ns: rng.next_u64(),
                kind: TraceKind::from_u8(rng.random_range(0..9u32) as u8).unwrap(),
                a: rng.next_u64(),
                b: rng.next_u64(),
            })
            .collect(),
    }
}

fn arb_request(rng: &mut StdRng) -> Request {
    match rng.random_range(0..8u32) {
        0 => Request::Hello {
            version: rng.next_u32(),
            client: arb_string(rng),
            durability: if rng.next_u32() & 1 == 1 {
                Some(arb_durability(rng))
            } else {
                None
            },
        },
        1 => Request::DefineTriggers {
            tenant: rng.next_u64(),
            source: arb_string(rng),
        },
        2 => Request::SubmitBlock {
            tenant: rng.next_u64(),
            job: arb_job(rng),
        },
        3 => Request::Flush,
        4 => Request::Stats,
        5 => Request::WithTenantQuery {
            tenant: rng.next_u64(),
            query: arb_query(rng),
        },
        6 => Request::Shutdown,
        _ => Request::MetricsSnapshot,
    }
}

fn arb_outcome(rng: &mut StdRng) -> WireOutcome {
    match rng.random_range(0..5u32) {
        0 => WireOutcome::Done {
            events: rng.next_u64(),
            considerations: rng.next_u64(),
            executions: rng.next_u64(),
        },
        1 => WireOutcome::Error {
            message: arb_string(rng),
        },
        2 => WireOutcome::RefusedDurability {
            message: arb_string(rng),
        },
        3 => WireOutcome::Disconnected,
        _ => WireOutcome::Panicked,
    }
}

fn arb_response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..10u32) {
        0 => Response::HelloAck {
            version: rng.next_u32(),
            server: arb_string(rng),
            shards: rng.next_u32(),
            durability: arb_durability(rng),
        },
        1 => Response::JobDone {
            job: rng.next_u64(),
            tenant: rng.next_u64(),
            outcome: arb_outcome(rng),
        },
        2 => Response::TriggersDefined {
            outcomes: (0..rng.random_range(0..4usize))
                .map(|_| TriggerOutcome {
                    name: arb_string(rng),
                    error: if rng.next_u32() & 1 == 1 {
                        Some(arb_string(rng))
                    } else {
                        None
                    },
                })
                .collect(),
        },
        3 => Response::FlushDone,
        4 => Response::StatsReply(WireStats {
            shards: rng.next_u32(),
            tenants: rng.next_u64(),
            jobs_submitted: rng.next_u64(),
            jobs_processed: rng.next_u64(),
            jobs_shed: rng.next_u64(),
            submits_blocked: rng.next_u64(),
            job_errors: rng.next_u64(),
            job_panics: rng.next_u64(),
            blocks: rng.next_u64(),
            events: rng.next_u64(),
            considerations: rng.next_u64(),
            executions: rng.next_u64(),
            commits: rng.next_u64(),
            rollbacks: rng.next_u64(),
            wal_appends: rng.next_u64(),
            wal_syncs: rng.next_u64(),
            snapshots: rng.next_u64(),
            tenants_recovered: rng.next_u64(),
            jobs_replayed: rng.next_u64(),
            steals: rng.next_u64(),
            ready_queue_depth: rng.next_u64(),
            net_reads_throttled: rng.next_u64(),
            per_shard: (0..rng.random_range(0..5usize))
                .map(|_| chimera_net::proto::WireShardStats {
                    jobs_submitted: rng.next_u64(),
                    jobs_executed: rng.next_u64(),
                    steals: rng.next_u64(),
                    jobs_shed: rng.next_u64(),
                    submits_blocked: rng.next_u64(),
                    queue_depth: rng.next_u64(),
                    tenants: rng.next_u64(),
                })
                .collect(),
            store_retries: rng.next_u64(),
            shards_poisoned: rng.next_u64(),
            net_conns_reaped: rng.next_u64(),
            evictions: rng.next_u64(),
            rehydrations: rng.next_u64(),
            tenants_resident: rng.next_u64(),
        }),
        8 => Response::Busy {
            active: rng.next_u32(),
            limit: rng.next_u32(),
        },
        5 => Response::TenantReply(match rng.random_range(0..5u32) {
            0 => TenantReply::NoSuchTenant,
            1 => TenantReply::Extent(
                (0..rng.random_range(0..6usize))
                    .map(|_| rng.next_u64())
                    .collect(),
            ),
            2 => TenantReply::EventLogLen(rng.next_u64()),
            3 => TenantReply::Errors {
                count: rng.next_u64(),
                last: if rng.next_u32() & 1 == 1 {
                    Some(arb_string(rng))
                } else {
                    None
                },
            },
            _ => TenantReply::EngineStats {
                blocks: rng.next_u64(),
                events: rng.next_u64(),
                considerations: rng.next_u64(),
                executions: rng.next_u64(),
                commits: rng.next_u64(),
                rollbacks: rng.next_u64(),
            },
        }),
        6 => Response::ShutdownAck,
        9 => Response::MetricsReply(arb_metrics(rng)),
        _ => Response::Error {
            message: arb_string(rng),
        },
    }
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on requests.
    #[test]
    fn request_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let req = arb_request(&mut rng);
            let bytes = req.encode();
            prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    /// encode → decode is the identity on responses.
    #[test]
    fn response_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let resp = arb_response(&mut rng);
            let bytes = resp.encode();
            prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    /// Every message has one layout with every field present, so every
    /// strict prefix of a valid encoding fails to decode.
    #[test]
    fn truncated_encodings_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes = arb_request(&mut rng).encode();
        for cut in 0..bytes.len() {
            prop_assert!(Request::decode(&bytes[..cut]).is_err(), "cut {}", cut);
        }
        let bytes = arb_response(&mut rng).encode();
        for cut in 0..bytes.len() {
            prop_assert!(Response::decode(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// Appending a byte to a valid encoding is `Trailing`, and decoding
    /// arbitrary byte soup returns an error or an honest message — and
    /// never panics.
    #[test]
    fn garbage_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let req = arb_request(&mut rng);
        let mut bytes = req.encode();
        bytes.push(rng.next_u32() as u8);
        prop_assert_eq!(Request::decode(&bytes), Err(WireError::Trailing { extra: 1 }));
        for _ in 0..16 {
            let len = rng.random_range(0..64usize);
            let soup: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let _ = Request::decode(&soup);   // must return, not panic
            let _ = Response::decode(&soup);
        }
        // bit flips over a valid encoding
        let mut bytes = arb_response(&mut rng).encode();
        for _ in 0..16 {
            let i = rng.random_range(0..bytes.len());
            bytes[i] ^= 1 << rng.random_range(0..8u32);
            let _ = Response::decode(&bytes); // any Result is fine
        }
    }
}

// ------------------------------------------------------------- framing

#[test]
fn frame_roundtrip_and_bounds() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello").unwrap();
    write_frame(&mut buf, &[0xAB; 300]).unwrap();
    let mut cursor = &buf[..];
    assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), b"hello");
    assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), vec![0xAB; 300]);
    // clean EOF between frames
    assert_eq!(read_frame(&mut cursor, 1024).unwrap(), None);

    // a frame over the bound is rejected before allocation
    let mut big = Vec::new();
    write_frame(&mut big, &[0u8; 2048]).unwrap();
    match read_frame(&mut &big[..], 1024) {
        Err(WireError::FrameTooLarge { len: 2048, max: 1024 }) => {}
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    // a lying length prefix (announces more than the stream holds)
    let lying = 64u32.to_le_bytes().to_vec();
    assert_eq!(read_frame(&mut &lying[..], 1024), Err(WireError::Truncated));

    // a zero-length frame carries no tag: rejected
    let empty = 0u32.to_le_bytes().to_vec();
    assert_eq!(read_frame(&mut &empty[..], 1024), Err(WireError::EmptyFrame));

    // EOF inside the header
    assert_eq!(read_frame(&mut &[0x01u8][..], 1024), Err(WireError::Truncated));
}

// ------------------------------------------------------ pinned job path

/// The frames `net.bytes_per_job` counts: one `SubmitBlock` per job and
/// its `JobDone`. These bytes are fixed; a codec change that moves them
/// moves that metric.
const TENANT: [u8; 8] = [7, 0, 0, 0, 0, 0, 0, 0];

fn submit(job: WireJob) -> Vec<u8> {
    Request::SubmitBlock { tenant: 7, job }.encode()
}

fn pinned(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

#[test]
fn protocol_version_is_7() {
    assert_eq!(chimera_net::PROTOCOL_VERSION, 7);
}

#[test]
fn submit_block_bytes_are_pinned() {
    assert_eq!(submit(WireJob::Begin), pinned(&[&[0x03], &TENANT, &[0]]));
    assert_eq!(submit(WireJob::Commit), pinned(&[&[0x03], &TENANT, &[3]]));
    assert_eq!(submit(WireJob::Rollback), pinned(&[&[0x03], &TENANT, &[4]]));
    assert_eq!(
        submit(WireJob::RaiseExternal(vec![ExternalEvent {
            class: 1,
            channel: 2,
            oid: 3,
        }])),
        pinned(&[
            &[0x03],
            &TENANT,
            &[2, 1, 0, 0, 0],          // RaiseExternal, 1 event
            &[1, 0, 0, 0],             // class
            &[2, 0, 0, 0],             // channel
            &[3, 0, 0, 0, 0, 0, 0, 0], // oid
        ])
    );
    // one op of each kind, and one value of each kind
    let ops = vec![
        WireOp::Create {
            class: 1,
            inits: vec![
                (1, Value::Null),
                (2, Value::Int(-2)),
                (3, Value::Str("ab".into())),
                (4, Value::Bool(true)),
                (5, Value::Time(9)),
                (6, Value::Ref(Oid(5))),
            ],
        },
        WireOp::Modify {
            oid: 5,
            attr: 2,
            value: Value::Float(TotalF64::from_bits(1.5f64.to_bits())),
        },
        WireOp::Delete { oid: 5 },
        WireOp::Specialize { oid: 5, class: 2 },
        WireOp::Generalize { oid: 5, class: 1 },
        WireOp::Select {
            class: 1,
            deep: true,
        },
    ];
    const OID5: [u8; 8] = [5, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(
        submit(WireJob::ExecBlock(ops)),
        pinned(&[
            &[0x03],
            &TENANT,
            &[1, 6, 0, 0, 0], // ExecBlock, 6 ops
            // Create: class 1, 6 initializers
            &[0, 1, 0, 0, 0, 6, 0, 0, 0],
            &[1, 0, 0, 0, 0],                                                 // Null
            &[2, 0, 0, 0, 1, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF], // Int -2
            &[3, 0, 0, 0, 3, 2, 0, 0, 0, b'a', b'b'],                         // Str "ab"
            &[4, 0, 0, 0, 4, 1],                                              // Bool true
            &[5, 0, 0, 0, 5, 9, 0, 0, 0, 0, 0, 0, 0],                         // Time 9
            &[6, 0, 0, 0, 6],                                                 // Ref 5
            &OID5,
            // Modify: oid 5, attr 2, Float 1.5 (its bit pattern)
            &[1],
            &OID5,
            &[2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F],
            // Delete: oid 5
            &[2],
            &OID5,
            // Specialize: oid 5, class 2
            &[3],
            &OID5,
            &[2, 0, 0, 0],
            // Generalize: oid 5, class 1
            &[4],
            &OID5,
            &[1, 0, 0, 0],
            // Select: class 1, deep
            &[5, 1, 0, 0, 0, 1],
        ])
    );
}

#[test]
fn job_done_bytes_are_pinned() {
    let done = |outcome| {
        Response::JobDone {
            job: 1,
            tenant: 7,
            outcome,
        }
        .encode()
    };
    let head: &[u8] = &[0x82, 1, 0, 0, 0, 0, 0, 0, 0];
    assert_eq!(
        done(WireOutcome::Done {
            events: 2,
            considerations: 3,
            executions: 4,
        }),
        pinned(&[
            head,
            &TENANT,
            &[0],
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &[3, 0, 0, 0, 0, 0, 0, 0],
            &[4, 0, 0, 0, 0, 0, 0, 0],
        ])
    );
    assert_eq!(
        done(WireOutcome::Error {
            message: "no".into()
        }),
        pinned(&[head, &TENANT, &[1, 2, 0, 0, 0, b'n', b'o']])
    );
    assert_eq!(done(WireOutcome::Panicked), pinned(&[head, &TENANT, &[2]]));
    assert_eq!(
        done(WireOutcome::RefusedDurability {
            message: "io".into()
        }),
        pinned(&[head, &TENANT, &[3, 2, 0, 0, 0, b'i', b'o']])
    );
    assert_eq!(
        done(WireOutcome::Disconnected),
        pinned(&[head, &TENANT, &[4]])
    );
}

#[test]
fn hostile_length_prefix_does_not_allocate() {
    // u32::MAX length with a tiny max: must fail fast, not OOM
    let mut hostile = u32::MAX.to_le_bytes().to_vec();
    hostile.extend_from_slice(&[0u8; 8]);
    match read_frame(&mut &hostile[..], 1 << 20) {
        Err(WireError::FrameTooLarge { .. }) => {}
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // an in-payload count field lying about its element count fails as
    // Truncated instead of pre-allocating gigabytes: a RaiseExternal
    // job claiming 2^31 events in a 16-byte payload
    let mut payload = vec![0x03u8]; // SubmitBlock
    payload.extend_from_slice(&7u64.to_le_bytes()); // tenant
    payload.push(2); // RaiseExternal
    payload.extend_from_slice(&(1u32 << 31).to_le_bytes()); // count
    payload.extend_from_slice(&[0u8; 4]);
    assert!(matches!(Request::decode(&payload), Err(WireError::Truncated)));
}
