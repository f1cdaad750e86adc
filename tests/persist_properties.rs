//! Property suites for the durability layer.
//!
//! * codec round-trip over arbitrary values/objects (including adversarial
//!   strings full of separators and escapes);
//! * job-log fuzzing: arbitrary byte tails appended to a valid log never
//!   panic the reader, read back exactly the valid groups and are cut;
//! * random cut points (a denser version of the exhaustive unit test, over
//!   randomized groups) read back exactly the groups wholly before the cut.

use chimera::exec::Op;
use chimera::model::{AttrId, ClassId, Object, Oid, Value};
use chimera::persist::codec::{decode_object, decode_value, encode_object, encode_value};
use chimera::persist::{JobGroup, JobLog, JobRecord};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::float(f64::from_bits(bits))),
        ".{0,40}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Time),
        any::<u64>().prop_map(|n| Value::Ref(Oid(n))),
    ]
}

fn arb_object() -> impl Strategy<Value = Object> {
    (
        1u64..1_000,
        0u32..8,
        prop::collection::vec(arb_value(), 0..6),
    )
        .prop_map(|(oid, class, attrs)| Object {
            oid: Oid(oid),
            class: ClassId(class),
            attrs,
        })
}

// `Value` carries the bitwise `TotalF64` float policy, so round-trip
// assertions are plain equality — NaN payloads included.
proptest! {
    #[test]
    fn value_codec_round_trips(v in arb_value()) {
        let tok = encode_value(&v);
        prop_assert!(!tok.contains(' '));
        prop_assert!(!tok.contains(','));
        prop_assert!(!tok.contains('\n'));
        let back = decode_value(&tok).unwrap();
        prop_assert_eq!(&back, &v, "{:?} != {:?}", &v, &back);
    }

    #[test]
    fn object_codec_round_trips(obj in arb_object()) {
        let payload = encode_object(&obj);
        prop_assert!(!payload.contains('\n'));
        let back = decode_object(&payload).unwrap();
        prop_assert_eq!(&back, &obj, "{:?} != {:?}", &back, &obj);
    }

    #[test]
    fn decode_never_panics_on_noise(s in ".{0,60}") {
        let _ = decode_value(&s);
        let _ = decode_object(&s);
    }
}

fn arb_job() -> impl Strategy<Value = JobRecord> {
    prop_oneof![
        Just(JobRecord::Begin),
        Just(JobRecord::Commit),
        Just(JobRecord::Rollback),
        (1u64..1_000, 0u32..8, arb_value()).prop_map(|(oid, attr, value)| {
            JobRecord::ExecBlock(vec![Op::Modify {
                oid: Oid(oid),
                attr: AttrId(attr),
                value,
            }])
        }),
        prop::collection::vec((0u32..8, 0u32..16, 0u64..1_000), 1..6).prop_map(|evs| {
            JobRecord::RaiseExternal(
                evs.into_iter()
                    .map(|(class, chan, oid)| (ClassId(class), chan, Oid(oid)))
                    .collect(),
            )
        }),
        ".{0,40}".prop_map(JobRecord::DefineTriggerSource),
    ]
}

/// One group's `(tenant, job)` records.
fn arb_group() -> impl Strategy<Value = Vec<(u64, JobRecord)>> {
    prop::collection::vec((0u64..8, arb_job()), 1..4)
}

/// A log path no other call in any process shares: properties run
/// concurrently, so the pid alone is not unique.
fn tmpfile(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("chimera-persist-props");
    fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}-{}-{n}.log", std::process::id()))
}

/// Write `groups` as a fresh job log at `path`, one sync per group, and
/// return them as the reader must see them (sequence from 1).
fn write_log(path: &Path, groups: &[Vec<(u64, JobRecord)>]) -> Vec<JobGroup> {
    let _ = fs::remove_file(path);
    let mut log = JobLog::open_append(path, 1).unwrap();
    for jobs in groups {
        for (tenant, job) in jobs {
            log.stage(*tenant, job);
        }
        log.sync().unwrap();
    }
    groups
        .iter()
        .enumerate()
        .map(|(i, jobs)| JobGroup {
            seq: 1 + i as u64,
            jobs: jobs.clone(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Garbage appended after N valid groups never panics the reader:
    /// it reads back exactly those N groups and reports the tail as
    /// torn, and a repair leaves a clean log of the same N groups.
    #[test]
    fn wal_reader_survives_garbage_tails(
        groups in prop::collection::vec(arb_group(), 1..5),
        garbage in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let path = tmpfile("garbage");
        let written = write_log(&path, &groups);
        let clean = JobLog::read(&path, 1).unwrap();
        prop_assert_eq!(&clean.groups, &written);
        prop_assert!(clean.torn.is_none());

        let mut bytes = fs::read(&path).unwrap();
        let valid_len = bytes.len() as u64;
        bytes.extend_from_slice(&garbage);
        fs::write(&path, &bytes).unwrap();
        let noisy = JobLog::read(&path, 1).unwrap();
        prop_assert_eq!(&noisy.groups, &written);
        prop_assert_eq!(noisy.valid_len, valid_len);
        prop_assert!(noisy.torn.is_some(), "a garbage tail must read as torn");

        JobLog::repair(&path, &noisy).unwrap();
        let repaired = JobLog::read(&path, 1).unwrap();
        prop_assert_eq!(&repaired.groups, &written);
        prop_assert!(repaired.torn.is_none());
        let _ = fs::remove_file(&path);
    }

    /// A cut at any byte reads back exactly the groups that end at or
    /// before it — a prefix — and reports a torn tail unless the cut
    /// falls on a group boundary.
    #[test]
    fn wal_random_cut_is_a_prefix(
        groups in prop::collection::vec(arb_group(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = tmpfile("cut");
        let written = write_log(&path, &groups);
        let full = fs::read(&path).unwrap();
        let ends: Vec<usize> = written
            .iter()
            .scan(0, |end, g| {
                *end += g.render().len();
                Some(*end)
            })
            .collect();
        prop_assert_eq!(ends.last().copied(), Some(full.len()));
        let cut = (full.len() as f64 * cut_frac) as usize;
        fs::write(&path, &full[..cut]).unwrap();
        let out = JobLog::read(&path, 1).unwrap();
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(&out.groups[..], &written[..whole]);
        let boundary = if whole == 0 { 0 } else { ends[whole - 1] };
        prop_assert_eq!(out.valid_len as usize, boundary);
        prop_assert_eq!(out.torn.is_some(), cut != boundary);
        let _ = fs::remove_file(&path);
    }
}
