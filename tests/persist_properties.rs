//! Property suites for the durability layer.
//!
//! * codec round-trip over arbitrary values/objects (including adversarial
//!   strings full of separators and escapes);
//! * WAL fuzzing: arbitrary byte tails appended to a valid log never
//!   panic the reader and never corrupt the valid prefix;
//! * random cut points (a denser version of the exhaustive unit test, over
//!   randomized workloads).

use chimera::model::{ClassId, Object, Oid, Value};
use chimera::persist::codec::{decode_object, decode_value, encode_object, encode_value};
use chimera::persist::{RedoRecord, Wal};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
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

/// A WAL path no other call in any process shares: properties run
/// concurrently, so the pid alone is not unique.
fn tmpfile(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("chimera-persist-props");
    fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{tag}-{}-{n}.log", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appending arbitrary garbage to a valid WAL never panics the reader
    /// and never loses or alters the valid batches.
    #[test]
    fn wal_reader_survives_garbage_tails(
        objs in prop::collection::vec(arb_object(), 1..5),
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let path = tmpfile("garbage");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open_append(&path, 1).unwrap();
        for (i, obj) in objs.iter().enumerate() {
            wal.append(vec![RedoRecord::Put(obj.clone())], 1_000 + i as u64).unwrap();
        }
        drop(wal);
        let clean = Wal::read(&path, 1).unwrap();
        prop_assert_eq!(clean.batches.len(), objs.len());

        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&garbage);
        fs::write(&path, &bytes).unwrap();
        let noisy = Wal::read(&path, 1).unwrap();
        // valid prefix intact; garbage either torn or (if it happens to
        // parse) ignored — but never fewer batches than before
        prop_assert!(noisy.batches.len() >= clean.batches.len());
        for (a, b) in clean.batches.iter().zip(&noisy.batches) {
            prop_assert_eq!(a, b);
        }
        let _ = fs::remove_file(&path);
    }

    /// A random cut anywhere in the log yields a clean prefix of batches.
    #[test]
    fn wal_random_cut_is_a_prefix(
        objs in prop::collection::vec(arb_object(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = tmpfile("cut");
        let _ = fs::remove_file(&path);
        let mut wal = Wal::open_append(&path, 1).unwrap();
        for (i, obj) in objs.iter().enumerate() {
            wal.append(vec![RedoRecord::Put(obj.clone())], 1_000 + i as u64).unwrap();
        }
        drop(wal);
        let full = fs::read(&path).unwrap();
        let all = Wal::read(&path, 1).unwrap();
        let cut = (full.len() as f64 * cut_frac) as usize;
        fs::write(&path, &full[..cut]).unwrap();
        let out = Wal::read(&path, 1).unwrap();
        prop_assert!(out.batches.len() <= all.batches.len());
        for (a, b) in out.batches.iter().zip(&all.batches) {
            prop_assert_eq!(a, b);
        }
        // applying the surviving prefix never references a later batch
        prop_assert_eq!(out.valid_len as usize <= cut, true);
        let _ = fs::remove_file(&path);
    }
}
