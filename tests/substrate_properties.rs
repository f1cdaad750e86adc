//! Property suites for the substrate crates:
//!
//! * the transactional object store — rollback restores the committed
//!   state exactly, commit keeps it, under random operation sequences
//!   including class migrations;
//! * the Event Base — every indexed query agrees with a linear scan of
//!   the log, for random windows.

use chimera::events::{EventBase, EventType, Timestamp, Window};
use chimera::model::{
    AttrDef, AttrType, ClassId, ObjectStore, Oid, Schema, SchemaBuilder, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    b.class(
        "base",
        None,
        vec![
            AttrDef::new("x", AttrType::Integer),
            AttrDef::with_default("y", AttrType::Integer, Value::Int(7)),
        ],
    )
    .unwrap();
    b.class("sub", Some("base"), vec![AttrDef::new("z", AttrType::Float)])
        .unwrap();
    b.build()
}

/// Snapshot of observable store state.
fn snapshot(store: &ObjectStore, schema: &Schema) -> Vec<(Oid, ClassId, Vec<Value>)> {
    let base = schema.class_by_name("base").unwrap();
    store
        .extent_deep(schema, base)
        .into_iter()
        .map(|oid| {
            let o = store.get(oid).unwrap();
            (oid, o.class, o.attrs.clone())
        })
        .collect()
}

/// Apply `n` random valid operations inside the active transaction.
fn random_ops(store: &mut ObjectStore, schema: &Schema, rng: &mut StdRng, n: usize) {
    let base = schema.class_by_name("base").unwrap();
    let sub = schema.class_by_name("sub").unwrap();
    let x = schema.attr_by_name(base, "x").unwrap();
    let mut live: Vec<Oid> = store.extent_deep(schema, base);
    for _ in 0..n {
        match rng.random_range(0..6u32) {
            0 | 1 => {
                let m = store
                    .create(schema, base, &[(x, Value::Int(rng.random_range(0..100)))])
                    .unwrap();
                live.push(m.oid);
            }
            2 if !live.is_empty() => {
                let oid = live[rng.random_range(0..live.len())];
                store
                    .modify(schema, oid, x, Value::Int(rng.random_range(0..100)))
                    .unwrap();
            }
            3 if !live.is_empty() => {
                let i = rng.random_range(0..live.len());
                let oid = live.swap_remove(i);
                store.delete(oid).unwrap();
            }
            4 if !live.is_empty() => {
                let oid = live[rng.random_range(0..live.len())];
                let class = store.get(oid).unwrap().class;
                if class == base {
                    store.specialize(schema, oid, sub).unwrap();
                }
            }
            5 if !live.is_empty() => {
                let oid = live[rng.random_range(0..live.len())];
                let class = store.get(oid).unwrap().class;
                if class == sub {
                    store.generalize(schema, oid, base).unwrap();
                }
            }
            _ => {
                let m = store.create(schema, base, &[]).unwrap();
                live.push(m.oid);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rollback restores exactly the pre-transaction snapshot.
    #[test]
    fn store_rollback_restores_snapshot(seed in any::<u64>(), n1 in 0usize..20, n2 in 1usize..20) {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ObjectStore::new();
        // committed prefix
        store.begin().unwrap();
        random_ops(&mut store, &schema, &mut rng, n1);
        store.commit().unwrap();
        let committed = snapshot(&store, &schema);
        // aborted transaction
        store.begin().unwrap();
        random_ops(&mut store, &schema, &mut rng, n2);
        store.rollback().unwrap();
        prop_assert_eq!(snapshot(&store, &schema), committed);
    }

    /// commit preserves exactly the post-operations snapshot.
    #[test]
    fn store_commit_keeps_changes(seed in any::<u64>(), n in 1usize..25) {
        let schema = schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ObjectStore::new();
        store.begin().unwrap();
        random_ops(&mut store, &schema, &mut rng, n);
        let before_commit = snapshot(&store, &schema);
        store.commit().unwrap();
        prop_assert_eq!(snapshot(&store, &schema), before_commit);
    }

    /// every indexed EB query equals a linear scan over the log.
    #[test]
    fn eb_indexes_agree_with_scan(
        seed in any::<u64>(),
        len in 0usize..60,
        after in 0u64..30,
        upto in 0u64..70,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut eb = EventBase::new();
        for _ in 0..len {
            let ty = EventType::external(ClassId(0), rng.random_range(0..5u32));
            eb.append(ty, Oid(rng.random_range(1..6u64)));
        }
        let w = Window::new(Timestamp(after), Timestamp(upto));
        let log: Vec<_> = eb.iter().copied().collect();
        let in_w = |e: &&chimera::events::EventOccurrence| w.contains(e.ts);

        // slice / any / count
        let scan: Vec<_> = log.iter().filter(in_w).copied().collect();
        prop_assert_eq!(eb.slice(w).to_vec(), scan.clone());
        prop_assert_eq!(eb.any_in(w), !scan.is_empty());
        prop_assert_eq!(eb.count_in(w), scan.len());

        for tyn in 0..5u32 {
            let ty = EventType::external(ClassId(0), tyn);
            // last / first of type
            let of_ty: Vec<_> = scan.iter().filter(|e| e.ty == ty).collect();
            prop_assert_eq!(eb.last_of_type_in(ty, w), of_ty.last().map(|e| e.ts));
            prop_assert_eq!(eb.first_of_type_in(ty, w), of_ty.first().map(|e| e.ts));
            prop_assert_eq!(
                eb.occurrences_of_type_in(ty, w).count(),
                of_ty.len()
            );
            // per-object
            for oid in 1..6u64 {
                let oid = Oid(oid);
                let of_obj: Vec<_> = of_ty.iter().filter(|e| e.oid == oid).collect();
                prop_assert_eq!(
                    eb.last_of_type_obj_in(ty, oid, w),
                    of_obj.last().map(|e| e.ts)
                );
            }
        }

        // object enumeration
        let mut objs: Vec<Oid> = scan.iter().map(|e| e.oid).collect();
        objs.sort();
        objs.dedup();
        prop_assert_eq!(eb.objects_in(w).to_vec(), objs.clone());

        // the boundary's domain restricted to a random type subset, and
        // its stamp matrix: one batched lookup per type over that domain
        let types: Vec<EventType> = (0..5u32)
            .filter(|_| rng.random_range(0..2u32) == 0)
            .map(|tyn| EventType::external(ClassId(0), tyn))
            .collect();
        let domain = if types.is_empty() {
            objs.clone()
        } else {
            let mut d: Vec<Oid> = scan
                .iter()
                .filter(|e| types.contains(&e.ty))
                .map(|e| e.oid)
                .collect();
            d.sort();
            d.dedup();
            prop_assert_eq!(eb.objects_of_types_in(&types, w), d.clone());
            d
        };
        let mut into = vec![Oid(99)];
        eb.objects_into(&types, w, &mut into);
        prop_assert_eq!(&into, &domain);
        for tyn in 0..5u32 {
            let ty = EventType::external(ClassId(0), tyn);
            let mut stamps = vec![None; domain.len()];
            eb.last_of_type_objs_in(ty, &domain, w, &mut stamps);
            let expected: Vec<_> = domain
                .iter()
                .map(|&oid| scan.iter().rfind(|e| e.ty == ty && e.oid == oid).map(|e| e.ts))
                .collect();
            prop_assert_eq!(stamps, expected);
        }

        // per-object, any type (a widened boundary's entry stamps)
        for oid in 1..6u64 {
            let oid = Oid(oid);
            let of_obj: Vec<_> = scan.iter().filter(|e| e.oid == oid).copied().collect();
            let occs: Vec<_> = eb.occurrences_of_obj_in(oid, w).copied().collect();
            prop_assert_eq!(occs, of_obj.clone());
            prop_assert_eq!(eb.last_of_obj_in(oid, w), of_obj.last().map(|e| e.ts));
        }
    }
}

/// OIDs are never reused across committed transactions, even after aborts.
#[test]
fn oids_monotonic_across_transactions() {
    let schema = schema();
    let base = schema.class_by_name("base").unwrap();
    let mut store = ObjectStore::new();
    let mut last = Oid(0);
    for round in 0..10 {
        store.begin().unwrap();
        let m = store.create(&schema, base, &[]).unwrap();
        assert!(m.oid > last, "round {round}");
        if round % 3 == 0 {
            store.rollback().unwrap();
        } else {
            store.commit().unwrap();
            last = m.oid;
        }
    }
}
