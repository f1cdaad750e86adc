//! The cut oracle: [`EventBase::truncate`] changes no answer a
//! transaction can ask for.
//!
//! Two bases receive the same random history of appends and clock ticks;
//! one of them is cut at random points, the other never is. After every
//! round of further appends the cut base must
//!
//! * keep `len`, `epoch`, `now` and every eid it hands out equal to the
//!   untruncated base's (logical positions stay dense across the cut);
//! * answer every window query whose lower bound is at or above the
//!   clock at the last cut exactly like the untruncated base;
//! * answer a window reaching below the cut like the untruncated base on
//!   the window clipped to the cut (it sees only the live part),
//!   windows drawn before the cut included;
//! * map logical epochs and eids to the live part: `occurrences_since`,
//!   `type_occurrences_since` and `get` equal the untruncated answers at
//!   or above the cut, and `get` is `None` below it.
//!
//! CI runs it at `PROPTEST_CASES=256`.

use chimera_events::{EventBase, EventId, EventType, Timestamp, Window};
use chimera_model::{ClassId, Oid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const TYPES: u32 = 3;
const OIDS: u64 = 5;

fn ty(n: u32) -> EventType {
    EventType::external(ClassId(0), n)
}

/// Type subsets the `objects_of_types_in` domains are queried with.
fn type_sets() -> [Vec<EventType>; 3] {
    [
        vec![ty(0)],
        vec![ty(1), ty(2)],
        (0..TYPES).map(ty).collect(),
    ]
}

/// One random step of history, applied to both bases: an append, or
/// (one time in five) a clock tick without an occurrence.
fn step(rng: &mut StdRng, full: &mut EventBase, cut: &mut EventBase) -> Result<(), TestCaseError> {
    if rng.random_bool(0.2) {
        prop_assert_eq!(full.tick(), cut.tick());
    } else {
        let t = ty(rng.random_range(0..TYPES));
        let oid = Oid(rng.random_range(1..=OIDS));
        prop_assert_eq!(
            full.append(t, oid),
            cut.append(t, oid),
            "eids and stamps stay dense"
        );
    }
    Ok(())
}

/// A random window over `[0, end]`, lower bound anywhere.
fn random_window(rng: &mut StdRng, end: u64) -> Window {
    let a = rng.random_range(0..=end);
    let b = rng.random_range(a..=end + 1);
    Window::new(Timestamp(a), Timestamp(b))
}

/// Windows drawn before a cut, over the history so far: they will reach
/// below the next cut, and the check asks them again after it.
fn pre_cut_windows(rng: &mut StdRng, eb: &EventBase) -> Vec<Window> {
    let end = eb.now().raw() + 2;
    let mut ws = vec![Window::from_origin(Timestamp(end))];
    ws.extend((0..3).map(|_| random_window(rng, end)));
    ws
}

/// Every window query on the cut base over `w` against the untruncated
/// base over `w` clipped to the cut.
fn check_window(
    full: &EventBase,
    cut: &EventBase,
    cut_stamp: Timestamp,
    w: Window,
) -> Result<(), TestCaseError> {
    let clipped = Window::new(w.after.max(cut_stamp), w.upto);
    prop_assert_eq!(cut.slice(w), full.slice(clipped), "slice {:?}", w);
    prop_assert_eq!(cut.any_in(w), full.any_in(clipped));
    prop_assert_eq!(cut.count_in(w), full.count_in(clipped));
    prop_assert_eq!(
        cut.objects_in(w),
        full.objects_in(clipped),
        "objects_in {:?}",
        w
    );
    for types in type_sets() {
        prop_assert_eq!(
            cut.objects_of_types_in(&types, w),
            full.objects_of_types_in(&types, clipped),
            "objects_of_types_in {:?} {:?}",
            types,
            w
        );
    }
    let domain: Vec<Oid> = (1..=OIDS).map(Oid).collect();
    for t in (0..TYPES).map(ty) {
        prop_assert_eq!(
            cut.first_of_type_in(t, w),
            full.first_of_type_in(t, clipped)
        );
        prop_assert_eq!(cut.last_of_type_in(t, w), full.last_of_type_in(t, clipped));
        prop_assert!(
            cut.occurrences_of_type_in(t, w)
                .eq(full.occurrences_of_type_in(t, clipped)),
            "occurrences_of_type_in {:?} {:?}",
            t,
            w
        );
        let mut got = vec![None; domain.len()];
        let mut want = vec![None; domain.len()];
        cut.last_of_type_objs_in(t, &domain, w, &mut got);
        full.last_of_type_objs_in(t, &domain, clipped, &mut want);
        prop_assert_eq!(got, want, "last_of_type_objs_in {:?} {:?}", t, w);
        for &oid in &domain {
            prop_assert_eq!(
                cut.last_of_type_obj_in(t, oid, w),
                full.last_of_type_obj_in(t, oid, clipped)
            );
            prop_assert!(cut
                .occurrences_of_type_obj_in(t, oid, w)
                .eq(full.occurrences_of_type_obj_in(t, oid, clipped)));
        }
    }
    for &oid in &domain {
        prop_assert_eq!(
            cut.last_of_obj_in(oid, w),
            full.last_of_obj_in(oid, clipped)
        );
        prop_assert!(cut
            .occurrences_of_obj_in(oid, w)
            .eq(full.occurrences_of_obj_in(oid, clipped)));
    }
    Ok(())
}

/// The whole check after a round: logical counters, epoch and eid
/// mapping, the leaves, and window queries (the ones drawn before the
/// cut, the ones bounded by the origin and the cut, and random ones).
fn check(
    rng: &mut StdRng,
    full: &EventBase,
    cut: &EventBase,
    cut_stamp: Timestamp,
    pre_cut: &[Window],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(cut.len(), full.len());
    prop_assert_eq!(cut.epoch(), full.epoch());
    prop_assert_eq!(cut.now(), full.now());
    prop_assert_eq!(cut.cut() as usize + cut.live_len(), cut.len());
    let c = cut.cut();
    prop_assert!(cut.iter().eq(full.occurrences_since(c)), "live tail");
    for e in 0..=full.epoch() + 1 {
        prop_assert_eq!(
            cut.occurrences_since(e),
            full.occurrences_since(e.max(c)),
            "since {}",
            e
        );
        for t in (0..TYPES).map(ty) {
            let (a, b) = (
                cut.type_occurrences_since(t, e),
                full.type_occurrences_since(t, e.max(c)),
            );
            prop_assert_eq!((a.ts, a.oids), (b.ts, b.oids), "type since {} {:?}", e, t);
        }
        let eid = EventId(e);
        let want = if e > c { full.get(eid) } else { None };
        prop_assert_eq!(cut.get(eid), want, "get {}", e);
    }
    let end = full.now().raw() + 2;
    for t in (0..TYPES).map(ty) {
        let live = Window::new(cut_stamp, Timestamp(end));
        prop_assert_eq!(cut.leaf_last_stamp(t), full.last_of_type_in(t, live));
    }
    let mut ws = pre_cut.to_vec();
    ws.push(Window::from_origin(Timestamp(end)));
    ws.push(Window::new(cut_stamp, Timestamp(end)));
    ws.push(Window::new(cut_stamp, cut_stamp.next()));
    ws.extend((0..24).map(|_| random_window(rng, end)));
    for w in ws {
        check_window(full, cut, cut_stamp, w)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random histories, random cuts, further appends: the cut base is
    /// the untruncated one restricted to the live part.
    #[test]
    fn truncated_base_answers_like_the_untruncated_one(
        seed in any::<u64>(),
        rounds in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut full = EventBase::new();
        let mut cut = EventBase::new();
        let mut cut_stamp = Timestamp::ZERO;
        for _ in 0..rounds {
            for _ in 0..rng.random_range(0..10usize) {
                step(&mut rng, &mut full, &mut cut)?;
            }
            let pre_cut = pre_cut_windows(&mut rng, &cut);
            if rng.random_bool(0.7) {
                let uid = cut.uid();
                cut.truncate();
                prop_assert_eq!(cut.uid(), uid);
                prop_assert_eq!(cut.live_len(), 0);
                cut_stamp = cut.now();
            }
            for _ in 0..rng.random_range(0..10usize) {
                step(&mut rng, &mut full, &mut cut)?;
            }
            check(&mut rng, &full, &cut, cut_stamp, &pre_cut)?;
        }
    }
}
