//! The Event Base: append-only occurrence log plus the §5 indexes.
//!
//! * the **log** itself, ordered by (strictly increasing) timestamp;
//! * the **Occurred Events tree** of §5: for every event type, a column of
//!   its occurrences — parallel `(position, stamp, oid)` vectors whose last
//!   element is the most recent stamp — this answers `ts(primitive, t)`
//!   with one hash lookup + binary search, without touching the log;
//! * a **per-(type, object) index** supporting `ots(primitive, t, oid)`
//!   (the paper keeps an equivalent sparse per-rule structure; indexing the
//!   EB once is strictly more general and lets every rule share it);
//! * a **per-object index** used to enumerate the objects affected inside
//!   a window (the `oid ∈ R` quantification of §4.3);
//! * the §4.3 quantification domains (`oid ∈ R`): [`EventBase::objects_into`]
//!   scans a window's distinct objects into a caller's buffer; a compiled
//!   plan keeps its own domains and extends them by each arrival delta
//!   (`chimera-calculus`'s `plan` module).
//!
//! ## The cut: one transaction's extent
//!
//! The paper's Event Base is a per-transaction log, so the engine drops
//! every occurrence at each transaction end (commit or rollback) with
//! [`EventBase::truncate`]; [`EventBase::resume_at`] positions a restored
//! base at such a cut. The occurrences before the cut are gone from
//! the log, the columns and the indexes, but the base stays *logically*
//! dense: [`EventBase::len`], [`EventBase::epoch`], eids
//! and the clock continue past [`EventBase::cut`] exactly as if nothing
//! had been dropped, and [`EventBase::occurrences_since`] /
//! [`EventBase::type_occurrences_since`] take logical epochs.
//!
//! The contract: **a query whose window's lower bound is at or above the
//! clock at the cut answers exactly as on the untruncated base; a window
//! that reaches below the cut sees only the live part** (as if its lower
//! bound were the cut). [`EventBase::get`] of a dropped eid is `None`.
//! The [`EventBase::uid`] survives the cut, so external memoizers key on
//! [`EventBase::memo_key`], `(uid, cut, epoch)`, to go cold across it.

use crate::event::{EventId, EventOccurrence, EventType};
use crate::time::{LogicalClock, Timestamp};
use crate::window::Window;
use chimera_model::Oid;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One Occurred-Events leaf: parallel columns of the occurrences of a
/// single event type, in timestamp (= append) order.
#[derive(Debug, Default, Clone)]
struct TypeCol {
    /// Positions into the (live) log.
    pos: Vec<u32>,
    /// Stamps, mirroring `pos` (binary-searchable without log derefs).
    ts: Vec<Timestamp>,
    /// Affected objects, mirroring `pos`.
    oid: Vec<Oid>,
}

impl TypeCol {
    fn push(&mut self, pos: u32, ts: Timestamp, oid: Oid) {
        self.pos.push(pos);
        self.ts.push(ts);
        self.oid.push(oid);
    }

    /// Drop every occurrence, keeping the columns' allocations.
    fn clear(&mut self) {
        self.pos.clear();
        self.ts.clear();
        self.oid.clear();
    }

    /// Index range of the occurrences falling inside `w`.
    fn range_in(&self, w: Window) -> std::ops::Range<usize> {
        if w.is_degenerate() {
            return 0..0;
        }
        let lo = self.ts.partition_point(|&t| t <= w.after);
        let hi = self.ts.partition_point(|&t| t <= w.upto);
        lo..hi
    }
}

static EB_UID: AtomicU64 = AtomicU64::new(1);

/// The event base (EB).
#[derive(Debug)]
pub struct EventBase {
    /// The live occurrences, those after the cut.
    log: Vec<EventOccurrence>,
    /// Logical position of `log[0]`: the number of occurrences dropped by
    /// [`EventBase::truncate`]. Every index below stores positions into
    /// `log`; logical positions, epochs and eids are offset by `cut`.
    cut: u64,
    clock: LogicalClock,
    /// Process-unique identity, so external memoizers can key on
    /// [`EventBase::memo_key`] without being fooled by address reuse.
    uid: u64,
    /// Occurred-Events tree leaves: per-type occurrence columns.
    type_index: HashMap<EventType, TypeCol>,
    /// Instance-oriented leaves: per-(type, object) positions into `log`.
    type_obj_index: HashMap<(EventType, Oid), Vec<u32>>,
    /// Per-object positions into `log`.
    obj_index: HashMap<Oid, Vec<u32>>,
}

impl Default for EventBase {
    fn default() -> Self {
        EventBase {
            log: Vec::new(),
            cut: 0,
            clock: LogicalClock::default(),
            uid: EB_UID.fetch_add(1, Ordering::Relaxed),
            type_index: HashMap::new(),
            type_obj_index: HashMap::new(),
            obj_index: HashMap::new(),
        }
    }
}

impl EventBase {
    /// Empty event base with a fresh clock.
    pub fn new() -> Self {
        EventBase::default()
    }

    /// Logical number of occurrences ever recorded, the dropped ones
    /// included: the next occurrence gets eid `len() + 1`.
    pub fn len(&self) -> usize {
        self.cut as usize + self.log.len()
    }

    /// Has no occurrence ever been recorded?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live occurrences: those after the cut.
    pub fn live_len(&self) -> usize {
        self.log.len()
    }

    /// Logical position of the first live occurrence (the number of
    /// occurrences [`EventBase::truncate`] has dropped).
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Drop every recorded occurrence. The logical length, the epoch, eids
    /// and the clock continue densely past the cut; the uid is kept. The
    /// log and the type columns are cleared in place, so their allocations
    /// serve the next transaction; the object indexes are emptied.
    /// See the module docs for what a window reaching below the cut sees.
    pub fn truncate(&mut self) {
        self.cut += self.log.len() as u64;
        self.log.clear();
        for col in self.type_index.values_mut() {
            col.clear();
        }
        self.type_obj_index.clear();
        self.obj_index.clear();
    }

    /// Position a base that has never recorded an occurrence as if `cut`
    /// occurrences had been recorded and then truncated, with the clock
    /// at `now`: the restore half of [`EventBase::truncate`]. Panics if
    /// the base is not empty or `now` precedes stamp `cut` (stamps are
    /// strictly increasing, so `cut` occurrences end at stamp `cut` or
    /// later).
    pub fn resume_at(&mut self, cut: u64, now: Timestamp) {
        assert!(self.is_empty(), "resume_at needs an empty event base");
        assert!(
            now >= Timestamp(cut),
            "{cut} occurrences cannot end before stamp {cut}: {now}"
        );
        self.cut = cut;
        self.clock.advance_to(now);
    }

    /// Process-unique identity of this event base (stable for its
    /// lifetime, across cuts too, never reused within the process).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Version counter for memoization: the logical length, so it changes
    /// exactly when an occurrence is recorded (clock ticks do not affect
    /// any value derived from the EB at a fixed instant). A cut leaves it
    /// unchanged; key caches on [`EventBase::memo_key`].
    pub fn epoch(&self) -> u64 {
        self.len() as u64
    }

    /// `(uid, cut, epoch)`: the key a value derived from this base must
    /// be cached under. A cut changes what a window reaching below it
    /// sees while keeping the uid and the epoch, so a cache keyed on this
    /// triple goes cold at its first use after a cut instead of answering
    /// from the dropped occurrences.
    pub fn memo_key(&self) -> (u64, u64, u64) {
        (self.uid, self.cut, self.epoch())
    }

    /// Current logical time (stamp of the most recent occurrence).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advance the clock without recording an occurrence (models the
    /// passage of time between blocks; negation can become active by pure
    /// absence, which is observed at such instants).
    pub fn tick(&mut self) -> Timestamp {
        self.clock.tick()
    }

    /// Record an occurrence at the next clock instant.
    pub fn append(&mut self, ty: EventType, oid: Oid) -> EventOccurrence {
        let ts = self.clock.tick();
        self.push(ty, oid, ts)
    }

    /// Record an occurrence at an explicit instant (scripted histories).
    ///
    /// Panics if `ts` is not strictly after the current clock value —
    /// the EB's semantics require strictly increasing stamps.
    pub fn append_at(&mut self, ty: EventType, oid: Oid, ts: Timestamp) -> EventOccurrence {
        assert!(
            ts > self.clock.now(),
            "event stamps must be strictly increasing: {} !> {}",
            ts,
            self.clock.now()
        );
        self.clock.advance_to(ts);
        self.push(ty, oid, ts)
    }

    fn push(&mut self, ty: EventType, oid: Oid, ts: Timestamp) -> EventOccurrence {
        let pos = self.log.len() as u32;
        let occ = EventOccurrence {
            eid: EventId(self.cut + pos as u64 + 1),
            ty,
            oid,
            ts,
        };
        self.log.push(occ);
        self.type_index.entry(ty).or_default().push(pos, ts, oid);
        self.type_obj_index.entry((ty, oid)).or_default().push(pos);
        self.obj_index.entry(oid).or_default().push(pos);
        occ
    }

    /// Fetch by EID. Eid `0` and the eids of dropped occurrences (at or
    /// below [`EventBase::cut`]) yield `None`.
    pub fn get(&self, eid: EventId) -> Option<&EventOccurrence> {
        let pos = eid.0.checked_sub(self.cut + 1)?;
        self.log.get(pos as usize)
    }

    /// Position in the live log of logical position `epoch`, clamped to
    /// the live part.
    fn live_pos(&self, epoch: u64) -> usize {
        epoch.saturating_sub(self.cut).min(self.log.len() as u64) as usize
    }

    /// The occurrences recorded since `epoch` (a value previously returned
    /// by [`EventBase::epoch`]), in timestamp order — the arrival delta an
    /// incrementally maintained consumer must absorb to catch up with the
    /// current epoch. Epochs at or beyond the current one yield an empty
    /// slice; epochs below the cut yield the whole live part.
    pub fn occurrences_since(&self, epoch: u64) -> &[EventOccurrence] {
        &self.log[self.live_pos(epoch)..]
    }

    /// Per-type delta view over the Occurred-Events columns: the
    /// `(stamp, oid)` pairs of `ty` occurrences recorded since `epoch`, in
    /// timestamp order, without touching the log. Columns store log
    /// positions in append order, so locating the split is one partition
    /// search over the type's own occurrences. Epochs below the cut yield
    /// every live occurrence of `ty`.
    pub fn type_occurrences_since(&self, ty: EventType, epoch: u64) -> TypeDelta<'_> {
        match self.type_index.get(&ty) {
            Some(col) => {
                let from = self.live_pos(epoch);
                let lo = col.pos.partition_point(|&p| (p as usize) < from);
                TypeDelta {
                    ts: &col.ts[lo..],
                    oids: &col.oid[lo..],
                }
            }
            None => TypeDelta::default(),
        }
    }

    /// Iterate the live log (the occurrences after the cut) in timestamp
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = &EventOccurrence> {
        self.log.iter()
    }

    /// The log slice falling inside `w`, in timestamp order. Degenerate
    /// windows (`upto <= after`) yield an empty slice.
    pub fn slice(&self, w: Window) -> &[EventOccurrence] {
        if w.is_degenerate() {
            return &[];
        }
        let lo = self.log.partition_point(|e| e.ts <= w.after);
        let hi = self.log.partition_point(|e| e.ts <= w.upto);
        &self.log[lo..hi]
    }

    /// Is the window non-empty (`R ≠ ∅` of the triggering predicate §4.4)?
    pub fn any_in(&self, w: Window) -> bool {
        !self.slice(w).is_empty()
    }

    /// Number of occurrences inside `w`.
    pub fn count_in(&self, w: Window) -> usize {
        self.slice(w).len()
    }

    /// Positions (into the log) of occurrences in an auxiliary position
    /// index, restricted to `w`.
    fn positions_in<'a>(&'a self, index: Option<&'a Vec<u32>>, w: Window) -> &'a [u32] {
        let Some(v) = index else { return &[] };
        if w.is_degenerate() {
            return &[];
        }
        let lo = v.partition_point(|&p| self.log[p as usize].ts <= w.after);
        let hi = v.partition_point(|&p| self.log[p as usize].ts <= w.upto);
        &v[lo..hi]
    }

    /// Stamp of the most recent occurrence of `ty` inside `w`
    /// (the §4.2 `t_E` lookup). `None` means no occurrence in `w`.
    pub fn last_of_type_in(&self, ty: EventType, w: Window) -> Option<Timestamp> {
        let col = self.type_index.get(&ty)?;
        let r = col.range_in(w);
        if r.is_empty() {
            None
        } else {
            Some(col.ts[r.end - 1])
        }
    }

    /// Stamp of the *first* occurrence of `ty` inside `w`.
    pub fn first_of_type_in(&self, ty: EventType, w: Window) -> Option<Timestamp> {
        let col = self.type_index.get(&ty)?;
        let r = col.range_in(w);
        if r.is_empty() {
            None
        } else {
            Some(col.ts[r.start])
        }
    }

    /// All occurrences of `ty` inside `w`, in timestamp order.
    pub fn occurrences_of_type_in(
        &self,
        ty: EventType,
        w: Window,
    ) -> impl Iterator<Item = &EventOccurrence> {
        let (col, r) = match self.type_index.get(&ty) {
            Some(col) => {
                let r = col.range_in(w);
                (Some(col), r)
            }
            None => (None, 0..0),
        };
        col.into_iter()
            .flat_map(move |c| c.pos[r.clone()].iter().map(|&p| &self.log[p as usize]))
    }

    /// Stamp of the most recent occurrence of `ty` on `oid` inside `w`
    /// (the §4.3 per-object `t_E` lookup).
    pub fn last_of_type_obj_in(&self, ty: EventType, oid: Oid, w: Window) -> Option<Timestamp> {
        self.positions_in(self.type_obj_index.get(&(ty, oid)), w)
            .last()
            .map(|&p| self.log[p as usize].ts)
    }

    /// Batched §4.3 leaf lookup: resolve the most recent `ty` stamp inside
    /// `w` for *every* object of a sorted domain in a single reverse sweep
    /// over the type's occurrence column, instead of one hash probe +
    /// binary search per `(type, oid)` pair. `out[i]` receives the stamp
    /// for `oids[i]` (callers pass a `None`-filled scratch slice).
    ///
    /// Cost: `O(K log D)` for `K` in-window occurrences of the type and a
    /// domain of `D` objects, with an early exit once every object is
    /// resolved.
    pub fn last_of_type_objs_in(
        &self,
        ty: EventType,
        oids: &[Oid],
        w: Window,
        out: &mut [Option<Timestamp>],
    ) {
        debug_assert_eq!(oids.len(), out.len());
        debug_assert!(oids.windows(2).all(|p| p[0] < p[1]), "domain must be sorted");
        let Some(col) = self.type_index.get(&ty) else {
            return;
        };
        let r = col.range_in(w);
        let mut unresolved = oids.len();
        for i in r.rev() {
            let Ok(j) = oids.binary_search(&col.oid[i]) else {
                continue;
            };
            if out[j].is_none() {
                out[j] = Some(col.ts[i]);
                unresolved -= 1;
                if unresolved == 0 {
                    break;
                }
            }
        }
    }

    /// All occurrences of `ty` on `oid` inside `w`, in timestamp order.
    pub fn occurrences_of_type_obj_in(
        &self,
        ty: EventType,
        oid: Oid,
        w: Window,
    ) -> impl Iterator<Item = &EventOccurrence> {
        self.positions_in(self.type_obj_index.get(&(ty, oid)), w)
            .iter()
            .map(|&p| &self.log[p as usize])
    }

    /// Distinct objects affected by any occurrence inside `w`, sorted: a
    /// plain scan of the window (see [`EventBase::objects_into`]).
    pub fn objects_in(&self, w: Window) -> Vec<Oid> {
        let mut oids = Vec::new();
        self.objects_into(&[], w, &mut oids);
        oids
    }

    /// Distinct objects affected inside `w` by occurrences of any of the
    /// given types, sorted. This is the `oid ∈ R` domain restricted to the
    /// primitives of one expression — the useful quantification domain for
    /// instance-oriented evaluation.
    pub fn objects_of_types_in(&self, types: &[EventType], w: Window) -> Vec<Oid> {
        debug_assert!(!types.is_empty(), "empty type list denotes `objects_in`");
        let mut oids = Vec::new();
        self.objects_into(types, w, &mut oids);
        oids
    }

    /// Replace `out` with the distinct objects affected inside `w` by
    /// occurrences of any of `types` (of any type if `types` is empty),
    /// sorted. Reads the type columns, or the log slice for every type;
    /// `out`'s allocation is reused.
    pub fn objects_into(&self, types: &[EventType], w: Window, out: &mut Vec<Oid>) {
        out.clear();
        if types.is_empty() {
            out.extend(self.slice(w).iter().map(|e| e.oid));
        } else {
            for ty in types {
                if let Some(col) = self.type_index.get(ty) {
                    out.extend_from_slice(&col.oid[col.range_in(w)]);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Stamp of the most recent occurrence affecting `oid` inside `w`.
    pub fn last_of_obj_in(&self, oid: Oid, w: Window) -> Option<Timestamp> {
        self.positions_in(self.obj_index.get(&oid), w)
            .last()
            .map(|&p| self.log[p as usize].ts)
    }

    /// All occurrences affecting `oid` inside `w`, in timestamp order.
    pub fn occurrences_of_obj_in(
        &self,
        oid: Oid,
        w: Window,
    ) -> impl Iterator<Item = &EventOccurrence> {
        self.positions_in(self.obj_index.get(&oid), w)
            .iter()
            .map(|&p| &self.log[p as usize])
    }

    /// Most recent stamp per type leaf (§5: "each leaf keeps the time stamp
    /// of the more recent occurrence of the associated event type").
    pub fn leaf_last_stamp(&self, ty: EventType) -> Option<Timestamp> {
        self.type_index.get(&ty).and_then(|c| c.ts.last().copied())
    }
}

/// A per-type arrival delta: parallel stamp/object columns of one event
/// type's occurrences since a given epoch
/// (see [`EventBase::type_occurrences_since`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct TypeDelta<'a> {
    /// Stamps, in timestamp (= append) order.
    pub ts: &'a [Timestamp],
    /// Affected objects, parallel to `ts`.
    pub oids: &'a [Oid],
}

impl TypeDelta<'_> {
    /// Number of delta occurrences.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Is the delta empty?
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The `(stamp, oid)` pairs, in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, Oid)> + '_ {
        self.ts.iter().copied().zip(self.oids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::ClassId;

    fn ty(c: u32) -> EventType {
        EventType::create(ClassId(c))
    }

    #[test]
    fn append_allocates_increasing_stamps_and_eids() {
        let mut eb = EventBase::new();
        let a = eb.append(ty(0), Oid(1));
        let b = eb.append(ty(0), Oid(2));
        assert_eq!(a.eid, EventId(1));
        assert_eq!(b.eid, EventId(2));
        assert!(a.ts < b.ts);
        assert_eq!(eb.now(), b.ts);
        assert_eq!(eb.get(a.eid), Some(&a));
        assert_eq!(eb.get(EventId(0)), None);
        assert_eq!(eb.get(EventId(99)), None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn append_at_rejects_non_increasing() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(1), Timestamp(5));
        eb.append_at(ty(0), Oid(1), Timestamp(5));
    }

    #[test]
    fn window_slicing() {
        let mut eb = EventBase::new();
        for i in 1..=10u64 {
            eb.append_at(ty(0), Oid(i), Timestamp(i));
        }
        let w = Window::new(Timestamp(3), Timestamp(7));
        let s = eb.slice(w);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].ts, Timestamp(4));
        assert_eq!(s[3].ts, Timestamp(7));
        assert!(eb.any_in(w));
        assert_eq!(eb.count_in(w), 4);
        assert!(!eb.any_in(Window::new(Timestamp(10), Timestamp(20))));
    }

    #[test]
    fn type_index_last_and_first() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(1), Timestamp(1));
        eb.append_at(ty(1), Oid(1), Timestamp(2));
        eb.append_at(ty(0), Oid(2), Timestamp(3));
        let all = Window::from_origin(Timestamp(10));
        assert_eq!(eb.last_of_type_in(ty(0), all), Some(Timestamp(3)));
        assert_eq!(eb.first_of_type_in(ty(0), all), Some(Timestamp(1)));
        assert_eq!(eb.last_of_type_in(ty(1), all), Some(Timestamp(2)));
        assert_eq!(eb.last_of_type_in(ty(9), all), None);
        // clipped window hides the later occurrence
        let clipped = Window::from_origin(Timestamp(2));
        assert_eq!(eb.last_of_type_in(ty(0), clipped), Some(Timestamp(1)));
        // consumed window hides the earlier occurrence
        let consumed = Window::new(Timestamp(1), Timestamp(10));
        assert_eq!(eb.first_of_type_in(ty(0), consumed), Some(Timestamp(3)));
    }

    #[test]
    fn type_obj_index() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(1), Timestamp(1));
        eb.append_at(ty(0), Oid(2), Timestamp(2));
        eb.append_at(ty(0), Oid(1), Timestamp(3));
        let all = Window::from_origin(Timestamp(10));
        assert_eq!(
            eb.last_of_type_obj_in(ty(0), Oid(1), all),
            Some(Timestamp(3))
        );
        assert_eq!(
            eb.last_of_type_obj_in(ty(0), Oid(2), all),
            Some(Timestamp(2))
        );
        assert_eq!(eb.last_of_type_obj_in(ty(0), Oid(3), all), None);
        assert_eq!(eb.occurrences_of_type_obj_in(ty(0), Oid(1), all).count(), 2);
    }

    #[test]
    fn batched_lookup_matches_single_probes() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(3), Timestamp(1));
        eb.append_at(ty(0), Oid(1), Timestamp(2));
        eb.append_at(ty(1), Oid(2), Timestamp(3));
        eb.append_at(ty(0), Oid(3), Timestamp(4));
        eb.append_at(ty(0), Oid(2), Timestamp(5));
        for w in [
            Window::from_origin(Timestamp(5)),
            Window::new(Timestamp(2), Timestamp(4)),
            Window::new(Timestamp(5), Timestamp(5)),
        ] {
            let dom = [Oid(1), Oid(2), Oid(3), Oid(9)];
            let mut out = vec![None; dom.len()];
            eb.last_of_type_objs_in(ty(0), &dom, w, &mut out);
            for (i, &oid) in dom.iter().enumerate() {
                assert_eq!(
                    out[i],
                    eb.last_of_type_obj_in(ty(0), oid, w),
                    "oid {oid} in {w:?}"
                );
            }
        }
        // absent type leaves the scratch untouched
        let mut out = vec![None; 2];
        eb.last_of_type_objs_in(ty(9), &[Oid(1), Oid(2)], Window::from_origin(Timestamp(5)), &mut out);
        assert_eq!(out, vec![None, None]);
    }

    #[test]
    fn object_enumeration() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(3), Timestamp(1));
        eb.append_at(ty(1), Oid(1), Timestamp(2));
        eb.append_at(ty(0), Oid(3), Timestamp(3));
        let all = Window::from_origin(Timestamp(10));
        assert_eq!(eb.objects_in(all).to_vec(), vec![Oid(1), Oid(3)]);
        assert_eq!(eb.objects_of_types_in(&[ty(0)], all).to_vec(), vec![Oid(3)]);
        assert_eq!(
            eb.objects_of_types_in(&[ty(0), ty(1)], all).to_vec(),
            vec![Oid(1), Oid(3)]
        );
        let later = Window::new(Timestamp(2), Timestamp(10));
        assert_eq!(eb.objects_in(later).to_vec(), vec![Oid(3)]);
    }

    #[test]
    fn objects_in_follows_a_moving_upper_bound() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(2), Timestamp(1));
        let w1 = Window::from_origin(Timestamp(1));
        assert_eq!(eb.objects_in(w1).to_vec(), vec![Oid(2)]);
        assert_eq!(eb.objects_in(w1).to_vec(), vec![Oid(2)]);
        // new arrivals + advanced upper bound
        eb.append_at(ty(1), Oid(1), Timestamp(2));
        eb.append_at(ty(0), Oid(2), Timestamp(3));
        let w2 = Window::from_origin(Timestamp(3));
        assert_eq!(eb.objects_in(w2).to_vec(), vec![Oid(1), Oid(2)]);
        // an upper bound past the clock, asked twice
        let w3 = Window::from_origin(Timestamp(9));
        assert_eq!(eb.objects_in(w3), eb.objects_in(w3));
        // a shrunken upper bound hides the later arrival
        assert_eq!(eb.objects_in(w1).to_vec(), vec![Oid(2)]);
        // per-type domains
        let t_dom = eb.objects_of_types_in(&[ty(1)], w3);
        assert_eq!(t_dom.to_vec(), vec![Oid(1)]);
        assert_eq!(t_dom, eb.objects_of_types_in(&[ty(1)], w3));
    }

    #[test]
    fn objects_in_a_window_closing_past_the_clock_see_later_appends() {
        // a window whose upper bound is beyond the clock takes in the
        // occurrences appended later inside it
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(1), Timestamp(1));
        let w = Window::from_origin(Timestamp(9)); // upto > now
        assert_eq!(eb.objects_in(w).to_vec(), vec![Oid(1)]);
        eb.append_at(ty(0), Oid(2), Timestamp(2));
        assert_eq!(eb.objects_in(w).to_vec(), vec![Oid(1), Oid(2)]);
        // per-type variant too
        let wt = Window::from_origin(Timestamp(9));
        assert_eq!(eb.objects_of_types_in(&[ty(0)], wt).to_vec(), vec![Oid(1), Oid(2)]);
        eb.append_at(ty(0), Oid(3), Timestamp(5));
        assert_eq!(
            eb.objects_of_types_in(&[ty(0)], wt).to_vec(),
            vec![Oid(1), Oid(2), Oid(3)]
        );
    }

    #[test]
    fn objects_in_a_window_opening_past_the_clock_stay_closed_below() {
        // a window whose lower bound is beyond the clock never takes in
        // occurrences at or before that bound
        let mut eb = EventBase::new();
        let w = Window::new(Timestamp(3), Timestamp(9));
        assert!(eb.objects_in(w).is_empty());
        eb.append_at(ty(0), Oid(1), Timestamp(2));
        eb.append_at(ty(0), Oid(2), Timestamp(4));
        assert_eq!(eb.objects_in(w).to_vec(), vec![Oid(2)]);
        assert_eq!(eb.objects_of_types_in(&[ty(0)], w).to_vec(), vec![Oid(2)]);
    }

    #[test]
    fn epoch_deltas_expose_exactly_the_new_arrivals() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(1), Timestamp(1));
        eb.append_at(ty(1), Oid(2), Timestamp(2));
        let epoch = eb.epoch();
        assert!(eb.occurrences_since(epoch).is_empty());
        eb.append_at(ty(0), Oid(3), Timestamp(3));
        eb.append_at(ty(1), Oid(1), Timestamp(4));
        eb.append_at(ty(0), Oid(1), Timestamp(5));
        let delta = eb.occurrences_since(epoch);
        assert_eq!(delta.len(), 3);
        assert_eq!(delta[0].ts, Timestamp(3));
        assert_eq!(delta[2].ts, Timestamp(5));
        // per-type view over the columnar index
        let d0 = eb.type_occurrences_since(ty(0), epoch);
        assert_eq!(d0.len(), 2);
        assert!(!d0.is_empty());
        assert_eq!(
            d0.iter().collect::<Vec<_>>(),
            vec![(Timestamp(3), Oid(3)), (Timestamp(5), Oid(1))]
        );
        let d1 = eb.type_occurrences_since(ty(1), epoch);
        assert_eq!(d1.iter().collect::<Vec<_>>(), vec![(Timestamp(4), Oid(1))]);
        // absent type and future epoch both yield empty views
        assert!(eb.type_occurrences_since(ty(9), epoch).is_empty());
        assert!(eb.type_occurrences_since(ty(0), eb.epoch() + 10).is_empty());
        assert!(eb.occurrences_since(eb.epoch() + 10).is_empty());
        // the full delta from epoch 0 is the whole log
        assert_eq!(eb.occurrences_since(0).len(), eb.len());
    }

    #[test]
    fn objects_in_a_window_of_many_objects_are_sorted_and_distinct() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(500), Timestamp(1));
        let w1 = Window::from_origin(Timestamp(1));
        assert_eq!(eb.objects_in(w1).to_vec(), vec![Oid(500)]);
        // descending + duplicated arrivals stress the sort and dedup
        let mut t = 1;
        for oid in (1..=400u64).rev() {
            t += 1;
            eb.append_at(ty(0), Oid(oid), Timestamp(t));
            t += 1;
            eb.append_at(ty(1), Oid(oid), Timestamp(t));
        }
        let w2 = Window::from_origin(Timestamp(t));
        let dom = eb.objects_in(w2);
        assert_eq!(dom.len(), 401);
        assert!(dom.windows(2).all(|p| p[0] < p[1]), "sorted + distinct");
        assert_eq!(dom.first(), Some(&Oid(1)));
        assert_eq!(dom.last(), Some(&Oid(500)));
    }

    #[test]
    fn uid_and_epoch_track_identity_and_appends() {
        let mut a = EventBase::new();
        let b = EventBase::new();
        assert_ne!(a.uid(), b.uid());
        assert_eq!(a.epoch(), 0);
        a.append(ty(0), Oid(1));
        assert_eq!(a.epoch(), 1);
        a.tick(); // ticks do not change derived values ⇒ not an epoch bump
        assert_eq!(a.epoch(), 1);
    }

    #[test]
    fn per_object_iteration() {
        let mut eb = EventBase::new();
        eb.append_at(ty(0), Oid(1), Timestamp(1));
        eb.append_at(ty(1), Oid(1), Timestamp(2));
        eb.append_at(ty(0), Oid(2), Timestamp(3));
        let all = Window::from_origin(Timestamp(10));
        let objs: Vec<_> = eb.occurrences_of_obj_in(Oid(1), all).collect();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0].ts, Timestamp(1));
        assert_eq!(objs[1].ts, Timestamp(2));
    }

    #[test]
    fn leaf_last_stamp_tracks_most_recent() {
        let mut eb = EventBase::new();
        assert_eq!(eb.leaf_last_stamp(ty(0)), None);
        eb.append_at(ty(0), Oid(1), Timestamp(4));
        eb.append_at(ty(0), Oid(2), Timestamp(9));
        assert_eq!(eb.leaf_last_stamp(ty(0)), Some(Timestamp(9)));
    }

    #[test]
    fn truncate_keeps_positions_eids_and_clock_dense() {
        let mut eb = EventBase::new();
        eb.append(ty(0), Oid(1));
        eb.append(ty(1), Oid(2));
        let w = Window::from_origin(Timestamp(9));
        assert_eq!(eb.objects_in(w).to_vec(), vec![Oid(1), Oid(2)]);
        let uid = eb.uid();
        eb.truncate();
        assert_eq!(
            (eb.len(), eb.live_len(), eb.cut(), eb.epoch()),
            (2, 0, 2, 2)
        );
        assert_eq!(eb.now(), Timestamp(2));
        assert_eq!(eb.uid(), uid, "the uid survives the cut");
        assert_ne!(eb.memo_key(), (uid, 0, 2), "the memo key does not");
        assert!(!eb.is_empty());
        assert_eq!(eb.get(EventId(2)), None, "dropped eids are gone");
        // the domain asked before the cut sees only the live part after it
        assert!(eb.objects_in(w).is_empty());
        assert_eq!(eb.last_of_type_in(ty(0), w), None);
        let c = eb.append(ty(0), Oid(3));
        assert_eq!((c.eid, c.ts), (EventId(3), Timestamp(3)));
        assert_eq!(eb.get(EventId(3)), Some(&c));
        assert_eq!(eb.iter().copied().collect::<Vec<_>>(), vec![c]);
        assert_eq!(eb.occurrences_since(0), &[c], "below the cut: the live part");
        assert_eq!(eb.occurrences_since(2), &[c]);
        assert!(eb.occurrences_since(3).is_empty());
        assert_eq!(eb.type_occurrences_since(ty(0), 1).len(), 1);
        assert!(eb.type_occurrences_since(ty(0), 3).is_empty());
        assert!(eb.type_occurrences_since(ty(1), 0).is_empty());
        assert_eq!(eb.leaf_last_stamp(ty(0)), Some(Timestamp(3)));
        assert_eq!(eb.leaf_last_stamp(ty(1)), None);
        assert_eq!(eb.objects_in(w).to_vec(), vec![Oid(3)]);
    }

    #[test]
    fn resume_at_positions_an_empty_base() {
        let mut a = EventBase::new();
        for oid in 1..=4 {
            a.append(ty(0), Oid(oid));
        }
        a.truncate();
        let x = a.append(ty(1), Oid(9));
        let mut b = EventBase::new();
        b.resume_at(a.cut(), Timestamp(a.cut()));
        let y = b.append(ty(1), Oid(9));
        assert_eq!(x, y);
        assert_eq!((b.len(), b.cut(), b.now()), (a.len(), a.cut(), a.now()));
    }

    #[test]
    #[should_panic(expected = "empty event base")]
    fn resume_at_rejects_a_used_base() {
        let mut eb = EventBase::new();
        eb.append(ty(0), Oid(1));
        eb.resume_at(5, Timestamp(5));
    }

    #[test]
    fn tick_advances_time_without_events() {
        let mut eb = EventBase::new();
        eb.append(ty(0), Oid(1));
        let before = eb.len();
        let t = eb.tick();
        assert_eq!(eb.len(), before);
        assert_eq!(eb.now(), t);
    }
}
