//! Instance-oriented `ots` semantics (§4.3) and the instance→set boundary.
//!
//! `ots(E, t, oid)` is the per-object analogue of `ts`: it considers only
//! the occurrences affecting `oid`. The operators compose exactly as in the
//! set-oriented case, with per-object lookups at the leaves.
//!
//! ## The boundary (instance expression in set context)
//!
//! When an instance-oriented expression appears as operand of a
//! set-oriented operator, the paper's prose (§3.2) fixes the semantics:
//!
//! * conjunction / disjunction / precedence root: active iff **there is at
//!   least one object** the expression is active for —
//!   `ts(E,t) = max over oid of ots(E,t,oid)`;
//! * negation root `-=F`: active iff **there is no object** `F` is active
//!   for — `ts(-=F,t) = −max over oid of ots(F,t,oid)`.
//!
//! (The scanned formulas in §4.3 garble the min/max quantifiers, so the
//! unambiguous prose of §3.2 is taken as the authoritative reading.)
//!
//! The quantification domain is the set of objects affected inside the
//! window by the expression's own primitive event types; when the
//! expression contains an inner `-=` (and can therefore be active for an
//! object with no matching occurrences at all) the domain widens to every
//! object affected in the window.

use crate::expr::EventExpr;
use crate::ts::{u, TsVal};
use chimera_events::{EventBase, EventType, Timestamp, Window};
use chimera_model::Oid;
use std::sync::Arc;

/// `ots` of a primitive for one object.
fn ots_prim(eb: &EventBase, w: Window, t: Timestamp, ty: EventType, oid: Oid) -> TsVal {
    match eb.last_of_type_obj_in(ty, oid, w.clip_upto(t)) {
        Some(stamp) => TsVal::active(stamp),
        None => TsVal::inactive(t),
    }
}

/// Logical-style `ots(E, t, oid)` (§4.3). `E` must be instance-oriented
/// (validated expressions guarantee this; set operators below an instance
/// operator are rejected by [`EventExpr::validate`]).
pub fn ots_logical(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp, oid: Oid) -> TsVal {
    match expr {
        EventExpr::Prim(ty) => ots_prim(eb, w, t, *ty, oid),
        EventExpr::INot(e) => ots_logical(e, eb, w, t, oid).negate(),
        EventExpr::IAnd(a, b) => {
            let ta = ots_logical(a, eb, w, t, oid);
            let tb = ots_logical(b, eb, w, t, oid);
            if ta.is_active() && tb.is_active() {
                ta.max(tb)
            } else {
                ta.min(tb)
            }
        }
        EventExpr::IOr(a, b) => {
            let ta = ots_logical(a, eb, w, t, oid);
            let tb = ots_logical(b, eb, w, t, oid);
            if ta.is_active() || tb.is_active() {
                ta.max(tb)
            } else {
                ta.min(tb)
            }
        }
        EventExpr::IPrec(a, b) => {
            let tb = ots_logical(b, eb, w, t, oid);
            match tb.activation() {
                Some(b_stamp) => {
                    let ta_at_b = ots_logical(a, eb, w, b_stamp, oid);
                    if ta_at_b.is_active() {
                        tb
                    } else {
                        TsVal::inactive(t)
                    }
                }
                None => TsVal::inactive(t),
            }
        }
        // set-oriented operators have no per-object semantics; validated
        // expressions never reach here.
        _ => unreachable!("set-oriented operator inside instance evaluation: {expr}"),
    }
}

/// Algebraic-style `ots(E, t, oid)` — the §4.3 `u`-product formulas.
pub fn ots_algebraic(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp, oid: Oid) -> TsVal {
    match expr {
        EventExpr::Prim(ty) => ots_prim(eb, w, t, *ty, oid),
        EventExpr::INot(e) => TsVal(-ots_algebraic(e, eb, w, t, oid).0),
        EventExpr::IAnd(a, b) => {
            let x = ots_algebraic(a, eb, w, t, oid).0;
            let y = ots_algebraic(b, eb, w, t, oid).0;
            let both = u(x) * u(y);
            TsVal(x.min(y) * (1 - both) + x.max(y) * both)
        }
        EventExpr::IOr(a, b) => {
            let x = ots_algebraic(a, eb, w, t, oid).0;
            let y = ots_algebraic(b, eb, w, t, oid).0;
            let neither = u(-x) * u(-y);
            TsVal(x.max(y) * (1 - neither) + x.min(y) * neither)
        }
        EventExpr::IPrec(a, b) => {
            let y = ots_algebraic(b, eb, w, t, oid).0;
            let g = u(y);
            let z = if g == 1 {
                ots_algebraic(a, eb, w, Timestamp(y as u64), oid).0
            } else {
                -1
            };
            let hit = g * u(z);
            TsVal(-t.as_signed() * (1 - hit) + y * hit)
        }
        _ => unreachable!("set-oriented operator inside instance evaluation: {expr}"),
    }
}

/// Quantification domain for the boundary: the objects that could make the
/// instance expression active inside `w` up to `t` (a shared slice out of
/// the event base's domain cache).
pub(crate) fn boundary_domain(
    expr: &EventExpr,
    eb: &EventBase,
    w: Window,
    t: Timestamp,
) -> Arc<[Oid]> {
    let clipped = w.clip_upto(t);
    if expr.contains_negation() {
        // inner -= can make the expression active for objects that have no
        // occurrence of its own primitives; widen to all affected objects.
        eb.objects_in(clipped)
    } else {
        eb.objects_of_types_in(&expr.primitives(), clipped)
    }
}

/// §4.3 "ots to ts": fold an instance-rooted expression into set context,
/// logical-style evaluation.
///
/// This is the *recursive reference* definition — it walks the tree once
/// per domain object. The production path behind [`crate::ts_logical`]
/// evaluates the same function through a compiled plan ([`crate::plan`]);
/// `tests/plan_equivalence.rs` asserts the two agree bit for bit.
pub fn boundary_ts_logical(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
    match expr {
        EventExpr::INot(inner) => {
            // active iff no object activates `inner`.
            let dom = boundary_domain(inner, eb, w, t);
            let worst = dom
                .iter()
                .map(|&oid| ots_logical(inner, eb, w, t, oid))
                .max();
            match worst {
                Some(v) if v.is_active() => v.negate(), // ∃ active object → inactive
                Some(_) | None => TsVal::active(t),     // nobody active → active "now"
            }
        }
        _ => {
            let dom = boundary_domain(expr, eb, w, t);
            dom.iter()
                .map(|&oid| ots_logical(expr, eb, w, t, oid))
                .max()
                .unwrap_or(TsVal::inactive(t))
        }
    }
}

/// §4.3 "ots to ts", algebraic-style evaluation (recursive reference,
/// like [`boundary_ts_logical`]).
pub fn boundary_ts_algebraic(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
    match expr {
        EventExpr::INot(inner) => {
            let dom = boundary_domain(inner, eb, w, t);
            let max = dom
                .iter()
                .map(|&oid| ots_algebraic(inner, eb, w, t, oid).0)
                .max();
            match max {
                Some(m) => TsVal(-m * u(m) + t.as_signed() * (1 - u(m))),
                None => TsVal::active(t),
            }
        }
        _ => {
            let dom = boundary_domain(expr, eb, w, t);
            dom.iter()
                .map(|&oid| ots_algebraic(expr, eb, w, t, oid))
                .max()
                .unwrap_or(TsVal::inactive(t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::{ts_algebraic, ts_logical};
    use chimera_model::ClassId;

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }
    fn ots(expr: &EventExpr, eb: &EventBase, w: Window, t: u64, oid: u64) -> TsVal {
        let l = ots_logical(expr, eb, w, Timestamp(t), Oid(oid));
        let a = ots_algebraic(expr, eb, w, Timestamp(t), Oid(oid));
        assert_eq!(l, a, "logical/algebraic ots disagree on {expr}");
        l
    }
    fn ts(expr: &EventExpr, eb: &EventBase, w: Window, t: u64) -> TsVal {
        let l = ts_logical(expr, eb, w, Timestamp(t));
        let a = ts_algebraic(expr, eb, w, Timestamp(t));
        assert_eq!(l, a, "logical/algebraic ts disagree on {expr}");
        l
    }

    /// §3.2 primitive: create on O1 at t1=1, on O2 at t2=5.
    #[test]
    fn section32_primitive_per_object() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(0), Oid(2), Timestamp(5));
        eb.tick();
        let w = Window::from_origin(Timestamp(6));
        let e = p(0);
        assert_eq!(ots(&e, &eb, w, 3, 1), TsVal(1)); // active for O1
        assert!(!ots(&e, &eb, w, 3, 2).is_active()); // not yet for O2
        assert_eq!(ots(&e, &eb, w, 6, 1), TsVal(1)); // still t1 for O1
        assert_eq!(ots(&e, &eb, w, 6, 2), TsVal(5)); // t2 for O2
    }

    /// §3.2 instance conjunction: create += modify on the same object.
    #[test]
    fn section32_instance_conjunction() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1)); // create O1
        eb.append_at(et(0), Oid(2), Timestamp(2)); // create O2
        eb.append_at(et(1), Oid(1), Timestamp(3)); // modify O1
        let w = Window::from_origin(Timestamp(3));
        let e = p(0).iand(p(1));
        assert_eq!(ots(&e, &eb, w, 3, 1), TsVal(3)); // both on O1
        assert!(!ots(&e, &eb, w, 3, 2).is_active()); // O2 only created
    }

    /// §3.2 instance disjunction timeline (adapted: the paper gives both
    /// modifies the same stamp t3; the logical clock forces distinct
    /// stamps 7 and 8, which does not change any activity transition).
    #[test]
    fn section32_instance_disjunction() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1)); // create O1   (t1)
        eb.append_at(et(0), Oid(2), Timestamp(5)); // create O2   (t2)
        eb.append_at(et(1), Oid(1), Timestamp(7)); // modify O1   (t3)
        eb.append_at(et(1), Oid(3), Timestamp(8)); // modify O3   (t3')
        let w = Window::from_origin(Timestamp(8));
        let e = p(0).ior(p(1));
        // before anything: inactive for all three
        assert!(!ots(&e, &eb, w, 1, 2).is_active());
        // t1 ≤ t < t2: active only for O1, stamp t1
        assert_eq!(ots(&e, &eb, w, 3, 1), TsVal(1));
        assert!(!ots(&e, &eb, w, 3, 2).is_active());
        assert!(!ots(&e, &eb, w, 3, 3).is_active());
        // t2 ≤ t < t3: O1 keeps t1, O2 now active with t2
        assert_eq!(ots(&e, &eb, w, 6, 1), TsVal(1));
        assert_eq!(ots(&e, &eb, w, 6, 2), TsVal(5));
        // after the modifies: O1's stamp advances, O3 becomes active
        assert_eq!(ots(&e, &eb, w, 8, 1), TsVal(7));
        assert_eq!(ots(&e, &eb, w, 8, 2), TsVal(5));
        assert_eq!(ots(&e, &eb, w, 8, 3), TsVal(8));
    }

    /// §3.2 instance negation: creates on O1 (t1) and O2 (t2).
    #[test]
    fn section32_instance_negation() {
        let mut eb = EventBase::new();
        eb.tick(); // t1 = 1 used as probe before any create
        eb.append_at(et(0), Oid(1), Timestamp(2));
        eb.append_at(et(0), Oid(2), Timestamp(5));
        let w = Window::from_origin(Timestamp(5));
        let e = p(0).inot();
        // before the first create: active for both, stamp = now
        assert_eq!(ots(&e, &eb, w, 1, 1), TsVal(1));
        assert_eq!(ots(&e, &eb, w, 1, 2), TsVal(1));
        // between: inactive for O1, still active for O2
        assert!(!ots(&e, &eb, w, 3, 1).is_active());
        assert_eq!(ots(&e, &eb, w, 3, 2), TsVal(3));
        // after both: inactive for both
        assert!(!ots(&e, &eb, w, 5, 1).is_active());
        assert!(!ots(&e, &eb, w, 5, 2).is_active());
    }

    /// §3.2 instance precedence: two modify(min_qty) on O1 (t1, t2), one
    /// modify(qty) on O1 (t3), t1 < t2 < t3.
    #[test]
    fn section32_instance_precedence() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(0), Oid(1), Timestamp(4));
        eb.append_at(et(1), Oid(1), Timestamp(6));
        let w = Window::from_origin(Timestamp(6));
        let e = p(0).iprec(p(1));
        assert!(!ots(&e, &eb, w, 2, 1).is_active());
        assert!(!ots(&e, &eb, w, 5, 1).is_active());
        assert_eq!(ots(&e, &eb, w, 6, 1), TsVal(6));
        // and only for that object
        assert!(!ots(&e, &eb, w, 6, 2).is_active());
    }

    /// §3.2 contrast: instance conjunction in set context vs set
    /// conjunction — different objects satisfy the set version only.
    #[test]
    fn section32_boundary_conjunction_contrast() {
        // create on O1, modify on O2 (never both on one object)
        let mut eb = EventBase::new();
        eb.append_at(et(9), Oid(5), Timestamp(1)); // modify(show.qty) on O5
        eb.append_at(et(0), Oid(1), Timestamp(2));
        eb.append_at(et(1), Oid(2), Timestamp(3));
        let w = Window::from_origin(Timestamp(3));
        // modify(show) + (create += modify): inactive (no single object)
        let inst = p(9).and(p(0).iand(p(1)));
        assert!(!ts(&inst, &eb, w, 3).is_active());
        // modify(show) + (create + modify): active (set-oriented)
        let set = p(9).and(p(0).and(p(1)));
        assert!(ts(&set, &eb, w, 3).is_active());
        // same object case: both become active
        let mut eb2 = EventBase::new();
        eb2.append_at(et(9), Oid(5), Timestamp(1));
        eb2.append_at(et(0), Oid(1), Timestamp(2));
        eb2.append_at(et(1), Oid(1), Timestamp(3));
        let w2 = Window::from_origin(Timestamp(3));
        assert!(ts(&inst, &eb2, w2, 3).is_active());
        assert!(ts(&set, &eb2, w2, 3).is_active());
    }

    /// §3.2 contrast: instance disjunction of primitives in set context is
    /// equivalent to set disjunction (the paper notes the effect is the
    /// same; the operator exists for orthogonality).
    #[test]
    fn section32_boundary_disjunction_equivalence() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(2));
        eb.append_at(et(1), Oid(2), Timestamp(4));
        let w = Window::from_origin(Timestamp(4));
        for t in 1..=4 {
            assert_eq!(
                ts(&p(0).ior(p(1)), &eb, w, t),
                ts(&p(0).or(p(1)), &eb, w, t),
                "t={t}"
            );
        }
    }

    /// §3.2 contrast: -=(create += modify) vs (-create + -modify).
    #[test]
    fn section32_boundary_negation_contrast() {
        // events on different objects: no object has both → -= active;
        // but both primitives occurred → set version inactive.
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(2), Timestamp(2));
        let w = Window::from_origin(Timestamp(2));
        let inst = p(0).iand(p(1)).inot();
        let set = p(0).not().and(p(1).not());
        assert!(ts(&inst, &eb, w, 2).is_active());
        assert!(!ts(&set, &eb, w, 2).is_active());
        // same object: both inactive
        let mut eb2 = EventBase::new();
        eb2.append_at(et(0), Oid(1), Timestamp(1));
        eb2.append_at(et(1), Oid(1), Timestamp(2));
        let w2 = Window::from_origin(Timestamp(2));
        assert!(!ts(&inst, &eb2, w2, 2).is_active());
        assert!(!ts(&set, &eb2, w2, 2).is_active());
    }

    /// Paper §3.2: -= applied to an *elementary* event type in set context
    /// equals the set-oriented negation.
    #[test]
    fn elementary_inot_equals_not() {
        let mut eb = EventBase::new();
        eb.tick();
        eb.append_at(et(0), Oid(1), Timestamp(2));
        eb.append_at(et(1), Oid(2), Timestamp(3));
        let w = Window::from_origin(Timestamp(3));
        for t in 1..=3 {
            assert_eq!(
                ts(&p(0).inot(), &eb, w, t).is_active(),
                ts(&p(0).not(), &eb, w, t).is_active(),
                "t={t}"
            );
        }
    }

    /// §3.2 contrast: instance precedence in set context vs set precedence.
    #[test]
    fn section32_boundary_precedence_contrast() {
        // create on O1 at t1, modify on O2 at t2: sequence across objects.
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(2), Timestamp(2));
        let w = Window::from_origin(Timestamp(2));
        let inst = p(0).iprec(p(1));
        let set = p(0).prec(p(1));
        assert!(!ts(&inst, &eb, w, 2).is_active()); // not on one object
        assert!(ts(&set, &eb, w, 2).is_active()); // set-level order holds
    }

    #[test]
    fn boundary_empty_domain() {
        let eb = EventBase::new();
        let w = Window::from_origin(Timestamp(4));
        // no objects at all: ∃-rooted boundary inactive, -= boundary active
        assert!(!ts(&p(0).iand(p(1)), &eb, w, 4).is_active());
        assert_eq!(ts(&p(0).iand(p(1)).inot(), &eb, w, 4), TsVal(4));
    }

    #[test]
    fn boundary_takes_max_over_objects() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(1), Timestamp(2)); // O1 complete at 2
        eb.append_at(et(0), Oid(2), Timestamp(3));
        eb.append_at(et(1), Oid(2), Timestamp(4)); // O2 complete at 4
        let w = Window::from_origin(Timestamp(4));
        assert_eq!(ts(&p(0).iand(p(1)), &eb, w, 4), TsVal(4));
        assert_eq!(ts(&p(0).iand(p(1)), &eb, w, 3), TsVal(2));
    }

    #[test]
    fn nested_inot_boundary_is_forall() {
        // -=(-=A) in set context: active iff every affected object has A.
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1)); // A on O1
        eb.append_at(et(1), Oid(2), Timestamp(2)); // B on O2 (no A!)
        let w = Window::from_origin(Timestamp(2));
        let e = p(0).inot().inot();
        assert!(!ts(&e, &eb, w, 2).is_active(), "O2 lacks A");
        let mut eb2 = EventBase::new();
        eb2.append_at(et(0), Oid(1), Timestamp(1));
        eb2.append_at(et(0), Oid(2), Timestamp(2));
        let w2 = Window::from_origin(Timestamp(2));
        assert!(ts(&e, &eb2, w2, 2).is_active(), "all objects have A");
    }
}
