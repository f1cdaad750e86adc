//! Set-oriented `ts` semantics (§4.2).
//!
//! For an event expression `E`, a set `R` of event occurrences (an
//! observation [`Window`] over the EB) and an instant `t`:
//!
//! * `ts(E, t) > 0` iff `E` is *active* at `t`, and the value is the
//!   activation stamp (the stamp of the most recent activation);
//! * `ts(E, t) = -t` otherwise.
//!
//! The paper gives two equivalent definitions — a *logical style* (case
//! analysis over `occ` predicates) and an *algebraic style* (arithmetic
//! over the step function `u`). Both are implemented here, as genuinely
//! different code paths, and property tests assert they agree on random
//! expressions and histories (PERF-6 benches their relative cost).
//!
//! | op        | logical definition |
//! |-----------|--------------------|
//! | primitive | stamp of most recent occurrence in `R∩(-∞,t]`, else `-t` |
//! | `-E`      | `-ts(E,t)` |
//! | `A + B`   | both active → `max`; else `min` |
//! | `A , B`   | at least one active → `max` of the active side(s); else `min` |
//! | `A < B`   | `B` active and `A` active at `ts(B,t)` → `ts(B,t)`; else `-t` |
//!
//! Instance-oriented sub-expressions appearing in set context are folded in
//! through the §4.3 boundary (see [`crate::instance`]).

use crate::expr::EventExpr;
use crate::instance::{boundary_ts_algebraic, boundary_ts_logical};
use crate::plan::PlanEval;
use chimera_events::{EventBase, EventType, Timestamp, Window};
use std::fmt;

/// A signed `ts` value. Positive = active (value is the activation stamp),
/// negative = inactive (value is `-t`). Never zero (stamps start at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TsVal(pub i64);

impl TsVal {
    /// Active with the given stamp.
    #[inline]
    pub fn active(stamp: Timestamp) -> Self {
        debug_assert!(stamp.raw() > 0);
        TsVal(stamp.as_signed())
    }

    /// Inactive at instant `t` (value `-t`).
    #[inline]
    pub fn inactive(t: Timestamp) -> Self {
        TsVal(-t.as_signed())
    }

    /// Is the expression active?
    #[inline]
    pub fn is_active(self) -> bool {
        self.0 > 0
    }

    /// Activation stamp, if active.
    #[inline]
    pub fn activation(self) -> Option<Timestamp> {
        if self.0 > 0 {
            Some(Timestamp(self.0 as u64))
        } else {
            None
        }
    }

    /// Raw signed value.
    #[inline]
    pub fn raw(self) -> i64 {
        self.0
    }

    /// The paper's negation twist: `ts(-E, t) = -ts(E, t)`.
    #[inline]
    pub fn negate(self) -> Self {
        TsVal(-self.0)
    }
}

impl fmt::Display for TsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The §4.2 step function: `u(x) = 1` if `x ≥ 0`, else `0`.
#[inline]
pub(crate) fn u(x: i64) -> i64 {
    if x >= 0 {
        1
    } else {
        0
    }
}

/// `ts` of a primitive event type: most recent occurrence in `R` no later
/// than `t`, else `-t`.
pub(crate) fn ts_prim(eb: &EventBase, w: Window, t: Timestamp, ty: EventType) -> TsVal {
    match eb.last_of_type_in(ty, w.clip_upto(t)) {
        Some(stamp) => TsVal::active(stamp),
        None => TsVal::inactive(t),
    }
}

/// Logical-style evaluation of `ts(E, t)` over the window `w` of the EB.
///
/// Instance-oriented sub-expressions in set context are folded in through
/// the §4.3 boundary by a **compiled plan** ([`crate::plan`]) built for
/// this call: the boundary's object domain and leaf stamps come from the
/// event base's indexes instead of a rescan per object. Nothing is kept
/// between calls; a caller that evaluates one expression repeatedly
/// holds a [`crate::PlanEval`], whose scratch advances with the event
/// base. Use [`ts_logical_interpreted`] for the fully recursive
/// reference path.
///
/// ```
/// use chimera_calculus::{ts_logical, EventExpr};
/// use chimera_events::{EventBase, EventType, Timestamp, Window};
/// use chimera_model::{ClassId, Oid};
///
/// let create = EventType::create(ClassId(0));
/// let delete = EventType::delete(ClassId(0));
/// let mut eb = EventBase::new();
/// eb.append(create, Oid(1)); // t1
///
/// // "a creation not followed by a deletion"
/// let expr = EventExpr::prim(create).and(EventExpr::prim(delete).not());
/// let w = Window::from_origin(eb.now());
/// let v = ts_logical(&expr, &eb, w, eb.now());
/// assert!(v.is_active());
/// assert_eq!(v.activation(), Some(Timestamp(1)));
///
/// eb.append(delete, Oid(1)); // t2: the negation falsifies it
/// let w = Window::from_origin(eb.now());
/// assert!(!ts_logical(&expr, &eb, w, eb.now()).is_active());
/// ```
pub fn ts_logical(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
    ts_logical_mode(expr, eb, w, t, true)
}

/// [`ts_logical`] with the boundary evaluated by the *recursive* §4.3
/// definition ([`boundary_ts_logical`]) instead of a compiled plan. This
/// is the reference path the plan is property-tested against, and the
/// "interpreted" side of the perf benches.
pub fn ts_logical_interpreted(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
    ts_logical_mode(expr, eb, w, t, false)
}

fn ts_logical_mode(
    expr: &EventExpr,
    eb: &EventBase,
    w: Window,
    t: Timestamp,
    planned: bool,
) -> TsVal {
    match expr {
        EventExpr::Prim(ty) => ts_prim(eb, w, t, *ty),
        EventExpr::Not(e) => ts_logical_mode(e, eb, w, t, planned).negate(),
        EventExpr::And(a, b) => {
            let ta = ts_logical_mode(a, eb, w, t, planned);
            let tb = ts_logical_mode(b, eb, w, t, planned);
            if ta.is_active() && tb.is_active() {
                ta.max(tb)
            } else {
                ta.min(tb)
            }
        }
        EventExpr::Or(a, b) => {
            let ta = ts_logical_mode(a, eb, w, t, planned);
            let tb = ts_logical_mode(b, eb, w, t, planned);
            if ta.is_active() || tb.is_active() {
                ta.max(tb)
            } else {
                ta.min(tb)
            }
        }
        EventExpr::Prec(a, b) => {
            let tb = ts_logical_mode(b, eb, w, t, planned);
            match tb.activation() {
                Some(b_stamp) => {
                    // was A already active at B's last activation instant?
                    let ta_at_b = ts_logical_mode(a, eb, w, b_stamp, planned);
                    if ta_at_b.is_active() {
                        tb
                    } else {
                        TsVal::inactive(t)
                    }
                }
                None => TsVal::inactive(t),
            }
        }
        // instance-oriented sub-expression in set context: §4.3 boundary.
        EventExpr::IOr(..) | EventExpr::IAnd(..) | EventExpr::IPrec(..) | EventExpr::INot(..) => {
            if planned {
                boundary_ts_planned(expr, eb, w, t)
            } else {
                boundary_ts_logical(expr, eb, w, t)
            }
        }
    }
}

/// Algebraic-style evaluation of `ts(E, t)` (§4.2 "AlgebraicSemantics"):
/// the same function computed purely with `min`/`max` and `u` products.
/// Boundaries go through a per-call compiled plan, whose values the
/// recursive algebraic boundary is property-tested to match exactly; use
/// [`ts_algebraic_interpreted`] for the fully recursive path.
pub fn ts_algebraic(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
    ts_algebraic_mode(expr, eb, w, t, true)
}

/// [`ts_algebraic`] with the boundary evaluated by the recursive §4.3
/// `u`-product definition ([`boundary_ts_algebraic`]).
pub fn ts_algebraic_interpreted(
    expr: &EventExpr,
    eb: &EventBase,
    w: Window,
    t: Timestamp,
) -> TsVal {
    ts_algebraic_mode(expr, eb, w, t, false)
}

fn ts_algebraic_mode(
    expr: &EventExpr,
    eb: &EventBase,
    w: Window,
    t: Timestamp,
    planned: bool,
) -> TsVal {
    match expr {
        EventExpr::Prim(ty) => ts_prim(eb, w, t, *ty),
        EventExpr::Not(e) => TsVal(-ts_algebraic_mode(e, eb, w, t, planned).0),
        EventExpr::And(a, b) => {
            let x = ts_algebraic_mode(a, eb, w, t, planned).0;
            let y = ts_algebraic_mode(b, eb, w, t, planned).0;
            // min{x,y}·(1 − u(x)u(y)) + max{x,y}·u(x)u(y)
            let both = u(x) * u(y);
            TsVal(x.min(y) * (1 - both) + x.max(y) * both)
        }
        EventExpr::Or(a, b) => {
            let x = ts_algebraic_mode(a, eb, w, t, planned).0;
            let y = ts_algebraic_mode(b, eb, w, t, planned).0;
            // max{x,y}·(1 − u(−x)u(−y)) + min{x,y}·u(−x)u(−y)
            let neither = u(-x) * u(-y);
            TsVal(x.max(y) * (1 - neither) + x.min(y) * neither)
        }
        EventExpr::Prec(a, b) => {
            let y = ts_algebraic_mode(b, eb, w, t, planned).0;
            let g = u(y);
            // the A-at-ts(B) factor is multiplied by u(y); evaluate lazily
            // (the algebraic form's product is 0 when B is inactive).
            let z = if g == 1 {
                ts_algebraic_mode(a, eb, w, Timestamp(y as u64), planned).0
            } else {
                -1
            };
            let hit = g * u(z);
            TsVal(-t.as_signed() * (1 - hit) + y * hit)
        }
        EventExpr::IOr(..) | EventExpr::IAnd(..) | EventExpr::IPrec(..) | EventExpr::INot(..) => {
            if planned {
                boundary_ts_planned(expr, eb, w, t)
            } else {
                boundary_ts_algebraic(expr, eb, w, t)
            }
        }
    }
}

/// A boundary-rooted expression evaluated through a plan compiled for
/// this one call.
fn boundary_ts_planned(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> TsVal {
    PlanEval::compile(expr)
        .unwrap_or_else(|e| {
            panic!("plan compilation of an evaluated expression failed: {e} ({expr})")
        })
        .eval(eb, w, t)
}

/// The §4.2 `occ(E, t)` predicate: is `E` active?
pub fn occ(expr: &EventExpr, eb: &EventBase, w: Window, t: Timestamp) -> bool {
    ts_logical(expr, eb, w, t).is_active()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::{ClassId, Oid};

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }
    /// Both evaluators, asserted equal.
    fn ts(expr: &EventExpr, eb: &EventBase, w: Window, t: u64) -> TsVal {
        let l = ts_logical(expr, eb, w, Timestamp(t));
        let a = ts_algebraic(expr, eb, w, Timestamp(t));
        assert_eq!(l, a, "logical/algebraic disagree on {expr} at t{t}");
        l
    }

    /// §3.1 disjunction: create at t1=1 and t2=5, modify at t3=9.
    /// CREATE=et(0), MODIFY=et(1).
    fn history_31() -> EventBase {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(0), Oid(2), Timestamp(5));
        eb.append_at(et(1), Oid(1), Timestamp(9));
        eb.tick(); // t10 exists for "after t3" probes
        eb
    }

    #[test]
    fn section31_primitive() {
        let eb = history_31();
        let w = Window::from_origin(Timestamp(10));
        let e = p(0);
        // before t1: not active
        // (probe below window start uses degenerate clip → inactive)
        assert_eq!(ts(&e, &eb, w, 1), TsVal(1)); // at t1 itself: active
        assert_eq!(ts(&e, &eb, w, 4), TsVal(1)); // t1 ≤ t < t2 → stamp t1
        assert_eq!(ts(&e, &eb, w, 7), TsVal(5)); // t ≥ t2 → stamp t2
    }

    #[test]
    fn section31_disjunction_timeline() {
        let eb = history_31();
        let w = Window::from_origin(Timestamp(10));
        let e = p(0).or(p(1)); // create , modify
        assert_eq!(ts(&e, &eb, w, 4), TsVal(1)); // only first create
        assert_eq!(ts(&e, &eb, w, 7), TsVal(5)); // second create
        assert_eq!(ts(&e, &eb, w, 10), TsVal(9)); // modify wins
    }

    #[test]
    fn section31_conjunction_timeline() {
        let eb = history_31();
        let w = Window::from_origin(Timestamp(10));
        let e = p(0).and(p(1)); // create + modify
        assert!(!ts(&e, &eb, w, 4).is_active()); // modify missing
        assert_eq!(ts(&e, &eb, w, 4), TsVal(-4));
        assert!(!ts(&e, &eb, w, 8).is_active());
        assert_eq!(ts(&e, &eb, w, 9), TsVal(9)); // both active, max = t3
        assert_eq!(ts(&e, &eb, w, 10), TsVal(9));
    }

    #[test]
    fn section31_negation_timeline() {
        let mut eb = EventBase::new();
        eb.tick(); // t1 passes eventless
        eb.tick(); // t2
        eb.append_at(et(0), Oid(1), Timestamp(3));
        eb.tick(); // t4
        let w = Window::from_origin(Timestamp(4));
        let e = p(0).not();
        // before the create: active with stamp = current time
        assert_eq!(ts(&e, &eb, w, 2), TsVal(2));
        // after the create: inactive, value −ts(create) = −3
        assert_eq!(ts(&e, &eb, w, 4), TsVal(-3));
        assert!(!ts(&e, &eb, w, 4).is_active());
    }

    /// §3.1 precedence: create at 1, modify at 5, create again at 9.
    /// The activation stamp stays at t3=5 even after the later create,
    /// "because the second creation has time stamp greater than that of
    /// the last modification".
    #[test]
    fn section31_precedence_timeline() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(1), Timestamp(5));
        eb.append_at(et(0), Oid(2), Timestamp(9));
        eb.tick(); // t10
        let w = Window::from_origin(Timestamp(10));
        let e = p(0).prec(p(1)); // create < modify
        assert!(!ts(&e, &eb, w, 3).is_active()); // modify not yet
        assert_eq!(ts(&e, &eb, w, 5), TsVal(5)); // active at t3, stamp t3
        assert_eq!(ts(&e, &eb, w, 7), TsVal(5));
        assert_eq!(ts(&e, &eb, w, 10), TsVal(5)); // later create ignored
    }

    #[test]
    fn precedence_requires_order() {
        // modify first, create later: create < modify never becomes active.
        let mut eb = EventBase::new();
        eb.append_at(et(1), Oid(1), Timestamp(2));
        eb.append_at(et(0), Oid(1), Timestamp(6));
        eb.tick();
        let w = Window::from_origin(Timestamp(7));
        let e = p(0).prec(p(1));
        assert!(!ts(&e, &eb, w, 7).is_active());
        assert_eq!(ts(&e, &eb, w, 7), TsVal(-7));
        // but modify < create is active with create's stamp
        let e2 = p(1).prec(p(0));
        assert_eq!(ts(&e2, &eb, w, 7), TsVal(6));
    }

    #[test]
    fn precedence_same_stamp_counts() {
        // A < A: the same activation instant satisfies "A active at ts(A)".
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(3));
        let w = Window::from_origin(Timestamp(3));
        let e = p(0).prec(p(0));
        assert_eq!(ts(&e, &eb, w, 3), TsVal(3));
    }

    #[test]
    fn window_consumption_hides_old_events() {
        let eb = history_31();
        // consuming rule considered at t6: window starts after 6
        let w = Window::new(Timestamp(6), Timestamp(10));
        assert!(!ts(&p(0), &eb, w, 10).is_active()); // creates consumed
        assert_eq!(ts(&p(1), &eb, w, 10), TsVal(9)); // modify still in R
    }

    #[test]
    fn double_negation_is_identity() {
        let eb = history_31();
        let w = Window::from_origin(Timestamp(10));
        let e = p(0).not().not();
        for t in 1..=10 {
            assert_eq!(ts(&e, &eb, w, t), ts(&p(0), &eb, w, t));
        }
    }

    #[test]
    fn de_morgan_fig5_equivalence() {
        // Fig. 5: ts(-(-A , -B), t) ≡ ts(A + B, t) over an A/B/C history.
        let mut eb = EventBase::new();
        eb.append_at(et(2), Oid(1), Timestamp(1)); // C (uninvolved)
        eb.append_at(et(0), Oid(1), Timestamp(2)); // A
        eb.append_at(et(2), Oid(2), Timestamp(3)); // C
        eb.append_at(et(1), Oid(1), Timestamp(4)); // B
        eb.append_at(et(0), Oid(3), Timestamp(5)); // A
        eb.append_at(et(1), Oid(2), Timestamp(6)); // B
        eb.append_at(et(2), Oid(1), Timestamp(7)); // C
        let w = Window::from_origin(Timestamp(7));
        let lhs = p(0).not().or(p(1).not()).not();
        let rhs = p(0).and(p(1));
        for t in 1..=7 {
            assert_eq!(ts(&lhs, &eb, w, t), ts(&rhs, &eb, w, t), "t={t}");
        }
    }

    #[test]
    fn section31_complex_expression() {
        // modify(show.qty) + -((create(order) < modify(order.delqty)) ,
        //                      (modify(stock.minqty) < modify(stock.qty)))
        // et: 0=modify(show.qty) 1=create(order) 2=modify(order.delqty)
        //     3=modify(stock.minqty) 4=modify(stock.qty)
        let inner = p(1).prec(p(2)).or(p(3).prec(p(4)));
        let e = p(0).and(inner.not());
        // history: only the shelf modification happens → active
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        let w = Window::from_origin(Timestamp(1));
        assert!(ts(&e, &eb, w, 1).is_active());
        // add create(order) then modify(order.delqty): negated part active
        // → whole expression inactive
        let mut eb2 = EventBase::new();
        eb2.append_at(et(0), Oid(1), Timestamp(1));
        eb2.append_at(et(1), Oid(2), Timestamp(2));
        eb2.append_at(et(2), Oid(2), Timestamp(3));
        let w2 = Window::from_origin(Timestamp(3));
        assert!(!ts(&e, &eb2, w2, 3).is_active());
        // order events in the wrong order: negation stays active
        let mut eb3 = EventBase::new();
        eb3.append_at(et(0), Oid(1), Timestamp(1));
        eb3.append_at(et(2), Oid(2), Timestamp(2));
        eb3.append_at(et(1), Oid(2), Timestamp(3));
        let w3 = Window::from_origin(Timestamp(3));
        assert!(ts(&e, &eb3, w3, 3).is_active());
    }

    #[test]
    fn empty_window_semantics() {
        let eb = EventBase::new();
        let w = Window::from_origin(Timestamp(5));
        assert_eq!(ts(&p(0), &eb, w, 5), TsVal(-5));
        assert_eq!(ts(&p(0).not(), &eb, w, 5), TsVal(5)); // vacuously active
        assert_eq!(ts(&p(0).and(p(1)), &eb, w, 5), TsVal(-5));
        assert_eq!(ts(&p(0).not().and(p(1).not()), &eb, w, 5), TsVal(5));
    }

    #[test]
    fn disjunction_takes_highest_active_stamp() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(2));
        eb.append_at(et(1), Oid(1), Timestamp(6));
        let w = Window::from_origin(Timestamp(6));
        assert_eq!(ts(&p(0).or(p(1)), &eb, w, 6), TsVal(6));
        assert_eq!(ts(&p(1).or(p(0)), &eb, w, 6), TsVal(6));
        // only one active → its stamp, regardless of operand order
        assert_eq!(ts(&p(0).or(p(9)), &eb, w, 6), TsVal(2));
        assert_eq!(ts(&p(9).or(p(0)), &eb, w, 6), TsVal(2));
    }

    #[test]
    fn tsval_accessors() {
        let a = TsVal::active(Timestamp(4));
        assert!(a.is_active());
        assert_eq!(a.activation(), Some(Timestamp(4)));
        assert_eq!(a.raw(), 4);
        let i = TsVal::inactive(Timestamp(9));
        assert!(!i.is_active());
        assert_eq!(i.activation(), None);
        assert_eq!(i.raw(), -9);
        assert_eq!(i.negate().raw(), 9);
        assert_eq!(a.to_string(), "4");
    }

    #[test]
    fn u_step_function() {
        assert_eq!(u(5), 1);
        assert_eq!(u(0), 1);
        assert_eq!(u(-3), 0);
    }
}
