//! Occurrence enumeration for the event formulas (§3.3).
//!
//! * [`occurred_objects`] — the `occurred(expr, X)` predicate: all objects
//!   affected by the specified (instance-oriented) event expression inside
//!   the observation window.
//! * [`at_occurrences`] — the `at(expr, X, T)` predicate: additionally
//!   binds *every* occurrence instant. The paper's example: if a stock
//!   creation is followed by two quantity updates, the composite
//!   `create(stock) <= modify(stock.quantity)` occurs **twice**, exactly
//!   when the two updates occur.
//!
//! An occurrence instant of a composite is an event-arrival instant at
//! which its `ots` assumes a *fresh* positive value equal to that instant.
//! Negation is active by absence and therefore has no discrete occurrence
//! instants, so `at` rejects expressions containing `-=`.

use crate::error::CalculusError;
use crate::expr::EventExpr;
use crate::instance::{boundary_domain, ots_logical};
use crate::plan::{Plan, PlanEval};
use crate::Result;
use chimera_events::{EventBase, Timestamp, Window};
use chimera_model::Oid;

/// `occurred(expr, X)`: objects for which the instance-oriented expression
/// is active at the end of the window. Sorted by OID (deterministic
/// set-oriented bindings).
///
/// ```
/// use chimera_calculus::{occurred_objects, EventExpr};
/// use chimera_events::{EventBase, EventType, Window};
/// use chimera_model::{ClassId, Oid};
///
/// let create = EventType::create(ClassId(0));
/// let delete = EventType::delete(ClassId(0));
/// let mut eb = EventBase::new();
/// eb.append(create, Oid(1));
/// eb.append(create, Oid(2));
/// eb.append(delete, Oid(1));
///
/// // created and (on the same object) not deleted — the §3.3 footnote's
/// // net-creation formula
/// let expr = EventExpr::prim(create).iand(EventExpr::prim(delete).inot());
/// let w = Window::from_origin(eb.now());
/// assert_eq!(occurred_objects(&expr, &eb, w).unwrap(), vec![Oid(2)]);
/// ```
pub fn occurred_objects(expr: &EventExpr, eb: &EventBase, w: Window) -> Result<Vec<Oid>> {
    // a throwaway plan per call; a rule condition's `occurred` plans are
    // compiled once per rule and keep their scratch in the engine
    Ok(PlanEval::new(Plan::compile_instance(expr)?).active_objects(eb, w))
}

/// `at(expr, X, T)`: `(object, instant)` pairs for every occurrence of the
/// instance-oriented, negation-free expression inside the window. Sorted
/// by (OID, instant).
pub fn at_occurrences(expr: &EventExpr, eb: &EventBase, w: Window) -> Result<Vec<(Oid, Timestamp)>> {
    if !expr.is_instance_oriented() {
        return Err(CalculusError::SetOrientedFormula);
    }
    if expr.contains_negation() {
        return Err(CalculusError::NegationInAt);
    }
    expr.validate()?;
    let prims = expr.primitives();
    let mut out = Vec::new();
    for &oid in boundary_domain(expr, eb, w, w.upto).iter() {
        // candidate instants: arrivals of the expression's own primitives
        // on this object (no other instant can produce a fresh activation
        // for a negation-free expression).
        let mut stamps: Vec<Timestamp> = Vec::new();
        for &ty in &prims {
            stamps.extend(eb.occurrences_of_type_obj_in(ty, oid, w).map(|e| e.ts));
        }
        stamps.sort();
        stamps.dedup();
        for te in stamps {
            let v = ots_logical(expr, eb, w, te, oid);
            if v.activation() == Some(te) {
                out.push((oid, te));
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_events::EventType;
    use chimera_model::ClassId;

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }

    /// §3.3 example: creation followed by two quantity updates → the
    /// composite `create <= modify` occurs twice, at the update instants.
    #[test]
    fn section33_at_double_update() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1)); // create
        eb.append_at(et(1), Oid(1), Timestamp(4)); // modify #1
        eb.append_at(et(1), Oid(1), Timestamp(7)); // modify #2
        let w = Window::from_origin(Timestamp(7));
        let e = p(0).iprec(p(1));
        let occ = at_occurrences(&e, &eb, w).unwrap();
        assert_eq!(occ, vec![(Oid(1), Timestamp(4)), (Oid(1), Timestamp(7))]);
    }

    #[test]
    fn occurred_binds_affected_objects() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(1), Timestamp(2));
        eb.append_at(et(0), Oid(2), Timestamp(3)); // created, never modified
        let w = Window::from_origin(Timestamp(3));
        // occurred(create <= modify, X) → only O1
        let e = p(0).iprec(p(1));
        assert_eq!(occurred_objects(&e, &eb, w).unwrap(), vec![Oid(1)]);
        // occurred(create, X) → both
        assert_eq!(
            occurred_objects(&p(0), &eb, w).unwrap(),
            vec![Oid(1), Oid(2)]
        );
    }

    #[test]
    fn occurred_respects_consumption_window() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(0), Oid(2), Timestamp(5));
        // consuming rule: only events after the last consideration (t2)
        let w = Window::new(Timestamp(2), Timestamp(5));
        assert_eq!(occurred_objects(&p(0), &eb, w).unwrap(), vec![Oid(2)]);
        // preserving rule: everything since transaction start
        let all = Window::from_origin(Timestamp(5));
        assert_eq!(
            occurred_objects(&p(0), &eb, all).unwrap(),
            vec![Oid(1), Oid(2)]
        );
    }

    #[test]
    fn occurred_with_negation_binds_absent_objects() {
        // occurred(create += -=modify, X): created but not modified.
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(0), Oid(2), Timestamp(2));
        eb.append_at(et(1), Oid(1), Timestamp(3));
        let w = Window::from_origin(Timestamp(3));
        let e = p(0).iand(p(1).inot());
        assert_eq!(occurred_objects(&e, &eb, w).unwrap(), vec![Oid(2)]);
    }

    #[test]
    fn at_rejects_negation() {
        let e = p(0).iand(p(1).inot());
        let eb = EventBase::new();
        let w = Window::from_origin(Timestamp(1));
        assert_eq!(
            at_occurrences(&e, &eb, w).unwrap_err(),
            CalculusError::NegationInAt
        );
    }

    #[test]
    fn formulas_reject_set_oriented_expressions() {
        let eb = EventBase::new();
        let w = Window::from_origin(Timestamp(1));
        let e = p(0).and(p(1));
        assert_eq!(
            occurred_objects(&e, &eb, w).unwrap_err(),
            CalculusError::SetOrientedFormula
        );
        assert_eq!(
            at_occurrences(&e, &eb, w).unwrap_err(),
            CalculusError::SetOrientedFormula
        );
    }

    #[test]
    fn at_primitive_lists_every_arrival() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(2));
        eb.append_at(et(0), Oid(1), Timestamp(5));
        eb.append_at(et(0), Oid(2), Timestamp(6));
        let w = Window::from_origin(Timestamp(6));
        assert_eq!(
            at_occurrences(&p(0), &eb, w).unwrap(),
            vec![
                (Oid(1), Timestamp(2)),
                (Oid(1), Timestamp(5)),
                (Oid(2), Timestamp(6))
            ]
        );
    }

    #[test]
    fn at_conjunction_fresh_activations_only() {
        // A += B occurs when the *later* of the two arrives, and again on
        // every refresh of either component.
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1)); // A
        eb.append_at(et(1), Oid(1), Timestamp(3)); // B → first activation
        eb.append_at(et(0), Oid(1), Timestamp(5)); // A again → refresh
        let w = Window::from_origin(Timestamp(5));
        let e = p(0).iand(p(1));
        assert_eq!(
            at_occurrences(&e, &eb, w).unwrap(),
            vec![(Oid(1), Timestamp(3)), (Oid(1), Timestamp(5))]
        );
    }

    #[test]
    fn at_disjunction_counts_both_components() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(1), Timestamp(4));
        let w = Window::from_origin(Timestamp(4));
        let e = p(0).ior(p(1));
        assert_eq!(
            at_occurrences(&e, &eb, w).unwrap(),
            vec![(Oid(1), Timestamp(1)), (Oid(1), Timestamp(4))]
        );
    }

    #[test]
    fn at_precedence_ignores_unpreceded_events() {
        let mut eb = EventBase::new();
        eb.append_at(et(1), Oid(1), Timestamp(1)); // modify before create
        eb.append_at(et(0), Oid(1), Timestamp(3)); // create
        eb.append_at(et(1), Oid(1), Timestamp(5)); // modify after create
        let w = Window::from_origin(Timestamp(5));
        let e = p(0).iprec(p(1));
        assert_eq!(at_occurrences(&e, &eb, w).unwrap(), vec![(Oid(1), Timestamp(5))]);
    }

    #[test]
    fn empty_window_yields_nothing() {
        let eb = EventBase::new();
        let w = Window::from_origin(Timestamp(1));
        assert!(occurred_objects(&p(0), &eb, w).unwrap().is_empty());
        assert!(at_occurrences(&p(0), &eb, w).unwrap().is_empty());
    }
}
