//! Trigger sensitivity: which arrivals can trigger a rule.
//!
//! Reuses the §5.1 machinery: an arrival can make a rule's `ts` turn
//! positive only if it matches a positive-or-any entry of the variation
//! set `V(E)` — unless the expression is *vacuously active* (active over an
//! empty window, so the first arrival of **any** type opens the `R ≠ ∅`
//! gate) or *fresh-object sensitive* (an arrival of any type introduces a
//! new object that activates an inner `-=` boundary). In those two cases
//! the sensitivity is universal and the triggering graph must assume an
//! edge from every producer.

use chimera_calculus::{EventExpr, RelevanceFilter};
use chimera_events::EventType;
use std::collections::BTreeSet;

/// The set of event-type arrivals that can trigger a rule.
#[derive(Debug, Clone)]
pub struct TriggerSensitivity {
    /// Arrival-matching entries of `V(E)` (positive or any sign).
    specific: BTreeSet<EventType>,
    /// Sensitive to every arrival (vacuous activity or fresh-object
    /// paths) — `specific` is then only informative.
    universal: bool,
}

impl TriggerSensitivity {
    /// Analyse a triggering event expression.
    pub fn new(expr: &EventExpr) -> Self {
        let filter = RelevanceFilter::new(expr);
        let specific = filter.activating().iter().copied().collect();
        TriggerSensitivity {
            specific,
            universal: filter.vacuously_active() || filter.arrival_sensitive(),
        }
    }

    /// Can an arrival of `ty` (possibly) trigger the rule?
    pub fn may_trigger_on(&self, ty: EventType) -> bool {
        self.universal || self.specific.contains(&ty)
    }

    /// Can *some* arrival from `types` trigger the rule? An empty producer
    /// set yields `false` even for universal listeners (the §4.4 guard:
    /// no arrivals, no triggering).
    pub fn may_trigger_on_any<'a>(&self, types: impl IntoIterator<Item = &'a EventType>) -> bool {
        types.into_iter().any(|ty| self.may_trigger_on(*ty))
    }

    /// Is the rule sensitive to every arrival?
    pub fn is_universal(&self) -> bool {
        self.universal
    }

    /// The specifically-matching event types (empty when only negative
    /// variations exist and the expression is not universal).
    pub fn specific_types(&self) -> &BTreeSet<EventType> {
        &self.specific
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::ClassId;

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }

    #[test]
    fn primitive_listens_to_itself_only() {
        let s = TriggerSensitivity::new(&p(0));
        assert!(s.may_trigger_on(et(0)));
        assert!(!s.may_trigger_on(et(1)));
        assert!(!s.is_universal());
    }

    #[test]
    fn disjunction_listens_to_both() {
        let s = TriggerSensitivity::new(&p(0).or(p(1)));
        assert!(s.may_trigger_on(et(0)));
        assert!(s.may_trigger_on(et(1)));
        assert!(!s.may_trigger_on(et(2)));
    }

    /// `B + -A`: arrivals of `B` can activate; arrivals of `A` can only
    /// *deactivate* — they never turn `ts` positive.
    #[test]
    fn negated_conjunct_is_not_an_activator() {
        let s = TriggerSensitivity::new(&p(1).and(p(0).not()));
        assert!(s.may_trigger_on(et(1)));
        assert!(!s.may_trigger_on(et(0)));
        assert!(!s.is_universal());
    }

    /// A pure negation is vacuously active: the first arrival of *any*
    /// type triggers it through the `R ≠ ∅` gate.
    #[test]
    fn pure_negation_is_universal() {
        let s = TriggerSensitivity::new(&p(0).not());
        assert!(s.is_universal());
        assert!(s.may_trigger_on(et(7)));
    }

    /// An inner `-=` boundary reacts to fresh objects of any event type.
    #[test]
    fn fresh_object_sensitivity_is_universal() {
        let s = TriggerSensitivity::new(&p(0).inot().ior(p(1)));
        assert!(s.is_universal());
    }

    /// `A , -A` has `Δ any` on A: both signs collapse, arrivals match.
    #[test]
    fn any_sign_matches_arrival() {
        let s = TriggerSensitivity::new(&p(0).or(p(0).not()));
        assert!(s.may_trigger_on(et(0)));
    }

    #[test]
    fn may_trigger_on_any_requires_nonempty_producer_set() {
        let s = TriggerSensitivity::new(&p(0).not());
        assert!(s.is_universal());
        // universal listener, but the producer generates nothing: no edge.
        assert!(!s.may_trigger_on_any([].iter()));
        assert!(s.may_trigger_on_any([et(5)].iter()));
    }
}
