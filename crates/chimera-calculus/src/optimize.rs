//! Static optimization (§5.1): variation sets `V(E)` and the relevance
//! filter that lets the Trigger Support skip `ts` recomputation.
//!
//! The occurrence of a composite event `E` shows up as a *positive
//! variation* `Δ⁺E` of its `ts` function. The derivation rules of Fig. 6
//! propagate the required variation through the operators — negation flips
//! the sign, conjunction/disjunction/precedence forward it to both
//! operands, instance operators switch to the object-level (`Δ⁺ᴼ`/`Δ⁻ᴼ`)
//! variants — until only primitive event types remain. The simplification
//! rules of Fig. 7 then merge variations of the same primitive:
//! object-level is subsumed by set-level of the same sign, and mixed signs
//! collapse to the "any variation" form `Δ`.
//!
//! The resulting set `V(E)` is a *sufficient* recomputation condition: if
//! newly arrived event occurrences match none of its entries, the sign of
//! `ts(E)` cannot have changed and the Trigger Support skips the rule
//! (§5.1: "if new arising event occurrences do not match V(E), no
//! recomputation of ts is required").
//!
//! One completion beyond the paper: an expression that is
//! *vacuously active* (active over an empty `R`, e.g. pure negation) must
//! also be re-checked when the window transitions from empty to non-empty,
//! because the `R ≠ ∅` guard — not a primitive variation — was the only
//! thing holding the rule back. [`RelevanceFilter`] carries that flag.

use crate::expr::EventExpr;
use chimera_events::EventType;
use std::collections::BTreeMap;
use std::fmt;

/// Variation granularity (Fig. 6: `Δ` vs `Δᴼ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Object-level variation (`Δᴼ`): the `ots` of some object changed.
    Object,
    /// Set-level variation (`Δ`): the set-oriented `ts` changed.
    Set,
}

/// Variation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// `Δ⁺`: the `ts` may have become positive / increased.
    Positive,
    /// `Δ⁻`: the `ts` may have become negative / decreased.
    Negative,
    /// `Δ`: either direction (the Fig. 7 merged form).
    Any,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Positive => Sign::Negative,
            Sign::Negative => Sign::Positive,
            Sign::Any => Sign::Any,
        }
    }

    /// Fig. 7 merge: equal signs keep, different signs collapse to `Any`.
    fn merge(self, other: Sign) -> Sign {
        if self == other {
            self
        } else {
            Sign::Any
        }
    }

    /// Does an *arrival* of the primitive (always a positive variation)
    /// match this required variation?
    pub fn matches_arrival(self) -> bool {
        matches!(self, Sign::Positive | Sign::Any)
    }
}

/// A variation requirement on one primitive event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variation {
    /// Set- or object-level.
    pub scope: Scope,
    /// Direction.
    pub sign: Sign,
}

impl Variation {
    /// Fig. 7 simplification: merge two variations of the same primitive.
    /// Scope takes the coarser (set subsumes object); signs merge to `Any`
    /// when they differ.
    pub fn merge(self, other: Variation) -> Variation {
        Variation {
            scope: self.scope.max(other.scope),
            sign: self.sign.merge(other.sign),
        }
    }
}

impl fmt::Display for Variation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.sign {
            Sign::Positive => "+",
            Sign::Negative => "-",
            Sign::Any => "",
        };
        let scope = match self.scope {
            Scope::Object => "O",
            Scope::Set => "",
        };
        write!(f, "Δ{sign}{scope}")
    }
}

/// The variation set `V(E)`: one merged [`Variation`] per primitive.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VariationSet {
    entries: BTreeMap<EventType, Variation>,
}

impl VariationSet {
    /// Compute `V(E)` = the simplified derivation of `Δ⁺E` (Fig. 6 + 7).
    pub fn for_expr(expr: &EventExpr) -> Self {
        let mut vs = VariationSet::default();
        derive_set(expr, Sign::Positive, &mut vs);
        vs
    }

    fn add(&mut self, ty: EventType, v: Variation) {
        self.entries
            .entry(ty)
            .and_modify(|e| *e = e.merge(v))
            .or_insert(v);
    }

    /// Variation required for a primitive, if it appears at all.
    pub fn get(&self, ty: EventType) -> Option<Variation> {
        self.entries.get(&ty).copied()
    }

    /// Number of distinct primitives.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(type, variation)` pairs in type order.
    pub fn iter(&self) -> impl Iterator<Item = (&EventType, &Variation)> {
        self.entries.iter()
    }

    /// Does the arrival of an occurrence of `ty` match the set?
    pub fn matches_arrival(&self, ty: EventType) -> bool {
        self.get(ty).map(|v| v.sign.matches_arrival()).unwrap_or(false)
    }

    /// Render against a schema, e.g. `{Δ create(stock), Δ+ modify(stock.quantity)}`.
    pub fn render(&self, schema: &chimera_model::Schema) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(ty, v)| format!("{v} {}", ty.render(schema)))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Fig. 6 derivation through set-oriented operators.
///
/// One conservative completion over the paper's figure: a *negative*
/// variation of a precedence can also be produced by a **positive**
/// variation of its right operand — a fresh `b` occurrence moves the
/// reference instant at which `a` must have been active, which can
/// deactivate `a < b` when `a` is non-monotone (contains negation). The
/// derivation therefore widens `Δ⁻(a<b)` to `Δ⁻a ∪ Δb`; without this the
/// filter misses activations of expressions like `-(A < -X)` (covered by
/// the optimizer-equivalence property suite).
fn derive_set(expr: &EventExpr, sign: Sign, out: &mut VariationSet) {
    match expr {
        EventExpr::Prim(ty) => out.add(
            *ty,
            Variation {
                scope: Scope::Set,
                sign,
            },
        ),
        EventExpr::Not(e) => derive_set(e, sign.flip(), out),
        EventExpr::And(a, b) | EventExpr::Or(a, b) => {
            derive_set(a, sign, out);
            derive_set(b, sign, out);
        }
        EventExpr::Prec(a, b) => {
            derive_set(a, sign, out);
            match sign {
                Sign::Positive => derive_set(b, Sign::Positive, out),
                Sign::Negative | Sign::Any => derive_set(b, Sign::Any, out),
            }
        }
        // instance→set boundary: switch to object-level variations.
        EventExpr::IAnd(..) | EventExpr::IOr(..) | EventExpr::IPrec(..) => {
            derive_obj(expr, sign, out)
        }
        EventExpr::INot(inner) => derive_obj(inner, sign.flip(), out),
    }
}

/// Fig. 6 derivation through instance-oriented operators (object level),
/// with the same precedence widening as [`derive_set`].
fn derive_obj(expr: &EventExpr, sign: Sign, out: &mut VariationSet) {
    match expr {
        EventExpr::Prim(ty) => out.add(
            *ty,
            Variation {
                scope: Scope::Object,
                sign,
            },
        ),
        EventExpr::INot(e) => derive_obj(e, sign.flip(), out),
        EventExpr::IAnd(a, b) | EventExpr::IOr(a, b) => {
            derive_obj(a, sign, out);
            derive_obj(b, sign, out);
        }
        EventExpr::IPrec(a, b) => {
            derive_obj(a, sign, out);
            match sign {
                Sign::Positive => derive_obj(b, Sign::Positive, out),
                Sign::Negative | Sign::Any => derive_obj(b, Sign::Any, out),
            }
        }
        // validated expressions have no set operators below instance ones.
        _ => unreachable!("set operator inside instance derivation"),
    }
}

/// Per-object vacuous activity: can `ots(expr, t, oid)` be positive for an
/// object with *no* occurrences at all? (True exactly when an inner `-=`
/// makes absence sufficient.) Such sub-expressions become active for every
/// fresh object an arrival introduces, so the filter must treat *any*
/// arrival as relevant ([`arrival_sensitive`]).
fn vac_obj(expr: &EventExpr) -> bool {
    match expr {
        EventExpr::Prim(_) => false,
        EventExpr::INot(e) => !vac_obj(e),
        EventExpr::IAnd(a, b) | EventExpr::IPrec(a, b) => vac_obj(a) && vac_obj(b),
        EventExpr::IOr(a, b) => vac_obj(a) || vac_obj(b),
        _ => false,
    }
}

/// Can an arrival of an *arbitrary* event type (one not in `V(E)`) cause
/// the expression to become active? This happens through the §4.3 object
/// domain: a fresh object activates a per-object-vacuous instance subtree
/// (∃-boundary), or deactivates a `-=` boundary whose component is
/// per-object vacuous — which, under an enclosing set negation, again
/// surfaces as an activation. Computed as the positive side of a
/// (pos, neg) sensitivity pair.
pub(crate) fn arrival_sensitive(expr: &EventExpr) -> bool {
    sensitivity(expr).0
}

fn sensitivity(expr: &EventExpr) -> (bool, bool) {
    match expr {
        EventExpr::Prim(_) => (false, false),
        EventExpr::Not(e) => {
            let (p, n) = sensitivity(e);
            (n, p)
        }
        EventExpr::And(a, b) | EventExpr::Or(a, b) => {
            let (pa, na) = sensitivity(a);
            let (pb, nb) = sensitivity(b);
            (pa || pb, na || nb)
        }
        EventExpr::Prec(a, b) => {
            let (pa, na) = sensitivity(a);
            let (pb, nb) = sensitivity(b);
            // a fresh activation of b moves the reference instant, which
            // can also deactivate the precedence.
            (pa || pb, na || nb || pb)
        }
        // ∃-boundary: a fresh object activates a vacuous subtree.
        EventExpr::IAnd(..) | EventExpr::IOr(..) | EventExpr::IPrec(..) => (vac_obj(expr), false),
        // ∄-boundary: a fresh object with the component vacuously active
        // deactivates it.
        EventExpr::INot(inner) => (false, vac_obj(inner)),
    }
}

/// The runtime filter derived from `V(E)`, used by the Trigger Support.
#[derive(Debug, Clone)]
pub struct RelevanceFilter {
    variations: VariationSet,
    vacuously_active: bool,
    arrival_sensitive: bool,
}

impl RelevanceFilter {
    /// Build the filter for a rule's triggering event expression.
    pub fn new(expr: &EventExpr) -> Self {
        RelevanceFilter {
            variations: VariationSet::for_expr(expr),
            vacuously_active: expr.vacuously_active(),
            arrival_sensitive: arrival_sensitive(expr),
        }
    }

    /// The underlying `V(E)`.
    pub fn variations(&self) -> &VariationSet {
        &self.variations
    }

    /// Must `ts` be recomputed after occurrences of `arrivals` were
    /// appended? `window_was_empty` reports whether the rule's observation
    /// window was empty before this batch (the `R: ∅ → ≠∅` transition that
    /// can trigger vacuously-active expressions).
    pub fn needs_recheck(&self, arrivals: &[EventType], window_was_empty: bool) -> bool {
        if arrivals.is_empty() {
            return false;
        }
        if window_was_empty && self.vacuously_active {
            return true;
        }
        if self.arrival_sensitive {
            return true; // fresh objects can activate the expression
        }
        arrivals.iter().any(|&ty| self.variations.matches_arrival(ty))
    }

    /// Can the expression be active over an empty occurrence set?
    pub fn vacuously_active(&self) -> bool {
        self.vacuously_active
    }

    /// Can an arrival of an event type *outside* `V(E)` activate the
    /// expression (through the §4.3 fresh-object paths)? When true, every
    /// arrival is relevant and the `V(E)` fast path is disabled.
    pub fn arrival_sensitive(&self) -> bool {
        self.arrival_sensitive
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
    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;

    fn v(scope: Scope, sign: Sign) -> Variation {
        Variation { scope, sign }
    }

    #[test]
    fn primitive_yields_positive_set_variation() {
        let vs = VariationSet::for_expr(&p(A));
        assert_eq!(vs.len(), 1);
        assert_eq!(vs.get(et(A)), Some(v(Scope::Set, Sign::Positive)));
    }

    #[test]
    fn negation_flips_sign() {
        let vs = VariationSet::for_expr(&p(A).not());
        assert_eq!(vs.get(et(A)), Some(v(Scope::Set, Sign::Negative)));
        let vs2 = VariationSet::for_expr(&p(A).not().not());
        assert_eq!(vs2.get(et(A)), Some(v(Scope::Set, Sign::Positive)));
    }

    #[test]
    fn binops_forward_sign_to_both_operands() {
        for e in [p(A).and(p(B)), p(A).or(p(B)), p(A).prec(p(B))] {
            let vs = VariationSet::for_expr(&e);
            assert_eq!(vs.get(et(A)), Some(v(Scope::Set, Sign::Positive)));
            assert_eq!(vs.get(et(B)), Some(v(Scope::Set, Sign::Positive)));
        }
    }

    #[test]
    fn mixed_signs_merge_to_any() {
        // A + (-A): both Δ+A and Δ−A required → ΔA
        let vs = VariationSet::for_expr(&p(A).and(p(A).not()));
        assert_eq!(vs.get(et(A)), Some(v(Scope::Set, Sign::Any)));
    }

    #[test]
    fn instance_boundary_uses_object_scope() {
        let vs = VariationSet::for_expr(&p(A).iand(p(B)));
        assert_eq!(vs.get(et(A)), Some(v(Scope::Object, Sign::Positive)));
        assert_eq!(vs.get(et(B)), Some(v(Scope::Object, Sign::Positive)));
        // instance negation at the boundary flips to negative object-level
        let vs2 = VariationSet::for_expr(&p(A).iand(p(B)).inot());
        assert_eq!(vs2.get(et(A)), Some(v(Scope::Object, Sign::Negative)));
    }

    #[test]
    fn set_scope_subsumes_object_scope() {
        // A + (A += B): Δ+A and Δ+O A → Δ+A (set, positive)
        let vs = VariationSet::for_expr(&p(A).and(p(A).iand(p(B))));
        assert_eq!(vs.get(et(A)), Some(v(Scope::Set, Sign::Positive)));
        assert_eq!(vs.get(et(B)), Some(v(Scope::Object, Sign::Positive)));
    }

    /// The §5.1 worked example: the derivation+simplification of
    /// `E = ((A , B) < (C + (-A))) , ((A += C) ,= (-=(B <= A)))`
    /// yields exactly `V(E) = {ΔA, ΔB, Δ+C}`.
    #[test]
    fn section51_paper_example() {
        let part1 = p(A).or(p(B)).prec(p(C).and(p(A).not()));
        let part2 = p(A).iand(p(C)).ior(p(B).iprec(p(A)).inot());
        let e = part1.or(part2);
        e.validate().unwrap();
        let vs = VariationSet::for_expr(&e);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs.get(et(A)), Some(v(Scope::Set, Sign::Any)), "ΔA");
        assert_eq!(vs.get(et(B)), Some(v(Scope::Set, Sign::Any)), "ΔB");
        assert_eq!(vs.get(et(C)), Some(v(Scope::Set, Sign::Positive)), "Δ+C");
    }

    #[test]
    fn variation_display() {
        assert_eq!(v(Scope::Set, Sign::Positive).to_string(), "Δ+");
        assert_eq!(v(Scope::Set, Sign::Any).to_string(), "Δ");
        assert_eq!(v(Scope::Object, Sign::Negative).to_string(), "Δ-O");
    }

    #[test]
    fn merge_lattice_matches_fig7() {
        let pos_o = v(Scope::Object, Sign::Positive);
        let neg_o = v(Scope::Object, Sign::Negative);
        let any_o = v(Scope::Object, Sign::Any);
        let pos_s = v(Scope::Set, Sign::Positive);
        let neg_s = v(Scope::Set, Sign::Negative);
        let any_s = v(Scope::Set, Sign::Any);
        // {Δ+O, Δ−O} → ΔO          {Δ+, Δ−O} → Δ
        assert_eq!(pos_o.merge(neg_o), any_o);
        assert_eq!(pos_s.merge(neg_o), any_s);
        // {ΔO, Δ−O} → ΔO           {ΔO, Δ−} → Δ
        assert_eq!(any_o.merge(neg_o), any_o);
        assert_eq!(any_o.merge(neg_s), any_s);
        // {ΔO, Δ+O} → ΔO           {ΔO, Δ+} → Δ
        assert_eq!(any_o.merge(pos_o), any_o);
        assert_eq!(any_o.merge(pos_s), any_s);
        // {Δ−, Δ−O} → Δ−           {Δ−, Δ+} → Δ
        assert_eq!(neg_s.merge(neg_o), neg_s);
        assert_eq!(neg_s.merge(pos_s), any_s);
        // {Δ+, Δ+O} → Δ+           {Δ−, Δ} → Δ
        assert_eq!(pos_s.merge(pos_o), pos_s);
        assert_eq!(neg_s.merge(any_s), any_s);
        // {Δ−, Δ+O} → Δ            {Δ+, Δ} → Δ
        assert_eq!(neg_s.merge(pos_o), any_s);
        assert_eq!(pos_s.merge(any_s), any_s);
    }

    #[test]
    fn filter_matches_only_relevant_arrivals() {
        // E = A + (-B): Δ+A, Δ−B → arrivals of A relevant, B and C not.
        let f = RelevanceFilter::new(&p(A).and(p(B).not()));
        assert!(f.needs_recheck(&[et(A)], false));
        assert!(!f.needs_recheck(&[et(B)], false));
        assert!(!f.needs_recheck(&[et(C)], false));
        assert!(f.needs_recheck(&[et(C), et(A)], false));
        assert!(!f.needs_recheck(&[], false));
    }

    #[test]
    fn vacuous_rules_recheck_on_window_transition() {
        // E = -A: V(E) = {Δ−A} matches no arrival, but the ∅→≠∅ window
        // transition must force a recheck.
        let f = RelevanceFilter::new(&p(A).not());
        assert!(f.vacuously_active());
        assert!(!f.needs_recheck(&[et(B)], false));
        assert!(f.needs_recheck(&[et(B)], true));
        assert!(!f.needs_recheck(&[], true));
        // non-vacuous rule: transition alone is not enough
        let g = RelevanceFilter::new(&p(A));
        assert!(!g.vacuously_active());
        assert!(!g.needs_recheck(&[et(B)], true));
        assert!(g.needs_recheck(&[et(A)], true));
    }

    #[test]
    fn empty_and_iteration() {
        let vs = VariationSet::default();
        assert!(vs.is_empty());
        let vs2 = VariationSet::for_expr(&p(A).and(p(B)));
        assert!(!vs2.is_empty());
        let pairs: Vec<_> = vs2.iter().collect();
        assert_eq!(pairs.len(), 2);
    }
}
