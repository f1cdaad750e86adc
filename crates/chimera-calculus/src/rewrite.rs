//! Algebraic laws of the calculus (§4.2) and a law-preserving simplifier.
//!
//! The paper's central design claim is that the twisted `ts` definitions
//! make the "obvious properties of calculus hold, such as De Morgan's
//! rules or distributivity, associativity and factoring of precedence
//! expressions". This module makes each law an explicit, testable object.
//!
//! Two equivalence strengths appear:
//!
//! * **strong** — identical `ts` value at every instant (activation stamp
//!   *and* the exact negative value when inactive);
//! * **weak** — identical activity and identical activation stamp when
//!   active (the negative values may differ; rule triggering only observes
//!   the sign, so weak equivalence preserves every observable behaviour).
//!
//! De Morgan, commutativity, associativity and double negation are strong;
//! the distributivity and precedence-factoring laws are weak (their
//! inactive branches can carry different `-ts` residues). The
//! `tests/algebraic_laws.rs` property suite verifies every law at its
//! declared strength, for both evaluators, on random histories.

use crate::expr::EventExpr;

/// Equivalence strength of a law (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strength {
    /// Exact `ts` equality at every instant.
    Strong,
    /// Same sign always; same activation stamp when active.
    Weak,
}

/// A named algebraic law: instantiating `build` with `arity` argument
/// expressions yields a `(lhs, rhs)` pair claimed equivalent.
#[derive(Clone, Copy)]
pub struct Law {
    /// Law name, as listed in [`LAWS`] and [`INSTANCE_LAWS`].
    pub name: &'static str,
    /// Number of metavariables.
    pub arity: usize,
    /// Declared equivalence strength.
    pub strength: Strength,
    /// Some laws only hold when the metavariables are negation-free:
    /// `A < (B , C) ≡ (A < B) , (A < C)` evaluates `A` at *different*
    /// instants on the two sides, which negation's non-monotone `ts` can
    /// distinguish: with `A = -X` and `B@1, X@3, C@5`, the right side
    /// accepts `A` at `B`'s stamp while the left side, probing `A` at the
    /// disjunction's latest stamp, rejects it (the unit test
    /// `prec_disjunction_right_needs_negation_free`).
    pub requires_negation_free: bool,
    /// Instantiate the two sides.
    pub build: fn(&[EventExpr]) -> (EventExpr, EventExpr),
}

impl std::fmt::Debug for Law {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Law")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .field("strength", &self.strength)
            .finish()
    }
}

/// The §4.2 law catalogue (set-oriented level).
pub const LAWS: &[Law] = &[
    Law {
        name: "de-morgan-not-over-disjunction", // -(A , B) ≡ -A + -B
        arity: 2,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().or(a[1].clone()).not(),
                a[0].clone().not().and(a[1].clone().not()),
            )
        },
    },
    Law {
        name: "de-morgan-not-over-conjunction", // -(A + B) ≡ -A , -B
        arity: 2,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().and(a[1].clone()).not(),
                a[0].clone().not().or(a[1].clone().not()),
            )
        },
    },
    Law {
        name: "double-negation", // -(-A) ≡ A
        arity: 1,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| (a[0].clone().not().not(), a[0].clone()),
    },
    Law {
        name: "commutativity-conjunction", // A + B ≡ B + A
        arity: 2,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| (a[0].clone().and(a[1].clone()), a[1].clone().and(a[0].clone())),
    },
    Law {
        name: "commutativity-disjunction", // A , B ≡ B , A
        arity: 2,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| (a[0].clone().or(a[1].clone()), a[1].clone().or(a[0].clone())),
    },
    Law {
        name: "associativity-conjunction", // (A + B) + C ≡ A + (B + C)
        arity: 3,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().and(a[1].clone()).and(a[2].clone()),
                a[0].clone().and(a[1].clone().and(a[2].clone())),
            )
        },
    },
    Law {
        name: "associativity-disjunction", // (A , B) , C ≡ A , (B , C)
        arity: 3,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().or(a[1].clone()).or(a[2].clone()),
                a[0].clone().or(a[1].clone().or(a[2].clone())),
            )
        },
    },
    Law {
        name: "distributivity-conjunction-over-disjunction",
        // A + (B , C) ≡ (A + B) , (A + C)
        arity: 3,
        strength: Strength::Weak,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().and(a[1].clone().or(a[2].clone())),
                a[0].clone()
                    .and(a[1].clone())
                    .or(a[0].clone().and(a[2].clone())),
            )
        },
    },
    Law {
        name: "precedence-factoring-conjunction-left",
        // (A + B) < C ≡ (A < C) + (B < C)
        arity: 3,
        strength: Strength::Weak,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().and(a[1].clone()).prec(a[2].clone()),
                a[0].clone()
                    .prec(a[2].clone())
                    .and(a[1].clone().prec(a[2].clone())),
            )
        },
    },
    Law {
        name: "precedence-factoring-disjunction-left",
        // (A , B) < C ≡ (A < C) , (B < C)
        arity: 3,
        strength: Strength::Weak,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().or(a[1].clone()).prec(a[2].clone()),
                a[0].clone()
                    .prec(a[2].clone())
                    .or(a[1].clone().prec(a[2].clone())),
            )
        },
    },
    Law {
        name: "precedence-factoring-disjunction-right",
        // A < (B , C) ≡ (A < B) , (A < C) — negation-free arguments only:
        // the two sides probe A at or(B,C)'s stamp vs at B's and C's own
        // stamps, which differ observably when A can deactivate.
        arity: 3,
        strength: Strength::Weak,
        requires_negation_free: true,
        build: |a| {
            (
                a[0].clone().prec(a[1].clone().or(a[2].clone())),
                a[0].clone()
                    .prec(a[1].clone())
                    .or(a[0].clone().prec(a[2].clone())),
            )
        },
    },
];

/// The instance-oriented (per-object `ots`) analogues of the laws; §4.3:
/// "all the properties valid for the set-oriented operators can be easily
/// extended to the instance-oriented case". These hold as `ots`
/// identities; note that an `-=`-rooted rewrite changes the *boundary*
/// quantifier and is therefore **not** a set-level (`ts`) identity — see
/// `instance_de_morgan_is_not_a_boundary_identity` below.
pub const INSTANCE_LAWS: &[Law] = &[
    Law {
        name: "instance-de-morgan-not-over-disjunction",
        arity: 2,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().ior(a[1].clone()).inot(),
                a[0].clone().inot().iand(a[1].clone().inot()),
            )
        },
    },
    Law {
        name: "instance-double-negation",
        arity: 1,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| (a[0].clone().inot().inot(), a[0].clone()),
    },
    Law {
        name: "instance-commutativity-conjunction",
        arity: 2,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().iand(a[1].clone()),
                a[1].clone().iand(a[0].clone()),
            )
        },
    },
    Law {
        name: "instance-associativity-disjunction",
        arity: 3,
        strength: Strength::Strong,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().ior(a[1].clone()).ior(a[2].clone()),
                a[0].clone().ior(a[1].clone().ior(a[2].clone())),
            )
        },
    },
    Law {
        name: "instance-precedence-factoring-conjunction-left",
        arity: 3,
        strength: Strength::Weak,
        requires_negation_free: false,
        build: |a| {
            (
                a[0].clone().iand(a[1].clone()).iprec(a[2].clone()),
                a[0].clone()
                    .iprec(a[2].clone())
                    .iand(a[1].clone().iprec(a[2].clone())),
            )
        },
    },
];

/// Negation normal form for the **set-oriented** skeleton: push `-` inward
/// through `,`/`+` (De Morgan) and eliminate double negations. Instance
/// sub-expressions are left untouched — rewriting an `-=` root would
/// change the instance→set boundary quantifier (∃ vs ∄), which is not an
/// equivalence. Preserves strong `ts` equivalence.
pub fn nnf(expr: &EventExpr) -> EventExpr {
    match expr {
        EventExpr::Not(inner) => match inner.as_ref() {
            EventExpr::Not(e) => nnf(e),
            EventExpr::Or(a, b) => nnf(&a.clone().not()).and(nnf(&b.clone().not())),
            EventExpr::And(a, b) => nnf(&a.clone().not()).or(nnf(&b.clone().not())),
            // negation over precedence, primitives and instance roots is
            // irreducible.
            other => nnf(other).not(),
        },
        EventExpr::Or(a, b) => nnf(a).or(nnf(b)),
        EventExpr::And(a, b) => nnf(a).and(nnf(b)),
        EventExpr::Prec(a, b) => nnf(a).prec(nnf(b)),
        // primitives and instance-rooted subtrees pass through unchanged.
        other => other.clone(),
    }
}

/// Structural simplifier for the **set-oriented** skeleton:
/// double-negation elimination plus idempotence of identical operands
/// (`A + A → A`, `A , A → A`) — both strong `ts` identities.
///
/// Instance-rooted subtrees are left untouched, like in [`nnf`]: rewrites
/// that change the root operator of an instance subtree also change the
/// instance→set boundary quantifier (e.g. `-=(-=A)` means "*every*
/// affected object has A", which is not `A`), so they are not `ts`
/// identities even when the per-object `ots` identity holds.
pub fn simplify(expr: &EventExpr) -> EventExpr {
    match expr {
        EventExpr::Not(inner) => match simplify(inner) {
            EventExpr::Not(e) => *e,
            e => e.not(),
        },
        EventExpr::And(a, b) => {
            let (sa, sb) = (simplify(a), simplify(b));
            if sa == sb {
                sa
            } else {
                sa.and(sb)
            }
        }
        EventExpr::Or(a, b) => {
            let (sa, sb) = (simplify(a), simplify(b));
            if sa == sb {
                sa
            } else {
                sa.or(sb)
            }
        }
        EventExpr::Prec(a, b) => simplify(a).prec(simplify(b)),
        // primitives and instance-rooted subtrees pass through unchanged.
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::ts_logical;
    use chimera_events::{EventBase, EventType, Timestamp, Window};
    use chimera_model::{ClassId, Oid};

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }

    fn sample_history() -> EventBase {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(2), Timestamp(3));
        eb.append_at(et(0), Oid(2), Timestamp(5));
        eb.append_at(et(2), Oid(1), Timestamp(6));
        eb.append_at(et(1), Oid(1), Timestamp(8));
        eb
    }

    fn assert_law(law: &Law, args: &[EventExpr]) {
        let (lhs, rhs) = (law.build)(args);
        let eb = sample_history();
        let w = Window::from_origin(Timestamp(8));
        for t in 1..=8 {
            let lv = ts_logical(&lhs, &eb, w, Timestamp(t));
            let rv = ts_logical(&rhs, &eb, w, Timestamp(t));
            match law.strength {
                Strength::Strong => assert_eq!(lv, rv, "{} at t{t}", law.name),
                Strength::Weak => {
                    assert_eq!(lv.is_active(), rv.is_active(), "{} at t{t}", law.name);
                    if lv.is_active() {
                        assert_eq!(lv, rv, "{} stamps at t{t}", law.name);
                    }
                }
            }
        }
    }

    #[test]
    fn all_set_laws_hold_on_sample_history() {
        let args = [p(0), p(1), p(2)];
        for law in LAWS {
            assert_law(law, &args[..law.arity]);
        }
    }

    #[test]
    fn laws_hold_with_negated_arguments() {
        let args = [p(0).not(), p(1), p(2).not()];
        for law in LAWS.iter().filter(|l| !l.requires_negation_free) {
            assert_law(law, &args[..law.arity]);
        }
    }

    /// The documented counterexample for the negation-free restriction of
    /// `A < (B , C) ≡ (A < B) , (A < C)`: with A = -X, B@1, X@3, C@5 the
    /// right side resurrects an old witness (A active at B's stamp) that
    /// the left side, probing A at or(B,C)'s *latest* stamp, rejects.
    #[test]
    fn prec_disjunction_right_needs_negation_free() {
        let mut eb = EventBase::new();
        eb.append_at(et(1), Oid(1), Timestamp(1)); // B
        eb.append_at(et(3), Oid(1), Timestamp(3)); // X
        eb.append_at(et(2), Oid(1), Timestamp(5)); // C
        let w = Window::from_origin(Timestamp(5));
        let a = p(3).not();
        let lhs = a.clone().prec(p(1).or(p(2)));
        let rhs = a.clone().prec(p(1)).or(a.prec(p(2)));
        let lv = ts_logical(&lhs, &eb, w, Timestamp(5));
        let rv = ts_logical(&rhs, &eb, w, Timestamp(5));
        assert!(!lv.is_active());
        assert!(rv.is_active(), "the two sides genuinely differ");
    }

    #[test]
    fn laws_hold_with_composite_arguments() {
        let args = [p(0).and(p(1)), p(2).or(p(0)), p(1).prec(p(2))];
        for law in LAWS {
            assert_law(law, &args[..law.arity]);
        }
    }

    #[test]
    fn instance_laws_hold_per_object() {
        use crate::instance::ots_logical;
        let eb = {
            let mut eb = EventBase::new();
            eb.append_at(et(0), Oid(1), Timestamp(1));
            eb.append_at(et(1), Oid(1), Timestamp(3));
            eb.append_at(et(2), Oid(1), Timestamp(5));
            eb.append_at(et(0), Oid(2), Timestamp(7));
            eb
        };
        let w = Window::from_origin(Timestamp(7));
        let args = [p(0), p(1), p(2)];
        for law in INSTANCE_LAWS {
            let (lhs, rhs) = (law.build)(&args[..law.arity]);
            for oid in [Oid(1), Oid(2)] {
                for t in 1..=7 {
                    let lv = ots_logical(&lhs, &eb, w, Timestamp(t), oid);
                    let rv = ots_logical(&rhs, &eb, w, Timestamp(t), oid);
                    match law.strength {
                        Strength::Strong => {
                            assert_eq!(lv, rv, "{} {oid} t{t}", law.name)
                        }
                        Strength::Weak => {
                            assert_eq!(lv.is_active(), rv.is_active(), "{} {oid} t{t}", law.name);
                            if lv.is_active() {
                                assert_eq!(lv, rv, "{} {oid} t{t}", law.name);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Documents the boundary asymmetry: instance De Morgan is an `ots`
    /// identity but NOT a `ts` identity when the `-=` root crosses the
    /// instance→set boundary (∄-object vs ∃-object quantification).
    #[test]
    fn instance_de_morgan_is_not_a_boundary_identity() {
        // A on O1 only, B on O2 only.
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1));
        eb.append_at(et(1), Oid(2), Timestamp(2));
        let w = Window::from_origin(Timestamp(2));
        let lhs = p(0).ior(p(1)).inot(); // ∄ object with (A or B) → inactive
        let rhs = p(0).inot().iand(p(1).inot()); // ∃ object with neither → ?
        let lv = ts_logical(&lhs, &eb, w, Timestamp(2));
        let rv = ts_logical(&rhs, &eb, w, Timestamp(2));
        assert!(!lv.is_active(), "some object has A or B");
        // O1 lacks B but has A; O2 lacks A but has B → no object with
        // neither → rhs inactive as well *on this history*; use a third
        // object to separate:
        let mut eb2 = EventBase::new();
        eb2.append_at(et(0), Oid(1), Timestamp(1));
        eb2.append_at(et(1), Oid(2), Timestamp(2));
        eb2.append_at(et(2), Oid(3), Timestamp(3)); // O3 has neither A nor B
        let w2 = Window::from_origin(Timestamp(3));
        let lv2 = ts_logical(&lhs, &eb2, w2, Timestamp(3));
        let rv2 = ts_logical(&rhs, &eb2, w2, Timestamp(3));
        assert!(!lv2.is_active(), "O1 still has A");
        assert!(rv2.is_active(), "O3 activates the ∃ reading");
        let _ = (lv, rv);
    }

    #[test]
    fn nnf_pushes_negation_inward() {
        let e = p(0).or(p(1)).not();
        let n = nnf(&e);
        assert_eq!(n, p(0).not().and(p(1).not()));
        let e2 = p(0).and(p(1)).not().not();
        assert_eq!(nnf(&e2), p(0).and(p(1)));
        // negation over precedence is irreducible
        let e3 = p(0).prec(p(1)).not();
        assert_eq!(nnf(&e3), e3);
        // instance subtrees untouched
        let e4 = p(0).ior(p(1)).inot().not();
        assert_eq!(nnf(&e4), e4);
    }

    #[test]
    fn nnf_preserves_ts() {
        let eb = sample_history();
        let w = Window::from_origin(Timestamp(8));
        let exprs = [
            p(0).or(p(1)).not(),
            p(0).and(p(1)).not().or(p(2)),
            p(0).not().not().and(p(1).or(p(2)).not()),
            p(0).prec(p(1)).not().not(),
        ];
        for e in &exprs {
            let n = nnf(e);
            for t in 1..=8 {
                assert_eq!(
                    ts_logical(e, &eb, w, Timestamp(t)),
                    ts_logical(&n, &eb, w, Timestamp(t)),
                    "{e} vs {n} at t{t}"
                );
            }
        }
    }

    #[test]
    fn simplify_removes_double_negation_and_idempotence() {
        assert_eq!(simplify(&p(0).not().not()), p(0));
        assert_eq!(simplify(&p(0).and(p(0))), p(0));
        assert_eq!(simplify(&p(0).or(p(0))), p(0));
        // nested: -(-(A + A)) → A
        assert_eq!(simplify(&p(0).and(p(0)).not().not()), p(0));
        // precedence operands simplified but structure kept
        assert_eq!(
            simplify(&p(0).not().not().prec(p(1))),
            p(0).prec(p(1))
        );
        // instance subtrees are NOT rewritten (boundary quantifier!)
        assert_eq!(simplify(&p(0).inot().inot()), p(0).inot().inot());
        assert_eq!(simplify(&p(0).iand(p(0))), p(0).iand(p(0)));
    }

    /// The boundary counterexample that makes instance rewrites in
    /// `simplify` unsound: `-=(-=A)` in set context is "every affected
    /// object has A", which `A` is not.
    #[test]
    fn simplify_boundary_soundness_counterexample() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(1)); // A on O1
        eb.append_at(et(1), Oid(2), Timestamp(2)); // B on O2 (no A)
        let w = Window::from_origin(Timestamp(2));
        let dd = p(0).inot().inot();
        assert!(ts_logical(&p(0), &eb, w, Timestamp(2)).is_active());
        assert!(
            !ts_logical(&dd, &eb, w, Timestamp(2)).is_active(),
            "∀-object reading differs from plain A"
        );
    }

    #[test]
    fn simplify_preserves_ts() {
        let eb = sample_history();
        let w = Window::from_origin(Timestamp(8));
        let exprs = [
            p(0).not().not().or(p(1).and(p(1))),
            p(0).or(p(0)).prec(p(1).not().not()),
            p(0).iand(p(0)).and(p(2)).not().not(),
        ];
        for e in &exprs {
            let s = simplify(e);
            assert!(s.size() <= e.size());
            for t in 1..=8 {
                assert_eq!(
                    ts_logical(e, &eb, w, Timestamp(t)),
                    ts_logical(&s, &eb, w, Timestamp(t)),
                    "{e} vs {s} at t{t}"
                );
            }
        }
    }

    #[test]
    fn law_debug_and_metadata() {
        assert!(LAWS.len() >= 10, "§4.2 lists ten equivalences");
        for law in LAWS {
            assert!(law.arity >= 1 && law.arity <= 3);
            let dbg = format!("{law:?}");
            assert!(dbg.contains(law.name));
        }
    }
}
