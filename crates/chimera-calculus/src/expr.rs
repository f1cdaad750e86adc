//! Event expressions: the calculus AST.
//!
//! The eight operators of Fig. 1, in decreasing priority order (§3: "set
//! oriented operators have lower priority than instance oriented ones, and
//! conjunction and precedence operators have the same priority"):
//!
//! | dimension    | instance-oriented | set-oriented |
//! |--------------|-------------------|--------------|
//! | negation     | `-=`              | `-`          |
//! | conjunction  | `+=`              | `+`          |
//! | precedence   | `<=`              | `<`          |
//! | disjunction  | `,=`              | `,`          |
//!
//! Well-formedness (§3.2): instance-oriented operators may not be applied
//! to sub-expressions built with set-oriented operators; the converse — an
//! instance-oriented expression used as operand of a set-oriented
//! operator — is the supported (and very useful) direction.

use crate::error::CalculusError;
use crate::Result;
use chimera_events::EventType;
use std::fmt;

/// A composite event expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventExpr {
    /// A primitive event type, e.g. `create(stock)`.
    Prim(EventType),
    /// Set-oriented disjunction `E1 , E2`.
    Or(Box<EventExpr>, Box<EventExpr>),
    /// Set-oriented conjunction `E1 + E2`.
    And(Box<EventExpr>, Box<EventExpr>),
    /// Set-oriented negation `- E`.
    Not(Box<EventExpr>),
    /// Set-oriented precedence `E1 < E2` (E1 became active no later than
    /// E2's last activation).
    Prec(Box<EventExpr>, Box<EventExpr>),
    /// Instance-oriented disjunction `E1 ,= E2` (same object).
    IOr(Box<EventExpr>, Box<EventExpr>),
    /// Instance-oriented conjunction `E1 += E2` (same object).
    IAnd(Box<EventExpr>, Box<EventExpr>),
    /// Instance-oriented negation `-= E` (absence on a given object).
    INot(Box<EventExpr>),
    /// Instance-oriented precedence `E1 <= E2` (same object, in order).
    IPrec(Box<EventExpr>, Box<EventExpr>),
}

/// Priority levels used for printing/parsing (higher binds tighter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Set-oriented disjunction — the loosest operator.
    SetDisjunction,
    /// Set-oriented conjunction and precedence (same priority, §3).
    SetConjunction,
    /// Set-oriented negation.
    SetNegation,
    /// Instance-oriented disjunction.
    InstDisjunction,
    /// Instance-oriented conjunction and precedence.
    InstConjunction,
    /// Instance-oriented negation.
    InstNegation,
    /// Primitive event types.
    Primitive,
}

/// One row of the Fig. 1 operator table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorInfo {
    /// Operator family name.
    pub name: &'static str,
    /// Instance-oriented symbol.
    pub instance_symbol: &'static str,
    /// Set-oriented symbol.
    pub set_symbol: &'static str,
    /// Boolean / temporal dimension label (Fig. 2).
    pub dimension: &'static str,
}

/// Fig. 1: the composition operators, listed in decreasing priority order.
pub const FIG1_OPERATORS: [OperatorInfo; 4] = [
    OperatorInfo {
        name: "negation",
        instance_symbol: "-=",
        set_symbol: "-",
        dimension: "boolean",
    },
    OperatorInfo {
        name: "conjunction",
        instance_symbol: "+=",
        set_symbol: "+",
        dimension: "boolean",
    },
    OperatorInfo {
        name: "precedence",
        instance_symbol: "<=",
        set_symbol: "<",
        dimension: "temporal",
    },
    OperatorInfo {
        name: "disjunction",
        instance_symbol: ",=",
        set_symbol: ",",
        dimension: "boolean",
    },
];

impl EventExpr {
    /// Primitive expression.
    pub fn prim(ty: EventType) -> Self {
        EventExpr::Prim(ty)
    }
    /// `self , rhs`.
    pub fn or(self, rhs: EventExpr) -> Self {
        EventExpr::Or(Box::new(self), Box::new(rhs))
    }
    /// `self + rhs`.
    pub fn and(self, rhs: EventExpr) -> Self {
        EventExpr::And(Box::new(self), Box::new(rhs))
    }
    /// `- self` (named after the paper's operator, not `std::ops::Not`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        EventExpr::Not(Box::new(self))
    }
    /// `self < rhs`.
    pub fn prec(self, rhs: EventExpr) -> Self {
        EventExpr::Prec(Box::new(self), Box::new(rhs))
    }
    /// `self ,= rhs`.
    pub fn ior(self, rhs: EventExpr) -> Self {
        EventExpr::IOr(Box::new(self), Box::new(rhs))
    }
    /// `self += rhs`.
    pub fn iand(self, rhs: EventExpr) -> Self {
        EventExpr::IAnd(Box::new(self), Box::new(rhs))
    }
    /// `-= self`.
    pub fn inot(self) -> Self {
        EventExpr::INot(Box::new(self))
    }
    /// `self <= rhs`.
    pub fn iprec(self, rhs: EventExpr) -> Self {
        EventExpr::IPrec(Box::new(self), Box::new(rhs))
    }

    /// Is the root operator set-oriented (primitives count as both)?
    pub fn is_set_rooted(&self) -> bool {
        matches!(
            self,
            EventExpr::Or(..) | EventExpr::And(..) | EventExpr::Not(..) | EventExpr::Prec(..)
        )
    }

    /// Is this expression *instance-oriented*, i.e. usable inside instance
    /// operators and in event formulas? True for primitives and trees of
    /// instance operators only.
    pub fn is_instance_oriented(&self) -> bool {
        match self {
            EventExpr::Prim(_) => true,
            EventExpr::IOr(a, b) | EventExpr::IAnd(a, b) | EventExpr::IPrec(a, b) => {
                a.is_instance_oriented() && b.is_instance_oriented()
            }
            EventExpr::INot(e) => e.is_instance_oriented(),
            _ => false,
        }
    }

    /// Validate §3.2 well-formedness: no set-oriented operator below an
    /// instance-oriented one.
    pub fn validate(&self) -> Result<()> {
        match self {
            EventExpr::Prim(_) => Ok(()),
            EventExpr::Or(a, b) | EventExpr::And(a, b) | EventExpr::Prec(a, b) => {
                a.validate()?;
                b.validate()
            }
            EventExpr::Not(e) => e.validate(),
            EventExpr::IOr(a, b) | EventExpr::IAnd(a, b) | EventExpr::IPrec(a, b) => {
                if !a.is_instance_oriented() || !b.is_instance_oriented() {
                    return Err(CalculusError::SetInsideInstance);
                }
                a.validate()?;
                b.validate()
            }
            EventExpr::INot(e) => {
                if !e.is_instance_oriented() {
                    return Err(CalculusError::SetInsideInstance);
                }
                e.validate()
            }
        }
    }

    /// All primitive event types mentioned, in first-occurrence order
    /// (duplicates removed).
    pub fn primitives(&self) -> Vec<EventType> {
        let mut out = Vec::new();
        self.collect_primitives(&mut out);
        out
    }

    fn collect_primitives(&self, out: &mut Vec<EventType>) {
        match self {
            EventExpr::Prim(ty) => {
                if !out.contains(ty) {
                    out.push(*ty);
                }
            }
            EventExpr::Not(e) | EventExpr::INot(e) => e.collect_primitives(out),
            EventExpr::Or(a, b)
            | EventExpr::And(a, b)
            | EventExpr::Prec(a, b)
            | EventExpr::IOr(a, b)
            | EventExpr::IAnd(a, b)
            | EventExpr::IPrec(a, b) => {
                a.collect_primitives(out);
                b.collect_primitives(out);
            }
        }
    }

    /// Does the expression contain any (set- or instance-) negation?
    pub fn contains_negation(&self) -> bool {
        match self {
            EventExpr::Prim(_) => false,
            EventExpr::Not(_) | EventExpr::INot(_) => true,
            EventExpr::Or(a, b)
            | EventExpr::And(a, b)
            | EventExpr::Prec(a, b)
            | EventExpr::IOr(a, b)
            | EventExpr::IAnd(a, b)
            | EventExpr::IPrec(a, b) => a.contains_negation() || b.contains_negation(),
        }
    }

    /// Can the expression be active over an *empty* occurrence set? (Pure
    /// negations are, and the trigger support must re-check such rules
    /// whenever the window becomes non-empty: the `R ≠ ∅` guard, not a
    /// primitive variation, was what held them back — see `optimize.rs`.)
    ///
    /// Evaluated at the set level: an instance-rooted sub-expression
    /// crosses the §4.3 boundary with an *empty object domain* when `R` is
    /// empty, so `∃`-rooted forms (`,=` `+=` `<=`) are never vacuously
    /// active while a boundary `-=` ("no object activates the component")
    /// always is — regardless of its component.
    pub fn vacuously_active(&self) -> bool {
        match self {
            EventExpr::Prim(_) => false,
            EventExpr::Not(e) => !e.vacuously_active(),
            EventExpr::And(a, b) => a.vacuously_active() && b.vacuously_active(),
            EventExpr::Or(a, b) => a.vacuously_active() || b.vacuously_active(),
            // precedence needs both active; with an empty history both can
            // only be active vacuously (stamps are then both the current
            // instant, and "A active at B's stamp" holds).
            EventExpr::Prec(a, b) => a.vacuously_active() && b.vacuously_active(),
            // instance→set boundary over the empty object domain:
            EventExpr::IAnd(..) | EventExpr::IOr(..) | EventExpr::IPrec(..) => false,
            EventExpr::INot(_) => true,
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            EventExpr::Prim(_) => 1,
            EventExpr::Not(e) | EventExpr::INot(e) => 1 + e.size(),
            EventExpr::Or(a, b)
            | EventExpr::And(a, b)
            | EventExpr::Prec(a, b)
            | EventExpr::IOr(a, b)
            | EventExpr::IAnd(a, b)
            | EventExpr::IPrec(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Tree depth (primitives have depth 1).
    pub fn depth(&self) -> usize {
        match self {
            EventExpr::Prim(_) => 1,
            EventExpr::Not(e) | EventExpr::INot(e) => 1 + e.depth(),
            EventExpr::Or(a, b)
            | EventExpr::And(a, b)
            | EventExpr::Prec(a, b)
            | EventExpr::IOr(a, b)
            | EventExpr::IAnd(a, b)
            | EventExpr::IPrec(a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// Printing priority of the root operator.
    pub fn priority(&self) -> Priority {
        match self {
            EventExpr::Prim(_) => Priority::Primitive,
            EventExpr::Or(..) => Priority::SetDisjunction,
            EventExpr::And(..) | EventExpr::Prec(..) => Priority::SetConjunction,
            EventExpr::Not(..) => Priority::SetNegation,
            EventExpr::IOr(..) => Priority::InstDisjunction,
            EventExpr::IAnd(..) | EventExpr::IPrec(..) => Priority::InstConjunction,
            EventExpr::INot(..) => Priority::InstNegation,
        }
    }

    /// Render with explicit event-type indices (`Pn`) — schema-free form
    /// used in tests and debugging. For schema-aware rendering see
    /// [`EventExpr::render`].
    fn fmt_with(
        &self,
        f: &mut fmt::Formatter<'_>,
        render_prim: &dyn Fn(&EventType) -> String,
    ) -> fmt::Result {
        // Parenthesize a child whose root binds no tighter than this node.
        fn child(
            e: &EventExpr,
            parent: Priority,
            f: &mut fmt::Formatter<'_>,
            render_prim: &dyn Fn(&EventType) -> String,
        ) -> fmt::Result {
            if e.priority() <= parent {
                write!(f, "(")?;
                e.fmt_with(f, render_prim)?;
                write!(f, ")")
            } else {
                e.fmt_with(f, render_prim)
            }
        }
        let p = self.priority();
        match self {
            EventExpr::Prim(ty) => write!(f, "{}", render_prim(ty)),
            EventExpr::Or(a, b) => {
                child(a, p, f, render_prim)?;
                write!(f, " , ")?;
                child(b, p, f, render_prim)
            }
            EventExpr::And(a, b) => {
                child(a, p, f, render_prim)?;
                write!(f, " + ")?;
                child(b, p, f, render_prim)
            }
            EventExpr::Prec(a, b) => {
                child(a, p, f, render_prim)?;
                write!(f, " < ")?;
                child(b, p, f, render_prim)
            }
            EventExpr::Not(e) => {
                // always parenthesize composites: `-` directly followed by
                // another `-`/`-=` would lex as a `--` comment.
                write!(f, "-")?;
                if matches!(e.as_ref(), EventExpr::Prim(_)) {
                    e.fmt_with(f, render_prim)
                } else {
                    write!(f, "(")?;
                    e.fmt_with(f, render_prim)?;
                    write!(f, ")")
                }
            }
            EventExpr::IOr(a, b) => {
                child(a, p, f, render_prim)?;
                write!(f, " ,= ")?;
                child(b, p, f, render_prim)
            }
            EventExpr::IAnd(a, b) => {
                child(a, p, f, render_prim)?;
                write!(f, " += ")?;
                child(b, p, f, render_prim)
            }
            EventExpr::IPrec(a, b) => {
                child(a, p, f, render_prim)?;
                write!(f, " <= ")?;
                child(b, p, f, render_prim)
            }
            EventExpr::INot(e) => {
                write!(f, "-=")?;
                if matches!(e.as_ref(), EventExpr::Prim(_)) {
                    e.fmt_with(f, render_prim)
                } else {
                    write!(f, "(")?;
                    e.fmt_with(f, render_prim)?;
                    write!(f, ")")
                }
            }
        }
    }

    /// Schema-aware rendering, e.g. `create(stock) <= modify(stock.quantity)`.
    pub fn render(&self, schema: &chimera_model::Schema) -> String {
        struct R<'a>(&'a EventExpr, &'a chimera_model::Schema);
        impl fmt::Display for R<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let schema = self.1;
                self.0.fmt_with(f, &|ty| ty.render(schema))
            }
        }
        R(self, schema).to_string()
    }
}

impl fmt::Display for EventExpr {
    /// Schema-free rendering: primitives print as paren-free
    /// `kind.class[.attr]` codes, e.g. `create.c0` or `modify.c1.a2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use chimera_events::EventKind;
        self.fmt_with(f, &|ty| match ty.kind {
            EventKind::Modify(attr) => format!("modify.{}.{}", ty.class, attr),
            EventKind::External(ch) => format!("ext{ch}.{}", ty.class),
            k => format!("{}.{}", k.command_name(), ty.class),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_model::ClassId;

    fn p(n: u32) -> EventExpr {
        EventExpr::prim(EventType::external(ClassId(0), n))
    }

    #[test]
    fn fig1_table_shape() {
        assert_eq!(FIG1_OPERATORS.len(), 4);
        assert_eq!(FIG1_OPERATORS[0].name, "negation");
        assert_eq!(FIG1_OPERATORS[3].name, "disjunction");
        assert!(FIG1_OPERATORS.iter().any(|o| o.set_symbol == "<"));
        assert!(FIG1_OPERATORS.iter().any(|o| o.instance_symbol == ",="));
    }

    #[test]
    fn builders_and_size_depth() {
        let e = p(0).and(p(1)).or(p(2).not());
        assert_eq!(e.size(), 6);
        assert_eq!(e.depth(), 3);
        assert_eq!(p(0).size(), 1);
        assert_eq!(p(0).depth(), 1);
    }

    #[test]
    fn primitives_deduplicated_in_order() {
        let e = p(2).and(p(1)).or(p(2).prec(p(3)));
        let prims = e.primitives();
        assert_eq!(prims.len(), 3);
        assert_eq!(prims[0], EventType::external(ClassId(0), 2));
        assert_eq!(prims[1], EventType::external(ClassId(0), 1));
        assert_eq!(prims[2], EventType::external(ClassId(0), 3));
    }

    #[test]
    fn instance_orientation() {
        assert!(p(0).is_instance_oriented());
        assert!(p(0).iand(p(1)).is_instance_oriented());
        assert!(p(0).iand(p(1)).inot().is_instance_oriented());
        assert!(!p(0).and(p(1)).is_instance_oriented());
        // instance op over set subtree → not instance-oriented
        assert!(!p(0).and(p(1)).inot().is_instance_oriented());
    }

    #[test]
    fn validation_rejects_set_inside_instance() {
        assert!(p(0).iand(p(1)).validate().is_ok());
        assert!(p(0).iand(p(1)).and(p(2)).validate().is_ok()); // instance inside set: fine
        assert_eq!(
            p(0).and(p(1)).iand(p(2)).validate(),
            Err(CalculusError::SetInsideInstance)
        );
        assert_eq!(
            p(0).or(p(1)).inot().validate(),
            Err(CalculusError::SetInsideInstance)
        );
        assert_eq!(
            p(0).not().iprec(p(1)).validate(),
            Err(CalculusError::SetInsideInstance)
        );
        // deep nesting still caught
        assert_eq!(
            p(0).iand(p(1).and(p(2)).inot()).validate(),
            Err(CalculusError::SetInsideInstance)
        );
    }

    #[test]
    fn negation_detection() {
        assert!(!p(0).and(p(1)).contains_negation());
        assert!(p(0).not().contains_negation());
        assert!(p(0).iand(p(1).inot()).contains_negation());
    }

    #[test]
    fn vacuous_activity() {
        assert!(!p(0).vacuously_active());
        assert!(p(0).not().vacuously_active());
        assert!(!p(0).not().not().vacuously_active());
        assert!(p(0).not().and(p(1).not()).vacuously_active());
        assert!(!p(0).not().and(p(1)).vacuously_active());
        assert!(p(0).not().or(p(1)).vacuously_active());
        assert!(p(0).inot().vacuously_active());
        assert!(p(0).not().prec(p(1).not()).vacuously_active());
        assert!(!p(0).prec(p(1).not()).vacuously_active());
    }

    #[test]
    fn priorities_ordered() {
        assert!(Priority::Primitive > Priority::InstNegation);
        assert!(Priority::InstNegation > Priority::InstConjunction);
        assert!(Priority::InstConjunction > Priority::InstDisjunction);
        assert!(Priority::InstDisjunction > Priority::SetNegation);
        assert!(Priority::SetNegation > Priority::SetConjunction);
        assert!(Priority::SetConjunction > Priority::SetDisjunction);
    }

    #[test]
    fn display_parenthesization() {
        // conjunction + precedence share priority → parenthesized when nested
        let e = p(0).and(p(1)).prec(p(2));
        let s = e.to_string();
        assert!(s.contains('('), "nested same-priority gets parens: {s}");
        // disjunction of conjunctions needs no parens around conjunctions
        let e2 = p(0).and(p(1)).or(p(2).and(p(3)));
        let s2 = e2.to_string();
        assert_eq!(s2.matches('(').count(), 0, "{s2}");
        // negation of disjunction parenthesizes
        let e3 = p(0).or(p(1)).not();
        assert!(e3.to_string().starts_with("-("));
    }
}
