//! Condition ASTs: the logical formula evaluated at rule consideration.
//!
//! A Chimera condition (§2) declares set-oriented variables over classes
//! (`stock(S)`), binds objects affected by events through *event formulas*
//! (`occurred(create, S)`, `at(create <= modify(quantity), S, T)`), and
//! constrains them with comparison predicates
//! (`S.quantity > S.max_quantity`). Evaluation (in `chimera-exec`)
//! produces the set of variable bindings for which every formula holds;
//! the action then runs once, set-oriented, over all bindings.

use chimera_calculus::{CalculusError, EventExpr, Plan, PlanEval};
use chimera_model::Value;
use std::fmt;

/// A set-oriented variable declaration, e.g. `stock(S)`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Class name the variable ranges over (includes subclasses).
    pub class: String,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Value-producing terms inside conditions and actions.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Literal constant.
    Const(Value),
    /// Attribute access `Var.attr`.
    Attr {
        /// Variable name.
        var: String,
        /// Attribute name (resolved against the variable's class).
        attr: String,
    },
    /// A bound variable itself — an object reference for class variables,
    /// a time value for `at`-bound time variables.
    Var(String),
    /// Arithmetic `lhs + rhs`.
    Add(Box<Term>, Box<Term>),
    /// Arithmetic `lhs - rhs`.
    Sub(Box<Term>, Box<Term>),
    /// Arithmetic `lhs * rhs`.
    Mul(Box<Term>, Box<Term>),
}

impl Term {
    /// Literal integer convenience.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }
    /// Attribute access convenience.
    pub fn attr(var: impl Into<String>, attr: impl Into<String>) -> Term {
        Term::Attr {
            var: var.into(),
            attr: attr.into(),
        }
    }
    /// Variable reference convenience.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Attr { var, attr } => write!(f, "{var}.{attr}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

/// One conjunct of a condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// `occurred(expr, Var)`: bind `Var` to the objects affected by the
    /// instance-oriented event expression within the rule's consumption
    /// window (§3.3).
    Occurred {
        /// Instance-oriented event expression.
        expr: EventExpr,
        /// Class variable receiving the bindings.
        var: String,
    },
    /// `at(expr, Var, TimeVar)`: like `occurred` but additionally binds
    /// every occurrence instant (§3.3, "occurrence time stamp" predicate).
    At {
        /// Instance-oriented, negation-free event expression.
        expr: EventExpr,
        /// Class variable receiving the object bindings.
        var: String,
        /// Time variable receiving the occurrence instants.
        time_var: String,
    },
    /// Comparison predicate over terms.
    Compare {
        /// Left term.
        lhs: Term,
        /// Operator.
        op: CmpOp,
        /// Right term.
        rhs: Term,
    },
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Occurred { expr, var } => write!(f, "occurred({expr}, {var})"),
            Formula::At {
                expr,
                var,
                time_var,
            } => write!(f, "at({expr}, {var}, {time_var})"),
            Formula::Compare { lhs, op, rhs } => write!(f, "{lhs} {op} {rhs}"),
        }
    }
}

/// A complete condition: declarations + conjunction of formulas.
///
/// An empty condition (no declarations, no formulas) is always satisfied
/// with a single empty binding — the rule's action then runs once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Condition {
    /// Set-oriented variable declarations.
    pub decls: Vec<VarDecl>,
    /// Conjoined formulas.
    pub formulas: Vec<Formula>,
}

impl Condition {
    /// The always-true condition.
    pub fn always() -> Self {
        Condition::default()
    }

    /// Variables bound by `occurred`/`at` event formulas.
    pub fn event_bound_vars(&self) -> Vec<&str> {
        self.formulas
            .iter()
            .filter_map(|f| match f {
                Formula::Occurred { var, .. } | Formula::At { var, .. } => Some(var.as_str()),
                Formula::Compare { .. } => None,
            })
            .collect()
    }

    /// Compile the plans of the `occurred` formulas, in writing order —
    /// the evaluators condition evaluation takes, one per formula. Fails
    /// on the first expression that is not instance-oriented.
    pub fn compile_occurred(&self) -> Result<Vec<PlanEval>, CalculusError> {
        self.formulas
            .iter()
            .filter_map(|f| match f {
                Formula::Occurred { expr, .. } => {
                    Some(Plan::compile_instance(expr).map(PlanEval::new))
                }
                Formula::At { .. } | Formula::Compare { .. } => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_events::EventType;
    use chimera_model::ClassId;

    #[test]
    fn term_builders_and_display() {
        let t = Term::Add(
            Box::new(Term::attr("S", "quantity")),
            Box::new(Term::int(3)),
        );
        assert_eq!(t.to_string(), "(S.quantity + 3)");
        assert_eq!(Term::var("T").to_string(), "T");
        assert_eq!(
            Term::Mul(Box::new(Term::int(2)), Box::new(Term::int(3))).to_string(),
            "(2 * 3)"
        );
        assert_eq!(
            Term::Sub(Box::new(Term::int(2)), Box::new(Term::int(3))).to_string(),
            "(2 - 3)"
        );
    }

    #[test]
    fn cmp_display() {
        assert_eq!(CmpOp::Le.to_string(), "<=");
        assert_eq!(CmpOp::Ne.to_string(), "!=");
        assert_eq!(CmpOp::Eq.to_string(), "=");
    }

    #[test]
    fn formula_display() {
        let f = Formula::Occurred {
            expr: EventExpr::prim(EventType::create(ClassId(0))),
            var: "S".into(),
        };
        assert!(f.to_string().starts_with("occurred("));
        let c = Formula::Compare {
            lhs: Term::attr("S", "quantity"),
            op: CmpOp::Gt,
            rhs: Term::attr("S", "max_quantity"),
        };
        assert_eq!(c.to_string(), "S.quantity > S.max_quantity");
    }

    #[test]
    fn always_condition_is_empty() {
        let c = Condition::always();
        assert!(c.decls.is_empty());
        assert!(c.formulas.is_empty());
    }

    #[test]
    fn event_bound_vars_collected() {
        let c = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![
                Formula::Occurred {
                    expr: EventExpr::prim(EventType::create(ClassId(0))),
                    var: "S".into(),
                },
                Formula::Compare {
                    lhs: Term::int(1),
                    op: CmpOp::Eq,
                    rhs: Term::int(1),
                },
            ],
        };
        assert_eq!(c.event_bound_vars(), vec!["S"]);
    }
}
