//! # chimera-calculus
//!
//! The event calculus of *Composite Events in Chimera* (Meo, Psaila, Ceri —
//! EDBT 1996): the paper's primary contribution.
//!
//! The calculus composes primitive event types with a **minimal set of
//! orthogonal operators** along three dimensions (Fig. 2):
//!
//! * the *boolean* dimension — conjunction, disjunction, negation;
//! * the *temporal* dimension — precedence;
//! * the *granularity* dimension — each operator exists in a
//!   **set-oriented** form (any affected objects) and an
//!   **instance-oriented** form (all components on the *same* object).
//!
//! Semantics is given by the signed-timestamp function `ts(E, t)`
//! (per-object: `ots(E, t, oid)`): positive iff the expression is *active*,
//! in which case the value is the activation stamp; negative (= `-t`)
//! otherwise. A rule is triggered when the `ts` of its event expression
//! turns positive over a non-empty observation window (§4.4).
//!
//! Module map:
//!
//! * [`expr`] — the expression AST, well-formedness, Fig. 1/2 metadata;
//! * [`ts`] — set-oriented evaluation, both the paper's *logical-style*
//!   and *algebraic-style* definitions (§4.2), cross-checked in tests;
//! * [`instance`] — per-object `ots` evaluation and the instance→set
//!   boundary (§4.3);
//! * [`occurrence`] — occurrence enumeration for the `occurred` and `at`
//!   event formulas (§3.3);
//! * [`rewrite`] — the algebraic laws of §4.2 (De Morgan, associativity,
//!   distributivity, precedence factoring) and a law-preserving simplifier;
//! * [`optimize`] — the §5.1 static optimization: derivation and
//!   simplification rules computing the variation set `V(E)` and the
//!   arrival-relevance filter used by the trigger support;
//! * [`plan`] — compiled evaluation plans: flat arena op arrays with
//!   interned leaf slots and a reusable per-object stamp scratchpad, the
//!   production path for the §4.3 instance→set boundary and the
//!   `occurred` formula (compiled once per rule, with one scratchpad per
//!   engine; [`ts_logical`]/[`ts_algebraic`] compile one per call);
//! * [`incremental`] — a compact per-rule detector maintaining `ts`
//!   online in O(|expr|) per arrival, the §5 implementation sketch taken
//!   to its conclusion (observably equivalent to the from-scratch
//!   evaluators, property-tested); its node arenas are the compiled
//!   plans of [`plan`].

pub mod error;
pub mod expr;
pub mod incremental;
pub mod instance;
pub mod occurrence;
pub mod optimize;
pub mod plan;
pub mod rewrite;
pub mod ts;

pub use error::CalculusError;
pub use expr::{EventExpr, OperatorInfo, FIG1_OPERATORS};
pub use incremental::IncrementalTs;
pub use instance::{boundary_ts_algebraic, boundary_ts_logical, ots_algebraic, ots_logical};
pub use occurrence::{at_occurrences, occurred_objects};
pub use optimize::{RelevanceFilter, Scope, Sign, Variation, VariationSet};
pub use plan::{Plan, PlanEval};
pub use rewrite::{nnf, simplify, Law, LAWS};
pub use ts::{
    ts_algebraic, ts_algebraic_interpreted, ts_logical, ts_logical_interpreted, TsVal,
};

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, CalculusError>;
