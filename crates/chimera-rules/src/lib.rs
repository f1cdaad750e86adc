//! # chimera-rules
//!
//! Chimera active rules (triggers) and their composite-event triggering
//! semantics.
//!
//! A Chimera trigger follows the ECA paradigm (§2): it is defined on a
//! triggering *event expression* (extended by the paper to the full
//! calculus), a *condition* — a logical formula that may query the
//! database and the event base through event formulas — and an *action* —
//! a sequence of set-oriented data manipulations.
//!
//! The paper's rule-object style maps onto plain data here: a
//! [`TriggerDef`] is the definition; a [`CompiledRule`] is that
//! definition validated and compiled once (its `V(E)` filter, change-point
//! types and `ts` plan), immutable and shared by `Arc` between every
//! engine that installs it; a [`RuleState`] is one engine's mutable
//! runtime status of the rule (the `triggered` flag, the
//! `last_consideration` / `last_consumption` stamps of §5 and a private
//! plan scratchpad); and the [`RuleTable`] is the §5 "Rule Table": a
//! name-indexed map plus a priority queue that picks the rule to consider
//! next.
//!
//! The triggering predicate `T(r, t)` of §4.4 is implemented in
//! [`trigger`], with the §5.1 `V(E)` relevance filter as an optional fast
//! path (its equivalence with unfiltered checking is property-tested).

pub mod action;
pub mod condition;
pub mod modes;
mod pool;
pub mod table;
pub mod trigger;

pub use action::ActionStmt;
pub use condition::{CmpOp, Condition, Formula, Term, VarDecl};
pub use modes::{ConsumptionMode, CouplingMode};
pub use pool::SharedProbePool;
pub use table::{RuleTable, TriggerSupport};
pub use trigger::{is_triggered, probe_instants, CompiledRule, RuleState, TriggerDef};
