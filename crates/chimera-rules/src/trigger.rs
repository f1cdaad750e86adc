//! Trigger definitions, rule state, and the §4.4 triggering predicate.
//!
//! ```text
//! T(r, t)  ⟺  R ≠ ∅  ∧  ∃ t' ∈ (r_t0, t] : ts(rE, t') > 0
//! ```
//!
//! where `R` is the set of occurrences more recent than the rule's last
//! consideration `r_t0`, and `rE` the triggering event expression. The
//! `R ≠ ∅` guard keeps the system *reactive* rather than active: a rule
//! triggered by pure negation does not fire in the absence of any new
//! event occurrence.
//!
//! Because logical time is discrete and the activity of every expression
//! is constant between consecutive event stamps, the existential over
//! `t'` reduces to probing a finite instant set: every event stamp in the
//! window, the instant right after each stamp, and the window's endpoints
//! ([`probe_instants`], the reference set [`is_triggered`] uses).
//!
//! The same holds between the stamps of the occurrences *one rule* can
//! see — the §5.1 `V(E)` idea applied per instant rather than per block.
//! So the Trigger Support probes each rule only at its own change points
//! (`change_points_into`).

use crate::action::ActionStmt;
use crate::condition::Condition;
use crate::modes::{ConsumptionMode, CouplingMode};
use crate::table::RuleError;
use chimera_calculus::{ts_logical, EventExpr, PlanEval, RelevanceFilter};
use chimera_events::{EventBase, EventOccurrence, EventType, Timestamp, Window};
use chimera_model::ClassId;
use std::sync::Arc;

/// An immutable trigger definition.
#[derive(Debug, Clone)]
pub struct TriggerDef {
    /// Rule name (unique in the rule table).
    pub name: String,
    /// Targeted class, if any (§2: a targeted rule considers only events
    /// regarding that class — enforced at definition time by the engine).
    pub target: Option<ClassId>,
    /// The triggering event expression.
    pub events: EventExpr,
    /// Condition evaluated at consideration.
    pub condition: Condition,
    /// Set-oriented action statements.
    pub actions: Vec<ActionStmt>,
    /// E-C coupling mode.
    pub coupling: CouplingMode,
    /// Event consumption mode.
    pub consumption: ConsumptionMode,
    /// User priority: higher considered first; ties broken by definition
    /// order (the paper's partial order made total and deterministic).
    pub priority: i32,
}

impl TriggerDef {
    /// Minimal trigger: immediate, consuming, priority 0, empty condition.
    pub fn new(name: impl Into<String>, events: EventExpr) -> Self {
        TriggerDef {
            name: name.into(),
            target: None,
            events,
            condition: Condition::always(),
            actions: Vec::new(),
            coupling: CouplingMode::Immediate,
            consumption: ConsumptionMode::Consuming,
            priority: 0,
        }
    }
}

/// A rule compiled once from its definition: everything the engine
/// reads that derives only from the [`TriggerDef`] — the §5.1 `V(E)`
/// filter "computed once per rule at definition time", the expression's
/// change-point types, its compiled `ts` plan and the compiled plans of
/// its condition's `occurred` formulas. Immutable, so one
/// `Arc<CompiledRule>` is shared by every engine that installs it: the
/// multi-tenant runtime compiles its trigger set once and each tenant
/// installs clones, owning only a [`RuleState`].
#[derive(Debug)]
pub struct CompiledRule {
    /// The definition.
    pub def: TriggerDef,
    /// The §5.1 static-optimization filter for the rule's expression.
    pub filter: RelevanceFilter,
    /// The expression's primitive event types: their occurrences are the
    /// rule's change points.
    pub(crate) leaf_types: Vec<EventType>,
    /// Does some instance component carry a nested negation, widening
    /// its §4.3 domain to every object affected in the window? Then an
    /// object's first occurrence in the trigger window is a change point
    /// too, whatever its type.
    pub(crate) widened: bool,
    /// The compiled evaluation plan for the rule's event expression, as
    /// a prototype evaluator with an empty scratchpad: each installing
    /// engine takes its own [`PlanEval::fresh`] scratch over the shared
    /// plan (see [`chimera_calculus::plan`]).
    plan: PlanEval,
    /// The compiled plans of the condition's `occurred` formulas, in
    /// writing order, as prototype evaluators like `plan`: each
    /// installing engine takes its own [`PlanEval::fresh`] scratch of
    /// every one ([`RuleState::occurred`]).
    occurred: Vec<PlanEval>,
}

impl CompiledRule {
    /// Validate and compile a definition — the one place a rule is
    /// checked: the event expression must be well formed (§3.2), every
    /// `occurred` expression of the condition instance-oriented (§3.3),
    /// and a targeted rule's primitives must all be on its target class.
    pub fn compile(def: TriggerDef) -> Result<Arc<CompiledRule>, RuleError> {
        // plan compilation fails exactly when `EventExpr::validate` does
        let (Ok(plan), Ok(occurred)) = (
            PlanEval::compile(&def.events),
            def.condition.compile_occurred(),
        ) else {
            return Err(RuleError::InvalidExpression(def.name));
        };
        let leaf_types = def.events.primitives();
        if let Some(target) = def.target {
            if leaf_types.iter().any(|ty| ty.class != target) {
                return Err(RuleError::TargetMismatch { rule: def.name });
            }
        }
        Ok(Arc::new(CompiledRule {
            filter: RelevanceFilter::new(&def.events),
            leaf_types,
            widened: plan.plan().boundaries().iter().any(|b| b.widens()),
            plan,
            occurred,
            def,
        }))
    }
}

/// One engine's runtime state of a rule (§5: the `triggered` flag and
/// the two per-rule timestamps), plus the engine's private scratchpads
/// over the rule's shared compiled plans. Everything else about the rule
/// lives in its [`CompiledRule`].
#[derive(Debug, Clone)]
pub struct RuleState {
    /// Is the rule currently triggered?
    pub triggered: bool,
    /// Instant of the last consideration (`t0` before any).
    pub last_consideration: Timestamp,
    /// Lower bound of the condition's observation window: the last
    /// consideration for consuming rules, the transaction start for
    /// preserving rules.
    pub last_consumption: Timestamp,
    /// Instant up to which the trigger support has already checked this
    /// rule (incremental checking; never observable in the semantics).
    pub checked_upto: Timestamp,
    /// Has some probed instant `t'` in the current triggering window had
    /// `ts > 0`? The §4.4 existential is sticky until consideration; the
    /// rule is triggered as soon as a witness exists *and* `R ≠ ∅`.
    pub witness: bool,
    /// This engine's evaluator over the rule's compiled plan: the shared
    /// plan plus a scratchpad of its own — the engine evaluates `ts`
    /// probes through this instead of re-interpreting the AST.
    pub plan: PlanEval,
    /// This engine's evaluators over the compiled plans of the rule's
    /// condition `occurred` formulas, in writing order: consideration
    /// evaluates the condition through these, so each scratch advances
    /// with this engine's event base from one consideration to the next.
    pub occurred: Vec<PlanEval>,
}

impl RuleState {
    /// Fresh state at transaction start for a rule compiled on its own —
    /// the reference constructor for [`is_triggered`] callers. The
    /// definition must compile.
    pub fn new(def: &TriggerDef, txn_start: Timestamp) -> Self {
        let rule = CompiledRule::compile(def.clone()).expect("a valid rule definition");
        RuleState::installed(&rule, txn_start)
    }

    /// Fresh state at `start` for an installed rule: empty scratchpads
    /// over its shared plans, nothing recompiled.
    pub(crate) fn installed(rule: &CompiledRule, start: Timestamp) -> Self {
        RuleState {
            triggered: false,
            last_consideration: start,
            last_consumption: start,
            checked_upto: start,
            witness: false,
            plan: rule.plan.fresh(),
            occurred: rule.occurred.iter().map(PlanEval::fresh).collect(),
        }
    }

    /// The triggering window `(last_consideration, now]`.
    pub fn trigger_window(&self, now: Timestamp) -> Window {
        Window::new(self.last_consideration, now)
    }

    /// The condition window `(last_consumption, now]` (§3.3).
    pub fn condition_window(&self, now: Timestamp) -> Window {
        Window::new(self.last_consumption, now)
    }

    /// Reset in place at a transaction end `start`, where the next
    /// transaction's windows open: only the stamps change. The plan scratchpads are kept — each
    /// revalidates itself against the event base's `(uid, cut, epoch)`
    /// key — and the rule's compiled half is never touched.
    pub fn reset(&mut self, start: Timestamp) {
        self.triggered = false;
        self.last_consideration = start;
        self.last_consumption = start;
        self.checked_upto = start;
        self.witness = false;
    }

    /// Record a consideration at `now`: detrigger and advance stamps
    /// according to the consumption mode.
    pub fn considered(&mut self, def: &TriggerDef, now: Timestamp) {
        self.triggered = false;
        self.witness = false;
        self.last_consideration = now;
        self.checked_upto = now;
        if def.consumption == ConsumptionMode::Consuming {
            self.last_consumption = now;
        }
    }
}

/// The finite probe set equivalent to `∃ t' ∈ (after, now]` for *any*
/// expression: each event stamp in the interval, the successor of each
/// stamp, the interval's first instant and `now`. (Activity is constant
/// between stamps, so one witness per sign-region suffices.) This is the
/// reference set of [`is_triggered`]; the Trigger Support probes the
/// narrower `change_points_into`.
pub fn probe_instants(eb: &EventBase, after: Timestamp, now: Timestamp) -> Vec<Timestamp> {
    let mut probes = Vec::new();
    push_probe_set(
        eb.slice(Window::new(after, now)),
        after,
        now,
        &mut probes,
        |_, _| true,
    );
    probes
}

/// The change points of `rule` in `(st.checked_upto, now]`: the probe set of
/// [`probe_instants`] restricted to the arrivals that can change the
/// rule's activity. An arrival can when its type is one of the
/// expression's primitives, or, for a widened rule, when its object has
/// no earlier occurrence in the trigger window — it then joins the
/// widened domain, where a nested negation can make it vacuously active.
/// Every other arrival leaves each `ts` value's sign as it was, so
/// probing the first new instant, these arrivals' stamps and successors,
/// and `now` still finds a witness exactly when one exists.
///
/// `arrivals` is `eb.slice((st.checked_upto, now])`. `prev[i]`, read only
/// for a widened rule, is the stamp of the previous occurrence on
/// `arrivals[i]`'s object (`None`: it has none). `out` is cleared first.
pub(crate) fn change_points_into(
    rule: &CompiledRule,
    st: &RuleState,
    arrivals: &[EventOccurrence],
    prev: &[Option<Timestamp>],
    now: Timestamp,
    out: &mut Vec<Timestamp>,
) {
    push_probe_set(arrivals, st.checked_upto, now, out, |i, e| {
        rule.leaf_types.contains(&e.ty)
            || (rule.widened && prev[i].is_none_or(|p| p <= st.last_consideration))
    });
}

/// `(after, now]`'s first instant, the stamp and successor of each
/// arrival `changes` selects, and `now`, ascending and deduplicated.
fn push_probe_set(
    arrivals: &[EventOccurrence],
    after: Timestamp,
    now: Timestamp,
    out: &mut Vec<Timestamp>,
    changes: impl Fn(usize, &EventOccurrence) -> bool,
) {
    out.clear();
    if now <= after {
        return;
    }
    // Built in ascending order: every in-window stamp is >= after+1, each
    // successor interleaves monotonically with the next stamp, and `now`
    // bounds them all — so one dedup pass suffices, no sort.
    out.push(after.next());
    for (i, e) in arrivals.iter().enumerate() {
        if changes(i, e) {
            out.push(e.ts);
            if e.ts < now {
                out.push(e.ts.next());
            }
        }
    }
    out.push(now);
    debug_assert!(out.windows(2).all(|p| p[0] <= p[1]));
    out.dedup();
}

/// The §4.4 triggering predicate `T(r, t)`, evaluated from scratch.
///
/// `R` is the window `(state.last_consideration, now]`; the rule is
/// triggered iff `R` is non-empty and `ts` of the rule's expression is
/// positive at some instant of `R`.
pub fn is_triggered(def: &TriggerDef, state: &RuleState, eb: &EventBase, now: Timestamp) -> bool {
    let w = state.trigger_window(now);
    if !eb.any_in(w) {
        return false; // R = ∅: the system stays reactive (§4.4)
    }
    probe_instants(eb, state.last_consideration, now)
        .into_iter()
        .any(|t| ts_logical(&def.events, eb, w, t).is_active())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_events::EventType;
    use chimera_model::Oid;

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }

    fn fresh(def: &TriggerDef) -> RuleState {
        RuleState::new(def, Timestamp::ZERO)
    }

    #[test]
    fn simple_rule_triggers_on_event() {
        let def = TriggerDef::new("r", p(0));
        let mut eb = EventBase::new();
        let st = fresh(&def);
        assert!(!is_triggered(&def, &st, &eb, eb.now()));
        eb.append(et(0), Oid(1));
        assert!(is_triggered(&def, &st, &eb, eb.now()));
    }

    #[test]
    fn unrelated_event_does_not_trigger() {
        let def = TriggerDef::new("r", p(0));
        let mut eb = EventBase::new();
        eb.append(et(1), Oid(1));
        let st = fresh(&def);
        assert!(!is_triggered(&def, &st, &eb, eb.now()));
    }

    /// §4.4: a rule on pure negation needs a non-empty window — the
    /// reactivity guard.
    #[test]
    fn negation_rule_requires_nonempty_window() {
        let def = TriggerDef::new("r", p(0).not());
        let mut eb = EventBase::new();
        let st = fresh(&def);
        // nothing happened: not triggered despite ts(-A) being "positive"
        eb.tick();
        assert!(!is_triggered(&def, &st, &eb, eb.now()));
        // an unrelated event arrives: now R ≠ ∅ and A is absent → triggered
        eb.append(et(1), Oid(1));
        assert!(is_triggered(&def, &st, &eb, eb.now()));
        // but if A itself arrives: not triggered
        let mut eb2 = EventBase::new();
        eb2.append(et(0), Oid(1));
        assert!(!is_triggered(&def, &fresh(&def), &eb2, eb2.now()));
    }

    /// The existential over t': a transiently-active expression still
    /// triggers even if inactive at `now`.
    #[test]
    fn transient_activation_is_caught() {
        // rule on B + (-A): B arrives (active), then A arrives (inactive).
        let def = TriggerDef::new("r", p(1).and(p(0).not()));
        let mut eb = EventBase::new();
        eb.append(et(1), Oid(1)); // t1: B → active at t1
        eb.append(et(0), Oid(1)); // t2: A → inactive from t2 on
        let st = fresh(&def);
        let w = st.trigger_window(eb.now());
        assert!(!ts_logical(&def.events, &eb, w, eb.now()).is_active());
        assert!(is_triggered(&def, &st, &eb, eb.now()));
    }

    #[test]
    fn consideration_detriggers_and_consumes() {
        let def = TriggerDef::new("r", p(0));
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        let mut st = fresh(&def);
        assert!(is_triggered(&def, &st, &eb, eb.now()));
        st.considered(&def, eb.now());
        // old occurrence lost its triggering capability (§2)
        eb.tick();
        assert!(!is_triggered(&def, &st, &eb, eb.now()));
        // a new occurrence re-triggers
        eb.append(et(0), Oid(2));
        assert!(is_triggered(&def, &st, &eb, eb.now()));
    }

    #[test]
    fn consumption_mode_affects_condition_window_only() {
        let consuming = TriggerDef::new("c", p(0));
        let preserving = {
            let mut d = TriggerDef::new("p", p(0));
            d.consumption = ConsumptionMode::Preserving;
            d
        };
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        let mut cs = fresh(&consuming);
        let mut ps = fresh(&preserving);
        let now = eb.now();
        cs.considered(&consuming, now);
        ps.considered(&preserving, now);
        // trigger windows both advance
        assert_eq!(cs.trigger_window(now).after, now);
        assert_eq!(ps.trigger_window(now).after, now);
        // condition window: consuming advances, preserving stays at start
        assert_eq!(cs.condition_window(now).after, now);
        assert_eq!(ps.condition_window(now).after, Timestamp::ZERO);
    }

    #[test]
    fn probe_instants_cover_gaps_and_stamps() {
        let mut eb = EventBase::new();
        eb.append_at(et(0), Oid(1), Timestamp(3));
        eb.append_at(et(0), Oid(1), Timestamp(7));
        let probes = probe_instants(&eb, Timestamp::ZERO, Timestamp(9));
        // first instant, both stamps, both successors, now
        assert_eq!(
            probes,
            vec![
                Timestamp(1),
                Timestamp(3),
                Timestamp(4),
                Timestamp(7),
                Timestamp(8),
                Timestamp(9)
            ]
        );
        assert!(probe_instants(&eb, Timestamp(9), Timestamp(9)).is_empty());
    }

    #[test]
    fn instance_expression_triggering() {
        // same-object sequence: create <= modify
        let def = TriggerDef::new("r", p(0).iprec(p(1)));
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        eb.append(et(1), Oid(2)); // different object
        let st = fresh(&def);
        assert!(!is_triggered(&def, &st, &eb, eb.now()));
        eb.append(et(1), Oid(1)); // same object now
        assert!(is_triggered(&def, &st, &eb, eb.now()));
    }

    #[test]
    fn trigger_def_builder_defaults() {
        let def = TriggerDef::new("r", p(0));
        assert_eq!(def.coupling, CouplingMode::Immediate);
        assert_eq!(def.consumption, ConsumptionMode::Consuming);
        assert_eq!(def.priority, 0);
        assert!(def.target.is_none());
        assert!(def.actions.is_empty());
    }
}
