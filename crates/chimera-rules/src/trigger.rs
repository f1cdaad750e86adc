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
//! The Trigger Support probes far fewer instants (`change_points_into`):
//! only those where *one rule* can **turn active**. Activity at `t` reads
//! only the occurrences up to `t`, so it is constant on `[s_i, s_{i+1})`
//! between consecutive stamps, and the stamp stands for its whole region:
//! no successor is probed. A negation-free expression is monotone under
//! arrivals in a fixed window, so it is active somewhere in a range
//! exactly when it is active at the range's end: it is probed at `now`
//! alone. Any other expression can turn from inactive to active only at
//! an arrival matching its signed `V⁺(E)` (§5.1 applied per instant
//! rather than per block) or, when it is arrival sensitive, at an
//! object's first occurrence in the window; it is probed at those
//! stamps, the range's first instant and `now`.

use crate::action::ActionStmt;
use crate::condition::Condition;
use crate::modes::{ConsumptionMode, CouplingMode};
use crate::table::RuleError;
use chimera_calculus::{ts_logical, EventExpr, PlanEval, RelevanceFilter};
use chimera_events::{EventBase, EventOccurrence, Timestamp, Window};
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
/// filter "computed once per rule at definition time", whether the
/// expression is monotone, its compiled `ts` plan and the compiled plans
/// of its condition's `occurred` formulas. Immutable, so one
/// `Arc<CompiledRule>` is shared by every engine that installs it: the
/// multi-tenant runtime compiles its trigger set once and each tenant
/// installs clones, owning only a [`RuleState`].
#[derive(Debug)]
pub struct CompiledRule {
    /// The definition.
    pub def: TriggerDef,
    /// The §5.1 static-optimization filter for the rule's expression.
    /// Its `V⁺(E)` types and its arrival sensitivity also pick the
    /// instants the rule is probed at.
    pub filter: RelevanceFilter,
    /// Is the expression free of `-` and `-=`? Then it never turns
    /// inactive again within a window, and one probe at `now` decides
    /// the §4.4 existential.
    pub(crate) monotone: bool,
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
        if let Some(target) = def.target {
            if def.events.primitives().iter().any(|ty| ty.class != target) {
                return Err(RuleError::TargetMismatch { rule: def.name });
            }
        }
        Ok(Arc::new(CompiledRule {
            filter: RelevanceFilter::new(&def.events),
            monotone: !def.events.contains_negation(),
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
/// stamp, the interval's first instant and `now`, ascending and
/// deduplicated. This is the reference set of [`is_triggered`], a
/// superset of every set the Trigger Support probes
/// (`change_points_into`).
pub fn probe_instants(eb: &EventBase, after: Timestamp, now: Timestamp) -> Vec<Timestamp> {
    let mut probes = Vec::new();
    if now <= after {
        return probes;
    }
    // Built in ascending order: every in-window stamp is >= after+1, each
    // successor interleaves monotonically with the next stamp, and `now`
    // bounds them all — so one dedup pass suffices, no sort.
    probes.push(after.next());
    for e in eb.slice(Window::new(after, now)) {
        probes.push(e.ts);
        if e.ts < now {
            probes.push(e.ts.next());
        }
    }
    probes.push(now);
    debug_assert!(probes.windows(2).all(|p| p[0] <= p[1]));
    probes.dedup();
    probes
}

/// The instants of `(st.checked_upto, now]` where `rule` can turn
/// active, ascending and deduplicated; `out` is cleared first.
///
/// * A monotone (negation-free) rule: `now` alone.
/// * Any other rule: the range's first instant, `now`, and the stamp of
///   each arrival whose type is in the filter's `V⁺(E)` — plus, for an
///   arrival-sensitive rule, of each arrival on an object with no
///   earlier occurrence in the trigger window, which joins the widened
///   domain where a nested negation can make it vacuously active.
///
/// Either way the set finds a witness exactly when one exists: a
/// monotone rule active anywhere in the range is active at `now`, and any
/// other rule, if inactive at the range's first instant, first turns
/// active at one of its points.
///
/// `arrivals` is `eb.slice((st.checked_upto, now])`. `prev[i]`, read only
/// for an arrival-sensitive rule, is the stamp of the previous occurrence
/// on `arrivals[i]`'s object (`None`: it has none).
pub(crate) fn change_points_into(
    rule: &CompiledRule,
    st: &RuleState,
    arrivals: &[EventOccurrence],
    prev: &[Option<Timestamp>],
    now: Timestamp,
    out: &mut Vec<Timestamp>,
) {
    out.clear();
    if now <= st.checked_upto {
        return;
    }
    if !rule.monotone {
        let (activating, fresh) = (rule.filter.activating(), rule.filter.arrival_sensitive());
        out.push(st.checked_upto.next());
        for (i, e) in arrivals.iter().enumerate() {
            if activating.contains(&e.ty)
                || (fresh && prev[i].is_none_or(|p| p <= st.last_consideration))
            {
                out.push(e.ts);
            }
        }
    }
    out.push(now);
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
