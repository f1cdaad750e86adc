//! The Rule Table and the Trigger Support (§5).
//!
//! The Trigger Support "maintains in the Rule Table the current status of
//! all defined rules; this table is managed by means of a hash table for
//! fast access, but rules are also linked together by means of a queue on
//! the basis of the priority order".
//!
//! Checking works incrementally: after each non-interruptible block the
//! Event Handler appends the new occurrences and calls
//! [`TriggerSupport::check`], which for every *untriggered* rule either
//! (a) skips the rule because no new arrival matches its `V(E)` relevance
//! filter (§5.1), or (b) probes the newly covered instants for a positive
//! `ts` witness. A rule is triggered as soon as a witness exists and its
//! window is non-empty; it is detriggered exactly at consideration.
//!
//! A check is one **batched round over the block's whole arrival delta**:
//! the dedup'd arrival types are computed once per distinct
//! `checked_upto` bound (almost always once per round, since rules
//! advance in lockstep) and shared by every rule's relevance filter. A
//! rule that survives the filter probes only the instants where it can
//! **turn active** (`trigger::change_points_into`): `now` alone for a
//! negation-free rule, and otherwise the first new instant, `now`, and
//! the stamp of each arrival that matches its `V⁺(E)` or, for an
//! arrival-sensitive rule, brings a fresh object into its window —
//! rather than every arrival of the block. Each rule's compiled plan
//! advances its arrival-incremental scratch state once for the whole
//! delta (see [`SupportStats`] for the counters). As in the paper's §5,
//! no probe result is shared across rules: every probe evaluates the
//! rule's own plan.
//!
//! The round is **one pass over the table in definition order**. For
//! each untriggered rule it applies the relevance filter over the shared
//! arrival scan, probes a surviving rule's own compiled plan at its own
//! change points, and applies the §4.4 commit predicate, before moving
//! on to the next rule. A rule's decision reads only its own state (the
//! plan scratchpad, the sticky witness, the consumption stamps, all
//! owned by its table slot), the immutable event base and the round's
//! arrival scans; so the order in which rules are visited changes no
//! outcome, and visiting them in slot order fixes every counter too.
//!
//! A round on an unchanged event base at the same instant as the last
//! one changes no rule's state, however many of the rules that round
//! triggered were considered in between: a considered rule's window is
//! the empty `(now, now]`, and every other rule was either probed up to
//! `now` or skipped by a filter that reads the same arrivals again. The
//! engine relies on this to skip such rounds.

use crate::modes::CouplingMode;
use crate::trigger::{change_points_into, CompiledRule, RuleState, TriggerDef};
use chimera_events::{EventBase, EventType, Timestamp, Window};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Rule-management errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleError {
    /// A rule with this name already exists.
    DuplicateRule(String),
    /// No rule with this name.
    UnknownRule(String),
    /// A targeted rule references an event type on a different class.
    TargetMismatch {
        /// Rule name.
        rule: String,
    },
    /// The rule's event expression is ill-formed (§3.2), or an
    /// `occurred` expression of its condition is not instance-oriented
    /// (§3.3).
    InvalidExpression(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::DuplicateRule(n) => write!(f, "duplicate rule `{n}`"),
            RuleError::UnknownRule(n) => write!(f, "unknown rule `{n}`"),
            RuleError::TargetMismatch { rule } => write!(
                f,
                "rule `{rule}` is targeted but its events reference another class"
            ),
            RuleError::InvalidExpression(n) => {
                write!(f, "rule `{n}` has an ill-formed event expression")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// One rule table slot: the shared compiled rule and this table's own
/// state of it.
#[derive(Debug)]
struct Slot {
    rule: Arc<CompiledRule>,
    state: RuleState,
}

/// The §5 Rule Table: name-indexed compiled rules plus runtime state.
/// Slots are numbered in definition order ([`RuleTable::drop_rule`]
/// keeps the order of the rest); [`RuleTable::select_next`] hands out
/// those indices.
#[derive(Debug, Default)]
pub struct RuleTable {
    slots: Vec<Slot>,
    by_name: HashMap<String, usize>,
}

impl RuleTable {
    /// Empty table.
    pub fn new() -> Self {
        RuleTable::default()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Define a rule: compile it ([`CompiledRule::compile`] validates)
    /// and install the result.
    pub fn define(&mut self, def: TriggerDef, now: Timestamp) -> Result<(), RuleError> {
        self.install(CompiledRule::compile(def)?, now)
    }

    /// Install an already compiled rule, observing events from `now`.
    /// The table shares the compiled rule and owns only its state: the
    /// stamps and fresh scratchpads over the rule's plans.
    pub fn install(&mut self, rule: Arc<CompiledRule>, now: Timestamp) -> Result<(), RuleError> {
        if self.by_name.contains_key(&rule.def.name) {
            return Err(RuleError::DuplicateRule(rule.def.name.clone()));
        }
        let state = RuleState::installed(&rule, now);
        self.by_name.insert(rule.def.name.clone(), self.slots.len());
        self.slots.push(Slot { rule, state });
        Ok(())
    }

    /// Remove a rule.
    pub fn drop_rule(&mut self, name: &str) -> Result<(), RuleError> {
        let idx = *self
            .by_name
            .get(name)
            .ok_or_else(|| RuleError::UnknownRule(name.to_owned()))?;
        self.by_name.remove(name);
        self.slots.remove(idx);
        // reindex
        self.by_name.clear();
        for (i, s) in self.slots.iter().enumerate() {
            self.by_name.insert(s.rule.def.name.clone(), i);
        }
        Ok(())
    }

    /// Rule definition by name.
    pub fn def(&self, name: &str) -> Result<&TriggerDef, RuleError> {
        self.index_of(name).map(|i| &self.slots[i].rule.def)
    }

    /// Rule state by name.
    pub fn state(&self, name: &str) -> Result<&RuleState, RuleError> {
        self.index_of(name).map(|i| &self.slots[i].state)
    }

    /// Slot index of a rule by name.
    pub fn index_of(&self, name: &str) -> Result<usize, RuleError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| RuleError::UnknownRule(name.to_owned()))
    }

    /// The compiled rule and its state in slot `idx` (panics if out of
    /// range).
    pub fn at(&self, idx: usize) -> (&Arc<CompiledRule>, &RuleState) {
        let s = &self.slots[idx];
        (&s.rule, &s.state)
    }

    /// The compiled rule and a mutable borrow of its state in slot `idx`
    /// (panics if out of range): consideration evaluates the condition
    /// through the state's `occurred` scratchpads.
    pub fn at_mut(&mut self, idx: usize) -> (&Arc<CompiledRule>, &mut RuleState) {
        let s = &mut self.slots[idx];
        (&s.rule, &mut s.state)
    }

    /// Iterate `(compiled rule, state)` pairs in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<CompiledRule>, &RuleState)> {
        self.slots.iter().map(|s| (&s.rule, &s.state))
    }

    /// Names of currently triggered rules (definition order).
    pub fn triggered(&self) -> Vec<&str> {
        self.slots
            .iter()
            .filter(|s| s.state.triggered)
            .map(|s| s.rule.def.name.as_str())
            .collect()
    }

    /// The rule-selection mechanism: the slot index of the
    /// highest-priority triggered rule with the requested coupling mode
    /// (ties → earliest definition).
    pub fn select_next(&self, coupling: CouplingMode) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state.triggered && s.rule.def.coupling == coupling)
            .max_by_key(|(i, s)| (s.rule.def.priority, std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
    }

    /// Record the consideration of the rule in slot `idx` at `now`
    /// (detrigger + consume; panics if `idx` is out of range).
    pub fn mark_considered(&mut self, idx: usize, now: Timestamp) {
        let s = &mut self.slots[idx];
        s.state.considered(&s.rule.def, now);
    }

    /// Reset all rule state at a transaction end `now`, so the next
    /// transaction's windows open there: the stamps only. The compiled
    /// rules are shared and immutable, and each plan scratchpad is kept
    /// (it goes cold by itself once the engine cuts the event base at the
    /// same transaction end).
    pub fn reset_all(&mut self, now: Timestamp) {
        for s in &mut self.slots {
            s.state.reset(now);
        }
    }
}

/// Counters exposing how much work the §5.1 optimization saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupportStats {
    /// Untriggered rules examined.
    pub rules_checked: u64,
    /// Rules skipped because no arrival matched their `V(E)`.
    pub skipped_by_filter: u64,
    /// Individual `ts` probe evaluations performed.
    pub ts_probes: u64,
    /// Always 0: every probe evaluates the rule's own plan, and no
    /// result is shared across rules. Kept only because stackbench still
    /// reports it (`rules.probe_memo_hit_share`), until ROADMAP 2a
    /// rewrites its counters.
    pub probe_memo_hits: u64,
    /// Trigger-support check rounds run: the engine runs one per
    /// non-interruptible block and per commit, and one more after each
    /// consideration whose action appended an occurrence.
    pub check_rounds: u64,
}

/// Shared arrival state for one `checked_upto` bound within a check
/// round: the dedup'd types of the block's arrival delta (built on first
/// relevance-filter use) and, for each arrival, the stamp of the previous
/// occurrence on its object (built only when an arrival-sensitive rule
/// probes, whose change points include an object's first occurrence in
/// its window).
/// Rules advance in lockstep except right after a consideration, so a
/// round usually holds a single entry that every rule reuses — one scan
/// per block instead of one per rule, and none at all on paths that never
/// read them. The entries (and their buffers) live in the support and are
/// reused round after round.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    from: Timestamp,
    types_built: bool,
    types: Vec<EventType>,
    prev_built: bool,
    prev: Vec<Option<Timestamp>>,
}

/// The §5 Trigger Support: determines newly activated rules after a block.
#[derive(Debug, Clone, Default)]
pub struct TriggerSupport {
    /// Apply the §5.1 `V(E)` relevance filter (the static optimization).
    pub use_relevance_filter: bool,
    /// Work counters (monotonic; reset with [`TriggerSupport::reset_stats`]).
    pub stats: SupportStats,
    /// Reusable per-bound round entries; `rounds_live` are in use this
    /// round, the rest are spare capacity kept for their buffers.
    rounds: Vec<RoundScratch>,
    rounds_live: usize,
    /// Reusable change-point buffer of the rule being probed.
    probes: Vec<Timestamp>,
}

impl TriggerSupport {
    /// With the static optimization enabled.
    pub fn optimized() -> Self {
        TriggerSupport {
            use_relevance_filter: true,
            ..TriggerSupport::default()
        }
    }

    /// Without the optimization (every untriggered rule re-probed).
    pub fn unoptimized() -> Self {
        TriggerSupport::default()
    }

    /// Zero the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SupportStats::default();
    }

    /// Check all untriggered rules against the EB state at `now` — one
    /// batched round over the block's whole arrival delta. The rules it
    /// triggers show in [`RuleTable::triggered`].
    pub fn check(&mut self, table: &mut RuleTable, eb: &EventBase, now: Timestamp) {
        self.stats.check_rounds += 1;
        self.rounds_live = 0;
        for slot in &mut table.slots {
            let st = &mut slot.state;
            if st.triggered {
                continue;
            }
            self.stats.rules_checked += 1;
            if !st.witness {
                let ri = self.round_index(st.checked_upto);
                if self.use_relevance_filter {
                    let r = &mut self.rounds[ri];
                    if !r.types_built {
                        r.types_built = true;
                        for e in eb.slice(Window::new(r.from, now)) {
                            if !r.types.contains(&e.ty) {
                                r.types.push(e.ty);
                            }
                        }
                    }
                    let any_arrivals = !r.types.is_empty();
                    let was_empty = !eb.any_in(Window::new(st.last_consideration, st.checked_upto));
                    if !slot.rule.filter.needs_recheck(&r.types, was_empty) {
                        // the skipped range cannot contain a fresh positive
                        // witness; do not advance checked_upto past instants
                        // we never probed unless nothing arrived at all.
                        self.stats.skipped_by_filter += 1;
                        if any_arrivals {
                            st.checked_upto = now;
                        }
                        continue;
                    }
                }
                if !Window::new(st.checked_upto, now).is_degenerate() {
                    self.probe_slot(&slot.rule, st, eb, now, ri);
                }
            }
            // the §4.4 predicate
            if st.witness && eb.any_in(st.trigger_window(now)) {
                st.triggered = true;
            }
        }
    }

    /// The round entry for a `checked_upto` bound, reusing a spare slot
    /// (and its buffers) when the bound is new this round.
    fn round_index(&mut self, from: Timestamp) -> usize {
        for i in 0..self.rounds_live {
            if self.rounds[i].from == from {
                return i;
            }
        }
        if self.rounds_live == self.rounds.len() {
            self.rounds.push(RoundScratch::default());
        }
        let r = &mut self.rounds[self.rounds_live];
        r.from = from;
        r.types.clear();
        r.types_built = false;
        r.prev.clear();
        r.prev_built = false;
        self.rounds_live += 1;
        self.rounds_live - 1
    }

    /// Probe one rule at its change points: the §4.4 existential for the
    /// newly covered range, through the rule's own compiled plan. `ri` is
    /// the round entry of the rule's `checked_upto` bound; its
    /// previous-occurrence stamps are built on the first probe of an
    /// arrival-sensitive rule (see [`RoundScratch`]).
    fn probe_slot(
        &mut self,
        rule: &CompiledRule,
        st: &mut RuleState,
        eb: &EventBase,
        now: Timestamp,
        ri: usize,
    ) {
        let r = &mut self.rounds[ri];
        if rule.filter.arrival_sensitive() && !r.prev_built {
            r.prev_built = true;
            for e in eb.slice(Window::new(r.from, now)) {
                let before = Window::new(Timestamp::ZERO, Timestamp(e.ts.raw() - 1));
                r.prev.push(eb.last_of_obj_in(e.oid, before));
            }
        }
        let window = st.trigger_window(now);
        let arrivals = eb.slice(Window::new(st.checked_upto, now));
        change_points_into(rule, st, arrivals, &r.prev, now, &mut self.probes);
        for &t in &self.probes {
            self.stats.ts_probes += 1;
            if st.plan.eval(eb, window, t).is_active() {
                st.witness = true;
                break;
            }
        }
        st.checked_upto = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, Formula, VarDecl};
    use crate::modes::ConsumptionMode;
    use crate::trigger::is_triggered;
    use chimera_calculus::EventExpr;
    use chimera_model::{ClassId, Oid};

    fn et(n: u32) -> EventType {
        EventType::external(ClassId(0), n)
    }
    fn p(n: u32) -> EventExpr {
        EventExpr::prim(et(n))
    }

    /// [`RuleTable::select_next`] by name.
    fn next_name(rt: &RuleTable, coupling: CouplingMode) -> Option<&str> {
        rt.select_next(coupling).map(|i| rt.at(i).0.def.name.as_str())
    }

    #[test]
    fn define_and_lookup() {
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("a", p(0)), Timestamp::ZERO).unwrap();
        assert_eq!(rt.len(), 1);
        assert!(rt.def("a").is_ok());
        assert!(rt.state("a").is_ok());
        assert!(matches!(rt.def("b"), Err(RuleError::UnknownRule(_))));
        assert!(matches!(
            rt.define(TriggerDef::new("a", p(1)), Timestamp::ZERO),
            Err(RuleError::DuplicateRule(_))
        ));
    }

    #[test]
    fn invalid_expression_rejected() {
        let mut rt = RuleTable::new();
        let bad = TriggerDef::new("bad", p(0).and(p(1)).iand(p(2)));
        assert!(matches!(
            rt.define(bad, Timestamp::ZERO),
            Err(RuleError::InvalidExpression(_))
        ));
    }

    #[test]
    fn bad_occurred_expression_rejected_at_definition() {
        // a programmatic definition bypasses the parser, so the condition's
        // `occurred` expressions are checked when the rule compiles
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("ok", p(0)), Timestamp::ZERO).unwrap();
        for (name, bad) in [("set", p(0).and(p(1))), ("invalid", p(0).and(p(1)).iand(p(2)))] {
            let mut def = TriggerDef::new(name, p(0));
            def.condition = Condition {
                decls: vec![VarDecl {
                    name: "X".into(),
                    class: "c".into(),
                }],
                formulas: vec![
                    Formula::Occurred {
                        expr: p(0),
                        var: "X".into(),
                    },
                    Formula::Occurred {
                        expr: bad,
                        var: "X".into(),
                    },
                ],
            };
            assert_eq!(
                rt.define(def, Timestamp::ZERO),
                Err(RuleError::InvalidExpression(name.into()))
            );
        }
        assert_eq!(rt.len(), 1, "the table is unchanged");
        assert!(rt.def("set").is_err() && rt.def("invalid").is_err());
        // the compiled rule carries one scratch per `occurred` formula
        let mut def = TriggerDef::new("good", p(0));
        def.condition.formulas = vec![
            Formula::Occurred {
                expr: p(0).iand(p(1)),
                var: "X".into(),
            },
            Formula::Occurred {
                expr: p(1),
                var: "X".into(),
            },
        ];
        rt.define(def, Timestamp::ZERO).unwrap();
        assert_eq!(rt.state("good").unwrap().occurred.len(), 2);
    }

    #[test]
    fn target_mismatch_rejected() {
        let mut rt = RuleTable::new();
        let mut def = TriggerDef::new("t", p(0)); // class c0
        def.target = Some(ClassId(1));
        assert!(matches!(
            rt.define(def, Timestamp::ZERO),
            Err(RuleError::TargetMismatch { .. })
        ));
        let mut ok = TriggerDef::new("t", p(0));
        ok.target = Some(ClassId(0));
        rt.define(ok, Timestamp::ZERO).unwrap();
    }

    #[test]
    fn drop_rule_reindexes() {
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("a", p(0)), Timestamp::ZERO).unwrap();
        rt.define(TriggerDef::new("b", p(1)), Timestamp::ZERO).unwrap();
        rt.drop_rule("a").unwrap();
        assert_eq!(rt.len(), 1);
        assert!(rt.def("b").is_ok());
        assert!(rt.drop_rule("a").is_err());
    }

    #[test]
    fn support_triggers_and_selection_respects_priority() {
        let mut rt = RuleTable::new();
        let mut hi = TriggerDef::new("hi", p(0));
        hi.priority = 10;
        let lo = TriggerDef::new("lo", p(0));
        rt.define(lo, Timestamp::ZERO).unwrap();
        rt.define(hi, Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        assert_eq!(rt.triggered(), ["lo", "hi"]);
        assert_eq!(next_name(&rt, CouplingMode::Immediate), Some("hi"));
        assert_eq!(next_name(&rt, CouplingMode::Deferred), None);
    }

    #[test]
    fn priority_tie_breaks_by_definition_order() {
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("first", p(0)), Timestamp::ZERO).unwrap();
        rt.define(TriggerDef::new("second", p(0)), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        TriggerSupport::optimized().check(&mut rt, &eb, eb.now());
        assert_eq!(next_name(&rt, CouplingMode::Immediate), Some("first"));
    }

    #[test]
    fn priority_tie_after_a_drop_breaks_by_definition_order() {
        // `d` takes the slot count `c` had when it was defined; the tie
        // must still go to the earlier definition, `c`
        let mut rt = RuleTable::new();
        for name in ["a", "b", "c"] {
            let def = TriggerDef::new(name, p(0));
            rt.define(def, Timestamp::ZERO).unwrap();
        }
        rt.drop_rule("a").unwrap();
        let def = TriggerDef::new("d", p(0));
        rt.define(def, Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        TriggerSupport::optimized().check(&mut rt, &eb, eb.now());
        rt.mark_considered(rt.index_of("b").unwrap(), eb.now());
        assert_eq!(rt.triggered(), ["c", "d"]);
        assert_eq!(next_name(&rt, CouplingMode::Immediate), Some("c"));
    }

    #[test]
    fn consideration_detriggers_until_new_events() {
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("r", p(0)), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        assert!(rt.state("r").unwrap().triggered);
        rt.mark_considered(rt.index_of("r").unwrap(), eb.now());
        assert!(!rt.state("r").unwrap().triggered);
        eb.tick();
        sup.check(&mut rt, &eb, eb.now());
        assert!(rt.triggered().is_empty());
        eb.append(et(0), Oid(2));
        sup.check(&mut rt, &eb, eb.now());
        assert_eq!(rt.triggered(), ["r"]);
    }

    #[test]
    fn preserving_rules_keep_condition_window() {
        let mut rt = RuleTable::new();
        let mut def = TriggerDef::new("p", p(0));
        def.consumption = ConsumptionMode::Preserving;
        rt.define(def, Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        rt.mark_considered(rt.index_of("p").unwrap(), eb.now());
        let st = rt.state("p").unwrap();
        assert_eq!(st.last_consideration, eb.now());
        assert_eq!(st.last_consumption, Timestamp::ZERO);
    }

    /// The incremental, filtered support agrees with the from-scratch
    /// §4.4 predicate on a scripted multi-block run.
    #[test]
    fn optimized_support_matches_formal_predicate() {
        let exprs = [
            p(0),
            p(0).and(p(1)),
            p(0).not(),
            p(1).and(p(0).not()),
            p(0).prec(p(1)),
            p(0).iand(p(1)),
            p(0).iand(p(1)).inot(),
            p(0).or(p(1)).prec(p(2).and(p(0).not())),
        ];
        // scripted history: blocks of arrivals
        let blocks: Vec<Vec<(u32, u64)>> = vec![
            vec![(2, 1)],
            vec![(0, 1)],
            vec![(1, 1), (1, 2)],
            vec![],
            vec![(0, 2), (2, 2)],
            vec![(1, 2)],
        ];
        for (i, expr) in exprs.iter().enumerate() {
            let mut rt_opt = RuleTable::new();
            let mut rt_ref = RuleTable::new();
            let name = format!("r{i}");
            rt_opt
                .define(TriggerDef::new(name.clone(), expr.clone()), Timestamp::ZERO)
                .unwrap();
            rt_ref
                .define(TriggerDef::new(name.clone(), expr.clone()), Timestamp::ZERO)
                .unwrap();
            let mut eb = EventBase::new();
            let mut opt = TriggerSupport::optimized();
            for block in &blocks {
                for &(ty, oid) in block {
                    eb.append(et(ty), Oid(oid));
                }
                eb.tick();
                let now = eb.now();
                opt.check(&mut rt_opt, &eb, now);
                let got = rt_opt.state(&name).unwrap().triggered;
                let want = is_triggered(rt_ref.def(&name).unwrap(), rt_ref.state(&name).unwrap(), &eb, now);
                assert_eq!(got, want, "expr {expr} diverged at now={now}");
                // once triggered, both consider the rule to keep comparing
                if want {
                    rt_opt.mark_considered(rt_opt.index_of(&name).unwrap(), now);
                    rt_ref.mark_considered(rt_ref.index_of(&name).unwrap(), now);
                }
            }
        }
    }

    #[test]
    fn unoptimized_support_equivalent_to_optimized() {
        let expr = p(1).and(p(0).not()).or(p(2).iprec(p(1)));
        let blocks: Vec<Vec<(u32, u64)>> =
            vec![vec![(1, 1)], vec![(0, 1)], vec![(2, 1)], vec![(1, 1)]];
        let mut rt_a = RuleTable::new();
        let mut rt_b = RuleTable::new();
        rt_a.define(TriggerDef::new("r", expr.clone()), Timestamp::ZERO).unwrap();
        rt_b.define(TriggerDef::new("r", expr), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        for block in blocks {
            for (ty, oid) in block {
                eb.append(et(ty), Oid(oid));
            }
            let now = eb.now();
            TriggerSupport::optimized().check(&mut rt_a, &eb, now);
            TriggerSupport::unoptimized().check(&mut rt_b, &eb, now);
            assert_eq!(
                rt_a.state("r").unwrap().triggered,
                rt_b.state("r").unwrap().triggered
            );
            if rt_a.state("r").unwrap().triggered {
                rt_a.mark_considered(rt_a.index_of("r").unwrap(), now);
                rt_b.mark_considered(rt_b.index_of("r").unwrap(), now);
            }
        }
    }

    #[test]
    fn rules_probe_only_their_own_change_points() {
        // a block of 8 arrivals on channels the rule never mentions, then
        // one of its own type: the reference set is all 9 instants, while
        // the negation-free rule probes `now` alone
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("r", p(0)), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        for n in 0..8u64 {
            eb.append(et(5), Oid(n + 1));
        }
        eb.append(et(0), Oid(1));
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        assert_eq!(rt.triggered(), ["r"]);
        assert_eq!(
            crate::trigger::probe_instants(&eb, Timestamp::ZERO, eb.now()).len(),
            9
        );
        assert_eq!(sup.stats.ts_probes, 1);

        // an arrival-sensitive rule, (-=A) ,= B, also probes where an
        // object first enters its window through any channel
        let def = TriggerDef::new("w", p(0).inot().ior(p(1)));
        let mut rt = RuleTable::new();
        rt.define(def.clone(), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1)); // t1: o1 enters, but A holds for it
        eb.append(et(5), Oid(1)); // t2: o1 seen before, not a change point
        eb.append(et(5), Oid(1)); // t3: likewise
        eb.append(et(5), Oid(2)); // t4: o2 enters the domain, -=A holds
        eb.append(et(0), Oid(2)); // t5: -=A fails for o2, A is Δ⁻ only
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        assert_eq!(rt.triggered(), ["w"]);
        let st = RuleState::new(&def, Timestamp::ZERO);
        assert!(is_triggered(&def, &st, &eb, eb.now()));
        // t1, then the witness at t4; neither t2, t3 nor a successor
        assert_eq!(sup.stats.ts_probes, 2);
    }

    #[test]
    fn negation_free_rule_probes_once_per_round() {
        let mut rt = RuleTable::new();
        rt.define(
            TriggerDef::new("r", p(0).prec(p(1)).or(p(2).iand(p(3)))),
            Timestamp::ZERO,
        )
        .unwrap();
        let mut eb = EventBase::new();
        let mut sup = TriggerSupport::optimized();
        let blocks: [&[(u32, u64)]; 3] = [
            &[(1, 1), (0, 1), (2, 2), (5, 3)],
            &[(3, 1), (0, 2), (5, 1)],
            &[(1, 2), (5, 2)],
        ];
        for (round, block) in blocks.iter().enumerate() {
            for &(ty, oid) in *block {
                eb.append(et(ty), Oid(oid));
            }
            sup.check(&mut rt, &eb, eb.now());
            assert_eq!(sup.stats.ts_probes, round as u64 + 1);
        }
        // A at t2 precedes B at t8: the one probe at `now` sees it
        assert_eq!(rt.triggered(), ["r"]);
        let st = RuleState::new(rt.def("r").unwrap(), Timestamp::ZERO);
        assert!(is_triggered(rt.def("r").unwrap(), &st, &eb, eb.now()));
    }

    #[test]
    fn negated_type_arrivals_are_no_change_points() {
        // A + -B: V(E) = {Δ⁺A, Δ⁻B}, so a B arrival can only deactivate
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("r", p(0).and(p(1).not())), Timestamp::ZERO)
            .unwrap();
        let mut eb = EventBase::new();
        for (ty, oid) in [(1, 1), (2, 1), (1, 2), (0, 1), (1, 3), (2, 2)] {
            eb.append(et(ty), Oid(oid));
        }
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        // the first instant t1, A's stamp t4 and `now` t6; B at t3 and t5
        // never (the reference set probes all six instants)
        assert_eq!(sup.stats.ts_probes, 3);
        assert!(rt.triggered().is_empty(), "B at t1 and t3 precede A");
        let def = rt.def("r").unwrap();
        let st = RuleState::new(def, Timestamp::ZERO);
        assert!(!is_triggered(def, &st, &eb, eb.now()));
    }

    #[test]
    fn widened_rule_that_is_not_arrival_sensitive_gets_no_fresh_object_probe() {
        // (-=A) <= B widens its domain to every object in the window, but
        // a fresh object still needs a B to be active
        let def = TriggerDef::new("r", p(0).inot().iprec(p(1)));
        let rule = CompiledRule::compile(def.clone()).unwrap();
        let plan = chimera_calculus::Plan::compile(&def.events).unwrap();
        assert!(plan.boundaries().iter().any(|b| b.widens()));
        assert!(!rule.filter.arrival_sensitive());
        let mut rt = RuleTable::new();
        rt.install(rule, Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1)); // t1
        eb.append(et(5), Oid(2)); // t2: o2 enters, no probe
        eb.append(et(5), Oid(3)); // t3: o3 enters, no probe
        eb.append(et(1), Oid(2)); // t4: B(o2) with -=A holding: active
        eb.append(et(5), Oid(4)); // t5: o4 enters, no probe
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        assert_eq!(rt.triggered(), ["r"]);
        assert!(is_triggered(
            &def,
            &RuleState::new(&def, Timestamp::ZERO),
            &eb,
            eb.now()
        ));
        // t1, then the witness at t4; neither t2 nor t3
        assert_eq!(sup.stats.ts_probes, 2);
    }

    #[test]
    fn reset_keeps_compiled_plan_and_clears_runtime_state() {
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("r", p(0).iand(p(1))), Timestamp::ZERO)
            .unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        eb.append(et(1), Oid(1));
        let mut sup = TriggerSupport::optimized();
        sup.check(&mut rt, &eb, eb.now());
        assert!(rt.state("r").unwrap().triggered);
        rt.reset_all(eb.now());
        let st = rt.state("r").unwrap();
        assert!(!st.triggered && !st.witness);
        assert_eq!(st.checked_upto, eb.now());
        // the rule still evaluates correctly after the in-place reset
        eb.append(et(0), Oid(2));
        eb.append(et(1), Oid(2));
        sup.check(&mut rt, &eb, eb.now());
        assert_eq!(rt.triggered(), ["r"]);
    }

    #[test]
    fn reset_all_clears_state() {
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("r", p(0)), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1));
        TriggerSupport::optimized().check(&mut rt, &eb, eb.now());
        assert!(rt.state("r").unwrap().triggered);
        rt.reset_all(eb.now());
        assert!(!rt.state("r").unwrap().triggered);
        assert_eq!(rt.state("r").unwrap().last_consideration, eb.now());
    }

    /// Each rule's stamps, witness and plan scratch, in definition order.
    type TableState = Vec<(
        String,
        bool,
        bool,
        Timestamp,
        Timestamp,
        Timestamp,
        Vec<chimera_calculus::plan::BoundaryScratchView>,
    )>;

    fn table_state(rt: &RuleTable) -> TableState {
        rt.iter()
            .map(|(rule, st)| {
                (
                    rule.def.name.clone(),
                    st.triggered,
                    st.witness,
                    st.last_consideration,
                    st.last_consumption,
                    st.checked_upto,
                    st.plan.boundary_scratch(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_sharing_compiled_rules_keep_their_own_state() {
        // two tables install the same compiled rules and see different
        // blocks; each must stay identical, scratch included, to a table
        // defined from its own `TriggerDef`s, so nothing one table does
        // to a shared rule moves the other's state
        let exprs = [
            p(0),
            p(1).and(p(0).not()),
            p(0).iand(p(1)),
            p(0).iand(p(1)).inot().ior(p(2)),
            p(0).iprec(p(1)),
        ];
        let defs: Vec<TriggerDef> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let mut d = TriggerDef::new(format!("r{i}"), e.clone());
                if i % 2 == 1 {
                    d.consumption = ConsumptionMode::Preserving;
                }
                d
            })
            .collect();
        let compiled: Vec<Arc<CompiledRule>> = defs
            .iter()
            .map(|d| CompiledRule::compile(d.clone()).unwrap())
            .collect();
        let mut shared = [RuleTable::new(), RuleTable::new()];
        let mut own = [RuleTable::new(), RuleTable::new()];
        for k in 0..2 {
            for (rule, def) in compiled.iter().zip(&defs) {
                shared[k].install(Arc::clone(rule), Timestamp::ZERO).unwrap();
                own[k].define(def.clone(), Timestamp::ZERO).unwrap();
            }
        }
        for (i, rule) in compiled.iter().enumerate() {
            assert_eq!(Arc::strong_count(rule), 3);
            assert!(Arc::ptr_eq(shared[0].at(i).0, shared[1].at(i).0));
        }
        // one block per table per step: (type, oid) arrivals
        let steps: [[Vec<(u32, u64)>; 2]; 5] = [
            [vec![(0, 1)], vec![(1, 1), (1, 2)]],
            [vec![(1, 1)], vec![(0, 3)]],
            [vec![(2, 2), (0, 2)], vec![(1, 3)]],
            [vec![], vec![(0, 1)]],
            [vec![(1, 2)], vec![(2, 1)]],
        ];
        let mut ebs = [EventBase::new(), EventBase::new()];
        let mut sup_shared = [TriggerSupport::optimized(), TriggerSupport::optimized()];
        let mut sup_own = [TriggerSupport::optimized(), TriggerSupport::optimized()];
        let mut diverged = false;
        for (step, blocks) in steps.iter().enumerate() {
            for k in 0..2 {
                for &(ty, oid) in &blocks[k] {
                    ebs[k].append(et(ty), Oid(oid));
                }
                ebs[k].tick();
                let now = ebs[k].now();
                sup_shared[k].check(&mut shared[k], &ebs[k], now);
                sup_own[k].check(&mut own[k], &ebs[k], now);
                // every rule triggered earlier was considered, so these
                // are the rules this round triggered
                let newly: Vec<String> = shared[k]
                    .triggered()
                    .iter()
                    .map(|n| n.to_string())
                    .collect();
                assert_eq!(newly, own[k].triggered());
                assert_eq!(table_state(&shared[k]), table_state(&own[k]), "table {k}, step {step}");
                for name in &newly {
                    shared[k].mark_considered(shared[k].index_of(name).unwrap(), now);
                    own[k].mark_considered(own[k].index_of(name).unwrap(), now);
                }
            }
            diverged |= table_state(&shared[0]) != table_state(&shared[1]);
        }
        assert!(diverged, "the two streams must leave different state");
        for k in 0..2 {
            assert_eq!(sup_shared[k].stats, sup_own[k].stats);
        }
    }
}
