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
//! rule that survives the filter probes only its **own change points** —
//! the first new instant, `now`, and the stamp and successor of each
//! arrival that can change its value (`trigger::change_points_into`) —
//! rather than every arrival of the block. Each rule's compiled plan
//! advances its arrival-incremental scratch state once for the whole
//! delta, and probe results are additionally memoized across rules
//! sharing an expression (see [`SupportStats`] for the counters).
//!
//! The round is **partitionable**: it runs in three phases — *classify*
//! (sequential: relevance-filter every untriggered rule over the shared
//! arrival scan and collect the rules that must probe), *probe* (each
//! candidate rule evaluates its own compiled plan at its own change
//! points; with [`TriggerSupport::check_workers`] `> 1` the candidates
//! are split across a persistent parked worker pool
//! ([`crate::SharedProbePool`] — shareable across the engines of a
//! runtime shard), the sequential round being the same code path run as
//! a single chunk), and *commit* (sequential: apply the §4.4 predicate in
//! definition order).
//! Per-rule state — the plan scratchpad, the sticky witness, the
//! consumption stamps — is owned by the rule's own table slot, so workers
//! touch disjoint state and share only the event base, the round's
//! arrival scan, the immutable compiled rules, and a read-only snapshot
//! of the cross-rule probe memo;
//! parallel and sequential rounds are observationally identical
//! (`tests/runtime_equivalence.rs` proves it property-by-property).

use crate::modes::CouplingMode;
use crate::trigger::{change_points_into, CompiledRule, RuleState, TriggerDef};
use chimera_calculus::EventExpr;
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
    /// The rule's event expression is ill-formed (§3.2).
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
    /// Definition sequence number (priority tie-break).
    seq: usize,
}

/// The §5 Rule Table: name-indexed compiled rules plus runtime state.
/// Slots are numbered in definition order; [`RuleTable::select_next`]
/// hands out those indices.
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
    /// stamps and a fresh scratchpad over the rule's plan.
    pub fn install(&mut self, rule: Arc<CompiledRule>, now: Timestamp) -> Result<(), RuleError> {
        if self.by_name.contains_key(&rule.def.name) {
            return Err(RuleError::DuplicateRule(rule.def.name.clone()));
        }
        let state = RuleState::installed(&rule, now);
        let seq = self.slots.len();
        self.by_name.insert(rule.def.name.clone(), seq);
        self.slots.push(Slot { rule, state, seq });
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

    /// Mutable rule state by name.
    pub fn state_mut(&mut self, name: &str) -> Result<&mut RuleState, RuleError> {
        let i = self.index_of(name)?;
        Ok(&mut self.slots[i].state)
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
            .max_by_key(|(_, s)| (s.rule.def.priority, std::cmp::Reverse(s.seq)))
            .map(|(i, _)| i)
    }

    /// Record the consideration of the rule in slot `idx` at `now`
    /// (detrigger + consume; panics if `idx` is out of range).
    pub fn mark_considered(&mut self, idx: usize, now: Timestamp) {
        let s = &mut self.slots[idx];
        s.state.considered(&s.rule.def, now);
    }

    /// Reset all rule state for a new transaction starting at `start`:
    /// the stamps only. The compiled rules are shared and immutable, and
    /// each plan scratchpad is kept (it goes cold by itself once the
    /// engine cuts the event base at the transaction start).
    pub fn reset_all(&mut self, start: Timestamp) {
        for s in &mut self.slots {
            s.state.reset(start);
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
    /// `ts` probes answered from the per-epoch cross-rule memo instead of
    /// being evaluated (rules sharing an expression and a window).
    pub probe_memo_hits: u64,
    /// Trigger-support check rounds run (one per non-interruptible block
    /// plus one per reaction-loop iteration).
    pub check_rounds: u64,
}

/// Cross-rule `ts`-probe memo: witness results keyed by expression, then
/// `(window.after, instant)`, valid for one EB epoch.
type ProbeMemo = HashMap<EventExpr, HashMap<(Timestamp, Timestamp), bool>>;

/// Shared arrival state for one `checked_upto` bound within a check
/// round: the dedup'd types of the block's arrival delta (built on first
/// relevance-filter use) and, for each arrival, the stamp of the previous
/// occurrence on its object (built only when a widened rule probes, whose
/// change points include an object's first occurrence in its window).
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

/// One probe worker's private state: the memo entries it discovered this
/// round (merged back into the support's epoch memo afterwards), its
/// share of the probe counters, and the change-point buffer its rules
/// reuse. Workers read the pre-round memo snapshot and their own fresh
/// entries; values are deterministic, so duplicated evaluation across
/// workers can change counters but never outcomes.
#[derive(Debug, Default)]
struct ProbeScratch {
    memo: ProbeMemo,
    stats: SupportStats,
    probes: Vec<Timestamp>,
}

/// Below this many candidate rules a parallel round is not worth waking
/// the worker pool; the probe phase runs inline instead.
const MIN_PARALLEL_CANDIDATES: usize = 4;

/// The §5 Trigger Support: determines newly activated rules after a block.
#[derive(Debug, Clone, Default)]
pub struct TriggerSupport {
    /// Apply the §5.1 `V(E)` relevance filter (the static optimization).
    pub use_relevance_filter: bool,
    /// Worker threads for the probe phase of a check round. `0` or `1`
    /// runs the round sequentially; `n > 1` splits the candidate rules
    /// across `n` scoped threads (same per-rule code path either way).
    pub check_workers: usize,
    /// Work counters (monotonic; reset with [`TriggerSupport::reset_stats`]).
    pub stats: SupportStats,
    /// Cross-rule `ts`-probe memo, valid for one EB epoch. Rules sharing
    /// an expression and a consideration point (the common case after a
    /// batch arrival) evaluate each probe once; the outer key is cloned
    /// once per expression per epoch, lookups borrow.
    probe_memo: ProbeMemo,
    /// [`EventBase::memo_key`] the memos belong to.
    memo_key: Option<(u64, u64, u64)>,
    /// Reusable per-bound round entries; `rounds_live` are in use this
    /// round, the rest are spare capacity kept for their buffers.
    rounds: Vec<RoundScratch>,
    rounds_live: usize,
    /// Reusable probe plan: `(slot index, round index)` of the rules the
    /// classify phase selected for probing.
    probe_plan: Vec<(usize, usize)>,
    /// Persistent parked worker pool for the parallel probe phase;
    /// spawns `check_workers - 1` threads lazily on the first parallel
    /// round (never any while running sequentially) and parks them
    /// between rounds. Private by default; a multi-tenant shard shares
    /// one pool across its engines ([`TriggerSupport::use_shared_pool`]).
    pool: crate::pool::SharedProbePool,
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

    /// Set the probe-phase worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.check_workers = workers;
        self
    }

    /// Replace the private probe pool with a shared one, so several
    /// engines (the tenants of one runtime shard) park a single set of
    /// worker threads instead of one set each.
    pub fn use_shared_pool(&mut self, pool: crate::pool::SharedProbePool) {
        self.pool = pool;
    }

    /// Zero the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = SupportStats::default();
    }

    /// Check all untriggered rules against the EB state at `now` — one
    /// batched round over the block's whole arrival delta. Returns the
    /// names of newly triggered rules, in definition order.
    pub fn check(&mut self, table: &mut RuleTable, eb: &EventBase, now: Timestamp) -> Vec<String> {
        let key = eb.memo_key();
        if self.memo_key != Some(key) {
            self.memo_key = Some(key);
            self.probe_memo.clear();
        }
        self.stats.check_rounds += 1;
        self.rounds_live = 0;
        self.probe_plan.clear();

        // Phase 1 — classify (sequential): relevance-filter every
        // untriggered rule over the shared per-bound arrival scan and
        // collect the rules that must probe.
        for (idx, slot) in table.slots.iter_mut().enumerate() {
            let st = &mut slot.state;
            if st.triggered {
                continue;
            }
            self.stats.rules_checked += 1;
            let ri = self.round_index(st.checked_upto);
            if self.use_relevance_filter && !st.witness {
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
            if !st.witness && !Window::new(st.checked_upto, now).is_degenerate() {
                self.probe_plan.push((idx, ri));
            }
        }

        // Phase 2 — probe: record the previous-occurrence stamps widened
        // candidates read (reused buffers), then evaluate each candidate's
        // own compiled plan at its change points — inline, or fanned out
        // across a scoped worker pool when configured and worthwhile.
        for &(idx, ri) in &self.probe_plan {
            let r = &mut self.rounds[ri];
            if table.slots[idx].rule.widened && !r.prev_built {
                r.prev_built = true;
                for e in eb.slice(Window::new(r.from, now)) {
                    let before = Window::new(Timestamp::ZERO, Timestamp(e.ts.raw() - 1));
                    r.prev.push(eb.last_of_obj_in(e.oid, before));
                }
            }
        }
        let workers = self.check_workers.max(1).min(self.probe_plan.len());
        if workers > 1 && self.probe_plan.len() >= MIN_PARALLEL_CANDIDATES {
            let rounds = &self.rounds;
            let base_memo = &self.probe_memo;
            let plan = &self.probe_plan;
            // disjoint &mut borrows of exactly the candidate slots, in
            // slot order (probe_plan is built in increasing slot index)
            let mut cands: Vec<(&CompiledRule, &mut RuleState, usize)> =
                Vec::with_capacity(plan.len());
            let mut pi = 0;
            for (idx, slot) in table.slots.iter_mut().enumerate() {
                if pi < plan.len() && plan[pi].0 == idx {
                    cands.push((&slot.rule, &mut slot.state, plan[pi].1));
                    pi += 1;
                }
            }
            let chunk = cands.len().div_ceil(workers);
            // one output slot per chunk, filled by whichever pool thread
            // (or the calling thread) runs the chunk; merged in chunk
            // order below, exactly as the scoped-spawn join used to
            let mut locals: Vec<Option<ProbeScratch>> = Vec::new();
            locals.resize_with(cands.len().div_ceil(chunk), || None);
            let tasks: Vec<crate::pool::Task<'_>> = cands
                .chunks_mut(chunk)
                .zip(locals.iter_mut())
                .map(|(part, out)| -> crate::pool::Task<'_> {
                    Box::new(move || {
                        let mut local = ProbeScratch::default();
                        for (rule, st, ri) in part.iter_mut() {
                            probe_slot(rule, st, eb, now, &rounds[*ri].prev, base_memo, &mut local);
                        }
                        *out = Some(local);
                    })
                })
                .collect();
            self.pool.run(workers, tasks);
            for local in locals.into_iter().flatten() {
                self.absorb(local);
            }
        } else if !self.probe_plan.is_empty() {
            let mut local = ProbeScratch::default();
            for &(idx, ri) in &self.probe_plan {
                let slot = &mut table.slots[idx];
                probe_slot(
                    &slot.rule,
                    &mut slot.state,
                    eb,
                    now,
                    &self.rounds[ri].prev,
                    &self.probe_memo,
                    &mut local,
                );
            }
            self.absorb(local);
        }

        // Phase 3 — commit (sequential): the §4.4 predicate, in
        // definition order. Nothing before this phase sets `triggered`,
        // so a slot that is already triggered here was triggered at entry.
        let mut newly = Vec::new();
        for slot in &mut table.slots {
            let st = &mut slot.state;
            if st.triggered {
                continue;
            }
            if st.witness && eb.any_in(st.trigger_window(now)) {
                st.triggered = true;
                newly.push(slot.rule.def.name.clone());
            }
        }
        newly
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

    /// Merge one probe worker's fresh memo entries and counters back into
    /// the support. Values are deterministic, so entry collisions between
    /// workers always agree.
    fn absorb(&mut self, local: ProbeScratch) {
        for (expr, entries) in local.memo {
            self.probe_memo.entry(expr).or_default().extend(entries);
        }
        self.stats.ts_probes += local.stats.ts_probes;
        self.stats.probe_memo_hits += local.stats.probe_memo_hits;
    }
}

/// Probe one candidate rule at its change points: the §4.4 existential
/// for the newly covered range, through the rule's own compiled plan.
/// `prev` is the round's previous-occurrence stamps for the rule's
/// `checked_upto` bound (see [`RoundScratch`]). Consults the worker's
/// fresh entries first, then the pre-round memo snapshot; records fresh
/// results in the worker's memo. This is the per-rule unit of work both
/// the sequential and the parallel probe phase run.
fn probe_slot(
    rule: &CompiledRule,
    st: &mut RuleState,
    eb: &EventBase,
    now: Timestamp,
    prev: &[Option<Timestamp>],
    base_memo: &ProbeMemo,
    local: &mut ProbeScratch,
) {
    let window = st.trigger_window(now);
    let arrivals = eb.slice(Window::new(st.checked_upto, now));
    let mut probes = std::mem::take(&mut local.probes);
    change_points_into(rule, st, arrivals, prev, now, &mut probes);
    let events = &rule.def.events;
    let mut found = false;
    for &t in &probes {
        let key = (window.after, t);
        let cached = local
            .memo
            .get(events)
            .and_then(|m| m.get(&key))
            .or_else(|| base_memo.get(events).and_then(|m| m.get(&key)))
            .copied();
        let active = match cached {
            Some(hit) => {
                local.stats.probe_memo_hits += 1;
                hit
            }
            None => {
                local.stats.ts_probes += 1;
                let active = st.plan.eval(eb, window, t).is_active();
                local
                    .memo
                    .entry(events.clone())
                    .or_default()
                    .insert(key, active);
                active
            }
        };
        if active {
            found = true;
            break;
        }
    }
    local.probes = probes;
    st.witness = found || st.witness;
    st.checked_upto = now;
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let newly = sup.check(&mut rt, &eb, eb.now());
        assert_eq!(newly, vec!["lo".to_string(), "hi".to_string()]);
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
        assert!(sup.check(&mut rt, &eb, eb.now()).is_empty());
        eb.append(et(0), Oid(2));
        assert_eq!(sup.check(&mut rt, &eb, eb.now()), vec!["r".to_string()]);
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
        // one of its own type: the reference set is all 9 instants, the
        // rule's change points are the first new instant and that stamp
        let mut rt = RuleTable::new();
        rt.define(TriggerDef::new("r", p(0)), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        for n in 0..8u64 {
            eb.append(et(5), Oid(n + 1));
        }
        eb.append(et(0), Oid(1));
        let mut sup = TriggerSupport::optimized();
        assert_eq!(sup.check(&mut rt, &eb, eb.now()), vec!["r".to_string()]);
        assert_eq!(
            crate::trigger::probe_instants(&eb, Timestamp::ZERO, eb.now()).len(),
            9
        );
        assert_eq!(sup.stats.ts_probes, 2);

        // a widened rule, (-=A) ,= B, also probes where an object first
        // enters its window through any channel
        let def = TriggerDef::new("w", p(0).inot().ior(p(1)));
        let mut rt = RuleTable::new();
        rt.define(def.clone(), Timestamp::ZERO).unwrap();
        let mut eb = EventBase::new();
        eb.append(et(0), Oid(1)); // t1: leaf type
        eb.append(et(5), Oid(1)); // t2: o1 seen before, not a change point
        eb.append(et(5), Oid(1)); // t3: likewise
        eb.append(et(5), Oid(2)); // t4: o2 enters the domain, -=A holds
        eb.append(et(0), Oid(2)); // t5: leaf type, -=A fails for o2
        let mut sup = TriggerSupport::optimized();
        assert_eq!(sup.check(&mut rt, &eb, eb.now()), vec!["w".to_string()]);
        let st = RuleState::new(&def, Timestamp::ZERO);
        assert!(is_triggered(&def, &st, &eb, eb.now()));
        // t1, then its successor t2, then the witness at t4; t3 never
        assert_eq!(sup.stats.ts_probes, 3);
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
        assert_eq!(sup.check(&mut rt, &eb, eb.now()), vec!["r".to_string()]);
    }

    #[test]
    fn parallel_round_matches_sequential() {
        // the same scripted run through 1 and 4 probe workers must leave
        // identical rule state after every block (the fan-out is the same
        // per-rule code path run in chunks)
        let exprs = [
            p(0),
            p(0).and(p(1)),
            p(1).and(p(0).not()),
            p(0).prec(p(1)),
            p(0).iand(p(1)),
            p(0).iprec(p(1)),
            p(0).iand(p(1)).inot(),
            p(2).or(p(0)).prec(p(1)),
        ];
        let blocks: Vec<Vec<(u32, u64)>> = vec![
            vec![(0, 1), (1, 2)],
            vec![],
            vec![(1, 1)],
            vec![(2, 3), (0, 3)],
            vec![(1, 3), (0, 2), (1, 2)],
        ];
        let mut rt_seq = RuleTable::new();
        let mut rt_par = RuleTable::new();
        for (i, e) in exprs.iter().enumerate() {
            rt_seq
                .define(TriggerDef::new(format!("r{i}"), e.clone()), Timestamp::ZERO)
                .unwrap();
            rt_par
                .define(TriggerDef::new(format!("r{i}"), e.clone()), Timestamp::ZERO)
                .unwrap();
        }
        let mut seq = TriggerSupport::optimized();
        let mut par = TriggerSupport::optimized().with_workers(4);
        let mut eb_seq = EventBase::new();
        let mut eb_par = EventBase::new();
        for block in &blocks {
            for &(ty, oid) in block {
                eb_seq.append(et(ty), Oid(oid));
                eb_par.append(et(ty), Oid(oid));
            }
            eb_seq.tick();
            eb_par.tick();
            let newly_seq = seq.check(&mut rt_seq, &eb_seq, eb_seq.now());
            let newly_par = par.check(&mut rt_par, &eb_par, eb_par.now());
            assert_eq!(newly_seq, newly_par);
            for i in 0..exprs.len() {
                let name = format!("r{i}");
                let a = rt_seq.state(&name).unwrap();
                let b = rt_par.state(&name).unwrap();
                assert_eq!(
                    (a.triggered, a.witness, a.checked_upto, a.last_consideration),
                    (b.triggered, b.witness, b.checked_upto, b.last_consideration),
                    "rule {name} diverged"
                );
                if a.triggered {
                    rt_seq.mark_considered(rt_seq.index_of(&name).unwrap(), eb_seq.now());
                    rt_par.mark_considered(rt_par.index_of(&name).unwrap(), eb_par.now());
                }
            }
        }
        // every probe decision was made on both sides, memoized or not
        assert_eq!(
            seq.stats.ts_probes + seq.stats.probe_memo_hits,
            par.stats.ts_probes + par.stats.probe_memo_hits,
        );
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
                let newly = sup_shared[k].check(&mut shared[k], &ebs[k], now);
                assert_eq!(newly, sup_own[k].check(&mut own[k], &ebs[k], now));
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
