//! The engine: Block Executor + Event Handler + rule processing loop.
//!
//! Execution model (§2, §5):
//!
//! * a transaction is a sequence of **non-interruptible blocks** — user
//!   *transaction lines* ([`Engine::exec_block`]) and *rule actions*;
//! * after each block the Block Executor hands the generated occurrences
//!   to the Event Handler, which stores them in the Event Base; the
//!   Trigger Support then determines newly triggered rules;
//! * while an **immediate** rule is triggered, the highest-priority one is
//!   *considered*: its condition is evaluated over its consumption window,
//!   the rule is detriggered, and — if the condition produced bindings —
//!   its action executes as the next block (possibly triggering more
//!   rules, including the rule itself through the events its own action
//!   generates);
//! * `commit` drains **deferred** rules the same way (immediate rules
//!   re-triggered by deferred actions are processed too), then commits the
//!   store;
//! * `rollback` undoes all store changes and resets rule state.
//!
//! A configurable step limit guards against non-terminating cascades.
//!
//! ## The batched, arrival-incremental ingestion pipeline
//!
//! Event expressions are never re-interpreted on the hot path: every rule
//! is a [`CompiledRule`] carrying the compiled evaluation plans
//! (`chimera_calculus::plan`) of its event expression and of its
//! condition's `occurred` formulas, and the engine's rule-table state
//! holds a private scratchpad over each. The Trigger Support evaluates
//! all `ts` probes through the first; consideration evaluates the
//! condition through the others. A compiled rule is immutable, so
//! engines share it: [`Engine::define_trigger`] compiles and installs,
//! and [`Engine::install_rule`] installs a rule compiled elsewhere — the
//! multi-tenant runtime compiles its trigger set once and every tenant
//! engine installs it. (`at` formulas are enumerated by the recursive
//! evaluator at each consideration.)
//!
//! Arrivals are processed **per block, not per occurrence**: a whole
//! transaction line (or external batch handed to
//! [`Engine::raise_external`]) is appended to the Event Base as one
//! epoch delta, and the Trigger Support then runs a single check round
//! over it — one relevance-filter pass per round, each surviving rule
//! probed only at its own change points, and each rule's plan *advancing*
//! its per-object scratch state by exactly that delta
//! (`EventBase::occurrences_since` / `type_occurrences_since`) instead of
//! rebuilding it from the window.
//! Rule considerations move a rule's window lower bound, which is the
//! one case where its plan falls back to a cold rebuild. Transaction
//! resets ([`Engine::begin`], [`Engine::rollback`]) keep every rule's
//! plan scratchpads — only the runtime trigger state is cleared. `begin`
//! also cuts the Event Base to the paper's per-transaction extent
//! ([`EventBase::truncate`]); the scratchpads, keyed on the base's
//! `(uid, cut, epoch)`, go cold by themselves.

use crate::action_exec::execute_actions;
use crate::error::ExecError;
use crate::formula::{evaluate_condition, Binding};
use crate::Result;
use chimera_events::{EventBase, EventOccurrence, EventType, Timestamp};
use chimera_model::{
    AttrId, ClassId, Mutation, MutationKind, Object, ObjectStore, Oid, Schema, Value,
};
use chimera_rules::{CompiledRule, CouplingMode, RuleTable, TriggerDef, TriggerSupport};
use std::sync::Arc;

/// One operation of a user transaction line.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Create an object.
    Create {
        /// Class of the new object.
        class: ClassId,
        /// Attribute initializers.
        inits: Vec<(AttrId, Value)>,
    },
    /// Modify an attribute.
    Modify {
        /// Target object.
        oid: Oid,
        /// Attribute slot.
        attr: AttrId,
        /// New value.
        value: Value,
    },
    /// Delete an object.
    Delete {
        /// Target object.
        oid: Oid,
    },
    /// Migrate an object to a subclass.
    Specialize {
        /// Target object.
        oid: Oid,
        /// Destination class.
        class: ClassId,
    },
    /// Migrate an object to a superclass.
    Generalize {
        /// Target object.
        oid: Oid,
        /// Destination class.
        class: ClassId,
    },
    /// Query a class extent; each retrieved object produces a `select`
    /// event when [`EngineConfig::emit_select_events`] is on.
    Select {
        /// Queried class.
        class: ClassId,
        /// Include subclasses?
        deep: bool,
    },
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum rule considerations per transaction (cascade guard).
    pub max_rule_steps: usize,
    /// Emit `select` events from [`Op::Select`] queries.
    pub emit_select_events: bool,
    /// Use the §5.1 static optimization in the Trigger Support.
    pub use_static_optimization: bool,
    /// Worker threads for the probe phase of each trigger check round.
    /// `1` (the default) runs the classic sequential round; `n > 1`
    /// splits the rule table's probe work across `n` scoped threads over
    /// the block's shared arrival delta — observationally identical to
    /// the sequential round (the parallel path is the same per-rule code
    /// run in chunks; see `chimera_rules::TriggerSupport::check_workers`).
    pub check_workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rule_steps: 10_000,
            emit_select_events: true,
            use_static_optimization: true,
            check_workers: 1,
        }
    }
}

/// Engine work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Non-interruptible blocks executed (transaction lines + actions).
    pub blocks: u64,
    /// Event occurrences appended to the EB.
    pub events: u64,
    /// Rule considerations (condition evaluations).
    pub considerations: u64,
    /// Rule executions (actions that actually ran).
    pub executions: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back.
    pub rollbacks: u64,
}

/// The Chimera engine.
#[derive(Debug)]
pub struct Engine {
    schema: Schema,
    store: ObjectStore,
    eb: EventBase,
    rules: RuleTable,
    support: TriggerSupport,
    config: EngineConfig,
    in_txn: bool,
    txn_start: Timestamp,
    steps_this_txn: usize,
    stats: EngineStats,
}

impl Engine {
    /// Engine over a schema, default configuration.
    pub fn new(schema: Schema) -> Self {
        Engine::with_config(schema, EngineConfig::default())
    }

    /// Engine with explicit configuration.
    pub fn with_config(schema: Schema, config: EngineConfig) -> Self {
        let support = if config.use_static_optimization {
            TriggerSupport::optimized()
        } else {
            TriggerSupport::unoptimized()
        }
        .with_workers(config.check_workers);
        Engine {
            schema,
            store: ObjectStore::new(),
            eb: EventBase::new(),
            rules: RuleTable::new(),
            support,
            config,
            in_txn: false,
            txn_start: Timestamp::ZERO,
            steps_this_txn: 0,
            stats: EngineStats::default(),
        }
    }

    /// Engine over a previously recovered store, with an empty event base
    /// and fresh rule state. The runtime's snapshot restore and
    /// rehydration then reposition the event base and replay its live
    /// tail with [`Engine::restore_event_log`], and overlay the rule
    /// stamps with [`Engine::restore_rule_state`].
    pub fn with_restored_store(schema: Schema, store: ObjectStore, config: EngineConfig) -> Self {
        let mut engine = Engine::with_config(schema, config);
        engine.store = store;
        engine
    }

    /// Rebuild a snapshotted event base without running reactions or
    /// touching the work counters: position the empty base at logical
    /// length `cut` (its [`EventBase::cut`]), then replay the live
    /// `tail`. The engine never ticks its clock without an occurrence, so
    /// eids and timestamps are both dense per append: the clock at the
    /// cut is stamp `cut`, and replaying the `(type, oid)` pairs
    /// reproduces the live log bit-identically. Recovery calls this on a
    /// freshly restored engine *before* re-applying any logged jobs; the
    /// restored rule stamps are overlaid afterwards with
    /// [`Engine::restore_rule_state`].
    pub fn restore_event_log(&mut self, cut: u64, tail: &[(EventType, Oid)]) {
        self.eb.resume_at(cut, Timestamp(cut));
        for &(ty, oid) in tail {
            self.eb.append(ty, oid);
        }
    }

    /// Overwrite the work counters with recovered values (they are not
    /// derivable from the store/event base alone — e.g. rollbacks leave
    /// no trace).
    pub fn restore_stats(&mut self, stats: EngineStats) {
        self.stats = stats;
    }

    /// Overwrite one rule's processing stamps with recovered values.
    /// Used after re-installing the rule (installation stamps the state
    /// with the *current* instant, which is wrong after an event-log
    /// restore). The compiled rule is shared and untouched here, and the
    /// plan scratchpads stay as installation left them: empty.
    pub fn restore_rule_state(
        &mut self,
        name: &str,
        triggered: bool,
        last_consideration: Timestamp,
        last_consumption: Timestamp,
        checked_upto: Timestamp,
        witness: bool,
    ) -> Result<()> {
        let state = self.rules.state_mut(name)?;
        state.triggered = triggered;
        state.last_consideration = last_consideration;
        state.last_consumption = last_consumption;
        state.checked_upto = checked_upto;
        state.witness = witness;
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }
    /// The event base (read-only).
    pub fn event_base(&self) -> &EventBase {
        &self.eb
    }
    /// The object store (read-only; mutations go through blocks/actions).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }
    /// The rule table (read-only).
    pub fn rules(&self) -> &RuleTable {
        &self.rules
    }
    /// Work counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
    /// Trigger-support counters (ts probes, filter skips).
    pub fn support_stats(&self) -> chimera_rules::table::SupportStats {
        self.support.stats
    }
    /// Share a probe worker pool with other engines. The multi-tenant
    /// runtime installs one pool per *shard* on every tenant engine the
    /// shard owns, so parked probe threads scale with shards ×
    /// (`check_workers` − 1), not with tenants. Purely a resource-sharing
    /// knob: check-round results are identical either way.
    pub fn use_shared_probe_pool(&mut self, pool: chimera_rules::SharedProbePool) {
        self.support.use_shared_pool(pool);
    }
    /// Is a transaction active?
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Define a trigger: compile it, then [`Engine::install_rule`].
    pub fn define_trigger(&mut self, def: TriggerDef) -> Result<()> {
        self.install_rule(CompiledRule::compile(def)?)
    }

    /// Install a compiled rule, shared with whoever else holds it.
    /// Allowed at any time; the rule starts observing events from the
    /// current instant.
    pub fn install_rule(&mut self, rule: Arc<CompiledRule>) -> Result<()> {
        self.rules.install(rule, self.eb.now())?;
        Ok(())
    }

    /// Drop a trigger.
    pub fn drop_trigger(&mut self, name: &str) -> Result<()> {
        self.rules.drop_rule(name)?;
        Ok(())
    }

    /// Begin a transaction. The Event Base is per-transaction, so this
    /// first truncates it: no rule window, `ts` probe or `V(E)`
    /// check of the new transaction reaches an older occurrence, and the
    /// base holds at most the last transaction's occurrences in between.
    /// Only `begin` cuts: after `commit` or `rollback` the finished
    /// transaction's occurrences stay readable until the next one starts.
    pub fn begin(&mut self) -> Result<()> {
        if self.in_txn {
            return Err(ExecError::TransactionActive);
        }
        self.store.begin()?;
        self.eb.truncate();
        self.in_txn = true;
        self.steps_this_txn = 0;
        self.txn_start = self.eb.now();
        self.rules.reset_all(self.txn_start);
        Ok(())
    }

    /// Execute one transaction line (a non-interruptible block of
    /// operations), then run the reaction loop for immediate rules.
    /// Returns the occurrences generated by the line itself.
    pub fn exec_block(&mut self, ops: &[Op]) -> Result<Vec<EventOccurrence>> {
        if !self.in_txn {
            return Err(ExecError::NoActiveTransaction);
        }
        let mut muts = Vec::new();
        for op in ops {
            match op {
                Op::Create { class, inits } => {
                    muts.push(self.store.create(&self.schema, *class, inits)?);
                }
                Op::Modify { oid, attr, value } => {
                    muts.push(self.store.modify(&self.schema, *oid, *attr, value.clone())?);
                }
                Op::Delete { oid } => {
                    muts.push(self.store.delete(*oid)?);
                }
                Op::Specialize { oid, class } => {
                    muts.push(self.store.specialize(&self.schema, *oid, *class)?);
                }
                Op::Generalize { oid, class } => {
                    muts.push(self.store.generalize(&self.schema, *oid, *class)?);
                }
                Op::Select { class, deep } => {
                    let (_, select_muts) =
                        self.store.select(&self.schema, *class, *deep, |_| true)?;
                    if self.config.emit_select_events {
                        muts.extend(select_muts);
                    }
                }
            }
        }
        self.stats.blocks += 1;
        let occs = self.handle_events(&muts);
        self.react(CouplingMode::Immediate)?;
        Ok(occs)
    }

    /// Deliver external event occurrences (the HiPAC-style extension
    /// point: clock or application events) as one non-interruptible
    /// block, then run the reaction loop for immediate rules.
    ///
    /// External occurrences do not touch the object store; each is
    /// recorded against the given pseudo-object (use `Oid(0)` for
    /// object-less events such as clock ticks — the store never allocates
    /// it).
    pub fn raise_external(
        &mut self,
        events: &[(ClassId, u32, Oid)],
    ) -> Result<Vec<EventOccurrence>> {
        if !self.in_txn {
            return Err(ExecError::NoActiveTransaction);
        }
        let mut occs = Vec::with_capacity(events.len());
        for &(class, channel, oid) in events {
            self.schema.class(class)?;
            occs.push(self.eb.append(EventType::external(class, channel), oid));
        }
        self.stats.blocks += 1;
        self.stats.events += occs.len() as u64;
        self.react(CouplingMode::Immediate)?;
        Ok(occs)
    }

    /// Commit: drain deferred rules (§2 — "if the rule is deferred it is
    /// suspended until the commit command"), then commit the store.
    pub fn commit(&mut self) -> Result<()> {
        if !self.in_txn {
            return Err(ExecError::NoActiveTransaction);
        }
        self.react(CouplingMode::Deferred)?;
        self.store.commit()?;
        self.in_txn = false;
        self.stats.commits += 1;
        Ok(())
    }

    /// Rollback: undo every store change, reset rule state.
    pub fn rollback(&mut self) -> Result<()> {
        if !self.in_txn {
            return Err(ExecError::NoActiveTransaction);
        }
        self.store.rollback()?;
        self.rules.reset_all(self.eb.now());
        self.in_txn = false;
        self.stats.rollbacks += 1;
        Ok(())
    }

    /// Read-only object access (valid inside or outside transactions).
    pub fn get_object(&self, oid: Oid) -> Result<&Object> {
        Ok(self.store.get(oid)?)
    }

    /// Read an attribute by name.
    pub fn read_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        let obj = self.store.get(oid)?;
        let aid = self.schema.attr_by_name(obj.class, attr)?;
        Ok(self.store.read_attr(oid, aid)?.clone())
    }

    /// OIDs of the (deep) extent of a class.
    pub fn extent(&self, class: ClassId) -> Vec<Oid> {
        self.store.extent_deep(&self.schema, class)
    }

    /// The Event Handler: append mutations to the EB as occurrences.
    fn handle_events(&mut self, muts: &[Mutation]) -> Vec<EventOccurrence> {
        let mut occs = Vec::with_capacity(muts.len());
        for m in muts {
            let ty = match m.kind {
                MutationKind::Create => EventType::create(m.class),
                MutationKind::Delete => EventType::delete(m.class),
                MutationKind::Modify(attr) => EventType::modify(m.class, attr),
                MutationKind::Generalize => EventType::generalize(m.class),
                MutationKind::Specialize => EventType::specialize(m.class),
                MutationKind::Select => EventType::select(m.class),
            };
            occs.push(self.eb.append(ty, m.oid));
        }
        self.stats.events += occs.len() as u64;
        occs
    }

    /// The reaction loop. For `Immediate`, considers immediate rules until
    /// none is triggered; for `Deferred` (commit time), drains deferred
    /// rules *and* any immediate rules their actions re-trigger.
    fn react(&mut self, phase: CouplingMode) -> Result<()> {
        loop {
            self.support.check(&mut self.rules, &self.eb, self.eb.now());
            let next = match phase {
                CouplingMode::Immediate => self.rules.select_next(CouplingMode::Immediate),
                CouplingMode::Deferred => self
                    .rules
                    .select_next(CouplingMode::Immediate)
                    .or_else(|| self.rules.select_next(CouplingMode::Deferred)),
            };
            let Some(idx) = next else { break };
            self.steps_this_txn += 1;
            if self.steps_this_txn > self.config.max_rule_steps {
                return Err(ExecError::RuleLimitExceeded {
                    limit: self.config.max_rule_steps,
                });
            }
            self.consider_and_execute(idx)?;
        }
        Ok(())
    }

    /// Consideration + (possibly) execution of the rule in slot `idx`.
    fn consider_and_execute(&mut self, idx: usize) -> Result<()> {
        let now = self.eb.now();
        let (rule, state) = self.rules.at_mut(idx);
        let window = state.condition_window(now);
        let bindings: Vec<Binding> = evaluate_condition(
            &rule.def.condition,
            &mut state.occurred,
            &self.schema,
            &self.store,
            &self.eb,
            window,
        )?;
        // detrigger exactly at consideration; events generated by the
        // action below are *after* this instant and can re-trigger.
        self.rules.mark_considered(idx, now);
        self.stats.considerations += 1;
        if bindings.is_empty() {
            return Ok(());
        }
        let actions = &self.rules.at(idx).0.def.actions;
        let muts = execute_actions(actions, &bindings, &self.schema, &mut self.store)?;
        self.stats.executions += 1;
        self.stats.blocks += 1;
        self.handle_events(&muts);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_calculus::EventExpr;
    use chimera_model::{AttrDef, AttrType, SchemaBuilder};
    use chimera_rules::condition::{CmpOp, Condition, Formula, Term, VarDecl};
    use chimera_rules::{ActionStmt, ConsumptionMode};

    fn stock_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        b.class(
            "stock",
            None,
            vec![
                AttrDef::new("quantity", AttrType::Integer),
                AttrDef::with_default("max_quantity", AttrType::Integer, Value::Int(100)),
                AttrDef::with_default("min_quantity", AttrType::Integer, Value::Int(0)),
            ],
        )
        .unwrap();
        b.build()
    }

    /// The paper's §2 example rule, end to end:
    ///
    /// ```text
    /// define immediate trigger checkStockQty for stock
    ///   events create
    ///   condition stock(S), occurred(create, S),
    ///             S.quantity > S.max_quantity
    ///   action   modify(stock.quantity, S, S.max_quantity)
    /// end
    /// ```
    fn check_stock_qty(schema: &Schema) -> TriggerDef {
        let stock = schema.class_by_name("stock").unwrap();
        let mut def = TriggerDef::new(
            "checkStockQty",
            EventExpr::prim(EventType::create(stock)),
        );
        def.target = Some(stock);
        def.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![
                Formula::Occurred {
                    expr: EventExpr::prim(EventType::create(stock)),
                    var: "S".into(),
                },
                Formula::Compare {
                    lhs: Term::attr("S", "quantity"),
                    op: CmpOp::Gt,
                    rhs: Term::attr("S", "max_quantity"),
                },
            ],
        };
        def.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "quantity".into(),
            value: Term::attr("S", "max_quantity"),
        }];
        def
    }

    #[test]
    fn paper_example_rule_end_to_end() {
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let mut engine = Engine::new(schema);
        engine.define_trigger(check_stock_qty(engine.schema())).unwrap();
        engine.begin().unwrap();
        let occs = engine
            .exec_block(&[
                Op::Create {
                    class: stock,
                    inits: vec![(q, Value::Int(250))],
                },
                Op::Create {
                    class: stock,
                    inits: vec![(q, Value::Int(50))],
                },
            ])
            .unwrap();
        assert_eq!(occs.len(), 2);
        let over = occs[0].oid;
        let under = occs[1].oid;
        // rule fired set-oriented: only the violating object clamped
        assert_eq!(engine.read_attr(over, "quantity").unwrap(), Value::Int(100));
        assert_eq!(engine.read_attr(under, "quantity").unwrap(), Value::Int(50));
        assert_eq!(engine.stats().considerations, 1);
        assert_eq!(engine.stats().executions, 1);
        engine.commit().unwrap();
    }

    #[test]
    fn rule_cascade_via_action_events() {
        // r1 on create(stock) sets quantity to 5; r2 on modify(quantity)
        // with lower priority observes the cascade.
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let mut engine = Engine::new(schema);
        let mut r1 = TriggerDef::new("r1", EventExpr::prim(EventType::create(stock)));
        r1.priority = 10;
        r1.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock)),
                var: "S".into(),
            }],
        };
        r1.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "quantity".into(),
            value: Term::int(5),
        }];
        let mut r2 = TriggerDef::new("r2", EventExpr::prim(EventType::modify(stock, q)));
        r2.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::modify(stock, q)),
                var: "S".into(),
            }],
        };
        r2.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "min_quantity".into(),
            value: Term::int(1),
        }];
        engine.define_trigger(r1).unwrap();
        engine.define_trigger(r2).unwrap();
        engine.begin().unwrap();
        let occs = engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![],
            }])
            .unwrap();
        let oid = occs[0].oid;
        assert_eq!(engine.read_attr(oid, "quantity").unwrap(), Value::Int(5));
        assert_eq!(engine.read_attr(oid, "min_quantity").unwrap(), Value::Int(1));
        assert_eq!(engine.stats().executions, 2);
        engine.commit().unwrap();
    }

    #[test]
    fn deferred_rule_waits_for_commit() {
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let mut engine = Engine::new(schema);
        let mut def = TriggerDef::new("d", EventExpr::prim(EventType::create(stock)));
        def.coupling = CouplingMode::Deferred;
        def.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock)),
                var: "S".into(),
            }],
        };
        def.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "quantity".into(),
            value: Term::int(42),
        }];
        engine.define_trigger(def).unwrap();
        engine.begin().unwrap();
        let occs = engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![],
            }])
            .unwrap();
        let oid = occs[0].oid;
        // not yet executed
        assert_eq!(engine.read_attr(oid, "quantity").unwrap(), Value::Null);
        engine.commit().unwrap();
        assert_eq!(engine.read_attr(oid, "quantity").unwrap(), Value::Int(42));
    }

    #[test]
    fn non_terminating_cascade_hits_limit() {
        // rule on modify(quantity) that modifies quantity: infinite loop.
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let mut engine = Engine::with_config(
            stock_schema(),
            EngineConfig {
                max_rule_steps: 25,
                ..EngineConfig::default()
            },
        );
        let mut def = TriggerDef::new("looper", EventExpr::prim(EventType::modify(stock, q)));
        def.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::modify(stock, q)),
                var: "S".into(),
            }],
        };
        def.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "quantity".into(),
            value: Term::Add(Box::new(Term::attr("S", "quantity")), Box::new(Term::int(1))),
        }];
        engine.define_trigger(def).unwrap();
        engine.begin().unwrap();
        let oid = engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![(q, Value::Int(0))],
            }])
            .unwrap()[0]
            .oid;
        let err = engine
            .exec_block(&[Op::Modify {
                oid,
                attr: q,
                value: Value::Int(1),
            }])
            .unwrap_err();
        assert!(matches!(err, ExecError::RuleLimitExceeded { .. }));
        let _ = schema;
    }

    #[test]
    fn rollback_undoes_rule_effects() {
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let mut engine = Engine::new(schema);
        engine.define_trigger(check_stock_qty(engine.schema())).unwrap();
        engine.begin().unwrap();
        let q = engine.schema().attr_by_name(stock, "quantity").unwrap();
        engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![(q, Value::Int(500))],
            }])
            .unwrap();
        engine.rollback().unwrap();
        assert_eq!(engine.extent(stock).len(), 0);
        assert!(!engine.in_transaction());
    }

    #[test]
    fn composite_event_rule_triggers_once_for_sequence() {
        // trigger on create <= modify(quantity) (same object)
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let q = schema.attr_by_name(stock, "quantity").unwrap();
        let mut engine = Engine::new(schema);
        let mut def = TriggerDef::new(
            "seq",
            EventExpr::prim(EventType::create(stock))
                .iprec(EventExpr::prim(EventType::modify(stock, q))),
        );
        def.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock))
                    .iprec(EventExpr::prim(EventType::modify(stock, q))),
                var: "S".into(),
            }],
        };
        def.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "min_quantity".into(),
            value: Term::int(7),
        }];
        engine.define_trigger(def).unwrap();
        engine.begin().unwrap();
        let oid = engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![],
            }])
            .unwrap()[0]
            .oid;
        // creation alone must not fire the rule
        assert_eq!(engine.stats().executions, 0);
        engine
            .exec_block(&[Op::Modify {
                oid,
                attr: q,
                value: Value::Int(3),
            }])
            .unwrap();
        assert_eq!(engine.stats().executions, 1);
        assert_eq!(engine.read_attr(oid, "min_quantity").unwrap(), Value::Int(7));
        engine.commit().unwrap();
    }

    #[test]
    fn select_events_emitted_when_configured() {
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let mut engine = Engine::new(schema);
        engine.begin().unwrap();
        engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![],
            }])
            .unwrap();
        let occs = engine
            .exec_block(&[Op::Select {
                class: stock,
                deep: true,
            }])
            .unwrap();
        assert_eq!(occs.len(), 1);
        assert_eq!(occs[0].ty, EventType::select(stock));
        engine.commit().unwrap();
    }

    #[test]
    fn external_events_trigger_rules() {
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let mut engine = Engine::new(schema);
        let mut def = TriggerDef::new("onTick", EventExpr::prim(EventType::external(stock, 1)));
        def.actions = vec![ActionStmt::Create {
            class: "stock".into(),
            inits: vec![],
        }];
        engine.define_trigger(def).unwrap();
        // outside a transaction: rejected
        assert!(matches!(
            engine.raise_external(&[(stock, 1, Oid(0))]),
            Err(ExecError::NoActiveTransaction)
        ));
        engine.begin().unwrap();
        let occs = engine.raise_external(&[(stock, 1, Oid(0))]).unwrap();
        assert_eq!(occs.len(), 1);
        assert_eq!(occs[0].ty, EventType::external(stock, 1));
        assert_eq!(occs[0].oid, Oid(0));
        // the rule reacted by creating a stock object
        assert_eq!(engine.extent(stock).len(), 1);
        // unknown channel class is rejected
        assert!(engine.raise_external(&[(ClassId(99), 0, Oid(0))]).is_err());
        engine.commit().unwrap();
    }

    #[test]
    fn transaction_state_errors() {
        let mut engine = Engine::new(stock_schema());
        assert!(matches!(
            engine.exec_block(&[]),
            Err(ExecError::NoActiveTransaction)
        ));
        assert!(matches!(engine.commit(), Err(ExecError::NoActiveTransaction)));
        assert!(matches!(
            engine.rollback(),
            Err(ExecError::NoActiveTransaction)
        ));
        engine.begin().unwrap();
        assert!(matches!(engine.begin(), Err(ExecError::TransactionActive)));
        engine.commit().unwrap();
    }

    #[test]
    fn begin_cuts_the_event_base_and_restore_rebuilds_it() {
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let create = Op::Create {
            class: stock,
            inits: vec![],
        };
        let mut engine = Engine::new(schema.clone());
        engine.begin().unwrap();
        engine.exec_block(&[create.clone(), create.clone()]).unwrap();
        engine.commit().unwrap();
        // commit keeps the finished transaction readable
        assert_eq!((engine.event_base().len(), engine.event_base().live_len()), (2, 2));
        engine.begin().unwrap();
        let eb = engine.event_base();
        assert_eq!((eb.len(), eb.live_len(), eb.cut(), eb.now()), (2, 0, 2, Timestamp(2)));
        let occ = engine.exec_block(&[create]).unwrap()[0];
        assert_eq!((occ.eid.0, occ.ts), (3, Timestamp(3)), "eids and stamps stay dense");
        engine.rollback().unwrap();
        assert_eq!(engine.event_base().live_len(), 1, "rollback does not cut either");

        let tail: Vec<_> = engine.event_base().iter().map(|o| (o.ty, o.oid)).collect();
        let mut restored = Engine::new(schema);
        restored.restore_event_log(engine.event_base().cut(), &tail);
        let (a, b) = (restored.event_base(), engine.event_base());
        assert_eq!((a.len(), a.cut(), a.now()), (b.len(), b.cut(), b.now()));
        assert!(a.iter().eq(b.iter()));
    }

    #[test]
    fn preserving_rule_sees_whole_transaction() {
        // preserving rule counts both creations even after a consideration
        let schema = stock_schema();
        let stock = schema.class_by_name("stock").unwrap();
        let mut engine = Engine::new(schema);
        let mut def = TriggerDef::new("p", EventExpr::prim(EventType::create(stock)));
        def.consumption = ConsumptionMode::Preserving;
        def.condition = Condition {
            decls: vec![VarDecl {
                name: "S".into(),
                class: "stock".into(),
            }],
            formulas: vec![Formula::Occurred {
                expr: EventExpr::prim(EventType::create(stock)),
                var: "S".into(),
            }],
        };
        def.actions = vec![ActionStmt::Modify {
            var: "S".into(),
            attr: "min_quantity".into(),
            value: Term::int(1),
        }];
        engine.define_trigger(def).unwrap();
        engine.begin().unwrap();
        let a = engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![],
            }])
            .unwrap()[0]
            .oid;
        let b = engine
            .exec_block(&[Op::Create {
                class: stock,
                inits: vec![],
            }])
            .unwrap()[0]
            .oid;
        // after the second firing, BOTH objects were (re)bound: preserving
        // keeps the first creation visible.
        assert_eq!(engine.read_attr(a, "min_quantity").unwrap(), Value::Int(1));
        assert_eq!(engine.read_attr(b, "min_quantity").unwrap(), Value::Int(1));
        assert_eq!(engine.stats().executions, 2);
        engine.commit().unwrap();
    }
}
