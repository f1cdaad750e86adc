//! Property suite for §5.1: the statically-optimized Trigger Support is
//! observationally equivalent to the unoptimized one and to the formal
//! §4.4 predicate, over random rules and random multi-block histories.
//! The supports probe each rule only where it can turn active, while the
//! formal predicate probes every stamp and successor of the window, so
//! this suite is also the oracle for the change-point sets. Three lemma
//! properties check the facts those sets rest on directly against
//! `ts_logical`, instant by instant: negation-free activity never falls,
//! an eventless instant keeps the sign of the one before, and activity
//! rises only at an arrival matching `V⁺(E)` or, for an arrival-sensitive
//! expression, at an object's first occurrence in the window.

use chimera::calculus::plan::BoundaryScratchView;
use chimera::calculus::{ts_logical, EventExpr, Plan, RelevanceFilter};
use chimera::events::{EventBase, EventType, Timestamp, Window};
use chimera::model::{ClassId, Oid};
use chimera::rules::table::SupportStats;
use chimera::rules::{
    is_triggered, ConsumptionMode, RuleState, RuleTable, TriggerDef, TriggerSupport,
};
use chimera::workload::{ExprGenConfig, RandomExprGen};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn et(n: u32) -> EventType {
    EventType::external(ClassId(0), n)
}

/// Channels arrivals are drawn from: wider than the rules' 5 event
/// types, so some arrivals match no leaf of any rule and reach a rule
/// only through a widened domain.
const CHANNELS: u32 = 8;

/// Random multi-block run: per-block steps of 0–8 arrivals over
/// `CHANNELS` channels and objects `1..=6`, where `None` is an eventless
/// `eb.tick()` gap.
fn blocks(seed: u64, nblocks: usize) -> Vec<Vec<Option<(u32, u64)>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..nblocks)
        .map(|_| {
            let len = rng.random_range(0..=8usize);
            let mut steps = Vec::new();
            for _ in 0..len {
                if rng.random_bool(0.1) {
                    steps.push(None);
                }
                steps.push(Some((
                    rng.random_range(0..CHANNELS),
                    rng.random_range(1..=6u64),
                )));
            }
            if rng.random_bool(0.5) {
                steps.push(None);
            }
            steps
        })
        .collect()
}

/// Append one block's steps to the event base.
fn play(eb: &mut EventBase, block: &[Option<(u32, u64)>]) {
    for step in block {
        match *step {
            Some((ty, oid)) => {
                eb.append(et(ty), Oid(oid));
            }
            None => {
                eb.tick();
            }
        }
    }
}

/// Play `nblocks` random blocks into one base, and pick a window
/// `(after, now]` over it: `after_pick` places its lower bound anywhere
/// below `now`.
fn history(stream_seed: u64, nblocks: usize, after_pick: u64) -> (EventBase, Window) {
    let mut eb = EventBase::new();
    for block in blocks(stream_seed, nblocks) {
        play(&mut eb, &block);
    }
    eb.tick();
    let now = eb.now();
    (eb, Window::new(Timestamp(after_pick % now.raw()), now))
}

/// `expr`'s activity at every instant of `w`, first instant first.
fn activity(expr: &EventExpr, eb: &EventBase, w: Window) -> Vec<(Timestamp, bool)> {
    (w.after.raw() + 1..=w.upto.raw())
        .map(|t| {
            (
                Timestamp(t),
                ts_logical(expr, eb, w, Timestamp(t)).is_active(),
            )
        })
        .collect()
}

/// Random expressions as the other properties draw them.
fn random_expr(seed: u64, negation_prob: f64) -> EventExpr {
    RandomExprGen::new(ExprGenConfig {
        event_types: 5,
        max_depth: 4,
        instance_prob: 0.4,
        negation_prob,
        seed,
    })
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Lemma for the one-probe check: with neither `-` nor `-=`, an
    /// expression active at `t` stays active at every later instant of
    /// the window, so "active somewhere in the range" is "active at its
    /// end".
    #[test]
    fn negation_free_activity_never_falls(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        nblocks in 1usize..6,
        after_pick in any::<u64>(),
    ) {
        let expr = random_expr(expr_seed, 0.0);
        prop_assert!(!expr.contains_negation());
        let (eb, w) = history(stream_seed, nblocks, after_pick);
        let signs = activity(&expr, &eb, w);
        if let Some(first) = signs.iter().position(|&(_, a)| a) {
            for &(t, a) in &signs[first..] {
                prop_assert!(a, "{} fell at {} after rising at {}", &expr, t, signs[first].0);
            }
        }
    }

    /// Lemma for dropping successor probes: activity reads only the
    /// occurrences up to the instant, so an instant without an arrival
    /// has the sign of the instant before it.
    #[test]
    fn an_eventless_successor_keeps_the_sign(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        nblocks in 1usize..6,
        after_pick in any::<u64>(),
    ) {
        let expr = random_expr(expr_seed, 0.35);
        let (eb, w) = history(stream_seed, nblocks, after_pick);
        for pair in activity(&expr, &eb, w).windows(2) {
            let ((s, before), (t, after)) = (pair[0], pair[1]);
            if !eb.any_in(Window::new(s, t)) {
                prop_assert_eq!(before, after, "{} at {} and {}", &expr, s, t);
            }
        }
    }

    /// Lemma for the signed change points: after the window's first
    /// instant, an expression turns from inactive to active only at an
    /// arrival whose type is in `V⁺(E)` or, if it is arrival sensitive,
    /// at an object's first occurrence in the window.
    #[test]
    fn activity_rises_only_at_an_activating_arrival(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        nblocks in 1usize..6,
        after_pick in any::<u64>(),
    ) {
        let expr = random_expr(expr_seed, 0.35);
        let filter = RelevanceFilter::new(&expr);
        let (eb, w) = history(stream_seed, nblocks, after_pick);
        for pair in activity(&expr, &eb, w).windows(2) {
            let ((s, before), (t, after)) = (pair[0], pair[1]);
            if before || !after {
                continue;
            }
            let arrived = eb.slice(Window::new(s, t));
            prop_assert_eq!(arrived.len(), 1, "{} rose at {} without an arrival", &expr, t);
            let e = arrived[0];
            let fresh = eb.last_of_obj_in(e.oid, Window::new(w.after, s)).is_none();
            prop_assert!(
                filter.activating().contains(&e.ty) || (filter.arrival_sensitive() && fresh),
                "{} rose at {} on {:?}",
                &expr,
                t,
                e
            );
        }
    }

    /// After every block, the optimized support's `triggered` flag equals
    /// the unoptimized support's AND the formal predicate's value; both
    /// supports then consider triggered rules so consumption stays in
    /// lock-step.
    #[test]
    fn optimized_equals_unoptimized_equals_formal(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        nblocks in 1usize..10,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 5,
            max_depth: 4,
            instance_prob: 0.3,
            negation_prob: 0.35,
            seed: expr_seed,
        });
        let expr: EventExpr = g.generate();

        let mut rt_opt = RuleTable::new();
        let mut rt_raw = RuleTable::new();
        rt_opt.define(TriggerDef::new("r", expr.clone()), Timestamp::ZERO).unwrap();
        rt_raw.define(TriggerDef::new("r", expr.clone()), Timestamp::ZERO).unwrap();
        let mut sup_opt = TriggerSupport::optimized();
        let mut sup_raw = TriggerSupport::unoptimized();

        // reference rule state for the from-scratch predicate
        let ref_def = TriggerDef::new("r", expr.clone());
        let mut ref_state = RuleState::new(&ref_def, Timestamp::ZERO);

        let mut eb = EventBase::new();
        for block in blocks(stream_seed, nblocks) {
            play(&mut eb, &block);
            let now = eb.now();
            sup_opt.check(&mut rt_opt, &eb, now);
            sup_raw.check(&mut rt_raw, &eb, now);
            let opt = rt_opt.state("r").unwrap().triggered;
            let raw = rt_raw.state("r").unwrap().triggered;
            let formal = is_triggered(&ref_def, &ref_state, &eb, now);
            prop_assert_eq!(opt, formal, "optimized vs formal on {} at {}", &expr, now);
            prop_assert_eq!(raw, formal, "unoptimized vs formal on {} at {}", &expr, now);
            if formal {
                rt_opt.mark_considered(rt_opt.index_of("r").unwrap(), now);
                rt_raw.mark_considered(rt_raw.index_of("r").unwrap(), now);
                ref_state.considered(&ref_def, now);
            }
        }
        // the optimization must actually skip work on irrelevant streams
        prop_assert!(sup_opt.stats.ts_probes <= sup_raw.stats.ts_probes);
    }

    /// Many rules at once: the sets of triggered rules coincide across
    /// the optimized and unoptimized supports and the formal predicate.
    #[test]
    fn rule_sets_coincide(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 5,
            max_depth: 3,
            instance_prob: 0.4,
            negation_prob: 0.35,
            seed: expr_seed,
        });
        let defs: Vec<TriggerDef> = g
            .batch(8)
            .into_iter()
            .enumerate()
            .map(|(i, e)| TriggerDef::new(format!("r{i}"), e))
            .collect();
        let mut rt_opt = RuleTable::new();
        let mut rt_raw = RuleTable::new();
        for def in &defs {
            rt_opt.define(def.clone(), Timestamp::ZERO).unwrap();
            rt_raw.define(def.clone(), Timestamp::ZERO).unwrap();
        }
        let mut ref_states: Vec<RuleState> =
            defs.iter().map(|d| RuleState::new(d, Timestamp::ZERO)).collect();
        let mut sup_opt = TriggerSupport::optimized();
        let mut sup_raw = TriggerSupport::unoptimized();
        let mut eb = EventBase::new();
        for block in blocks(stream_seed, 6) {
            play(&mut eb, &block);
            let now = eb.now();
            sup_opt.check(&mut rt_opt, &eb, now);
            sup_raw.check(&mut rt_raw, &eb, now);
            let opt: Vec<String> = rt_opt.triggered().iter().map(|s| s.to_string()).collect();
            let raw: Vec<String> = rt_raw.triggered().iter().map(|s| s.to_string()).collect();
            let formal: Vec<String> = defs
                .iter()
                .zip(&ref_states)
                .filter(|(d, st)| is_triggered(d, st, &eb, now))
                .map(|(d, _)| d.name.clone())
                .collect();
            prop_assert_eq!(&opt, &formal, "optimized vs formal at {}", now);
            prop_assert_eq!(&raw, &formal, "unoptimized vs formal at {}", now);
            for name in formal {
                rt_opt.mark_considered(rt_opt.index_of(&name).unwrap(), now);
                rt_raw.mark_considered(rt_raw.index_of(&name).unwrap(), now);
                let i = defs.iter().position(|d| d.name == name).unwrap();
                ref_states[i].considered(&defs[i], now);
            }
        }
    }

    /// Transactions the engine's way: the event base is cut and every
    /// rule reset at each start, while the supports and the rules' plans
    /// (with their memos and scratch) are kept from one transaction to
    /// the next. The triggered sets equal the formal predicate over an
    /// untruncated copy of the log.
    #[test]
    fn supports_kept_across_cuts_equal_formal_over_the_untruncated_log(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        txns in 1usize..5,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 5,
            max_depth: 3,
            instance_prob: 0.4,
            negation_prob: 0.35,
            seed: expr_seed,
        });
        let defs: Vec<TriggerDef> = g
            .batch(6)
            .into_iter()
            .enumerate()
            .map(|(i, e)| TriggerDef::new(format!("r{i}"), e))
            .collect();
        let mut run = TxnRun::new(&defs);
        let mut rng = StdRng::seed_from_u64(stream_seed);
        for _ in 0..txns {
            run.begin();
            let nblocks = rng.random_range(1..4usize);
            for block in blocks(rng.random_range(0..u64::MAX), nblocks) {
                run.block(&block);
            }
        }
    }

    /// The invariant the engine's reaction loop skips rounds on: after a
    /// round, considering any subset of the triggered rules (the newly
    /// triggered among them) and checking again at the same instant on
    /// the same base triggers nothing, probes nothing, and leaves every
    /// rule's flags, stamps and plan scratch as they were. The rule sets
    /// mix random expressions with a vacuously active set negation and a
    /// widened instance negation, some of them preserving.
    #[test]
    fn a_second_round_on_an_unchanged_base_changes_nothing(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        nblocks in 1usize..8,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 5,
            max_depth: 3,
            instance_prob: 0.4,
            negation_prob: 0.35,
            seed: expr_seed,
        });
        let mut exprs = g.batch(6);
        exprs.push(EventExpr::prim(et(0)).not());
        exprs.push(EventExpr::prim(et(0)).inot().ior(EventExpr::prim(et(1))));
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let defs: Vec<TriggerDef> = exprs
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let mut def = TriggerDef::new(format!("r{i}"), e);
                if rng.random_bool(0.5) {
                    def.consumption = ConsumptionMode::Preserving;
                }
                def
            })
            .collect();
        for mut sup in [TriggerSupport::optimized(), TriggerSupport::unoptimized()] {
            let mut rt = RuleTable::new();
            for def in &defs {
                rt.define(def.clone(), Timestamp::ZERO).unwrap();
            }
            let mut eb = EventBase::new();
            for block in blocks(rng.random_range(0..u64::MAX), nblocks) {
                play(&mut eb, &block);
                let now = eb.now();
                sup.check(&mut rt, &eb, now);
                let triggered: Vec<String> =
                    rt.triggered().iter().map(|n| n.to_string()).collect();
                for name in &triggered {
                    if rng.random_bool(0.5) {
                        rt.mark_considered(rt.index_of(name).unwrap(), now);
                    }
                }
                let (before, probes) = (rule_states(&rt), sup.stats.ts_probes);
                sup.check(&mut rt, &eb, now);
                prop_assert_eq!(rule_states(&rt), before, "second round at {}", now);
                prop_assert_eq!(sup.stats.ts_probes, probes, "second round probed at {}", now);
            }
        }
    }
}

/// One rule's `triggered` and `witness` flags, its three stamps and its
/// plan scratch.
type RuleView = (
    bool,
    bool,
    Timestamp,
    Timestamp,
    Timestamp,
    Vec<BoundaryScratchView>,
);

/// Each rule's [`RuleView`], in definition order.
fn rule_states(rt: &RuleTable) -> Vec<RuleView> {
    rt.iter()
        .map(|(_, st)| {
            (
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

/// The engine's transaction discipline over a base cut at every start
/// (`live`), checked against an untruncated copy of the log (`full`):
/// an optimized and an unoptimized support, each kept across
/// transactions, against the formal predicate. Triggered rules are
/// considered, so consumption windows move too.
struct TxnRun<'a> {
    defs: &'a [TriggerDef],
    live: EventBase,
    full: EventBase,
    tables: [RuleTable; 2],
    supports: [TriggerSupport; 2],
    reference: Vec<RuleState>,
}

impl<'a> TxnRun<'a> {
    fn new(defs: &'a [TriggerDef]) -> Self {
        let table = || {
            let mut rt = RuleTable::new();
            for def in defs {
                rt.define(def.clone(), Timestamp::ZERO).unwrap();
            }
            rt
        };
        TxnRun {
            defs,
            live: EventBase::new(),
            full: EventBase::new(),
            tables: [table(), table()],
            supports: [TriggerSupport::optimized(), TriggerSupport::unoptimized()],
            reference: defs.iter().map(|d| RuleState::new(d, Timestamp::ZERO)).collect(),
        }
    }

    /// A transaction boundary, the rest state `Engine::commit` and
    /// `Engine::rollback` end in: cut the live base, restart every rule's
    /// windows.
    fn begin(&mut self) {
        self.live.truncate();
        let start = self.live.now();
        for rt in &mut self.tables {
            rt.reset_all(start);
        }
        for st in &mut self.reference {
            st.reset(start);
        }
    }

    /// Play one block on both bases, check, and consider what fired.
    fn block(&mut self, block: &[Option<(u32, u64)>]) -> Vec<String> {
        play(&mut self.live, block);
        play(&mut self.full, block);
        let now = self.live.now();
        let formal: Vec<String> = self
            .defs
            .iter()
            .zip(&self.reference)
            .filter(|(d, st)| is_triggered(d, st, &self.full, now))
            .map(|(d, _)| d.name.clone())
            .collect();
        for (rt, sup) in self.tables.iter_mut().zip(&mut self.supports) {
            sup.check(rt, &self.live, now);
            let got: Vec<String> = rt.triggered().iter().map(|s| s.to_string()).collect();
            assert_eq!(got, formal, "support vs formal at {now}");
            for name in &formal {
                rt.mark_considered(rt.index_of(name).unwrap(), now);
            }
        }
        for name in &formal {
            let i = self.defs.iter().position(|d| &d.name == name).unwrap();
            self.reference[i].considered(&self.defs[i], now);
        }
        formal
    }
}

/// Rules whose plans and their scratch are built in one transaction and
/// reused in the next, over every boundary shape: a
/// primitive, an instance conjunction, a widened instance negation and a
/// set negation.
#[test]
fn rules_kept_across_transactions_agree_with_the_untruncated_predicate() {
    let (a, b) = (EventExpr::prim(et(0)), EventExpr::prim(et(1)));
    let defs = vec![
        TriggerDef::new("prim", a.clone()),
        TriggerDef::new("conj", a.clone().iand(b.clone())),
        TriggerDef::new("widened", a.clone().inot().ior(b.clone())),
        TriggerDef::new("absent", a.not()),
    ];
    let mut run = TxnRun::new(&defs);
    run.begin();
    // A(o1), B(o1): every positive rule fires in transaction 1
    assert_eq!(run.block(&[Some((0, 1)), Some((1, 1))]), ["prim", "conj", "widened"]);
    run.begin();
    // B(o1) alone: its A is before the cut, so `conj` must not fire, and
    // o1 enters the new window afresh, where `-=A` holds for it
    assert_eq!(run.block(&[Some((1, 1))]), ["widened", "absent"]);
    run.begin();
    // an eventless block (R = ∅: nothing fires), then A(o2) and B(o2)
    // across two blocks; the eventless instant witnesses `-A`
    assert!(run.block(&[None]).is_empty());
    assert_eq!(run.block(&[Some((0, 2))]), ["prim", "absent"]);
    assert_eq!(run.block(&[Some((1, 2))]), ["conj", "widened", "absent"]);
}

/// A plan scratch filled in one transaction answers no probe after the
/// cut, even at the epoch it was filled at. `second`'s rule was never
/// reset, so its window reaches below the cut and sees only the empty
/// live part; keyed on `(uid, epoch)` alone (which a cut keeps) a cached
/// result for the dropped `A(o1)` would fire it on the unrelated `X(o2)`.
#[test]
fn plan_scratch_built_before_a_cut_answers_no_probe_after_it() {
    let def = TriggerDef::new("r", EventExpr::prim(et(0)));
    for mut sup in [TriggerSupport::optimized(), TriggerSupport::unoptimized()] {
        let (mut first, mut second) = (RuleTable::new(), RuleTable::new());
        first.define(def.clone(), Timestamp::ZERO).unwrap();
        second.define(def.clone(), Timestamp::ZERO).unwrap();
        let (mut live, mut full) = (EventBase::new(), EventBase::new());
        for eb in [&mut live, &mut full] {
            eb.append(et(0), Oid(1)); // t1: A(o1)
        }
        sup.check(&mut first, &live, live.now());
        assert!(first.state("r").unwrap().triggered);
        live.truncate();
        let cut = live.now();
        sup.check(&mut second, &live, live.now());
        for eb in [&mut live, &mut full] {
            eb.append(et(6), Oid(2)); // t2: X(o2)
        }
        sup.check(&mut second, &live, live.now());
        let formal = is_triggered(&def, &RuleState::new(&def, cut), &full, full.now());
        assert!(!formal, "no A after the cut");
        assert_eq!(second.state("r").unwrap().triggered, formal);
    }
}

/// Deterministic regression: the exact scenario from the paper's §4.4
/// quirk — a `-A` rule, A arriving not-first, fires because an earlier
/// instant in the window witnessed the absence.
#[test]
fn negation_rule_window_semantics() {
    let expr = EventExpr::prim(et(0)).not();
    let mut rt = RuleTable::new();
    rt.define(TriggerDef::new("r", expr.clone()), Timestamp::ZERO)
        .unwrap();
    let mut sup = TriggerSupport::optimized();
    let mut eb = EventBase::new();
    eb.append(et(1), Oid(1)); // t1: B
    eb.append(et(0), Oid(1)); // t2: A
    sup.check(&mut rt, &eb, eb.now());
    let def = TriggerDef::new("r", expr);
    let st = RuleState::new(&def, Timestamp::ZERO);
    assert_eq!(
        rt.state("r").unwrap().triggered,
        is_triggered(&def, &st, &eb, eb.now())
    );
    assert!(rt.state("r").unwrap().triggered, "witnessed at t1");
}

/// Deterministic regression for a widened rule's change points. Under
/// `(-=A) ,= B` the only positive instant is `o2`'s first appearance,
/// which comes through `X`, a channel the rule never mentions. A probe
/// set built from the expression's own types alone misses it.
#[test]
fn widened_rule_fires_where_an_object_enters_through_a_foreign_channel() {
    let (a, b, x, y) = (et(0), et(1), et(6), et(7));
    let def = TriggerDef::new("r", EventExpr::prim(a).inot().ior(EventExpr::prim(b)));
    let mut rt = RuleTable::new();
    rt.define(def.clone(), Timestamp::ZERO).unwrap();
    let st = RuleState::new(&def, Timestamp::ZERO);
    let mut sup = TriggerSupport::optimized();
    let mut eb = EventBase::new();
    eb.append(a, Oid(1));
    sup.check(&mut rt, &eb, eb.now());
    assert!(!rt.state("r").unwrap().triggered);
    assert!(!is_triggered(&def, &st, &eb, eb.now()));
    eb.append(y, Oid(1)); // o1 already in the window
    eb.append(x, Oid(2)); // o2 enters: -=A holds for it
    eb.append(a, Oid(2)); // and stops holding
    sup.check(&mut rt, &eb, eb.now());
    assert_eq!(
        rt.state("r").unwrap().triggered,
        is_triggered(&def, &st, &eb, eb.now())
    );
    assert!(
        rt.state("r").unwrap().triggered,
        "witnessed when o2 entered through X"
    );
}

/// Run one optimized support over `blocks`, checking after each block
/// that the rule's flag equals the formal predicate, and return the
/// flags. Triggered rules are not considered, so the window only grows.
fn flags_against_formal(
    def: &TriggerDef,
    sup: &mut TriggerSupport,
    blocks: &[&[Option<(u32, u64)>]],
) -> Vec<bool> {
    let mut rt = RuleTable::new();
    rt.define(def.clone(), Timestamp::ZERO).unwrap();
    let st = RuleState::new(def, Timestamp::ZERO);
    let mut eb = EventBase::new();
    let mut flags = Vec::new();
    for block in blocks {
        play(&mut eb, block);
        sup.check(&mut rt, &eb, eb.now());
        let got = rt.state(&def.name).unwrap().triggered;
        assert_eq!(
            got,
            is_triggered(def, &st, &eb, eb.now()),
            "{} at {}",
            def.events,
            eb.now()
        );
        flags.push(got);
    }
    flags
}

/// Arrivals on channels a plain rule never mentions add no probes: the
/// negation-free rule probes `now` once, however many foreign arrivals
/// fill the block.
#[test]
fn foreign_arrivals_add_no_probes_to_a_plain_rule() {
    let def = TriggerDef::new("r", EventExpr::prim(et(0)).and(EventExpr::prim(et(1))));
    let mut block = vec![Some((0, 1))];
    block.extend((0..20).map(|n| Some((6, n % 6 + 1))));
    let mut sup = TriggerSupport::optimized();
    assert_eq!(flags_against_formal(&def, &mut sup, &[&block]), vec![false]);
    // t21 (now) alone
    assert_eq!(sup.stats.ts_probes, 1);
}

/// A conjunction half-satisfied in one block stays pending across a
/// block of foreign arrivals, which the relevance filter skips, and
/// completes in the next block.
#[test]
fn conjunction_completes_after_a_skipped_foreign_block() {
    let def = TriggerDef::new("r", EventExpr::prim(et(0)).and(EventExpr::prim(et(1))));
    let mut sup = TriggerSupport::optimized();
    let a: &[Option<(u32, u64)>] = &[Some((0, 1))];
    let foreign: &[Option<(u32, u64)>] = &[Some((6, 2)), None, Some((7, 3))];
    let b: &[Option<(u32, u64)>] = &[Some((1, 4))];
    assert_eq!(
        flags_against_formal(&def, &mut sup, &[a, foreign, b]),
        vec![false, false, true]
    );
    assert_eq!(sup.stats.skipped_by_filter, 1);
}

/// A set-level negation holds on a block that never mentions its type:
/// the first new instant witnesses the absence.
#[test]
fn set_negation_fires_on_a_block_of_foreign_arrivals() {
    let def = TriggerDef::new("r", EventExpr::prim(et(0)).not());
    let mut sup = TriggerSupport::optimized();
    let foreign: &[Option<(u32, u64)>] = &[Some((6, 1)), Some((7, 2))];
    assert_eq!(flags_against_formal(&def, &mut sup, &[foreign]), vec![true]);
}

/// A widened rule fires on a block holding no leaf type at all when an
/// object enters its window there: `-=A` holds vacuously for `o2`.
#[test]
fn widened_rule_fires_on_a_block_of_foreign_arrivals() {
    let def = TriggerDef::new(
        "r",
        EventExpr::prim(et(0)).inot().ior(EventExpr::prim(et(1))),
    );
    let mut sup = TriggerSupport::optimized();
    let a: &[Option<(u32, u64)>] = &[Some((0, 1))];
    let foreign: &[Option<(u32, u64)>] = &[Some((6, 1)), Some((7, 2))];
    assert_eq!(
        flags_against_formal(&def, &mut sup, &[a, foreign]),
        vec![false, true]
    );
}

/// Further arrivals on an object already in a widened rule's window are
/// no change points: five foreign arrivals on `o1` after `A(o1)` cost
/// the first new instant and `now`, not one probe per arrival.
#[test]
fn widened_rule_skips_repeat_arrivals_of_a_known_object() {
    let def = TriggerDef::new(
        "r",
        EventExpr::prim(et(0)).inot().ior(EventExpr::prim(et(1))),
    );
    let mut sup = TriggerSupport::optimized();
    let a: &[Option<(u32, u64)>] = &[Some((0, 1))];
    let repeats: Vec<Option<(u32, u64)>> = (0..5).map(|n| Some((6 + n % 2, 1))).collect();
    assert_eq!(
        flags_against_formal(&def, &mut sup, &[a, &repeats]),
        vec![false, false]
    );
    // t1 for the first block; t2 and t6 for the second
    assert_eq!(sup.stats.ts_probes, 3);
}

/// Consideration restarts the trigger window, so an object last seen
/// before it enters the new window afresh. Here `o1` re-enters through
/// `X` at an interior instant — after an eventless tick, before `A(o1)`
/// ends the `-=A` witness — so only its entry stamp finds the firing.
#[test]
fn object_seen_before_consideration_reenters_the_window() {
    let def = TriggerDef::new(
        "r",
        EventExpr::prim(et(0)).inot().ior(EventExpr::prim(et(1))),
    );
    let mut rt = RuleTable::new();
    rt.define(def.clone(), Timestamp::ZERO).unwrap();
    let mut st = RuleState::new(&def, Timestamp::ZERO);
    let mut sup = TriggerSupport::optimized();
    let mut eb = EventBase::new();
    play(&mut eb, &[Some((0, 1)), Some((1, 1))]); // A(o1), B(o1)
    sup.check(&mut rt, &eb, eb.now());
    assert!(rt.state("r").unwrap().triggered, "B(o1) at t2");
    rt.mark_considered(rt.index_of("r").unwrap(), eb.now());
    st.considered(&def, eb.now());
    play(&mut eb, &[None, Some((6, 1)), Some((0, 1))]); // tick, X(o1), A(o1)
    sup.check(&mut rt, &eb, eb.now());
    assert_eq!(
        rt.state("r").unwrap().triggered,
        is_triggered(&def, &st, &eb, eb.now())
    );
    assert!(
        rt.state("r").unwrap().triggered,
        "witnessed when o1 re-entered through X"
    );
}

/// Many widened rules in one round fire exactly on the foreign-channel
/// entry the formal predicate sees, each probing in both blocks.
#[test]
fn many_widened_rules_see_a_foreign_channel_entry_in_one_round() {
    let defs: Vec<TriggerDef> = (0..8u32)
        .map(|i| {
            let a = EventExpr::prim(et(0));
            TriggerDef::new(format!("r{i}"), a.inot().ior(EventExpr::prim(et(4 + i))))
        })
        .collect();
    let mut rt = RuleTable::new();
    for def in &defs {
        rt.define(def.clone(), Timestamp::ZERO).unwrap();
    }
    let mut sup = TriggerSupport::optimized();
    let mut eb = EventBase::new();
    // channels 20 and 21 are no leaf of any rule
    let blocks: [&[Option<(u32, u64)>]; 2] = [
        &[Some((0, 1))],
        &[Some((21, 1)), Some((20, 2)), Some((0, 2))],
    ];
    for block in blocks {
        play(&mut eb, block);
        let now = eb.now();
        sup.check(&mut rt, &eb, now);
        let formal: Vec<String> = defs
            .iter()
            .filter(|d| is_triggered(d, &RuleState::new(d, Timestamp::ZERO), &eb, now))
            .map(|d| d.name.clone())
            .collect();
        let got: Vec<String> = rt.triggered().iter().map(|s| s.to_string()).collect();
        assert_eq!(got, formal, "support vs formal at {now}");
    }
    assert_eq!(rt.triggered().len(), defs.len(), "o2 entered every window");
    // every rule probed in both blocks
    assert_eq!(sup.stats.rules_checked, 16);
    assert_eq!(sup.stats.skipped_by_filter, 0);
}

/// The exact counters of one fixed-seed round sequence: 16 random
/// expressions, each defined as two rules that each probe their own plan
/// (no result is shared across rules), checked over 10 random blocks
/// with every newly triggered rule considered. Nine of the expressions
/// are negation free, so they probe `now` once per round; three hold a
/// widened instance negation, and one of those is arrival sensitive, so
/// an object's entry into its window is probed too. The values pin the
/// round's work, not only its outcomes: any restructuring of the check
/// round must leave them unmoved.
#[test]
fn fixed_seed_round_counters_are_pinned() {
    const SEED: u64 = 2;
    let mut g = RandomExprGen::new(ExprGenConfig {
        event_types: 5,
        max_depth: 3,
        instance_prob: 0.4,
        negation_prob: 0.35,
        seed: SEED,
    });
    let exprs = g.batch(16);
    let widened = exprs
        .iter()
        .filter(|e| {
            let plan = Plan::compile(e).unwrap();
            plan.boundaries().iter().any(|b| b.widens())
        })
        .count();
    assert_eq!(widened, 3);
    let sensitive = exprs
        .iter()
        .filter(|e| RelevanceFilter::new(e).arrival_sensitive())
        .count();
    let monotone = exprs.iter().filter(|e| !e.contains_negation()).count();
    assert_eq!((sensitive, monotone), (1, 9));
    let mut rt = RuleTable::new();
    for (i, e) in exprs.iter().enumerate() {
        for copy in ["a", "b"] {
            let def = TriggerDef::new(format!("r{i}{copy}"), e.clone());
            rt.define(def, Timestamp::ZERO).unwrap();
        }
    }
    let mut sup = TriggerSupport::optimized();
    let mut eb = EventBase::new();
    let mut fired = Vec::new();
    for block in blocks(SEED, 10) {
        play(&mut eb, &block);
        let now = eb.now();
        sup.check(&mut rt, &eb, now);
        // every rule triggered earlier was considered, so these are the
        // rules this round triggered
        let newly: Vec<String> = rt.triggered().iter().map(|n| n.to_string()).collect();
        for name in &newly {
            rt.mark_considered(rt.index_of(name).unwrap(), now);
        }
        fired.push(newly);
    }
    // both rules of a pair fire together, adjacent in definition order
    let expected: [&[usize]; 10] = [
        &[2, 3, 5, 6, 7, 10, 11, 12, 14],
        &[0, 4, 6, 7, 8, 11, 12, 13],
        &[0, 6, 7, 8, 11, 12, 13],
        &[0, 1, 6, 7, 11, 12],
        &[0, 1, 6, 7, 11],
        &[0, 1, 6, 7, 11],
        &[0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13, 14],
        &[2, 3, 5, 6, 7, 10, 11, 14],
        &[0, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14],
        &[1, 6, 7, 11],
    ];
    let pair = |i: &usize| [format!("r{i}a"), format!("r{i}b")];
    let expected: Vec<Vec<String>> = expected
        .iter()
        .map(|round| round.iter().flat_map(pair).collect())
        .collect();
    assert_eq!(fired, expected);
    assert_eq!(
        sup.stats,
        SupportStats {
            rules_checked: 320,
            skipped_by_filter: 128,
            ts_probes: 232,
            probe_memo_hits: 0,
            check_rounds: 10,
        }
    );
}
