//! Property suite for §5.1: the statically-optimized Trigger Support is
//! observationally equivalent to the unoptimized one and to the formal
//! §4.4 predicate, over random rules and random multi-block histories.
//! The supports probe each rule only at its own change points, while the
//! formal predicate probes every instant of the window, so this suite is
//! also the oracle for the change-point sets.

use chimera::calculus::EventExpr;
use chimera::events::{EventBase, EventType, Timestamp};
use chimera::model::{ClassId, Oid};
use chimera::rules::{is_triggered, RuleState, RuleTable, TriggerDef, TriggerSupport};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
    /// the optimized, unoptimized and pooled supports and the formal
    /// predicate, so the inline and pooled probe paths see one set.
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
        let mut rt_par = RuleTable::new();
        for def in &defs {
            rt_opt.define(def.clone(), Timestamp::ZERO).unwrap();
            rt_raw.define(def.clone(), Timestamp::ZERO).unwrap();
            rt_par.define(def.clone(), Timestamp::ZERO).unwrap();
        }
        let mut ref_states: Vec<RuleState> =
            defs.iter().map(|d| RuleState::new(d, Timestamp::ZERO)).collect();
        let mut sup_opt = TriggerSupport::optimized();
        let mut sup_raw = TriggerSupport::unoptimized();
        let mut sup_par = TriggerSupport::optimized().with_workers(3);
        let mut eb = EventBase::new();
        for block in blocks(stream_seed, 6) {
            play(&mut eb, &block);
            let now = eb.now();
            sup_opt.check(&mut rt_opt, &eb, now);
            sup_raw.check(&mut rt_raw, &eb, now);
            sup_par.check(&mut rt_par, &eb, now);
            let opt: Vec<String> = rt_opt.triggered().iter().map(|s| s.to_string()).collect();
            let raw: Vec<String> = rt_raw.triggered().iter().map(|s| s.to_string()).collect();
            let par: Vec<String> = rt_par.triggered().iter().map(|s| s.to_string()).collect();
            let formal: Vec<String> = defs
                .iter()
                .zip(&ref_states)
                .filter(|(d, st)| is_triggered(d, st, &eb, now))
                .map(|(d, _)| d.name.clone())
                .collect();
            prop_assert_eq!(&opt, &formal, "optimized vs formal at {}", now);
            prop_assert_eq!(&raw, &formal, "unoptimized vs formal at {}", now);
            prop_assert_eq!(&par, &formal, "pooled vs formal at {}", now);
            for name in formal {
                rt_opt.mark_considered(rt_opt.index_of(&name).unwrap(), now);
                rt_raw.mark_considered(rt_raw.index_of(&name).unwrap(), now);
                rt_par.mark_considered(rt_par.index_of(&name).unwrap(), now);
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

    /// `Engine::begin`: cut the live base, restart every rule's windows.
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

/// Rules whose plans, probe memo and domain entries are built in one
/// transaction and reused in the next, over every boundary shape: a
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

/// The probe memo filled in one transaction answers no probe after the
/// cut, even at the epoch it was filled at. `second`'s rule was never
/// reset, so its window reaches below the cut and sees only the empty
/// live part; keyed on `(uid, epoch)` alone (which a cut keeps) the
/// support would reuse `first`'s witness for the dropped `A(o1)` and fire
/// on the unrelated `X(o2)`.
#[test]
fn probe_memo_built_before_a_cut_answers_no_probe_after_it() {
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
/// rule probes its first new instant, its own arrival's stamp and
/// successor, and `now`, however many foreign arrivals fill the block.
#[test]
fn foreign_arrivals_add_no_probes_to_a_plain_rule() {
    let def = TriggerDef::new("r", EventExpr::prim(et(0)).and(EventExpr::prim(et(1))));
    let mut block = vec![Some((0, 1))];
    block.extend((0..20).map(|n| Some((6, n % 6 + 1))));
    let mut sup = TriggerSupport::optimized();
    assert_eq!(flags_against_formal(&def, &mut sup, &[&block]), vec![false]);
    // t1 (first new instant and A's stamp), t2 (its successor), t21 (now)
    assert_eq!(sup.stats.ts_probes, 3);
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

/// The pooled probe path builds the same change points as the inline
/// one: enough widened rules to fan out across workers fire exactly on
/// the foreign-channel entry the inline support sees.
#[test]
fn pooled_support_sees_widened_entries_like_the_inline_one() {
    let defs: Vec<TriggerDef> = (0..8u32)
        .map(|i| {
            let a = EventExpr::prim(et(0));
            TriggerDef::new(format!("r{i}"), a.inot().ior(EventExpr::prim(et(4 + i))))
        })
        .collect();
    let mut rt_inline = RuleTable::new();
    let mut rt_pooled = RuleTable::new();
    for def in &defs {
        rt_inline.define(def.clone(), Timestamp::ZERO).unwrap();
        rt_pooled.define(def.clone(), Timestamp::ZERO).unwrap();
    }
    let mut sup_inline = TriggerSupport::optimized();
    let mut sup_pooled = TriggerSupport::optimized().with_workers(3);
    let mut eb = EventBase::new();
    // channels 20 and 21 are no leaf of any rule
    let blocks: [&[Option<(u32, u64)>]; 2] = [
        &[Some((0, 1))],
        &[Some((21, 1)), Some((20, 2)), Some((0, 2))],
    ];
    for block in blocks {
        play(&mut eb, block);
        let now = eb.now();
        sup_inline.check(&mut rt_inline, &eb, now);
        sup_pooled.check(&mut rt_pooled, &eb, now);
        let formal: Vec<String> = defs
            .iter()
            .filter(|d| is_triggered(d, &RuleState::new(d, Timestamp::ZERO), &eb, now))
            .map(|d| d.name.clone())
            .collect();
        let inline: Vec<String> = rt_inline.triggered().iter().map(|s| s.to_string()).collect();
        let pooled: Vec<String> = rt_pooled.triggered().iter().map(|s| s.to_string()).collect();
        assert_eq!(inline, formal, "inline at {now}");
        assert_eq!(pooled, formal, "pooled at {now}");
    }
    assert_eq!(rt_pooled.triggered().len(), defs.len(), "o2 entered every window");
    // every rule probed in both blocks, so the pool had work to split
    assert_eq!(sup_pooled.stats.rules_checked, 16);
    assert_eq!(sup_pooled.stats.skipped_by_filter, 0);
}
