//! Property suite for the compiled evaluation plans (`calculus::plan`):
//! the planned boundary evaluation must agree **bit for bit** with the
//! existing recursive `boundary_ts_logical` / `boundary_ts_algebraic`
//! definitions on random expressions × random event histories, at every
//! arrival instant, earlier probe instants, gap instants, and across both
//! full and consumed (shifted lower-bound) windows — and the
//! arrival-incrementally advanced scratch matrix must equal a
//! from-scratch cold rebuild cell for cell under arbitrary interleavings
//! of arrivals, window advances, and probes.
//!
//! The configured default is 1024 cases (the PR-3 acceptance bar); the
//! shim treats `PROPTEST_CASES` as a downward clamp (CI runs this suite
//! at 256, other suites at 32).

use chimera::calculus::{
    boundary_ts_algebraic, boundary_ts_logical, ts_algebraic, ts_algebraic_interpreted,
    ts_logical, ts_logical_interpreted, EventExpr, PlanEval,
};
use chimera::events::{EventBase, EventType, Timestamp, Window};
use chimera::model::{ClassId, Oid};
use chimera::workload::{ExprGenConfig, RandomExprGen};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn et(n: u32) -> EventType {
    EventType::external(ClassId(0), n)
}

/// A random history over 5 types × 4 objects with occasional gap ticks.
fn random_history(seed: u64, len: usize) -> EventBase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut eb = EventBase::new();
    for _ in 0..len {
        if rng.random_bool(0.15) {
            eb.tick();
        }
        eb.append(et(rng.random_range(0..5u32)), Oid(rng.random_range(1..5u64)));
    }
    eb.tick(); // a gap instant after the last arrival
    eb
}

/// Probe instants: every instant of the history, `1..=now`.
fn probes(eb: &EventBase) -> Vec<Timestamp> {
    (1..=eb.now().raw()).map(Timestamp).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Instance-rooted expressions: the plan against *both* recursive
    /// boundary styles, over full and consumed windows.
    #[test]
    fn plan_matches_recursive_boundaries(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        len in 0usize..24,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 5,
            max_depth: 4,
            instance_prob: 1.0,
            negation_prob: 0.35,
            seed: expr_seed,
        });
        let expr = g.generate_instance();
        let eb = random_history(stream_seed, len);
        let mut pe = PlanEval::compile(&expr).unwrap();
        let now = eb.now();
        let mid = Timestamp(now.raw() / 2);
        for w in [Window::from_origin(now), Window::new(mid, now)] {
            for t in probes(&eb) {
                let got = pe.eval(&eb, w, t);
                prop_assert_eq!(
                    got,
                    boundary_ts_logical(&expr, &eb, w, t),
                    "logical: {} over {:?} at {}", &expr, w, t
                );
                prop_assert_eq!(
                    got,
                    boundary_ts_algebraic(&expr, &eb, w, t),
                    "algebraic: {} over {:?} at {}", &expr, w, t
                );
            }
        }
    }

    /// General (set ∘ instance) expressions: the planned dispatch inside
    /// `ts_logical`/`ts_algebraic` against the fully recursive
    /// interpreters, plus a direct `PlanEval` on the whole expression.
    #[test]
    fn planned_ts_matches_interpreted_ts(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        len in 0usize..24,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 5,
            max_depth: 4,
            instance_prob: 0.4,
            negation_prob: 0.3,
            seed: expr_seed,
        });
        let expr = g.generate();
        let eb = random_history(stream_seed, len);
        let mut pe = PlanEval::compile(&expr).unwrap();
        let now = eb.now();
        let mid = Timestamp(now.raw() / 2);
        for w in [Window::from_origin(now), Window::new(mid, now)] {
            for t in probes(&eb) {
                let want = ts_logical_interpreted(&expr, &eb, w, t);
                prop_assert_eq!(
                    ts_logical(&expr, &eb, w, t), want,
                    "planned ts_logical: {} over {:?} at {}", &expr, w, t
                );
                prop_assert_eq!(
                    pe.eval(&eb, w, t), want,
                    "whole-expression plan: {} over {:?} at {}", &expr, w, t
                );
                prop_assert_eq!(
                    ts_algebraic(&expr, &eb, w, t),
                    ts_algebraic_interpreted(&expr, &eb, w, t),
                    "planned ts_algebraic: {} over {:?} at {}", &expr, w, t
                );
            }
        }
    }

    /// The PR-3 tentpole invariant: an evaluator kept across epochs — its
    /// scratch *advanced* arrival-incrementally instead of rebuilt —
    /// holds bit for bit the same domain + stamp matrix a from-scratch
    /// cold rebuild produces, and returns identical values, under
    /// arbitrary interleavings of arrival bursts, eventless ticks, window
    /// (consumption) advances, and probes at past instants.
    #[test]
    fn incremental_matrix_equals_cold_rebuild(
        expr_seed in any::<u64>(),
        script_seed in any::<u64>(),
        steps in 1usize..24,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 4,
            max_depth: 4,
            instance_prob: 1.0,
            negation_prob: 0.3,
            seed: expr_seed,
        });
        let expr = g.generate_instance();
        let mut pe = PlanEval::compile(&expr).unwrap();
        let plan = pe.plan().clone();
        let mut rng = StdRng::seed_from_u64(script_seed);
        let mut eb = EventBase::new();
        let mut after = Timestamp::ZERO;
        for _ in 0..steps {
            match rng.random_range(0..8u32) {
                // an arrival burst (one transaction block)
                0..=4 => {
                    for _ in 0..rng.random_range(1..4usize) {
                        eb.append(
                            et(rng.random_range(0..4u32)),
                            Oid(rng.random_range(1..5u64)),
                        );
                    }
                }
                // an eventless instant
                5 => {
                    eb.tick();
                }
                // window consumption: the lower bound advances
                6 => {
                    after = Timestamp(rng.random_range(after.raw()..=eb.now().raw()));
                }
                // probe-only step (re-probes memoized instants)
                _ => {}
            }
            let now = eb.now();
            if now == Timestamp::ZERO {
                continue; // no instant to probe yet
            }
            let w = Window::new(after, now);
            let mut cold = PlanEval::new(plan.clone());
            // value equivalence at a past instant and at the frontier
            let mid = Timestamp((after.raw() + now.raw()) / 2 + 1).min(now);
            for t in [mid, now] {
                let got = pe.eval(&eb, w, t);
                prop_assert_eq!(
                    got, cold.eval(&eb, w, t),
                    "cold: {} over {:?} at {}", &expr, w, t
                );
                prop_assert_eq!(
                    got, boundary_ts_logical(&expr, &eb, w, t),
                    "reference: {} over {:?} at {}", &expr, w, t
                );
            }
            // matrix equivalence with both prepared at the frontier (the
            // memo may have answered the probes above without preparing
            // the matrix for this epoch, so force it)
            pe.prepare_frontier(&eb, w);
            cold.prepare_frontier(&eb, w);
            prop_assert_eq!(
                pe.boundary_scratch(), cold.boundary_scratch(),
                "matrix diverged: {} over {:?}", &expr, w
            );
        }
    }

    /// Widened domains built at the frontier: objects enter through
    /// channels no leaf mentions, and one evaluator kept across arrival
    /// blocks is probed at every interior instant of the window. Rows
    /// that join the domain after the probe instant must stay out of its
    /// fold, and each row's entry stamp must survive the advance path.
    #[test]
    fn widened_domain_matches_reference_at_interior_instants(
        expr_seed in any::<u64>(),
        script_seed in any::<u64>(),
        steps in 1usize..12,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 3,
            max_depth: 4,
            instance_prob: 1.0,
            negation_prob: 0.5,
            seed: expr_seed,
        });
        let expr = g.generate_instance();
        let mut pe = PlanEval::compile(&expr).unwrap();
        prop_assume!(pe.plan().boundaries().iter().any(|b| b.widens()));
        let plan = pe.plan().clone();
        let mut rng = StdRng::seed_from_u64(script_seed);
        let mut eb = EventBase::new();
        let mut after = Timestamp::ZERO;
        for _ in 0..steps {
            // channels 3..6 are no leaf of the expression
            for _ in 0..rng.random_range(1..5usize) {
                eb.append(et(rng.random_range(0..6u32)), Oid(rng.random_range(1..=6u64)));
            }
            if rng.random_bool(0.2) {
                eb.tick();
            }
            if rng.random_bool(0.2) {
                after = Timestamp(rng.random_range(after.raw()..=eb.now().raw()));
            }
            let now = eb.now();
            let w = Window::new(after, now);
            for t in (after.raw() + 1)..=now.raw() {
                let t = Timestamp(t);
                prop_assert_eq!(
                    pe.eval(&eb, w, t),
                    boundary_ts_logical(&expr, &eb, w, t),
                    "{} over {:?} at {}", &expr, w, t
                );
            }
            let mut cold = PlanEval::new(plan.clone());
            pe.prepare_frontier(&eb, w);
            cold.prepare_frontier(&eb, w);
            prop_assert_eq!(
                pe.boundary_scratch(), cold.boundary_scratch(),
                "matrix diverged: {} over {:?}", &expr, w
            );
        }
    }

    /// Transactions over a base cut at every start: one evaluator kept
    /// across them (its scratch built in transaction k, then reused in
    /// k + 1) answers every instant of the new transaction's window like
    /// the recursive reference over an untruncated copy of the log, and
    /// its frontier matrix equals a cold rebuild over the cut base.
    #[test]
    fn scratch_kept_across_cuts_matches_the_untruncated_reference(
        expr_seed in any::<u64>(),
        script_seed in any::<u64>(),
        txns in 1usize..6,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 4,
            max_depth: 4,
            instance_prob: 1.0,
            negation_prob: 0.3,
            seed: expr_seed,
        });
        let expr = g.generate_instance();
        let mut pe = PlanEval::compile(&expr).unwrap();
        let mut rng = StdRng::seed_from_u64(script_seed);
        let (mut live, mut full) = (EventBase::new(), EventBase::new());
        for _ in 0..txns {
            live.truncate();
            let start = live.now();
            for _ in 0..rng.random_range(1..4usize) {
                for _ in 0..rng.random_range(0..4usize) {
                    let (ty, oid) = (et(rng.random_range(0..4u32)), Oid(rng.random_range(1..5u64)));
                    live.append(ty, oid);
                    full.append(ty, oid);
                }
                let w = Window::new(start, live.now());
                for t in (start.raw() + 1)..=w.upto.raw() {
                    let t = Timestamp(t);
                    prop_assert_eq!(
                        pe.eval(&live, w, t),
                        boundary_ts_logical(&expr, &full, w, t),
                        "{} over {:?} at {}", &expr, w, t
                    );
                }
                let mut cold = PlanEval::new(pe.plan().clone());
                pe.prepare_frontier(&live, w);
                cold.prepare_frontier(&live, w);
                prop_assert_eq!(
                    pe.boundary_scratch(), cold.boundary_scratch(),
                    "matrix diverged: {} over {:?}", &expr, w
                );
            }
        }
    }

    /// Interleaved growth: one evaluator observing a growing event base
    /// (epoch invalidation) stays exact at every step.
    #[test]
    fn plan_scratch_tracks_growing_history(
        expr_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        len in 1usize..20,
    ) {
        let mut g = RandomExprGen::new(ExprGenConfig {
            event_types: 4,
            max_depth: 3,
            instance_prob: 1.0,
            negation_prob: 0.4,
            seed: expr_seed,
        });
        let expr = g.generate_instance();
        let mut pe = PlanEval::compile(&expr).unwrap();
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let mut eb = EventBase::new();
        for _ in 0..len {
            eb.append(et(rng.random_range(0..4u32)), Oid(rng.random_range(1..4u64)));
            let now = eb.now();
            let w = Window::from_origin(now);
            // two probes per arrival: the memoized repeat must agree too
            for _ in 0..2 {
                prop_assert_eq!(
                    pe.eval(&eb, w, now),
                    boundary_ts_logical(&expr, &eb, w, now),
                    "{} at {}", &expr, now
                );
            }
        }
    }
}

/// `(-=A) ,= B`: its one boundary widens to every object in the window.
fn widened_expr() -> EventExpr {
    EventExpr::prim(et(0)).inot().ior(EventExpr::prim(et(1)))
}

/// Probe `pe` at every instant of `w`, frontier first and then from the
/// last instant down, against the recursive reference; then compare its
/// frontier matrix with a cold rebuild. Returns the values in instant
/// order.
fn check_window(pe: &mut PlanEval, expr: &EventExpr, eb: &EventBase, w: Window) -> Vec<bool> {
    let mut vals = Vec::new();
    for t in ((w.after.raw() + 1)..=w.upto.raw()).rev() {
        let t = Timestamp(t);
        let got = pe.eval(eb, w, t);
        assert_eq!(got, boundary_ts_logical(expr, eb, w, t), "{expr} over {w:?} at {t}");
        vals.push(got.is_active());
    }
    vals.reverse();
    let mut cold = PlanEval::new(pe.plan().clone());
    pe.prepare_frontier(eb, w);
    cold.prepare_frontier(eb, w);
    assert_eq!(
        pe.boundary_scratch(),
        cold.boundary_scratch(),
        "matrix diverged: {expr} over {w:?}"
    );
    vals
}

/// A row that joins the widened domain after the probe instant stays out
/// of that instant's fold, though the matrix is built at the frontier:
/// `o2` enters through `X` at t2, so `-=A` holds there and not at t1.
#[test]
fn widened_row_joining_after_the_probe_stays_out_of_its_fold() {
    let expr = widened_expr();
    let mut pe = PlanEval::compile(&expr).unwrap();
    assert!(pe.plan().boundaries()[0].widens());
    let mut eb = EventBase::new();
    eb.append(et(0), Oid(1)); // t1: A(o1)
    eb.append(et(4), Oid(2)); // t2: X(o2)
    let w = Window::from_origin(eb.now());
    assert_eq!(check_window(&mut pe, &expr, &eb, w), vec![false, true]);
}

/// Entry stamps survive the advance path: a block of foreign-channel
/// entries after a first block keeps each row's first stamp, so every
/// interior instant of the grown window still folds the right rows.
#[test]
fn widened_entry_stamps_survive_the_advance_path() {
    let expr = widened_expr();
    let mut pe = PlanEval::compile(&expr).unwrap();
    let mut eb = EventBase::new();
    eb.append(et(0), Oid(1)); // t1: A(o1)
    let w = Window::from_origin(eb.now());
    assert_eq!(check_window(&mut pe, &expr, &eb, w), vec![false]);
    eb.append(et(4), Oid(2)); // t2: X(o2), o2 enters
    eb.append(et(0), Oid(2)); // t3: A(o2), -=A fails for it
    eb.append(et(5), Oid(3)); // t4: Y(o3), o3 enters
    let w = Window::from_origin(eb.now());
    assert_eq!(
        check_window(&mut pe, &expr, &eb, w),
        vec![false, true, false, true]
    );
}

/// In a consumed window a row's entry stamp is its first occurrence
/// inside the window, not in the whole history: `o1`, seen at t1,
/// re-enters `(t2, t4]` through `X` at t3.
#[test]
fn widened_entry_stamp_is_clipped_to_a_consumed_window() {
    let expr = widened_expr();
    let mut pe = PlanEval::compile(&expr).unwrap();
    let mut eb = EventBase::new();
    eb.append(et(0), Oid(1)); // t1: A(o1)
    eb.append(et(1), Oid(1)); // t2: B(o1)
    eb.append(et(4), Oid(1)); // t3: X(o1)
    eb.tick(); // t4: no arrival
    let w = Window::new(Timestamp(2), eb.now());
    assert_eq!(check_window(&mut pe, &expr, &eb, w), vec![true, true]);
}

/// One evaluator kept while the window's lower bound moves past a row's
/// entry stamp and new arrivals land: every interior instant and the
/// frontier matrix stay equal to the reference and a cold rebuild.
#[test]
fn widened_domain_tracks_a_rising_lower_bound() {
    let expr = widened_expr();
    let mut pe = PlanEval::compile(&expr).unwrap();
    let mut eb = EventBase::new();
    eb.append(et(4), Oid(1)); // t1: X(o1), o1 enters
    eb.append(et(0), Oid(1)); // t2: A(o1)
    eb.append(et(0), Oid(2)); // t3: A(o2)
    let w = Window::from_origin(eb.now());
    assert_eq!(check_window(&mut pe, &expr, &eb, w), vec![true, false, false]);
    eb.append(et(5), Oid(2)); // t4: Y(o2), its A(o2) at t3 now consumed
    eb.append(et(4), Oid(3)); // t5: X(o3), o3 enters
    eb.append(et(0), Oid(3)); // t6: A(o3), but -=A still holds for o2
    let w = Window::new(Timestamp(3), eb.now());
    assert_eq!(check_window(&mut pe, &expr, &eb, w), vec![true, true, true]);
}

/// `A +=B`: one negation-free boundary over `A` and `B` on one object.
fn conj_expr() -> EventExpr {
    EventExpr::prim(et(0)).iand(EventExpr::prim(et(1)))
}

/// A scratch built in transaction k answers nothing after the cut at the
/// start of k + 1, even at the very epoch it was built at: a window that
/// reaches below the cut sees only the live part, which is empty here.
/// Keyed on `(uid, epoch)` alone (which a cut keeps) the evaluator would
/// answer from its memo of the dropped `A(o1), B(o1)`.
#[test]
fn scratch_built_before_a_cut_answers_nothing_after_it() {
    let expr = conj_expr();
    let mut pe = PlanEval::compile(&expr).unwrap();
    let (mut live, mut full) = (EventBase::new(), EventBase::new());
    for eb in [&mut live, &mut full] {
        eb.append(et(0), Oid(1)); // t1: A(o1)
        eb.append(et(1), Oid(1)); // t2: B(o1)
    }
    let w = Window::from_origin(live.now());
    assert!(pe.eval(&live, w, w.upto).is_active(), "transaction k fires");
    live.truncate();
    let cut = live.now();
    // same uid, same epoch, same window: only the cut differs
    let got = pe.eval(&live, w, w.upto);
    let clipped = Window::new(cut, w.upto);
    assert_eq!(got, boundary_ts_logical(&expr, &full, clipped, w.upto));
    assert!(!got.is_active(), "the dropped occurrences must not answer");
    // and the next transaction's window is answered from the live part
    for eb in [&mut live, &mut full] {
        eb.append(et(1), Oid(2)); // t3: B(o2)
        eb.append(et(0), Oid(2)); // t4: A(o2)
    }
    let w = Window::new(cut, live.now());
    assert_eq!(check_window(&mut pe, &expr, &live, w), vec![false, true]);
    for t in [Timestamp(3), Timestamp(4)] {
        assert_eq!(pe.eval(&live, w, t), boundary_ts_logical(&expr, &full, w, t));
    }
}

/// The advance path right after a cut: a matrix built at the cut itself
/// (no live occurrence yet, the probe instant ahead of the clock) has
/// absorbed every occurrence there was, so the next arrivals advance it
/// instead of rebuilding it — and it still equals a cold rebuild and the
/// untruncated reference at every instant.
#[test]
fn matrix_built_at_the_cut_advances_like_a_cold_rebuild() {
    let expr = conj_expr();
    let mut pe = PlanEval::compile(&expr).unwrap();
    let (mut live, mut full) = (EventBase::new(), EventBase::new());
    for eb in [&mut live, &mut full] {
        eb.append(et(0), Oid(1)); // t1: A(o1), dropped by the cut
    }
    live.truncate();
    let cut = live.now();
    let ahead = Window::new(cut, Timestamp(cut.raw() + 3));
    assert!(!pe.eval(&live, ahead, ahead.upto).is_active());
    for eb in [&mut live, &mut full] {
        eb.append(et(1), Oid(1)); // t2: B(o1), but A(o1) is before the cut
        eb.append(et(0), Oid(3)); // t3: A(o3)
        eb.append(et(1), Oid(3)); // t4: B(o3)
    }
    for t in 2..=4 {
        let t = Timestamp(t);
        assert_eq!(pe.eval(&live, ahead, t), boundary_ts_logical(&expr, &full, ahead, t), "{t}");
    }
    assert_eq!(check_window(&mut pe, &expr, &live, ahead), vec![false, false, true]);
}
