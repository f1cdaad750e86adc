//! Property suite for §4.2: the algebraic laws at their declared
//! strengths and the logical/algebraic evaluator agreement, over random
//! histories and random well-formed expressions.

use chimera::calculus::rewrite::{Strength, INSTANCE_LAWS};
use chimera::calculus::{
    nnf, ots_algebraic, ots_logical, simplify, ts_algebraic, ts_logical, LAWS,
};
use chimera::events::{EventBase, Timestamp, Window};
use chimera::model::Oid;
use chimera::workload::{ExprGenConfig, RandomExprGen, StreamConfig, StreamGen};
use proptest::prelude::*;

fn history(seed: u64, len: usize) -> EventBase {
    let mut gen = StreamGen::new(StreamConfig {
        event_types: 6,
        objects: 5,
        seed,
        skew: 0.4,
    });
    gen.build(len)
}

fn exprs(seed: u64, n: usize) -> Vec<chimera::calculus::EventExpr> {
    let mut g = RandomExprGen::new(ExprGenConfig {
        event_types: 6,
        max_depth: 4,
        instance_prob: 0.3,
        negation_prob: 0.3,
        seed,
    });
    g.batch(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The two §4.2 evaluator styles agree everywhere.
    #[test]
    fn logical_equals_algebraic(seed in any::<u64>(), len in 1usize..40) {
        let eb = history(seed, len);
        let now = eb.now();
        for e in exprs(seed ^ 0x9e37, 6) {
            for after in [0, len as u64 / 2] {
                let w = Window::new(Timestamp(after), now);
                for t in 1..=now.raw() {
                    let t = Timestamp(t);
                    prop_assert_eq!(
                        ts_logical(&e, &eb, w, t),
                        ts_algebraic(&e, &eb, w, t),
                        "{} at {}", e, t
                    );
                }
            }
        }
    }

    /// Every §4.2 set-oriented law holds at its declared strength, with
    /// random (possibly composite, possibly negated) arguments.
    #[test]
    fn set_laws_hold(seed in any::<u64>(), len in 1usize..40) {
        let eb = history(seed, len);
        let now = eb.now();
        let w = Window::from_origin(now);
        let args = exprs(seed ^ 0xabcd, 3);
        let mut nf_gen = RandomExprGen::new(ExprGenConfig {
            event_types: 6,
            max_depth: 3,
            seed: seed ^ 0xef01,
            ..Default::default()
        });
        let nf_args: Vec<_> = (0..3).map(|_| nf_gen.generate_regular()).collect();
        for law in LAWS {
            // negation-restricted laws get negation-free arguments
            let args = if law.requires_negation_free { &nf_args } else { &args };
            let (lhs, rhs) = (law.build)(&args[..law.arity]);
            for t in 1..=now.raw() {
                let t = Timestamp(t);
                let lv = ts_logical(&lhs, &eb, w, t);
                let rv = ts_logical(&rhs, &eb, w, t);
                match law.strength {
                    Strength::Strong => prop_assert_eq!(lv, rv, "{} at {}", law.name, t),
                    Strength::Weak => {
                        prop_assert_eq!(lv.is_active(), rv.is_active(), "{} at {}", law.name, t);
                        if lv.is_active() {
                            prop_assert_eq!(lv, rv, "{} stamp at {}", law.name, t);
                        }
                    }
                }
            }
        }
    }

    /// Instance-level laws hold per object (`ots` identities).
    #[test]
    fn instance_laws_hold(seed in any::<u64>(), len in 1usize..40) {
        let eb = history(seed, len);
        let now = eb.now();
        let w = Window::from_origin(now);
        let mut g = RandomExprGen::new(ExprGenConfig {
            seed: seed ^ 0x7777,
            max_depth: 3,
            negation_prob: 0.25,
            ..Default::default()
        });
        let args: Vec<_> = (0..3).map(|_| g.generate_instance()).collect();
        for law in INSTANCE_LAWS {
            let (lhs, rhs) = (law.build)(&args[..law.arity]);
            for oid in 1..=5u64 {
                for t in 1..=now.raw() {
                    let t = Timestamp(t);
                    let lv = ots_logical(&lhs, &eb, w, t, Oid(oid));
                    let rv = ots_logical(&rhs, &eb, w, t, Oid(oid));
                    match law.strength {
                        Strength::Strong => prop_assert_eq!(lv, rv, "{} o{} t{}", law.name, oid, t),
                        Strength::Weak => {
                            prop_assert_eq!(lv.is_active(), rv.is_active(), "{}", law.name);
                            if lv.is_active() {
                                prop_assert_eq!(lv, rv, "{}", law.name);
                            }
                        }
                    }
                    // and the two instance evaluators agree
                    prop_assert_eq!(lv, ots_algebraic(&lhs, &eb, w, t, Oid(oid)));
                }
            }
        }
    }

    /// `nnf` and `simplify` preserve the exact ts function.
    #[test]
    fn rewrites_preserve_ts(seed in any::<u64>(), len in 1usize..40) {
        let eb = history(seed, len);
        let now = eb.now();
        let w = Window::from_origin(now);
        for e in exprs(seed ^ 0x2222, 6) {
            let n = nnf(&e);
            let s = simplify(&e);
            for t in 1..=now.raw() {
                let t = Timestamp(t);
                let orig = ts_logical(&e, &eb, w, t);
                prop_assert_eq!(orig, ts_logical(&n, &eb, w, t), "nnf {} vs {}", e, n);
                prop_assert_eq!(orig, ts_logical(&s, &eb, w, t), "simplify {} vs {}", e, s);
            }
        }
    }
}

/// Deterministic exhaustive check on tiny histories: every law, every
/// history of 4 events over 3 types on 2 objects (sampled subset keeps the
/// runtime reasonable while covering all orderings of 3 distinct types).
#[test]
fn set_laws_small_model() {
    use chimera::calculus::EventExpr;
    use chimera::events::EventType;
    use chimera::model::ClassId;
    let p = |n: u32| EventExpr::prim(EventType::external(ClassId(0), n));
    let args = [p(0), p(1), p(2)];
    // all 3^4 type sequences
    for code in 0..81u32 {
        let mut eb = EventBase::new();
        let mut c = code;
        for i in 0..4 {
            let ty = c % 3;
            c /= 3;
            eb.append_at(
                EventType::external(ClassId(0), ty),
                Oid(1 + (i % 2) as u64),
                Timestamp(i as u64 + 1),
            );
        }
        let w = Window::from_origin(Timestamp(4));
        for law in LAWS {
            // args here are plain primitives: negation-free, all laws apply
            let (lhs, rhs) = (law.build)(&args[..law.arity]);
            for t in 1..=4u64 {
                let t = Timestamp(t);
                let lv = ts_logical(&lhs, &eb, w, t);
                let rv = ts_logical(&rhs, &eb, w, t);
                match law.strength {
                    Strength::Strong => assert_eq!(lv, rv, "{} code={code} t={t}", law.name),
                    Strength::Weak => {
                        assert_eq!(lv.is_active(), rv.is_active(), "{} code={code}", law.name);
                        if lv.is_active() {
                            assert_eq!(lv, rv, "{} code={code}", law.name);
                        }
                    }
                }
            }
        }
    }
}
