//! Shared helpers for the Criterion benches (see `benches/`).
//!
//! Each bench target times one of the paper-shaped experiments that
//! PAPER.md lists under "What the code implements" (the §5.1 static
//! optimization, the Fig. 3 Event Base, the Fig. 5 `ts` traces, ...).

use chimera_calculus::EventExpr;
use chimera_events::{EventBase, EventType};
use chimera_model::ClassId;
use chimera_workload::{StreamConfig, StreamGen};

/// External event type `n` on the bench class.
pub fn et(n: u32) -> EventType {
    EventType::external(ClassId(0), n)
}

/// Primitive expression on [`et`].
pub fn p(n: u32) -> EventExpr {
    EventExpr::prim(et(n))
}

/// A reproducible event base with `len` arrivals over `types`/`objects`.
pub fn history(seed: u64, len: usize, types: u32, objects: u64) -> EventBase {
    StreamGen::new(StreamConfig {
        event_types: types,
        objects,
        seed,
        skew: 0.3,
    })
    .build(len)
}

/// The benchmark expression menu: one representative per operator family
/// plus a deep composite (§3.1's big example shape).
pub fn operator_menu() -> Vec<(&'static str, EventExpr)> {
    vec![
        ("primitive", p(0)),
        ("disjunction", p(0).or(p(1))),
        ("conjunction", p(0).and(p(1))),
        ("negation", p(0).not()),
        ("precedence", p(0).prec(p(1))),
        ("instance-conjunction", p(0).iand(p(1))),
        ("instance-precedence", p(0).iprec(p(1))),
        ("instance-negation", p(0).iand(p(1)).inot()),
        (
            "deep-composite",
            p(0).and(p(1).prec(p(2)).or(p(3).prec(p(4))).not()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let eb = history(1, 100, 4, 8);
        assert_eq!(eb.len(), 100);
        assert_eq!(operator_menu().len(), 9);
        for (_, e) in operator_menu() {
            e.validate().unwrap();
        }
    }
}
