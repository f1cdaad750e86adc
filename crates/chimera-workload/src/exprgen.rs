//! Random well-formed event expressions.
//!
//! Generation respects §3.2 well-formedness by construction: instance
//! sub-expressions are built from the instance-only grammar, so
//! `EventExpr::validate` always succeeds (asserted in tests). Used by the
//! property suites (evaluator agreement, algebraic laws, optimizer
//! equivalence) and by the operator benchmarks.

use chimera_calculus::EventExpr;
use chimera_events::EventType;
use chimera_model::ClassId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Expression-generator configuration.
#[derive(Debug, Clone)]
pub struct ExprGenConfig {
    /// Number of distinct primitive event types to draw from.
    pub event_types: u32,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Probability that a binary/unary node is instance-oriented.
    pub instance_prob: f64,
    /// Probability of generating a negation at a unary choice point.
    pub negation_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExprGenConfig {
    fn default() -> Self {
        ExprGenConfig {
            event_types: 6,
            max_depth: 4,
            instance_prob: 0.3,
            negation_prob: 0.2,
            seed: 42,
        }
    }
}

/// Seeded random expression generator.
#[derive(Debug)]
pub struct RandomExprGen {
    cfg: ExprGenConfig,
    rng: StdRng,
}

impl RandomExprGen {
    /// New generator.
    pub fn new(cfg: ExprGenConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        RandomExprGen { cfg, rng }
    }

    fn prim(&mut self) -> EventExpr {
        let n = self.rng.random_range(0..self.cfg.event_types);
        EventExpr::prim(EventType::external(ClassId(0), n))
    }

    /// One random well-formed expression.
    pub fn generate(&mut self) -> EventExpr {
        let depth = self.rng.random_range(1..=self.cfg.max_depth);
        self.set_expr(depth)
    }

    /// A batch of expressions.
    pub fn batch(&mut self, n: usize) -> Vec<EventExpr> {
        (0..n).map(|_| self.generate()).collect()
    }

    /// A purely instance-oriented expression (usable in event formulas).
    pub fn generate_instance(&mut self) -> EventExpr {
        let depth = self.rng.random_range(1..=self.cfg.max_depth);
        self.inst_expr(depth)
    }

    /// A negation-free set-oriented expression: the regular fragment of
    /// primitives under `,` `+` `<`.
    pub fn generate_regular(&mut self) -> EventExpr {
        let depth = self.rng.random_range(1..=self.cfg.max_depth);
        self.regular_expr(depth)
    }

    fn set_expr(&mut self, depth: usize) -> EventExpr {
        if depth <= 1 {
            return self.prim();
        }
        if self.rng.random_bool(self.cfg.instance_prob) {
            return self.inst_expr(depth);
        }
        if self.rng.random_bool(self.cfg.negation_prob) {
            return self.set_expr(depth - 1).not();
        }
        let a = self.set_expr(depth - 1);
        let b = self.set_expr(depth - 1);
        match self.rng.random_range(0..3) {
            0 => a.or(b),
            1 => a.and(b),
            _ => a.prec(b),
        }
    }

    fn inst_expr(&mut self, depth: usize) -> EventExpr {
        if depth <= 1 {
            return self.prim();
        }
        if self.rng.random_bool(self.cfg.negation_prob) {
            return self.inst_expr(depth - 1).inot();
        }
        let a = self.inst_expr(depth - 1);
        let b = self.inst_expr(depth - 1);
        match self.rng.random_range(0..3) {
            0 => a.ior(b),
            1 => a.iand(b),
            _ => a.iprec(b),
        }
    }

    fn regular_expr(&mut self, depth: usize) -> EventExpr {
        if depth <= 1 {
            return self.prim();
        }
        let a = self.regular_expr(depth - 1);
        let b = self.regular_expr(depth - 1);
        match self.rng.random_range(0..3) {
            0 => a.or(b),
            1 => a.and(b),
            _ => a.prec(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_expressions_are_well_formed() {
        let mut g = RandomExprGen::new(ExprGenConfig {
            max_depth: 6,
            instance_prob: 0.5,
            negation_prob: 0.4,
            ..Default::default()
        });
        for e in g.batch(200) {
            e.validate().unwrap_or_else(|err| panic!("{e}: {err}"));
        }
    }

    #[test]
    fn instance_expressions_are_instance_oriented() {
        let mut g = RandomExprGen::new(ExprGenConfig::default());
        for _ in 0..100 {
            let e = g.generate_instance();
            assert!(e.is_instance_oriented(), "{e}");
        }
    }

    #[test]
    fn regular_expressions_have_no_negation_or_instance_ops() {
        let mut g = RandomExprGen::new(ExprGenConfig::default());
        for _ in 0..100 {
            let e = g.generate_regular();
            assert!(!e.contains_negation(), "{e}");
            assert!(in_regular_fragment(&e), "regular fragment only: {e}");
        }
    }

    fn in_regular_fragment(e: &EventExpr) -> bool {
        match e {
            EventExpr::Prim(_) => true,
            EventExpr::Or(a, b) | EventExpr::And(a, b) | EventExpr::Prec(a, b) => {
                in_regular_fragment(a) && in_regular_fragment(b)
            }
            _ => false,
        }
    }

    #[test]
    fn reproducible() {
        let mut a = RandomExprGen::new(ExprGenConfig::default());
        let mut b = RandomExprGen::new(ExprGenConfig::default());
        assert_eq!(a.batch(20), b.batch(20));
    }

    #[test]
    fn depth_bounded() {
        let mut g = RandomExprGen::new(ExprGenConfig {
            max_depth: 3,
            ..Default::default()
        });
        for _ in 0..100 {
            assert!(g.generate().depth() <= 3);
        }
    }
}
