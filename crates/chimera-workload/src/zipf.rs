//! Zipf-skewed tenant populations.
//!
//! The runtime's hot-tenant failure mode is not an exotic corner: real
//! multi-tenant traffic is Zipf-distributed, so one tenant is orders of
//! magnitude hotter than the median. This module draws *tenant ranks*
//! from a parameterized Zipf law — rank 0 is the hottest — with an
//! optional extra boost on rank 0 for the "1 blazing tenant + N cold"
//! soak shape that `tests/runtime_equivalence.rs`'s steal-heavy draw and
//! `examples/chaos_soak.rs` use. The caller maps ranks to actual tenant
//! ids (dense, colliding, whatever the experiment needs); this type only
//! owns the draw.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Zipf tenant-population configuration.
#[derive(Debug, Clone)]
pub struct ZipfTenantsConfig {
    /// Number of distinct tenants (ranks `0..tenants`).
    pub tenants: u64,
    /// The Zipf exponent: rank `k` has weight `1 / (k+1)^s`. `0.0` is a
    /// uniform population; `~1.0` is classic web-traffic skew; larger
    /// values concentrate harder.
    pub s: f64,
    /// Extra multiplicative weight on rank 0, on top of its Zipf weight.
    /// `1.0` = pure Zipf; the skew benches use large boosts to model one
    /// blazing tenant against a long cold tail.
    pub hot_boost: f64,
    /// RNG seed (draws are fully reproducible).
    pub seed: u64,
}

impl Default for ZipfTenantsConfig {
    fn default() -> Self {
        ZipfTenantsConfig {
            tenants: 64,
            s: 1.1,
            hot_boost: 1.0,
            seed: 42,
        }
    }
}

/// A seeded generator of Zipf-distributed tenant ranks.
#[derive(Debug)]
pub struct ZipfTenants {
    /// Cumulative rank distribution.
    cdf: Vec<f64>,
    rng: StdRng,
}

impl ZipfTenants {
    /// New generator.
    pub fn new(cfg: ZipfTenantsConfig) -> Self {
        assert!(cfg.tenants > 0, "need at least one tenant");
        assert!(cfg.hot_boost > 0.0, "hot_boost must be positive");
        let mut weights: Vec<f64> = (0..cfg.tenants)
            .map(|k| 1.0 / ((k + 1) as f64).powf(cfg.s))
            .collect();
        weights[0] *= cfg.hot_boost;
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        ZipfTenants {
            cdf: weights,
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }

    /// Number of ranks in the population.
    pub fn tenants(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draw the next tenant rank (0 = hottest).
    pub fn next_rank(&mut self) -> u64 {
        let x: f64 = self.rng.random_range(0.0..1.0);
        let rank = self.cdf.partition_point(|&c| c < x) as u64;
        rank.min(self.tenants() - 1)
    }

    /// Draw `n` ranks — the tenant sequence of a soak run.
    pub fn ranks(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_rank()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_with_same_seed() {
        let mut a = ZipfTenants::new(ZipfTenantsConfig::default());
        let mut b = ZipfTenants::new(ZipfTenantsConfig::default());
        assert_eq!(a.ranks(200), b.ranks(200));
    }

    #[test]
    fn ranks_stay_in_bounds() {
        let mut g = ZipfTenants::new(ZipfTenantsConfig {
            tenants: 5,
            s: 2.0,
            hot_boost: 10.0,
            seed: 7,
        });
        assert!(g.ranks(500).iter().all(|&r| r < 5));
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let mut g = ZipfTenants::new(ZipfTenantsConfig {
            tenants: 16,
            s: 1.2,
            hot_boost: 1.0,
            seed: 3,
        });
        let mut counts = vec![0usize; 16];
        for r in g.ranks(4000) {
            counts[r as usize] += 1;
        }
        assert!(
            counts[0] > counts[15] * 4,
            "Zipf draw should favour rank 0: {counts:?}"
        );
    }

    #[test]
    fn hot_boost_makes_rank_zero_dominate() {
        let mut g = ZipfTenants::new(ZipfTenantsConfig {
            tenants: 32,
            s: 1.0,
            hot_boost: 64.0,
            seed: 11,
        });
        let hot = g.ranks(2000).iter().filter(|&&r| r == 0).count();
        assert!(
            hot > 1000,
            "a 64x boost should give rank 0 the majority, got {hot}/2000"
        );
    }

    #[test]
    fn zero_s_is_roughly_uniform() {
        let mut g = ZipfTenants::new(ZipfTenantsConfig {
            tenants: 4,
            s: 0.0,
            hot_boost: 1.0,
            seed: 9,
        });
        let mut counts = [0usize; 4];
        for r in g.ranks(4000) {
            counts[r as usize] += 1;
        }
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "rank {rank} count {c} far from uniform: {counts:?}"
            );
        }
    }
}
