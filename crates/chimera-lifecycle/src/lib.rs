//! # chimera-lifecycle
//!
//! Tenant residency management for the multi-tenant runtime: the policy
//! half of "millions of registered tenants, a bounded working set in
//! RAM".
//!
//! PR 6 made every tenant reconstructible from its home shard's
//! snapshot + job-log replay, which means a tenant's RAM engine is a
//! *cache* of durable state, not the only copy. This crate supplies the
//! cache policy the runtime threads under its admission pool:
//!
//! * [`LifecycleConfig`] — the residency budget: a hard cap on resident
//!   engines ([`LifecycleConfig::max_resident_tenants`]) and/or an
//!   approximate bytes budget ([`LifecycleConfig::max_resident_bytes`]).
//!   The default is unbounded, i.e. the pre-lifecycle behaviour: every
//!   tenant ever touched stays resident.
//! * [`ResidencyLru`] — an intrusive LRU over tenant ids (slab-backed
//!   doubly-linked list + index map; `touch`/`remove`/`pop` are O(1), no
//!   per-operation allocation once warm). The runtime touches a tenant
//!   on every admission-pool release, so recency here is "last finished
//!   a batch", which tracks actual engine activity rather than
//!   submission arrival.
//!
//! The *mechanism* — freezing a cold engine into a snapshot its home
//! shard keeps in RAM, dropping it from the registry, and rehydrating on
//! the next claim — lives in `chimera-runtime`, which owns the locks that
//! make eviction race-free (claim exclusivity, the tenant slot mutex,
//! the store slot). This crate is deliberately dependency-free so the
//! policy is testable in isolation and usable by other embedders of the
//! engine.

pub mod lru;

pub use lru::ResidencyLru;

/// The residency budget for a runtime's tenant engines.
///
/// Both limits default to `None` (unbounded). When either is set, the
/// runtime evicts coldest-first after each batch until the working set
/// fits, skipping tenants that are mid-transaction, have staged jobs, or
/// are homed on a poisoned shard — eviction is optional work and never
/// blocks, degrades, or drops unpersisted state.
///
/// The budget is **fixed at runtime construction**: the runtime reads
/// it once when its fabric is built, and an unbounded runtime never
/// populates the recency LRU at all. Changing the budget on a live
/// runtime is not supported — only tenants present in the LRU are
/// eviction candidates, so engines that became resident while no budget
/// was configured would be invisible to a budget imposed later. To
/// change the budget, rebuild the runtime (durable state recovers; a
/// bounded rebuild seeds the LRU from every recovered engine in order of
/// last activity and evicts down to the budget before the first job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleConfig {
    /// Maximum tenant engines resident in RAM, `None` for unbounded.
    /// A cap of 0 is treated as 1: the tenant being claimed is always
    /// resident while it runs.
    pub max_resident_tenants: Option<usize>,
    /// Approximate resident-bytes budget, `None` for unbounded. Sizes
    /// are the runtime's estimates (object/event/rule counts scaled by
    /// struct sizes), good for relative pressure, not accounting.
    pub max_resident_bytes: Option<u64>,
}

impl LifecycleConfig {
    /// The unbounded default: nothing is ever evicted.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Budget by resident-engine count.
    pub fn with_max_resident(n: usize) -> Self {
        LifecycleConfig {
            max_resident_tenants: Some(n),
            max_resident_bytes: None,
        }
    }

    /// Is any budget configured at all? The runtime skips the whole
    /// enforcement path (and its lock) when not.
    pub fn is_bounded(&self) -> bool {
        self.max_resident_tenants.is_some() || self.max_resident_bytes.is_some()
    }

    /// Does a working set of `tenants` engines totalling `bytes` exceed
    /// the budget? The count cap is clamped to ≥ 1 so the tenant
    /// currently claimed can always be resident.
    pub fn over_budget(&self, tenants: usize, bytes: u64) -> bool {
        if let Some(cap) = self.max_resident_tenants {
            if tenants > cap.max(1) {
                return true;
            }
        }
        if let Some(cap) = self.max_resident_bytes {
            if bytes > cap && tenants > 1 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded() {
        let c = LifecycleConfig::default();
        assert!(!c.is_bounded());
        assert!(!c.over_budget(usize::MAX, u64::MAX));
    }

    #[test]
    fn count_budget() {
        let c = LifecycleConfig::with_max_resident(4);
        assert!(c.is_bounded());
        assert!(!c.over_budget(4, 0));
        assert!(c.over_budget(5, 0));
    }

    #[test]
    fn zero_cap_keeps_one_resident() {
        let c = LifecycleConfig::with_max_resident(0);
        assert!(!c.over_budget(1, 0), "the claimed tenant stays resident");
        assert!(c.over_budget(2, 0));
    }

    #[test]
    fn bytes_budget_never_evicts_the_last_tenant() {
        let c = LifecycleConfig {
            max_resident_tenants: None,
            max_resident_bytes: Some(1024),
        };
        assert!(c.over_budget(2, 2048));
        assert!(!c.over_budget(1, 2048), "a lone oversized tenant stays");
        assert!(!c.over_budget(2, 1024));
    }
}
