//! Seeded, deterministic fault schedules.
//!
//! A [`FaultPlan`] answers one question per store operation: *does this
//! invocation fail, and how?* Decisions are a pure function of the plan
//! seed and the operation's ordinal (SplitMix64-finalized), so a plan is
//! reproducible independently of thread interleaving — the property the
//! chaos oracle needs to replay a failing case. Two refinements keep
//! plans useful rather than merely random:
//!
//! * a **transient** fault promises the immediate retry of that
//!   operation succeeds (the plan suppresses its next draw), matching
//!   the "would a retry plausibly help" contract the runtime's bounded
//!   retry is built on;
//! * a **permanent** fault is sticky: every subsequent operation on the
//!   plan fails permanently too, modelling a store whose backing device
//!   is gone rather than a one-off hiccup.

use std::collections::HashMap;

/// The store operation a fault directive targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `StateStore::append` — staging one job record.
    Append,
    /// `StateStore::commit` — the group-commit fsync.
    Commit,
    /// `StateStore::snapshot` — shard snapshot + log truncation.
    Snapshot,
    /// `StateStore::evict_tenant` — accepting one tenant's eviction.
    Evict,
}

impl StoreOp {
    pub(crate) fn index(self) -> usize {
        match self {
            StoreOp::Append => 0,
            StoreOp::Commit => 1,
            StoreOp::Snapshot => 2,
            StoreOp::Evict => 3,
        }
    }
}

/// How an injected operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// A retryable `io::Error` (kind `Interrupted`); the plan guarantees
    /// the immediate retry succeeds.
    Transient,
    /// A non-retryable `io::Error`; the plan stays broken afterwards.
    Permanent,
    /// The ambiguous commit: the wrapped operation is **performed**, then
    /// reported as a transient failure — data reached disk but the
    /// caller cannot know. A retry is safe (commit of nothing staged is
    /// a no-op) and succeeds. Only defined for [`StoreOp::Commit`]: a
    /// torn *append* would duplicate its record on the retry the
    /// transient report invites, so [`FaultPlan::fail_nth`] rejects
    /// `Torn` on any other op.
    Torn,
}

/// Per-operation fault probabilities, in units of 1/10000 per call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosRates {
    /// Transient-failure rate for `append`.
    pub append_transient: u32,
    /// Transient-failure rate for `commit`.
    pub commit_transient: u32,
    /// Torn/ambiguous rate for `commit`.
    pub commit_torn: u32,
    /// Transient-failure rate for `snapshot`.
    pub snapshot_transient: u32,
    /// Transient-failure rate for `evict_tenant`. The runtime gives an
    /// eviction *no* retry — a fault here means the tenant simply stays
    /// resident — so unlike the other transients this one is observable
    /// as a refused eviction, never as latency.
    pub evict_transient: u32,
}

/// A deterministic schedule of storage faults (see module docs).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates: ChaosRates,
    /// Explicit `(op, nth) -> fault` overrides; consumed when they fire.
    scheduled: HashMap<(usize, u64), StorageFault>,
    /// Calls seen so far, per operation.
    counts: [u64; 4],
    /// Set after a transient/torn fault: the next call of that op is
    /// forced to succeed (the "retry works" guarantee).
    forced_ok: [bool; 4],
    /// Sticky permanent breakage.
    broken: bool,
}

/// The SplitMix64 finalizer — the workspace's standard seeded mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that never injects anything (useful as a per-shard default
    /// when only one shard is targeted).
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0, ChaosRates::default())
    }

    /// A probabilistic plan: each operation call draws against `rates`
    /// using a decision derived purely from `(seed, op, ordinal)`.
    pub fn seeded(seed: u64, rates: ChaosRates) -> FaultPlan {
        FaultPlan {
            seed,
            rates,
            scheduled: HashMap::new(),
            counts: [0; 4],
            forced_ok: [false; 4],
            broken: false,
        }
    }

    /// Schedule an explicit fault on the `nth` call (0-based) of `op`,
    /// overriding the probabilistic draw for that call.
    ///
    /// # Panics
    ///
    /// If `fault` is [`StorageFault::Torn`] and `op` is not
    /// [`StoreOp::Commit`] — torn semantics (perform, then report
    /// failure) are safe to retry only for the group commit; a torn
    /// append would land its record *twice* once the runtime retries.
    pub fn fail_nth(mut self, op: StoreOp, nth: u64, fault: StorageFault) -> FaultPlan {
        assert!(
            fault != StorageFault::Torn || op == StoreOp::Commit,
            "StorageFault::Torn is only defined for StoreOp::Commit (a torn {op:?} \
             would duplicate data on retry)"
        );
        self.scheduled.insert((op.index(), nth), fault);
        self
    }

    /// Calls of `op` seen so far.
    pub fn count(&self, op: StoreOp) -> u64 {
        self.counts[op.index()]
    }

    /// Whether a permanent fault has fired.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Decide the fate of the current call of `op` and advance the
    /// schedule. `None` means the operation proceeds normally.
    pub fn next(&mut self, op: StoreOp) -> Option<StorageFault> {
        let i = op.index();
        let n = self.counts[i];
        self.counts[i] += 1;
        if self.broken {
            return Some(StorageFault::Permanent);
        }
        let fault = match self.scheduled.remove(&(i, n)) {
            Some(f) => Some(f),
            None if self.forced_ok[i] => {
                self.forced_ok[i] = false;
                return None;
            }
            None => self.draw(op, n),
        };
        match fault {
            Some(StorageFault::Permanent) => self.broken = true,
            Some(_) => self.forced_ok[i] = true,
            None => {}
        }
        fault
    }

    fn draw(&self, op: StoreOp, n: u64) -> Option<StorageFault> {
        let (transient, torn) = match op {
            StoreOp::Append => (self.rates.append_transient, 0),
            StoreOp::Commit => (self.rates.commit_transient, self.rates.commit_torn),
            StoreOp::Snapshot => (self.rates.snapshot_transient, 0),
            StoreOp::Evict => (self.rates.evict_transient, 0),
        };
        if transient == 0 && torn == 0 {
            return None;
        }
        let roll = mix(self.seed ^ mix(((op.index() as u64 + 1) << 56) | n)) % 10_000;
        if roll < torn as u64 {
            Some(StorageFault::Torn)
        } else if roll < (torn + transient) as u64 {
            Some(StorageFault::Transient)
        } else {
            None
        }
    }
}

/// Seeded helper for the net side: the `k`-th value of a SplitMix64
/// stream, exposed so the proxy (and tests sizing cut positions) share
/// one deterministic source.
pub(crate) fn stream(seed: u64, k: u64) -> u64 {
    mix(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_faults_fire_on_their_ordinal() {
        let mut p = FaultPlan::none()
            .fail_nth(StoreOp::Commit, 1, StorageFault::Torn)
            .fail_nth(StoreOp::Append, 0, StorageFault::Transient);
        assert_eq!(p.next(StoreOp::Append), Some(StorageFault::Transient));
        // transient/torn guarantee: the retry succeeds
        assert_eq!(p.next(StoreOp::Append), None);
        assert_eq!(p.next(StoreOp::Commit), None);
        assert_eq!(p.next(StoreOp::Commit), Some(StorageFault::Torn));
        assert_eq!(p.next(StoreOp::Commit), None);
        assert!(!p.is_broken());
    }

    #[test]
    #[should_panic(expected = "only defined for StoreOp::Commit")]
    fn torn_on_append_is_rejected_at_plan_construction() {
        let _ = FaultPlan::none().fail_nth(StoreOp::Append, 0, StorageFault::Torn);
    }

    #[test]
    fn permanent_fault_is_sticky_across_ops() {
        let mut p = FaultPlan::none().fail_nth(StoreOp::Commit, 0, StorageFault::Permanent);
        assert_eq!(p.next(StoreOp::Commit), Some(StorageFault::Permanent));
        assert_eq!(p.next(StoreOp::Commit), Some(StorageFault::Permanent));
        assert_eq!(p.next(StoreOp::Append), Some(StorageFault::Permanent));
        assert_eq!(p.next(StoreOp::Snapshot), Some(StorageFault::Permanent));
        assert!(p.is_broken());
    }

    #[test]
    fn seeded_draws_are_deterministic_and_rate_bounded() {
        let rates = ChaosRates {
            commit_transient: 2_000, // 20%
            ..ChaosRates::default()
        };
        let run = |seed: u64| -> Vec<Option<StorageFault>> {
            let mut p = FaultPlan::seeded(seed, rates);
            (0..200).map(|_| p.next(StoreOp::Commit)).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let faults = run(42).iter().filter(|f| f.is_some()).count();
        assert!(faults > 0, "20% over 200 draws must fire at least once");
        assert!(faults < 100, "rate is a bound, not a certainty");
        // every injected transient is followed by a forced success
        let seq = run(42);
        for w in seq.windows(2) {
            if w[0] == Some(StorageFault::Transient) {
                assert_eq!(w[1], None, "retry after a transient must succeed");
            }
        }
    }

    #[test]
    fn zero_rate_plan_is_silent() {
        let mut p = FaultPlan::none();
        for _ in 0..100 {
            assert_eq!(p.next(StoreOp::Append), None);
            assert_eq!(p.next(StoreOp::Commit), None);
            assert_eq!(p.next(StoreOp::Snapshot), None);
        }
    }
}
