//! Property suite for the parallel runtime (`chimera-runtime`):
//! parallelism must be **observationally invisible**.
//!
//! The medium is in-process submission: an interleaved multi-tenant
//! [`Script`] goes straight into the sharded runtime (bounded queues,
//! worker threads, tenant stealing), and every tenant must then equal
//! the shared sequential oracle (`chimera-oracle`) replaying its jobs —
//! [`Observed`](chimera_oracle::Observed) state, error count and last
//! error, and a live tail within the longest transaction. Its engines
//! never restart, so the Trigger Support counters must match too. The
//! runtime's own accounting closes: every submission processed, none
//! shed, no panic, and per-shard totals that add up.
//!
//! The suite's configured default is 256 cases; CI runs it in a
//! dedicated step at `PROPTEST_CASES=256`.

use chimera::runtime::{Backpressure, RuntimeConfig, Scheduler};
use chimera_oracle::{compare, medium, Pick, Script, Setup};
use proptest::prelude::*;

/// A small queue, so submitters block and exercise the Block policy.
fn blocking(setup: &Setup, shards: usize, scheduler: Scheduler) -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: 4,
        backpressure: Backpressure::Block,
        scheduler,
        ..setup.config(shards)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interleaved multi-tenant traffic through the parallel runtime ≡
    /// per-tenant sequential replay.
    #[test]
    fn runtime_matches_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        tenants in 1u64..6,
        steps in 1usize..40,
        shards in 1usize..4,
    ) {
        let setup = Setup::seeded(rule_seed);
        let rt = setup.runtime(blocking(&setup, shards, Scheduler::default()));
        let script = Script::draw(script_seed, tenants, steps, Pick::Uniform);
        medium::submit(&rt, &script, false);
        compare(&rt, &setup, &script.per_tenant, None, true)?;
        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.jobs_shed, 0u64);
        prop_assert_eq!(stats.job_panics, 0u64);
    }

    /// Configurations chosen to *maximize* cross-shard tenant stealing
    /// still replay identically, under both schedulers. Three
    /// adversarial shapes:
    ///
    /// * one tenant × many workers — every idle worker contends to claim
    ///   the single ready tenant, so per-tenant FIFO rests entirely on
    ///   the exclusive-claim protocol;
    /// * many tenants × two workers — constant migration pressure, every
    ///   release re-enqueues into a contended ready set;
    /// * a Zipf-skewed job mix — one hot tenant keeps its home worker
    ///   saturated while the cold tail gets stolen around it.
    #[test]
    fn steal_heavy_schedules_match_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        scenario in 0usize..3,
        pinned in any::<bool>(),
    ) {
        let (tenants, shards, steps) = match scenario {
            0 => (1u64, 6usize, 48usize),
            1 => (16, 2, 64),
            _ => (8, 4, 64),
        };
        let pick = if scenario == 2 {
            Pick::Zipf { s: 1.3, hot_boost: 4.0 }
        } else {
            Pick::Uniform
        };
        let setup = Setup::seeded(rule_seed);
        let scheduler = if pinned { Scheduler::Pinned } else { Scheduler::LoadAware };
        let rt = setup.runtime(blocking(&setup, shards, scheduler));
        let script = Script::draw(script_seed, tenants, steps, pick);
        medium::submit(&rt, &script, false);

        let stats = rt.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.jobs_shed, 0u64);
        prop_assert_eq!(stats.job_panics, 0u64);
        // per-shard accounting closes: homes account for every submission,
        // workers for every execution
        let sub: u64 = stats.per_shard.iter().map(|s| s.jobs_submitted).sum();
        let exec: u64 = stats.per_shard.iter().map(|s| s.jobs_executed).sum();
        prop_assert_eq!(sub, stats.jobs_submitted);
        prop_assert_eq!(exec, stats.jobs_processed);
        if pinned {
            // before shutdown, pinned scheduling never crosses homes
            prop_assert_eq!(stats.steals, 0u64);
            for (i, sh) in stats.per_shard.iter().enumerate() {
                prop_assert_eq!(
                    sh.jobs_executed, sh.jobs_submitted,
                    "pinned shard {} executed foreign work", i
                );
            }
        }
        compare(&rt, &setup, &script.per_tenant, None, true)?;
    }
}
