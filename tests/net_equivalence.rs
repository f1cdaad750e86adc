//! **The network is observationally invisible.**
//!
//! The medium is TCP: ≥ 2 concurrent clients submit an interleaved
//! [`Script`](chimera_oracle::Script) across ≥ 16 tenants to a loopback
//! server, each client owning a disjoint set of tenants, and tenant-local
//! trigger definitions travel as synchronous `define trigger` calls
//! (`DefineTriggers`). Every submitted job must receive a per-job
//! completion (success or typed error), in submission order, with *no*
//! `flush` anywhere in the client path: quiescence is established purely
//! by draining completions. Then every tenant must equal the shared
//! sequential oracle (`chimera-oracle`) replaying its jobs — observed
//! state, error count and last error, a live tail within the longest
//! transaction — and, since its engines never restart, its Trigger
//! Support counters too.

use chimera::net::{Server, ServerConfig};
use chimera::runtime::{Backpressure, RuntimeConfig};
use chimera_oracle::{compare, medium, Pick, Script, Setup};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    // TCP sessions per case make this pricier than the in-process
    // suites: 256 cases of 2-3 clients × 16-24 tenants take ≈ 10 s in
    // debug.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn network_traffic_equals_sequential_replay(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        extra_tenants in 0u64..8,
        steps_per_tenant in 4usize..24,
        shards in 1usize..4,
    ) {
        let setup = Setup::seeded(rule_seed);
        let tenants = 16 + extra_tenants;
        let runtime = Arc::new(setup.runtime(RuntimeConfig {
            queue_capacity: 4, // small: exercise backpressure
            backpressure: Backpressure::Block,
            ..setup.config(shards)
        }));
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&runtime), ServerConfig::default()).unwrap();
        let script =
            Script::draw(script_seed, tenants, tenants as usize * steps_per_tenant, Pick::Uniform);
        medium::submit_over_wire(server.local_addr(), &script, 2 + (script_seed % 2) as usize);

        // all clients drained all completions ⇒ every tenant's stream is
        // fully retired; compare with no flush ever issued
        compare(&runtime, &setup, &script.per_tenant, None, true)?;
        let stats = runtime.stats();
        prop_assert_eq!(stats.jobs_processed, stats.jobs_submitted);
        prop_assert_eq!(stats.jobs_shed, 0u64);
        prop_assert_eq!(stats.job_panics, 0u64);
        server.shutdown();
    }
}
