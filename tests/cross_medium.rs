//! One script, every medium.
//!
//! Each equivalence suite drives scripts through one medium. This
//! property draws one [`Script`] and runs it through all of them:
//! in-process submission, TCP clients, a clean shutdown followed by
//! `recover`, a durable store injecting transient and torn faults, and
//! a residency cap of 1. Each must leave every tenant equal to the
//! shared sequential oracle (`chimera-oracle`) replaying its jobs —
//! observed state, error count and last error, a live tail within the
//! longest transaction — so the media all equal each other. The two
//! media whose engines never restart match the Trigger Support counters
//! as well.

use chimera::lifecycle::LifecycleConfig;
use chimera::net::{Server, ServerConfig};
use chimera::runtime::RuntimeConfig;
use chimera_oracle::{compare, durable, medium, Pick, Script, Setup, TempDir};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_script_through_every_medium(
        rule_seed in any::<u64>(),
        script_seed in any::<u64>(),
        chaos_seed in any::<u64>(),
        tenants in 1u64..5,
        steps in 4usize..40,
        shards in 1usize..3,
    ) {
        let setup = Setup::seeded(rule_seed);
        let script = Script::draw(script_seed, tenants, steps, Pick::Uniform);
        let per_tenant = &script.per_tenant;

        // in process
        let rt = setup.runtime(setup.config(shards));
        medium::submit(&rt, &script, false);
        compare(&rt, &setup, per_tenant, None, true)?;

        // over the wire
        let rt = Arc::new(setup.runtime(setup.config(shards)));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&rt), ServerConfig::default()).unwrap();
        medium::submit_over_wire(server.local_addr(), &script, 2);
        compare(&rt, &setup, per_tenant, None, true)?;
        server.shutdown();

        // a clean shutdown, then recovery from the directory
        let dir = TempDir::new("cross-recover");
        let config = || RuntimeConfig { storage: durable(&dir, 3), ..setup.config(shards) };
        medium::submit(&setup.runtime(config()), &script, false);
        compare(&setup.recover(config()).0, &setup, per_tenant, None, false)?;

        // transient and torn storage faults
        let dir = TempDir::new("cross-chaos");
        let (wrap, _) = medium::transient_faults(chaos_seed);
        let rt = setup.runtime(RuntimeConfig {
            storage: durable(&dir, 3),
            store_wrap: Some(wrap),
            ..setup.config(shards)
        });
        medium::submit(&rt, &script, false);
        prop_assert_eq!(rt.stats().shards_poisoned, 0, "retryable faults must never poison");
        compare(&rt, &setup, per_tenant, None, false)?;

        // one resident tenant at a time
        let rt = setup.runtime(RuntimeConfig {
            lifecycle: LifecycleConfig::with_max_resident(1),
            ..setup.config(shards)
        });
        medium::submit(&rt, &script, false);
        compare(&rt, &setup, per_tenant, None, false)?;
    }
}
