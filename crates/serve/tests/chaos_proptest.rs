//! Property tests for the chaos layer: hostile fault plans and defence
//! policies — crash-looping shards, zero deadlines, everything-fails
//! transient rates, lane masks past the physical lane count — must never
//! panic, must account for every offered request exactly once, and must
//! reproduce bit-identically on rerun.

use proptest::prelude::*;
use pudiannao_serve::{
    serve_observed, ChaosConfig, Defense, FleetConfig, GeneratorConfig, ObserveConfig, Priority,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the fault plan and defence policy, the seven outcome
    /// classes partition the offered stream: nothing is lost, nothing is
    /// counted twice, and the run never panics.
    #[test]
    fn hostile_chaos_conserves_every_request(
        seed in 0u64..1_000_000,
        chaos_seed in 0u64..1_000_000,
        requests in 1u64..200,
        mean_gap_ns in 0u64..1_500,
        shards in 1usize..5,
        // mtbf is floored away from zero: window generation is
        // O(makespan / mtbf) and a 1ns mtbf would be a slow test, not a
        // better one.
        crash_mtbf_ns in prop_oneof![Just(0u64), 500u64..100_000],
        crash_mttr_ns in 0u64..80_000,
        crash_prone in (0u32..1_001, 0u64..16),
        straggler in (0u32..1_001, 1_000u64..8_000),
        degraded in (0u32..1_001, 0u32..40),
        transient_per_mille in 0u32..1_001,
        deadlines in prop_oneof![
            Just(None),
            (0u64..3_000_000, 0u64..3_000_000, 0u64..3_000_000).prop_map(|(b, s, g)| Some([b, s, g])),
        ],
        max_retries in 0u32..4,
        retry_backoff_ns in 0u64..200_000,
        hedge_after_ns in prop_oneof![Just(None), (0u64..300_000).prop_map(Some)],
        quarantine_after in 0u32..6,
        quarantine_cooldown_ns in 0u64..200_000,
        priority_shedding in any::<bool>(),
        recover_tier in 0usize..3,
    ) {
        let gen = GeneratorConfig {
            seed,
            requests,
            mean_gap_ns,
            burst_every: 24,
            burst_len: 48,
            unknown_per_mille: 50,
        };
        let (straggler_per_mille, straggler_factor_permille) = straggler;
        let (degraded_per_mille, degraded_lanes) = degraded;
        let (crash_prone_per_mille, crash_prone_divisor) = crash_prone;
        let chaos = ChaosConfig {
            seed: chaos_seed,
            crash_mtbf_ns,
            crash_mttr_ns,
            // The divisor can exceed mtbf/500: prone shards may crash-loop.
            crash_prone_per_mille,
            crash_prone_divisor,
            straggler_per_mille,
            straggler_factor_permille,
            degraded_per_mille,
            degraded_lanes,
            transient_per_mille,
        };
        let defense = Defense {
            deadlines_ns: deadlines,
            max_retries,
            retry_backoff_ns,
            hedge_after_ns,
            recover_from: Priority::ALL[recover_tier],
            quarantine_after,
            quarantine_cooldown_ns,
            priority_shedding,
        };
        let config = FleetConfig::with_shards(shards);
        let report = serve_observed(&config, &gen, &chaos, &defense, &ObserveConfig::off());

        prop_assert_eq!(report.counters.offered, requests);
        match &report.resilience {
            Some(res) => {
                // Chaos or a defence is on.
                prop_assert!(!(chaos.is_off() && defense == Defense::off()));
                // Conservation: offered == completed + timed_out + failed
                //             + shed + rejected, with completions split
                //             into clean / retried / hedge-won.
                prop_assert_eq!(res.outcomes.total(), requests);
                prop_assert_eq!(res.outcomes.completed_total(), report.completed);
                prop_assert_eq!(res.outcomes.rejected, report.counters.rejected);
                // Tier ledgers cover exactly the offered stream too.
                let tier_offered: u64 = res.tiers.iter().map(|t| t.offered).sum();
                prop_assert_eq!(tier_offered, requests);
                for tier in &res.tiers {
                    prop_assert!(tier.slo_met <= tier.completed);
                    prop_assert!(tier.completed + tier.rejected <= tier.offered);
                }
                // Availability is a per-mille ratio; quarantine and crash
                // downtime can never push it past 1000.
                for shard in &res.shards {
                    prop_assert!(shard.availability_permille <= 1000);
                }
            }
            None => {
                // Only a run with chaos and every defence off omits the
                // section.
                prop_assert!(chaos.is_off() && defense == Defense::off());
                prop_assert_eq!(report.completed, report.counters.admitted);
            }
        }

        // Reruns are bit-identical: every chaos draw is per-shard state
        // or a pure hash, never wall-clock or scheduling order.
        let again = serve_observed(&config, &gen, &chaos, &defense, &ObserveConfig::off());
        prop_assert_eq!(report.counters, again.counters);
        prop_assert_eq!(report.completed, again.completed);
        prop_assert_eq!(report.makespan_ns, again.makespan_ns);
        prop_assert_eq!(report.latencies_sorted_ns, again.latencies_sorted_ns);
        prop_assert_eq!(&report.resilience, &again.resilience);
    }

    /// Zero deadlines are pathological but legal: every admitted request
    /// expires before it can be picked, and the ledger still balances.
    #[test]
    fn zero_deadlines_time_everything_out_cleanly(
        seed in 0u64..100_000,
        requests in 1u64..120,
    ) {
        let gen = GeneratorConfig { seed, requests, ..GeneratorConfig::smoke(0) };
        let defense = Defense { deadlines_ns: Some([0, 0, 0]), ..Defense::off() };
        let report = serve_observed(
            &FleetConfig::with_shards(2),
            &gen,
            &ChaosConfig::off(),
            &defense,
            &ObserveConfig::off(),
        );
        let res = report.resilience.expect("deadline accounting adds the resilience section");
        prop_assert_eq!(res.outcomes.total(), requests);
        // Whatever was admitted either timed out at pick or raced a
        // same-instant dispatch; nothing may be silently dropped.
        prop_assert_eq!(
            res.outcomes.completed_total() + res.outcomes.timed_out,
            report.counters.admitted
        );
    }
}
