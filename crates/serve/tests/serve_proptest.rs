//! Property tests for the serving layer: hostile request mixes — deep
//! bursts, all-unknown streams, zero-capacity queues, single-request
//! batches — must never panic, must conserve request counts, and must be
//! reproducible.

use proptest::prelude::*;
use pudiannao_serve::{AdmissionConfig, FleetConfig, GeneratorConfig, ServingCatalog};

fn fleet(
    shards: usize,
    max_batch: usize,
    per_technique_cap: usize,
    global_cap: usize,
) -> FleetConfig {
    FleetConfig {
        shards,
        max_batch,
        admission: AdmissionConfig { per_technique_cap, global_cap },
        trace_cache_bytes: pudiannao_serve::TRACE_CACHE_BYTES,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the traffic shape and queue bounds, every offered request
    /// is accounted for exactly once and every admitted request completes.
    #[test]
    fn hostile_mixes_conserve_counts(
        seed in 0u64..1_000_000,
        requests in 1u64..260,
        mean_gap_ns in 0u64..2_000,
        burst_every in 0u64..48,
        burst_len in 0u64..400,
        unknown_per_mille in 0u32..1_001,
        shards in 1usize..5,
        caps in (1usize..32, 0usize..24, 0usize..160),
    ) {
        let (max_batch, per_technique_cap, global_cap) = caps;
        let gen = GeneratorConfig {
            seed,
            requests,
            mean_gap_ns,
            burst_every,
            burst_len,
            unknown_per_mille,
        };
        let config = fleet(shards, max_batch, per_technique_cap, global_cap);
        let report = pudiannao_serve::serve(&config, &gen);

        prop_assert_eq!(report.counters.offered, requests);
        prop_assert_eq!(
            report.counters.admitted + report.counters.shed + report.counters.rejected,
            report.counters.offered
        );
        prop_assert_eq!(report.completed, report.counters.admitted);
        prop_assert_eq!(report.latencies_sorted_ns.len() as u64, report.completed);
        // Percentiles come off one sorted vector; they must be ordered.
        prop_assert!(report.p50_ns <= report.p99_ns);
        prop_assert!(report.p99_ns <= report.p999_ns);
        prop_assert!(report.p999_ns <= report.max_ns);
        // Shards never report more work than was admitted.
        let shard_requests: u64 = report.shards.iter().map(|s| s.requests).sum();
        prop_assert_eq!(shard_requests, report.completed);
    }

    /// A stream of nothing but unknown techniques is rejected wholesale:
    /// nothing is queued, nothing runs, nothing panics.
    #[test]
    fn all_unknown_streams_are_fully_rejected(
        seed in 0u64..100_000,
        requests in 1u64..120,
        shards in 1usize..4,
    ) {
        let gen = GeneratorConfig {
            seed,
            requests,
            mean_gap_ns: 100,
            burst_every: 0,
            burst_len: 0,
            unknown_per_mille: 1_000,
        };
        let report = pudiannao_serve::serve(&FleetConfig::with_shards(shards), &gen);
        prop_assert_eq!(report.counters.rejected, requests);
        prop_assert_eq!(report.completed, 0);
        prop_assert_eq!(report.makespan_ns, 0);
    }

    /// Zero queue capacity converts the whole (known-technique) stream
    /// into sheds — the fleet idles rather than deadlocking.
    #[test]
    fn zero_capacity_sheds_everything(
        seed in 0u64..100_000,
        requests in 1u64..120,
    ) {
        let gen = GeneratorConfig {
            seed,
            requests,
            mean_gap_ns: 50,
            burst_every: 4,
            burst_len: 16,
            unknown_per_mille: 0,
        };
        let report = pudiannao_serve::serve(&fleet(2, 8, 0, 0), &gen);
        prop_assert_eq!(report.counters.shed, requests);
        prop_assert_eq!(report.completed, 0);
    }

    /// The same stream through the same fleet twice gives bit-identical
    /// headline numbers (the library-level determinism the byte-identity
    /// test checks end-to-end through the binary).
    #[test]
    fn reruns_reproduce_the_report(
        seed in 0u64..1_000_000,
        requests in 1u64..160,
        shards in 1usize..5,
    ) {
        let gen = GeneratorConfig { seed, requests, ..GeneratorConfig::smoke(0) };
        let config = FleetConfig::with_shards(shards);
        let a = pudiannao_serve::serve(&config, &gen);
        let b = pudiannao_serve::serve(&config, &gen);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.makespan_ns, b.makespan_ns);
        prop_assert_eq!(a.latencies_sorted_ns, b.latencies_sorted_ns);
        prop_assert_eq!(a.p99_ns, b.p99_ns);
    }
}

/// Sanity outside the proptest harness: the catalog resolves every
/// (phase, tier) pair the generator can emit, so dispatch can never miss.
#[test]
fn catalog_is_total_over_generated_streams() {
    let catalog = ServingCatalog::paper_default();
    let gen = GeneratorConfig { unknown_per_mille: 0, ..GeneratorConfig::smoke(99) };
    for request in pudiannao_serve::generate(&gen).iter().take(500) {
        let pudiannao_serve::RequestKind::Phase(phase) = request.kind else {
            panic!("unknown_per_mille=0 must not emit unknowns");
        };
        let workload = catalog.get(phase, request.tier);
        assert!(!workload.name().is_empty());
    }
}
