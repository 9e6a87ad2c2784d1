//! Property tests for the observability layer: whatever the stream,
//! fault plan and defence policy, (1) observation is invisible — the
//! observed run's aggregates are identical to the plain run's, (2) spans
//! conserve — every admitted request opens exactly one root span and
//! closes it exactly once, with every retry/hedge leg inside the root's
//! lifetime, (3) the exported timeline is a well-formed Chrome trace.

use std::collections::BTreeMap;

use proptest::prelude::*;
use pudiannao_serve::{
    fleet_timeline, serve_observed, ChaosConfig, Defense, FleetConfig, GeneratorConfig,
    MetricsConfig, ObserveConfig, SpanEvent, TraceConfig,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn observation_is_invisible_and_spans_conserve(
        seed in 0u64..1_000_000,
        chaos_seed in 0u64..1_000_000,
        requests in 1u64..160,
        mean_gap_ns in 0u64..1_200,
        shards in 1usize..5,
        crash_mtbf_ns in prop_oneof![Just(0u64), 2_000u64..100_000],
        crash_mttr_ns in 0u64..50_000,
        transient_per_mille in 0u32..500,
        max_retries in 0u32..3,
        retry_backoff_ns in 0u64..100_000,
        hedge_after_ns in prop_oneof![Just(None), (10_000u64..300_000).prop_map(Some)],
        deadline in prop_oneof![
            Just(None),
            (50_000u64..2_000_000).prop_map(|d| Some([d, d * 2, d * 4])),
        ],
    ) {
        let gen = GeneratorConfig {
            seed,
            requests,
            mean_gap_ns,
            burst_every: 16,
            burst_len: 24,
            unknown_per_mille: 80,
        };
        let chaos = ChaosConfig {
            seed: chaos_seed,
            crash_mtbf_ns,
            crash_mttr_ns,
            transient_per_mille,
            ..ChaosConfig::off()
        };
        let defense = Defense {
            deadlines_ns: deadline,
            max_retries,
            retry_backoff_ns,
            hedge_after_ns,
            ..Defense::off()
        };
        let config = FleetConfig::with_shards(shards);

        let plain = serve_observed(&config, &gen, &chaos, &defense, &ObserveConfig::off());
        // A ring far larger than any event count this stream can produce:
        // conservation below relies on nothing being evicted.
        let observe = ObserveConfig {
            trace: Some(TraceConfig { event_capacity: 1 << 20 }),
            metrics: Some(MetricsConfig::default()),
        };
        let observed = serve_observed(&config, &gen, &chaos, &defense, &observe);

        // (1) Observation is invisible: every aggregate the plain run
        // reports is byte-for-byte the same.
        prop_assert_eq!(plain.counters, observed.counters);
        prop_assert_eq!(plain.completed, observed.completed);
        prop_assert_eq!(plain.makespan_ns, observed.makespan_ns);
        prop_assert_eq!(&plain.latencies_sorted_ns, &observed.latencies_sorted_ns);
        prop_assert_eq!(&plain.resilience, &observed.resilience);

        // (2) Span conservation on the raw ring.
        let trace = observed.trace.as_ref().expect("trace was on");
        prop_assert_eq!(trace.events_dropped, 0, "oversized ring must not drop");
        let mut opens: BTreeMap<u64, u64> = BTreeMap::new();
        let mut closes: BTreeMap<u64, u64> = BTreeMap::new();
        for event in trace.events_iter() {
            match *event {
                SpanEvent::RootOpen { id, t, .. } => {
                    prop_assert!(opens.insert(id, t).is_none(), "root {} opened twice", id);
                }
                SpanEvent::RootClose { id, t, .. } => {
                    prop_assert!(opens.contains_key(&id), "root {} closed before opening", id);
                    prop_assert!(closes.insert(id, t).is_none(), "root {} closed twice", id);
                }
                _ => {}
            }
        }
        prop_assert_eq!(
            opens.len() as u64,
            observed.counters.admitted,
            "exactly one root span per admitted request"
        );
        prop_assert_eq!(closes.len(), opens.len(), "every opened root closes exactly once");
        for event in trace.events_iter() {
            if let SpanEvent::Leg { id, enqueued_ns, start_ns, end_ns, .. } = *event {
                let open = opens[&id];
                let close = closes[&id];
                prop_assert!(open <= enqueued_ns, "leg of {} enqueued before its root", id);
                prop_assert!(enqueued_ns <= start_ns, "leg of {} ran before its queue", id);
                prop_assert!(end_ns <= close, "leg of {} outlived its root", id);
            }
        }

        // (3) The exported timeline is well-formed: B/E events balance
        // per track, timestamps are monotone per track.
        let timeline = fleet_timeline(&observed).expect("trace was on");
        let check = pudiannao_accel::profile::validate_timeline(&timeline);
        prop_assert!(check.is_ok(), "timeline invalid: {:?}", check.err());
    }
}
