//! Serving layer: a multi-device inference fleet behind the unified
//! `Workload` API.
//!
//! The paper evaluates PuDianNao one kernel at a time; this crate asks
//! the deployment question instead: what happens when a *stream* of
//! requests for all 13 benchmark phases hits a pool of devices? The
//! pieces, front to back:
//!
//! * [`gen`] — seeded, integer-only open-loop traffic generator
//!   (bursts, size tiers, malformed requests).
//! * [`admission`] — bounded technique-partitioned queue: load-shedding,
//!   per-technique backpressure, unknown-technique rejection.
//! * [`catalog`] — 13 phases × 3 size tiers of memsim workloads boxed
//!   behind `pudiannao_memsim::Workload`, the redesigned trait every
//!   kernel now dispatches through.
//! * [`fleet`] — discrete-event simulation of the shard pool: one
//!   reusable `SimdEngine` per shard, batches picked by technique to
//!   amortise datapath reconfiguration, waves executed on the
//!   deterministic [`pool`].
//! * [`report`] / [`sweep`] — latency percentiles, throughput, shed
//!   rate, per-device utilisation; the 1/2/4/8-shard scaling sweep.
//! * [`chaos`] — seeded fleet-level fault injection (crash/restart
//!   windows, stragglers, lane-masked degradation reusing the PR-3
//!   device fault model, transient failures) plus the [`chaos::Defense`]
//!   policy (tiered deadlines, bounded retries, hedging, quarantine,
//!   priority-aware shedding) the resilient fleet fights back with.
//! * [`trace`] / [`metrics`] — zero-cost-when-off observability:
//!   per-request lifecycle spans in a bounded ring (exported as a
//!   Chrome-trace fleet timeline), plus windowed log-bucket latency
//!   histograms and rate counters sampled per fixed slice of simulated
//!   time.
//!
//! Determinism is load-bearing: `serve_report.json` and
//! `chaos_report.json` are byte-identical for any `REPRO_THREADS` value,
//! which CI checks on every run. Every request takes one lifecycle path,
//! chaos on or off: chaos-off runs reproduce `serve_report.json` byte for
//! byte, and carrying the lifecycle and a per-shard chaos fate on them
//! measured no cost on the `serve-heavy` benchmark workload (20
//! alternating pairs on a 2-core host: `wall_s` medians 1 % apart, inside
//! the run-to-run spread).

#![forbid(unsafe_code)]

pub mod admission;
pub mod catalog;
pub mod chaos;
pub mod fleet;
pub mod gen;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod request;
pub mod sweep;
pub mod trace;

pub use admission::{AdmissionConfig, AdmissionCounters, AdmissionOutcome, AdmissionQueue};
pub use catalog::{slot_count, slot_index, ServingCatalog, TraceCache, TraceCacheStats};
pub use chaos::{ChaosConfig, Defense, ShardChaos};
pub use fleet::{
    run_fleet, run_fleet_observed, serve, serve_observed, FleetConfig, ObserveConfig,
    BATCH_SETUP_NS, RECONFIG_NS, TRACE_CACHE_BYTES,
};
pub use gen::{generate, GeneratorConfig, SplitMix64};
pub use metrics::{LogHistogram, MetricsConfig, MetricsReport, WindowSummary};
pub use report::{
    percentile_ns, shard_verdict, Completion, LatencyBreakdown, ObservabilityReport, OutcomeCounts,
    ResilienceReport, ServeReport, ShardResilience, ShardStats, ShardVerdict, TechniqueStats,
    TierBreakdown, TierSlo,
};
pub use request::{technique_of, Leg, Priority, Request, RequestKind, SizeTier};
pub use sweep::{scaling_sweep, SweepPoint, SWEEP_SHARDS};
pub use trace::{fleet_timeline, FleetTrace, LegOutcome, RootOutcome, SpanEvent, TraceConfig};
