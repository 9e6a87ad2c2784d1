//! Serving metrics: latency distribution, throughput, shed rate, and
//! per-technique / per-shard breakdowns, serialisable to the same
//! hand-rolled JSON the rest of the workspace uses (`pudiannao_accel::json`
//! — no serde in the build image).
//!
//! All derived figures are computed with integer arithmetic on simulated
//! nanoseconds (percentiles are nearest-rank, utilisation is per-mille),
//! so a report built from the same stream is bit-identical on every
//! platform and worker count.

use pudiannao_accel::json::Value;
use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::Technique;

use crate::admission::AdmissionCounters;
use crate::fleet::FleetConfig;
use crate::request::{technique_of, Priority, Request};

/// One finished request, as recorded by the shard that ran it.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The original request.
    pub request: Request,
    /// The phase it resolved to.
    pub phase: Phase,
    /// When its batch was handed to a shard.
    pub dispatched_ns: u64,
    /// When its kernel finished on the shard.
    pub completed_ns: u64,
}

/// Utilisation counters for one simulated device.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    pub batches: u64,
    pub requests: u64,
    pub reconfigs: u64,
    pub busy_ns: u64,
    pub ops: u64,
    pub offchip_bytes: u64,
    /// `busy_ns * 1000 / makespan_ns` — integer per-mille, filled by
    /// [`ServeReport::assemble`].
    pub utilization_permille: u64,
}

/// Per-technique serving outcome.
#[derive(Clone, Debug)]
pub struct TechniqueStats {
    pub technique: Technique,
    pub completed: u64,
    pub shed: u64,
    pub p99_ns: u64,
}

/// How every offered request resolved under the resilient fleet. The six
/// classes partition `offered` together with `rejected`:
/// `offered == completed_clean + retried_ok + hedge_won + timed_out +
///  failed + shed + rejected`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Finished on the first primary leg, inside its deadline machinery.
    pub completed_clean: u64,
    /// Finished, but only after at least one retry leg.
    pub retried_ok: u64,
    /// Finished because the hedged duplicate beat (or outlived) the
    /// primary.
    pub hedge_won: u64,
    /// Dropped because the tier deadline expired before service.
    pub timed_out: u64,
    /// Exhausted the retry budget without a successful leg.
    pub failed: u64,
    /// Shed at admission (queue caps or priority eviction).
    pub shed: u64,
    /// Malformed (unknown technique) — rejected before queueing.
    pub rejected: u64,
}

impl OutcomeCounts {
    /// Total resolutions — must equal `offered` at end of run.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.completed_clean
            .saturating_add(self.retried_ok)
            .saturating_add(self.hedge_won)
            .saturating_add(self.timed_out)
            .saturating_add(self.failed)
            .saturating_add(self.shed)
            .saturating_add(self.rejected)
    }

    /// All successful resolutions regardless of path.
    #[must_use]
    pub fn completed_total(&self) -> u64 {
        self.completed_clean.saturating_add(self.retried_ok).saturating_add(self.hedge_won)
    }
}

/// Per-priority-tier SLO attainment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierSlo {
    /// Requests of this tier offered to admission (including rejects).
    pub offered: u64,
    /// Malformed requests of this tier.
    pub rejected: u64,
    /// Requests that completed (any path).
    pub completed: u64,
    /// Requests that completed inside their tier deadline.
    pub slo_met: u64,
    /// `slo_met * 1000 / (offered - rejected)` — deadline-met per-mille
    /// of well-formed offered load, filled by [`ServeReport::assemble`].
    pub slo_met_permille: u64,
}

/// Fault and recovery counters for one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardResilience {
    /// Crash windows that interrupted (or idled) this shard.
    pub crashes: u64,
    /// Times the health tracker quarantined it.
    pub quarantines: u64,
    /// Simulated ns spent crashed or quarantined.
    pub down_ns: u64,
    /// `(makespan - down_ns) * 1000 / makespan`, filled by
    /// [`ServeReport::assemble`].
    pub availability_permille: u64,
    /// Service-time inflation from the straggler draw (1000 = nominal).
    pub slowdown_permille: u64,
    /// Functional lanes left after the degradation draw masked some off.
    pub lanes_left: u32,
}

/// Everything the chaos/defence machinery adds to a fleet run. `None` on
/// the [`ServeReport`] when both chaos and defences are off, which keeps
/// `serve_report.json` byte-identical to the pre-resilience schema.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    pub outcomes: OutcomeCounts,
    /// Retry legs scheduled (not all necessarily ran before deadline).
    pub retries_scheduled: u64,
    /// Hedge legs enqueued.
    pub hedges_launched: u64,
    /// Hedge legs cancelled at pick time because the primary had resolved.
    pub hedges_cancelled: u64,
    /// Legs that drew a transient failure.
    pub transient_faults: u64,
    /// Legs killed mid-batch by a shard crash.
    pub crash_killed: u64,
    /// Indexed like [`Priority::ALL`] (bronze, silver, gold).
    pub tiers: [TierSlo; 3],
    /// One entry per shard, same order as [`ServeReport::shards`].
    pub shards: Vec<ShardResilience>,
}

impl ResilienceReport {
    /// Overall SLO attainment: deadline-met per-mille across every tier's
    /// well-formed offered load. The headline the chaos sweep compares
    /// between defence arms.
    #[must_use]
    pub fn overall_slo_permille(&self) -> u64 {
        let met: u64 = self.tiers.iter().map(|t| t.slo_met).sum();
        let wellformed: u64 = self.tiers.iter().map(|t| t.offered.saturating_sub(t.rejected)).sum();
        met.saturating_mul(1000).checked_div(wellformed).unwrap_or(0)
    }

    fn to_json(&self) -> Value {
        let mut tiers = Value::array(Vec::new());
        for (i, t) in self.tiers.iter().enumerate() {
            tiers.push(
                Value::object()
                    .with("tier", Priority::ALL[i].label())
                    .with("offered", t.offered)
                    .with("rejected", t.rejected)
                    .with("completed", t.completed)
                    .with("slo_met", t.slo_met)
                    .with("slo_met_permille", t.slo_met_permille),
            );
        }
        let mut shards = Value::array(Vec::new());
        for (i, s) in self.shards.iter().enumerate() {
            shards.push(
                Value::object()
                    .with("shard", i as u64)
                    .with("crashes", s.crashes)
                    .with("quarantines", s.quarantines)
                    .with("down_ns", s.down_ns)
                    .with("availability_permille", s.availability_permille)
                    .with("slowdown_permille", s.slowdown_permille)
                    .with("lanes_left", u64::from(s.lanes_left)),
            );
        }
        Value::object()
            .with(
                "outcomes",
                Value::object()
                    .with("completed_clean", self.outcomes.completed_clean)
                    .with("retried_ok", self.outcomes.retried_ok)
                    .with("hedge_won", self.outcomes.hedge_won)
                    .with("timed_out", self.outcomes.timed_out)
                    .with("failed", self.outcomes.failed)
                    .with("shed", self.outcomes.shed)
                    .with("rejected", self.outcomes.rejected),
            )
            .with("retries_scheduled", self.retries_scheduled)
            .with("hedges_launched", self.hedges_launched)
            .with("hedges_cancelled", self.hedges_cancelled)
            .with("transient_faults", self.transient_faults)
            .with("crash_killed", self.crash_killed)
            .with("tiers", tiers)
            .with("shards", shards)
    }
}

/// Exact per-request latency decomposition: the five segments partition
/// `completed_ns - arrival_ns` with no gaps or overlaps (backoff to
/// enqueue, queue wait to dispatch, reconfig and setup charges, then
/// service including batch-mates ahead of the request).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Retry-backoff / hedge-delay wait before the winning leg enqueued.
    pub backoff_ns: u64,
    /// Queue wait from enqueue to batch dispatch.
    pub queue_ns: u64,
    /// Datapath reconfiguration charge the winning batch paid.
    pub reconfig_ns: u64,
    /// Engine-reset setup charge.
    pub setup_ns: u64,
    /// Shard service time (including batch-mates ahead of the request).
    pub service_ns: u64,
}

impl LatencyBreakdown {
    /// Sum of all segments — equals the request's end-to-end latency.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.backoff_ns
            .saturating_add(self.queue_ns)
            .saturating_add(self.reconfig_ns)
            .saturating_add(self.setup_ns)
            .saturating_add(self.service_ns)
    }
}

/// Per-priority-tier accumulation of [`LatencyBreakdown`]s over every
/// completed request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierBreakdown {
    /// Completed requests folded in.
    pub completed: u64,
    pub backoff_ns: u64,
    pub queue_ns: u64,
    pub reconfig_ns: u64,
    pub setup_ns: u64,
    pub service_ns: u64,
}

impl TierBreakdown {
    /// Folds one completed request's breakdown in.
    pub fn add(&mut self, b: LatencyBreakdown) {
        self.completed = self.completed.saturating_add(1);
        self.backoff_ns = self.backoff_ns.saturating_add(b.backoff_ns);
        self.queue_ns = self.queue_ns.saturating_add(b.queue_ns);
        self.reconfig_ns = self.reconfig_ns.saturating_add(b.reconfig_ns);
        self.setup_ns = self.setup_ns.saturating_add(b.setup_ns);
        self.service_ns = self.service_ns.saturating_add(b.service_ns);
    }
}

/// Per-mille of the makespan a shard must spend down before it is
/// chaos-bound (5%).
pub const CHAOS_BOUND_DOWN_PERMILLE: u64 = 50;

/// Per-mille of a shard's busy time going to reconfig+setup overhead
/// before it is reconfig-bound (30%).
pub const RECONFIG_BOUND_OVERHEAD_PERMILLE: u64 = 300;

/// Utilisation per-mille above which a shard is queue-bound (85%): the
/// shard is saturated, so latency accumulates in the admission queue.
pub const QUEUE_BOUND_UTIL_PERMILLE: u64 = 850;

/// An `analyze`-style verdict for one shard — the serving analogue of
/// the accel profiler's [`Bottleneck`](pudiannao_accel::profile) taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardVerdict {
    /// `"chaos-bound"`, `"reconfig-bound"`, `"queue-bound"` or
    /// `"balanced"`, checked in that order.
    pub verdict: &'static str,
    pub utilization_permille: u64,
    /// Reconfig+setup overhead as per-mille of busy time.
    pub overhead_permille: u64,
    /// Downtime (crash + quarantine) as per-mille of the makespan.
    pub down_permille: u64,
}

/// Classifies what limits one shard, from its stats alone. Threshold
/// order mirrors `accel::profile::analyze`: the rarest, most actionable
/// cause wins — downtime first, then reconfiguration overhead, then
/// saturation.
#[must_use]
pub fn shard_verdict(stats: &ShardStats, down_ns: u64, makespan_ns: u64) -> ShardVerdict {
    let down_permille = down_ns.saturating_mul(1000).checked_div(makespan_ns).unwrap_or(0);
    let overhead_ns = stats
        .reconfigs
        .saturating_mul(crate::fleet::RECONFIG_NS)
        .saturating_add(stats.batches.saturating_mul(crate::fleet::BATCH_SETUP_NS));
    let overhead_permille =
        overhead_ns.saturating_mul(1000).checked_div(stats.busy_ns).unwrap_or(0);
    let verdict = if down_permille >= CHAOS_BOUND_DOWN_PERMILLE {
        "chaos-bound"
    } else if overhead_permille >= RECONFIG_BOUND_OVERHEAD_PERMILLE {
        "reconfig-bound"
    } else if stats.utilization_permille >= QUEUE_BOUND_UTIL_PERMILLE {
        "queue-bound"
    } else {
        "balanced"
    };
    ShardVerdict {
        verdict,
        utilization_permille: stats.utilization_permille,
        overhead_permille,
        down_permille,
    }
}

/// Everything the observability layer adds to a fleet run: the span-ring
/// drop counter, the per-tier latency attribution, per-shard verdicts,
/// and (when metrics were on) the windowed time series. `None` on the
/// [`ServeReport`] for unobserved runs, keeping the serialised report
/// byte-identical to the pre-observability schema.
#[derive(Clone, Debug)]
pub struct ObservabilityReport {
    /// Span events the bounded ring evicted (0 for a complete trace;
    /// also surfaced once on stderr).
    pub events_dropped: u64,
    /// Indexed like [`Priority::ALL`] (bronze, silver, gold).
    pub tiers: [TierBreakdown; 3],
    /// One verdict per shard, same order as [`ServeReport::shards`].
    pub shard_verdicts: Vec<ShardVerdict>,
    /// The windowed metrics series, when a metrics config was supplied.
    pub metrics: Option<crate::metrics::MetricsReport>,
}

impl ObservabilityReport {
    /// JSON section appended to `serve_report.json` for observed runs.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut tiers = Value::array(Vec::new());
        for (i, t) in self.tiers.iter().enumerate() {
            tiers.push(
                Value::object()
                    .with("tier", Priority::ALL[i].label())
                    .with("completed", t.completed)
                    .with("backoff_ns", t.backoff_ns)
                    .with("queue_ns", t.queue_ns)
                    .with("reconfig_ns", t.reconfig_ns)
                    .with("setup_ns", t.setup_ns)
                    .with("service_ns", t.service_ns),
            );
        }
        let mut verdicts = Value::array(Vec::new());
        for (i, v) in self.shard_verdicts.iter().enumerate() {
            verdicts.push(
                Value::object()
                    .with("shard", i as u64)
                    .with("verdict", v.verdict)
                    .with("utilization_permille", v.utilization_permille)
                    .with("overhead_permille", v.overhead_permille)
                    .with("down_permille", v.down_permille),
            );
        }
        let mut out = Value::object()
            .with("events_dropped", self.events_dropped)
            .with("latency_breakdown", tiers)
            .with("shard_verdicts", verdicts);
        if let Some(m) = &self.metrics {
            out = out.with("metrics", m.to_json());
        }
        out
    }
}

/// Everything `serve_bench` reports about one fleet run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    pub shards_configured: usize,
    pub max_batch: usize,
    pub counters: AdmissionCounters,
    pub completed: u64,
    /// Completion time of the last request (simulated ns).
    pub makespan_ns: u64,
    /// Completed requests per second of simulated time.
    pub throughput_rps: f64,
    /// Shed fraction of offered load, in per-mille (integer).
    pub shed_permille: u64,
    /// Per-request latency (arrival to completion), ascending.
    pub latencies_sorted_ns: Vec<u64>,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    pub mean_ns: u64,
    pub techniques: Vec<TechniqueStats>,
    pub shards: Vec<ShardStats>,
    /// Present only for resilient runs (chaos and/or defences enabled);
    /// `None` keeps the serialised report byte-identical to the
    /// pre-resilience schema.
    pub resilience: Option<ResilienceReport>,
    /// Present only for observed runs (trace and/or metrics enabled),
    /// attached after [`ServeReport::assemble`] by the observability
    /// layer; `None` keeps the serialised report byte-identical to the
    /// pre-observability schema.
    pub observability: Option<ObservabilityReport>,
    /// The raw span-event ring of a traced run, for
    /// [`fleet_timeline`](crate::trace::fleet_timeline). Never
    /// serialised into the report JSON.
    pub trace: Option<crate::trace::FleetTrace>,
    /// Summed per-shard trace-template-cache counters: `Some` on every
    /// fleet run (a zero budget shows no hit and no ready slot), `None`
    /// only before the fleet attaches them to an assembled report. Never
    /// serialised into the report JSON — the cache only moves wall-clock
    /// and memory, never a report byte.
    pub trace_cache: Option<crate::catalog::TraceCacheStats>,
}

/// Nearest-rank percentile on an ascending slice; `q_permille` is the
/// quantile times 1000 (so p99 is 990, p99.9 is 999).
#[must_use]
pub fn percentile_ns(sorted: &[u64], q_permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * q_permille).div_ceil(1000).max(1);
    sorted[(rank - 1) as usize]
}

impl ServeReport {
    /// Builds the report from raw fleet output.
    #[must_use]
    pub fn assemble(
        config: &FleetConfig,
        counters: AdmissionCounters,
        shed_by_technique: &[u64; Technique::ALL.len()],
        completions: &[Completion],
        shards: &[ShardStats],
        resilience: Option<ResilienceReport>,
    ) -> ServeReport {
        let mut latencies: Vec<u64> =
            completions.iter().map(|c| c.completed_ns - c.request.arrival_ns).collect();
        latencies.sort_unstable();
        let makespan_ns = completions.iter().map(|c| c.completed_ns).max().unwrap_or(0);
        let completed = completions.len() as u64;
        let throughput_rps =
            if makespan_ns == 0 { 0.0 } else { completed as f64 * 1e9 / makespan_ns as f64 };
        let shed_permille = (counters.shed * 1000).checked_div(counters.offered).unwrap_or(0);

        let mut per_tech_latencies: Vec<Vec<u64>> = vec![Vec::new(); Technique::ALL.len()];
        for c in completions {
            per_tech_latencies[technique_of(c.phase).index()]
                .push(c.completed_ns - c.request.arrival_ns);
        }
        let techniques = Technique::ALL
            .iter()
            .enumerate()
            .map(|(i, &technique)| {
                let lane = &mut per_tech_latencies[i];
                lane.sort_unstable();
                TechniqueStats {
                    technique,
                    completed: lane.len() as u64,
                    shed: shed_by_technique[i],
                    p99_ns: percentile_ns(lane, 990),
                }
            })
            .collect();

        let shards = shards
            .iter()
            .map(|s| ShardStats {
                utilization_permille: (s.busy_ns * 1000).checked_div(makespan_ns).unwrap_or(0),
                ..*s
            })
            .collect();

        let mean_ns = if latencies.is_empty() {
            0
        } else {
            latencies.iter().sum::<u64>() / latencies.len() as u64
        };
        let resilience = resilience.map(|mut r| {
            for t in &mut r.tiers {
                let wellformed = t.offered.saturating_sub(t.rejected);
                t.slo_met_permille =
                    t.slo_met.saturating_mul(1000).checked_div(wellformed).unwrap_or(0);
            }
            for s in &mut r.shards {
                let up = makespan_ns.saturating_sub(s.down_ns);
                s.availability_permille =
                    up.saturating_mul(1000).checked_div(makespan_ns).unwrap_or(1000);
            }
            r
        });
        ServeReport {
            shards_configured: config.shards,
            max_batch: config.max_batch,
            counters,
            completed,
            makespan_ns,
            throughput_rps,
            shed_permille,
            p50_ns: percentile_ns(&latencies, 500),
            p99_ns: percentile_ns(&latencies, 990),
            p999_ns: percentile_ns(&latencies, 999),
            max_ns: latencies.last().copied().unwrap_or(0),
            mean_ns,
            latencies_sorted_ns: latencies,
            techniques,
            shards,
            resilience,
            observability: None,
            trace: None,
            trace_cache: None,
        }
    }

    /// Serialises the report (without the raw latency vector — only its
    /// summary) for `serve_report.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut techniques = Value::array(Vec::new());
        for t in &self.techniques {
            techniques.push(
                Value::object()
                    .with("technique", t.technique.label())
                    .with("completed", t.completed)
                    .with("shed", t.shed)
                    .with("p99_ns", t.p99_ns),
            );
        }
        let mut shards = Value::array(Vec::new());
        for (i, s) in self.shards.iter().enumerate() {
            shards.push(
                Value::object()
                    .with("shard", i as u64)
                    .with("batches", s.batches)
                    .with("requests", s.requests)
                    .with("reconfigs", s.reconfigs)
                    .with("busy_ns", s.busy_ns)
                    .with("ops", s.ops)
                    .with("offchip_bytes", s.offchip_bytes)
                    .with("utilization_permille", s.utilization_permille),
            );
        }
        let mut out = Value::object()
            .with("shards_configured", self.shards_configured as u64)
            .with("max_batch", self.max_batch as u64)
            .with("offered", self.counters.offered)
            .with("admitted", self.counters.admitted)
            .with("shed", self.counters.shed)
            .with("rejected", self.counters.rejected)
            .with("completed", self.completed)
            .with("shed_permille", self.shed_permille)
            .with("makespan_ns", self.makespan_ns)
            .with("throughput_rps", self.throughput_rps)
            .with(
                "latency_ns",
                Value::object()
                    .with("p50", self.p50_ns)
                    .with("p99", self.p99_ns)
                    .with("p999", self.p999_ns)
                    .with("max", self.max_ns)
                    .with("mean", self.mean_ns),
            )
            .with("techniques", techniques)
            .with("shards", shards);
        // Only resilient runs carry the extra section: a `None` here must
        // serialise to exactly the pre-resilience bytes.
        if let Some(r) = &self.resilience {
            out = out.with("resilience", r.to_json());
        }
        // Same contract for the observability section (the raw trace ring
        // is never serialised; `fleet_timeline` is its export path).
        if let Some(o) = &self.observability {
            out = out.with("observability", o.to_json());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 500), 50);
        assert_eq!(percentile_ns(&v, 990), 99);
        assert_eq!(percentile_ns(&v, 999), 100);
        assert_eq!(percentile_ns(&v, 1000), 100);
    }

    /// Nearest-rank on tiny samples: n ∈ {0, 1, 2} must neither panic
    /// nor index out of range at any quantile, including q=0 (where the
    /// rank clamps up to 1) and q=1000 (where it must not exceed n).
    #[test]
    fn nearest_rank_is_robust_on_tiny_samples() {
        for q in [0, 1, 500, 990, 999, 1000] {
            assert_eq!(percentile_ns(&[], q), 0, "q={q}");
            assert_eq!(percentile_ns(&[42], q), 42, "q={q}");
        }
        assert_eq!(percentile_ns(&[7, 9], 0), 7);
        assert_eq!(percentile_ns(&[7, 9], 500), 7);
        assert_eq!(percentile_ns(&[7, 9], 501), 9);
        assert_eq!(percentile_ns(&[7, 9], 990), 9);
        assert_eq!(percentile_ns(&[7, 9], 1000), 9);
    }

    #[test]
    fn latency_breakdown_partitions_and_accumulates() {
        let b = LatencyBreakdown {
            backoff_ns: 10,
            queue_ns: 20,
            reconfig_ns: 252,
            setup_ns: 87,
            service_ns: 400,
        };
        assert_eq!(b.total_ns(), 769);
        let mut t = TierBreakdown::default();
        t.add(b);
        t.add(LatencyBreakdown { service_ns: 31, ..Default::default() });
        assert_eq!(t.completed, 2);
        assert_eq!(t.service_ns, 431);
        assert_eq!(t.reconfig_ns, 252);
    }

    #[test]
    fn shard_verdicts_follow_the_threshold_order() {
        let stats = ShardStats {
            batches: 10,
            reconfigs: 2,
            busy_ns: 100_000,
            utilization_permille: 500,
            ..Default::default()
        };
        // overhead = 2*252 + 10*87 = 1374 ns of 100_000 busy: 13‰.
        assert_eq!(shard_verdict(&stats, 0, 1_000_000).verdict, "balanced");
        // 5% downtime flips it to chaos-bound regardless of the rest.
        let v = shard_verdict(&stats, 50_000, 1_000_000);
        assert_eq!((v.verdict, v.down_permille), ("chaos-bound", 50));
        // Heavy reconfig churn on little busy time: reconfig-bound.
        let churn =
            ShardStats { batches: 10, reconfigs: 10, busy_ns: 10_000, ..Default::default() };
        assert_eq!(shard_verdict(&churn, 0, 1_000_000).verdict, "reconfig-bound");
        // Saturated shard: queue-bound.
        let hot = ShardStats {
            batches: 10,
            busy_ns: 900_000,
            utilization_permille: 900,
            ..Default::default()
        };
        assert_eq!(shard_verdict(&hot, 0, 1_000_000).verdict, "queue-bound");
        // Empty shard on an empty run: all guards hit their zero paths.
        assert_eq!(shard_verdict(&ShardStats::default(), 0, 0).verdict, "balanced");
    }

    #[test]
    fn observability_section_is_strictly_additive() {
        let cfg = FleetConfig::paper_default();
        let counters = AdmissionCounters::default();
        let shed = [0u64; Technique::ALL.len()];
        let base = ServeReport::assemble(&cfg, counters, &shed, &[], &[], None);
        assert!(base.observability.is_none() && base.trace.is_none());
        let a = base.to_json().to_string_pretty();
        assert!(!a.contains("\"observability\""), "unobserved runs must not grow a section");

        let mut observed = ServeReport::assemble(&cfg, counters, &shed, &[], &[], None);
        observed.observability = Some(ObservabilityReport {
            events_dropped: 3,
            tiers: [TierBreakdown::default(); 3],
            shard_verdicts: vec![shard_verdict(&ShardStats::default(), 0, 0)],
            metrics: None,
        });
        let b = observed.to_json().to_string_pretty();
        assert!(b.contains("\"observability\""));
        assert!(b.contains("\"latency_breakdown\""));
        assert!(b.contains("\"shard_verdicts\""));
        assert!(!b.contains("\"metrics\""), "metrics key only appears when metrics ran");
        // The raw ring never leaks into the JSON.
        observed.trace = Some(crate::trace::TraceConfig::default().ring());
        assert_eq!(observed.to_json().to_string_pretty(), b);
    }

    #[test]
    fn resilience_section_is_strictly_additive() {
        let cfg = FleetConfig::paper_default();
        let counters = AdmissionCounters::default();
        let shed = [0u64; Technique::ALL.len()];
        let base = ServeReport::assemble(&cfg, counters, &shed, &[], &[], None);
        let resilient = ServeReport::assemble(
            &cfg,
            counters,
            &shed,
            &[],
            &[],
            Some(ResilienceReport::default()),
        );
        let a = base.to_json().to_string_pretty();
        let b = resilient.to_json().to_string_pretty();
        assert!(!a.contains("\"resilience\""), "baseline must not grow a section");
        assert!(b.contains("\"resilience\""));
    }

    #[test]
    fn outcome_counts_partition_offered() {
        let o = OutcomeCounts {
            completed_clean: 5,
            retried_ok: 2,
            hedge_won: 1,
            timed_out: 3,
            failed: 1,
            shed: 4,
            rejected: 2,
        };
        assert_eq!(o.total(), 18);
        assert_eq!(o.completed_total(), 8);
    }
}
