//! Fleet-level request tracing: per-request lifecycle spans in a bounded
//! ring, exported as a Chrome Trace Event timeline.
//!
//! This mirrors the device-level `accel::trace` design one layer up and
//! shares its ring ([`EventRing`]) and overflow warning. The fleet's
//! event loop records self-contained [`SpanEvent`]s — each carries its
//! complete interval, so begin/end pairs are generated at export time
//! and always balance, even after the ring drops its oldest events.
//! Recording is strictly read-only over the simulation (every
//! hook runs in the sequential wave-order loop), which is how trace-on
//! and trace-off runs produce identical `ServeReport` aggregates — the
//! invariant the span-conservation proptests pin.
//!
//! The exported timeline ([`fleet_timeline`]) reuses the accel profiler's
//! [`TimelineBuilder`]: one track per admission lane (merged queue-busy
//! spans plus shed markers) and one per shard (flat, contiguous
//! reconfig/setup/request spans plus crash and quarantine markers), in
//! simulated ns. It passes `accel::profile::validate_timeline` by
//! construction: spans on a shard track are clamped to a per-shard cursor
//! so they tile without overlap, and lane busy spans are merged at
//! queue-depth transitions so siblings never nest.

use pudiannao_accel::json::Value;
use pudiannao_accel::profile::TimelineBuilder;
use pudiannao_accel::trace::EventRing;
use pudiannao_memsim::Technique;

use crate::report::ServeReport;

/// Trace-layer configuration: the span-event ring capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Max buffered [`SpanEvent`]s; the oldest are dropped (and counted)
    /// beyond this.
    pub event_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { event_capacity: 1 << 16 }
    }
}

impl TraceConfig {
    /// An empty span ring of this capacity, floored at one event.
    #[must_use]
    pub fn ring(&self) -> FleetTrace {
        FleetTrace::new(self.event_capacity.max(1))
    }

    /// A capacity comfortably covering a `requests`-sized stream (each
    /// admitted request costs a handful of events: its root pair, one
    /// event per leg, and its share of batch/lane events).
    #[must_use]
    pub fn sized_for(requests: u64) -> TraceConfig {
        let cap = requests.saturating_mul(8).next_power_of_two();
        TraceConfig { event_capacity: cap.clamp(1 << 12, 1 << 22) as usize }
    }
}

/// How a request ultimately resolved, stamped on its root-close event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootOutcome {
    /// Completed on its first primary leg.
    Completed,
    /// Completed via a retry leg.
    RetriedOk,
    /// Completed because the hedged duplicate won.
    HedgeWon,
    /// Dropped by its tier deadline.
    TimedOut,
    /// Exhausted its retry budget without a successful leg.
    Failed,
    /// Displaced from the queue by priority-aware shedding.
    Evicted,
}

impl RootOutcome {
    /// Stable label used in timeline args.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RootOutcome::Completed => "completed",
            RootOutcome::RetriedOk => "retried-ok",
            RootOutcome::HedgeWon => "hedge-won",
            RootOutcome::TimedOut => "timed-out",
            RootOutcome::Failed => "failed",
            RootOutcome::Evicted => "evicted",
        }
    }
}

/// How one dispatched leg ended on its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LegOutcome {
    /// Finished cleanly.
    Done,
    /// Drew a transient failure.
    Transient,
    /// Killed by a shard crash.
    Crashed,
}

impl LegOutcome {
    /// Stable label used in timeline args.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LegOutcome::Done => "done",
            LegOutcome::Transient => "transient",
            LegOutcome::Crashed => "crashed",
        }
    }
}

/// One self-contained lifecycle event. Every variant carries its full
/// interval (or instant), so a single surviving event renders without
/// needing its neighbours.
#[derive(Clone, Copy, Debug)]
pub enum SpanEvent {
    /// An admitted request entered the system (at its arrival instant).
    RootOpen {
        id: u64,
        /// Admission lane ([`Technique`] index).
        lane: usize,
        t: u64,
    },
    /// The same request resolved — exactly one per admitted request.
    RootClose { id: u64, outcome: RootOutcome, t: u64 },
    /// One executed leg: its interval on a shard, with retry/hedge
    /// provenance and queueing timestamps.
    Leg {
        id: u64,
        attempt: u32,
        hedge: bool,
        shard: usize,
        /// When the leg (re-)entered the admission queue.
        enqueued_ns: u64,
        /// When its kernel started on the shard (after reconfig+setup).
        start_ns: u64,
        end_ns: u64,
        outcome: LegOutcome,
    },
    /// One dispatched batch on a shard: the reconfig/setup charges and
    /// the busy interval the member legs tile.
    Batch {
        shard: usize,
        /// Technique lane the batch drained.
        lane: usize,
        start_ns: u64,
        /// Reconfiguration charge paid at the head (0 if none).
        reconfig_ns: u64,
        /// When member legs start executing (`start + reconfig + setup`).
        exec_start_ns: u64,
        /// When the shard stopped doing useful work (early on a crash).
        busy_until_ns: u64,
        legs: u32,
        /// The crash window that cut the batch short, if any.
        crash: Option<(u64, u64)>,
    },
    /// An admission lane held queued work over `[from_ns, until_ns)`
    /// (merged at depth transitions, so these never overlap per lane).
    LaneBusy { lane: usize, from_ns: u64, until_ns: u64, peak_depth: u64 },
    /// A request was shed from this lane at `t`.
    Shed { lane: usize, t: u64 },
    /// The health tracker pulled a shard from rotation.
    Quarantine { shard: usize, from_ns: u64, until_ns: u64 },
    /// A chaos crash window `[at_ns, until_ns)` on a shard.
    Crash { shard: usize, at_ns: u64, until_ns: u64 },
}

/// The bounded span-event ring a traced fleet run fills: the accel
/// trace's drop-oldest [`EventRing`], so a truncated timeline keeps the
/// most recent events, and `events_dropped` (surfaced in the report and
/// the timeline's `otherData`) says how many it lost.
pub type FleetTrace = EventRing<SpanEvent>;

/// Exports a traced run as a Chrome Trace Event document (loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)): one track
/// per admission lane, then one per shard, timestamps in simulated ns.
/// `None` when the report carries no trace (trace-off runs).
///
/// Legs whose `Batch` event was evicted from the ring are omitted (their
/// shard-local clamp state is gone); `events_dropped` in `otherData`
/// flags any such truncation, so a partial timeline is never mistaken
/// for a complete one.
#[must_use]
pub fn fleet_timeline(report: &ServeReport) -> Option<Value> {
    let trace = report.trace.as_ref()?;
    let lanes = Technique::ALL.len();
    let shard_count = report.shards_configured;

    let mut names: Vec<String> = Vec::with_capacity(lanes + shard_count);
    for technique in Technique::ALL {
        names.push(format!("queue-{}", technique.label()));
    }
    for shard in 0..shard_count {
        names.push(format!("shard-{shard}"));
    }
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut tl = TimelineBuilder::new("pudiannao-fleet", &name_refs);

    // Per-shard clamp state from the last Batch event seen: (cursor,
    // busy_until). Spans on a shard track are clamped into it so they
    // tile left to right without overlap — crashed sibling legs collapse
    // to zero width and are skipped by the builder.
    let mut shard_state: Vec<Option<(u64, u64)>> = vec![None; shard_count];

    for event in trace.events_iter() {
        match *event {
            SpanEvent::RootOpen { .. } | SpanEvent::RootClose { .. } => {
                // Root pairs carry conservation info for the proptests;
                // their visible story is told by the leg spans.
            }
            SpanEvent::Batch {
                shard,
                lane,
                start_ns,
                reconfig_ns,
                exec_start_ns,
                busy_until_ns,
                legs,
                crash,
            } => {
                if shard >= shard_count {
                    continue;
                }
                let track = lanes + shard;
                let reconfig_end = start_ns.saturating_add(reconfig_ns).min(busy_until_ns);
                tl.span(track, "reconfig", start_ns, reconfig_end.saturating_sub(start_ns), None);
                let setup_start = reconfig_end;
                let setup_end = exec_start_ns.min(busy_until_ns).max(setup_start);
                let mut args = Value::object()
                    .with("technique", Technique::ALL[lane % lanes].label())
                    .with("legs", u64::from(legs));
                if let Some((crash_ns, repair_ns)) = crash {
                    args.set("crash_ns", crash_ns);
                    args.set("repair_ns", repair_ns);
                }
                tl.span(track, "setup", setup_start, setup_end - setup_start, Some(args));
                shard_state[shard] = Some((exec_start_ns.min(busy_until_ns), busy_until_ns));
            }
            SpanEvent::Leg {
                id,
                attempt,
                hedge,
                shard,
                enqueued_ns,
                start_ns,
                end_ns,
                outcome,
            } => {
                if shard >= shard_count {
                    continue;
                }
                let Some((cursor, busy_until)) = shard_state[shard] else {
                    continue; // this leg's Batch event was dropped
                };
                let start = start_ns.max(cursor).min(busy_until);
                let end = end_ns.min(busy_until).max(start);
                let args = Value::object()
                    .with("attempt", u64::from(attempt))
                    .with("hedge", hedge)
                    .with("enqueued_ns", enqueued_ns)
                    .with("outcome", outcome.label());
                tl.span(lanes + shard, &format!("req-{id}"), start, end - start, Some(args));
                shard_state[shard] = Some((end, busy_until));
            }
            SpanEvent::LaneBusy { lane, from_ns, until_ns, peak_depth } => {
                let args = Value::object().with("peak_depth", peak_depth);
                tl.span(
                    lane % lanes,
                    "queued",
                    from_ns,
                    until_ns.saturating_sub(from_ns),
                    Some(args),
                );
            }
            SpanEvent::Shed { lane, t } => {
                tl.instant(lane % lanes, "shed", t, None);
            }
            SpanEvent::Quarantine { shard, from_ns, until_ns } => {
                if shard >= shard_count {
                    continue;
                }
                let args = Value::object().with("until_ns", until_ns);
                tl.instant(lanes + shard, "quarantine", from_ns, Some(args));
            }
            SpanEvent::Crash { shard, at_ns, until_ns } => {
                if shard >= shard_count {
                    continue;
                }
                let args = Value::object().with("until_ns", until_ns);
                tl.instant(lanes + shard, "crash", at_ns, Some(args));
            }
        }
    }

    let mut other = Value::object()
        .with("events_dropped", trace.events_dropped)
        .with("timestamp_unit", "ns")
        .with("shards", shard_count as u64);
    if let Some(obs) = &report.observability {
        other.set("observability", obs.to_json());
    }
    Some(tl.build(other))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = TraceConfig { event_capacity: 3 }.ring();
        for id in 0..5u64 {
            ring.push(SpanEvent::RootOpen { id, lane: 0, t: id });
        }
        assert_eq!(ring.events_dropped, 2);
        let ids: Vec<u64> = ring
            .events_iter()
            .map(|e| match *e {
                SpanEvent::RootOpen { id, .. } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![2, 3, 4], "oldest evicted first, order preserved");
    }

    #[test]
    fn sized_for_clamps_to_sane_bounds() {
        assert_eq!(TraceConfig::sized_for(0).event_capacity, 1 << 12);
        assert_eq!(TraceConfig::sized_for(4_000).event_capacity, 32_768);
        assert_eq!(TraceConfig::sized_for(u64::MAX / 16).event_capacity, 1 << 22);
        assert!(TraceConfig::default().event_capacity > 0);
    }
}
