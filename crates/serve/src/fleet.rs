//! The fleet: a pool of simulated PuDianNao devices ("shards") draining
//! the admission queue, driven as a discrete-event simulation.
//!
//! Each shard owns one reusable `SimdEngine` (the cache-simulating SIMD
//! datapath from memsim) that is **reset, never rebuilt** between batches
//! — the PR-5 profiling result (~87ns reset vs ~252ns rebuild) becomes the
//! serving cost model: every batch pays the reset as setup, and switching
//! technique families additionally pays a reconfiguration charge for
//! re-arming the functional units (the paper's polyvalent datapath is
//! time-shared across the seven techniques). Batching by technique exists
//! precisely to amortise that reconfiguration.
//!
//! The event loop is single-threaded and deterministic: ingest arrivals,
//! dispatch one batch to every idle shard, execute the dispatched wave —
//! the only parallel part, via [`pool::run_indexed`], whose results come
//! back in wave order regardless of worker count — then advance simulated
//! time to the next arrival or shard-completion event. One engine cycle is
//! one simulated nanosecond (1 GHz device clock, as in the paper's
//! evaluation).
//!
//! ## Resilience
//!
//! Every run takes one path: every dispatch attempt is a [`Leg`] tracked
//! by a per-request `Flight`, and every shard carries a [`ShardChaos`]
//! fate. [`ChaosConfig::off`] draws full speed and no crash, and
//! [`Defense::off`] sets no deadline, retry, hedge or quarantine, so under
//! both each request completes on its first leg. Such runs reproduce
//! `serve_report.json` byte for byte, carry no `resilience` section, and
//! measured no cost from the lifecycle on the `serve-heavy` benchmark
//! workload (20 alternating pairs on a 2-core host: `wall_s` medians 1 %
//! apart, inside the run-to-run spread). With chaos or a defence on:
//!
//! - legs that draw a transient fault or are killed by a shard crash come
//!   back failed; bounded **retries** with exponential backoff (in
//!   simulated ns) re-queue a fresh leg through a ready-heap;
//! - a slow or failed primary spawns one **hedged** duplicate after a
//!   p99-derived delay; the request resolves to whichever leg finishes
//!   first, and a hedge whose primary already resolved is cancelled at
//!   pick time;
//! - overdue legs (per-priority **deadlines**) are dropped at pick time
//!   and counted as timeouts; a completion that lands past its deadline
//!   still counts as completed but misses its SLO;
//! - a shard accumulating consecutive failed legs is **quarantined** for
//!   a cooldown and drained back into rotation afterwards.
//!
//! Every request resolves exactly once; the resulting outcome classes
//! partition the offered load (the conservation invariant the proptests
//! pin down).

use pudiannao_memsim::{batch, AccessBlock, CacheConfig, SimdEngine, Technique};

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::admission::{AdmissionConfig, AdmissionOutcome, AdmissionQueue};
use crate::catalog::{ServingCatalog, TraceCache, TraceCacheStats};
use crate::chaos::{ChaosConfig, Defense, ShardChaos};
use crate::metrics::{MetricsConfig, MetricsRecorder};
use crate::pool;
use crate::report::{
    shard_verdict, Completion, LatencyBreakdown, ObservabilityReport, ResilienceReport,
    ServeReport, ShardResilience, TierBreakdown,
};
use crate::request::{Leg, Request, RequestKind};
use crate::trace::{FleetTrace, LegOutcome, RootOutcome, SpanEvent, TraceConfig};

/// Cost, in simulated ns, of resetting a shard's engine for a new batch
/// (measured reuse-path cost from the PR-5 profiling pass).
pub const BATCH_SETUP_NS: u64 = 87;

/// Additional cost, in simulated ns, of re-arming the datapath when a
/// shard switches technique families between batches (measured
/// full-rebuild cost from the same profiling pass).
pub const RECONFIG_NS: u64 = 252;

/// Default per-shard trace-template arena: comfortably holds every
/// catalog template on the paper-default cache geometry (measured ~4 MB
/// of packed entries across all 39 slots on the heavy stream), with 4x
/// headroom for bigger tiers.
pub const TRACE_CACHE_BYTES: usize = 16 << 20;

/// Fleet-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub shards: usize,
    /// Max requests per dispatched batch.
    pub max_batch: usize,
    /// Admission-queue bounds.
    pub admission: AdmissionConfig,
    /// Per-shard trace-template arena budget in bytes; a zero budget
    /// keeps no template, so every leg generates its trace fresh. Replay
    /// is counter-identical to fresh generation, so this knob only moves
    /// wall-clock and memory — never a report byte.
    pub trace_cache_bytes: usize,
}

impl FleetConfig {
    /// The 4-shard fleet `serve_bench` runs by default.
    #[must_use]
    pub fn paper_default() -> Self {
        FleetConfig {
            shards: 4,
            max_batch: 16,
            admission: AdmissionConfig::paper_default(),
            trace_cache_bytes: TRACE_CACHE_BYTES,
        }
    }

    /// Same knobs with a different shard count (for the scaling sweep).
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        FleetConfig { shards, ..FleetConfig::paper_default() }
    }
}

/// Observability configuration for one fleet run: which of the two layers
/// (per-request span tracing, windowed metrics) to record. Both default
/// off, and [`run_fleet`] and [`serve`] always pass [`ObserveConfig::off`]
/// — unobserved runs never build an observer, so their reports carry no
/// `observability` section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Record per-request lifecycle spans into a bounded ring.
    pub trace: Option<TraceConfig>,
    /// Record the windowed metrics time series.
    pub metrics: Option<MetricsConfig>,
}

impl ObserveConfig {
    /// No observation: no observer is built.
    #[must_use]
    pub fn off() -> Self {
        ObserveConfig::default()
    }

    /// Both layers on, with the span ring sized for a `requests`-long
    /// stream and the default metrics window.
    #[must_use]
    pub fn full(requests: u64) -> Self {
        ObserveConfig {
            trace: Some(TraceConfig::sized_for(requests)),
            metrics: Some(MetricsConfig::default()),
        }
    }

    /// `true` when neither layer records anything.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.trace.is_none() && self.metrics.is_none()
    }
}

/// How one dispatched leg ended on the shard.
#[derive(Clone, Copy, Debug)]
enum LegFate {
    /// Finished cleanly at this simulated instant.
    Done(u64),
    /// Drew a transient failure, observed at this instant.
    Transient(u64),
    /// Killed by a shard crash at this instant.
    Crashed(u64),
}

/// One executed leg as reported back by a shard.
#[derive(Clone, Copy, Debug)]
struct LegResult {
    leg: Leg,
    fate: LegFate,
    /// When this leg's kernel started on the shard (after the batch's
    /// reconfig+setup and its batch-mates ahead of it) — the left edge of
    /// its trace span.
    start_ns: u64,
    /// This leg's own (slowdown-scaled) service time, excluding queueing
    /// and batch-mates — the straggler signal the hedge trigger watches.
    /// (End-to-end batch time would flag the tail of every deep batch.)
    service_ns: u64,
}

/// Always-computed timing facts of one dispatched batch — plain
/// arithmetic on values the shard derives anyway, so keeping them on the
/// result costs nothing. The observability layer's only window into
/// shard execution, and the source of the exact latency attribution.
#[derive(Clone, Copy, Debug)]
struct BatchFacts {
    technique: Technique,
    /// Dispatch instant (the wave's `now`).
    start_ns: u64,
    /// Reconfiguration charge paid at the head (0 if none).
    reconfig_ns: u64,
    /// When member legs started executing (`start + reconfig + setup`).
    exec_start_ns: u64,
    /// When the shard stopped doing useful work (early on a crash).
    busy_until_ns: u64,
    /// The crash window that cut the batch short, if any.
    crash: Option<(u64, u64)>,
}

/// One simulated device: a reusable engine (plus its batching scratch
/// buffer), its trace-template cache, utilisation counters, its drawn
/// chaos fate and health-tracking state.
struct Shard {
    engine: SimdEngine,
    /// SoA scratch for the batched trace path, reused across requests.
    block: AccessBlock,
    /// Recorded trace templates (none under a zero budget).
    trace_cache: TraceCache,
    last_technique: Option<Technique>,
    free_at_ns: u64,
    batches: u64,
    requests: u64,
    reconfigs: u64,
    busy_ns: u64,
    ops: u64,
    offchip_bytes: u64,
    /// Chaos fate of this shard: full speed and never down under
    /// [`ChaosConfig::off`].
    chaos: ShardChaos,
    /// Consecutive failed legs, for the quarantine trigger.
    fail_streak: u32,
    /// Until when the health tracker has pulled this shard from rotation.
    quarantined_until_ns: u64,
    quarantines: u64,
    quarantine_down_ns: u64,
}

impl Shard {
    fn new(cache: &CacheConfig, chaos: ShardChaos, trace_cache_bytes: usize) -> Shard {
        Shard {
            engine: SimdEngine::new(cache.clone()).expect("paper cache config is valid"),
            block: AccessBlock::with_capacity(cache.line_bytes, batch::FLUSH_ACCESSES + 32),
            trace_cache: TraceCache::new(trace_cache_bytes),
            last_technique: None,
            free_at_ns: 0,
            batches: 0,
            requests: 0,
            reconfigs: 0,
            busy_ns: 0,
            ops: 0,
            offchip_bytes: 0,
            chaos,
            fail_streak: 0,
            quarantined_until_ns: 0,
            quarantines: 0,
            quarantine_down_ns: 0,
        }
    }

    /// Executes one technique-homogeneous batch starting at `start_ns`;
    /// returns the fate of every leg. The engine is reset once per batch,
    /// so requests in a batch share cache state — the locality win
    /// batching buys on top of amortised reconfiguration.
    ///
    /// Chaos hooks: service time is scaled by the shard's slowdown draw,
    /// each leg may draw a transient failure (a pure hash of its
    /// identifiers), and a crash window opening mid-batch kills every leg
    /// that had not yet completed and idles the shard until repair.
    fn run_batch(
        &mut self,
        technique: Technique,
        legs: &[Leg],
        catalog: &ServingCatalog,
        start_ns: u64,
    ) -> (BatchFacts, Vec<LegResult>) {
        let mut t = start_ns;
        let mut reconfig_ns = 0;
        if self.last_technique != Some(technique) {
            t = t.saturating_add(RECONFIG_NS);
            reconfig_ns = RECONFIG_NS;
            if self.last_technique.is_some() {
                self.reconfigs += 1;
            }
            self.last_technique = Some(technique);
        }
        t = t.saturating_add(BATCH_SETUP_NS);
        let exec_start_ns = t;
        self.engine.reset();
        let slowdown = self.chaos.slowdown_permille;
        let mut out = Vec::with_capacity(legs.len());
        let mut prev_cycles = 0u64;
        for leg in legs {
            let RequestKind::Phase(phase) = leg.request.kind else {
                unreachable!("admission rejects unknown techniques before dispatch");
            };
            // Batched execution: the request's ops pack into the SoA
            // scratch block and stream through the cache in block
            // passes — counter-identical to tracing straight into the
            // engine, which is why the completion timestamps (read off
            // the cumulative cycle counter after the flush) don't move.
            // With the template cache, a previously seen (phase, tier)
            // replays its recorded block instead of regenerating it;
            // same equivalence, minus the whole generation pass.
            self.trace_cache.execute(
                catalog,
                phase,
                leg.request.tier,
                &mut self.engine,
                &mut self.block,
            );
            let cycles = self.engine.report().cycles;
            let done_ns = t.saturating_add(scale_ns(cycles, slowdown));
            out.push(LegResult {
                leg: *leg,
                fate: LegFate::Done(done_ns),
                start_ns: t.saturating_add(scale_ns(prev_cycles, slowdown)),
                service_ns: scale_ns(cycles.saturating_sub(prev_cycles), slowdown),
            });
            prev_cycles = cycles;
        }
        let stats = self.engine.report();
        let mut end_ns = t.saturating_add(scale_ns(stats.cycles, slowdown));
        let mut busy_until = end_ns;
        let mut crash = None;
        // Transient failures first: a pure per-leg hash, so the verdict
        // is the same whichever shard or wave runs the leg.
        let plan = self.chaos.plan();
        if plan.transient_per_mille > 0 {
            for r in &mut out {
                if plan.leg_fails(r.leg.request.id, r.leg.attempt, r.leg.hedge) {
                    let LegFate::Done(d) = r.fate else { unreachable!() };
                    r.fate = LegFate::Transient(d);
                }
            }
        }
        // Then the crash window, which overrides: every leg that had not
        // completed when the shard went down is lost, and the shard stays
        // down (and loses its datapath configuration) until the window
        // closes.
        if let Some((crash_ns, repair_ns)) = self.chaos.crash_in(start_ns, end_ns) {
            for r in &mut out {
                let at = match r.fate {
                    LegFate::Done(d) | LegFate::Transient(d) => d,
                    LegFate::Crashed(_) => continue,
                };
                if at > crash_ns {
                    r.fate = LegFate::Crashed(crash_ns);
                }
            }
            self.last_technique = None;
            busy_until = crash_ns.max(start_ns);
            end_ns = repair_ns;
            crash = Some((crash_ns, repair_ns));
        }
        // Health streak, at batch granularity: a batch that lost *every*
        // leg extends the streak, any success resets it. (Per-leg
        // counting would count one crash as a dozen strikes and
        // quarantine a shard that already self-healed.) Always zero with
        // chaos off.
        let any_ok = out.iter().any(|r| matches!(r.fate, LegFate::Done(_)));
        if any_ok {
            self.fail_streak = 0;
        } else if !out.is_empty() {
            self.fail_streak = self.fail_streak.saturating_add(1);
        }
        self.batches += 1;
        self.requests += legs.len() as u64;
        self.busy_ns = self.busy_ns.saturating_add(busy_until.saturating_sub(start_ns));
        self.ops += stats.ops;
        self.offchip_bytes += stats.offchip_bytes;
        self.free_at_ns = end_ns;
        let facts = BatchFacts {
            technique,
            start_ns,
            reconfig_ns,
            exec_start_ns,
            busy_until_ns: busy_until,
            crash,
        };
        (facts, out)
    }
}

/// Service time under the shard's slowdown draw; exact at full speed
/// (1000 per-mille multiplies by one).
fn scale_ns(cycles: u64, slowdown_permille: u64) -> u64 {
    if slowdown_permille == 1000 {
        cycles
    } else {
        u64::try_from(u128::from(cycles) * u128::from(slowdown_permille) / 1000).unwrap_or(u64::MAX)
    }
}

/// The best (earliest) successful leg of a flight so far.
#[derive(Clone, Copy, Debug)]
struct Best {
    done_ns: u64,
    dispatched_ns: u64,
    hedge: bool,
    retried: bool,
    /// The winning leg's exact latency attribution (observational).
    breakdown: LatencyBreakdown,
}

/// Lifecycle state of one in-flight request: how many legs are queued or
/// running, how many retries it has burned, and the best completion seen.
#[derive(Clone, Copy, Debug)]
struct Flight {
    request: Request,
    outstanding: u32,
    attempts_used: u32,
    hedged: bool,
    best: Option<Best>,
    last_fail_ns: u64,
    /// Latest instant any leg of this flight was observed ending (success
    /// or failure) — the root span closes no earlier than this, so leg
    /// spans never outlive their root. Purely observational.
    last_seen_ns: u64,
}

/// Exact five-way split of a completed leg's end-to-end latency. The
/// segments partition `done_ns - arrival_ns` with no gaps or overlaps:
/// enqueue times are monotone through dispatch, and the shard charges
/// reconfig then setup then service contiguously from the dispatch
/// instant.
fn breakdown_of(leg: &Leg, facts: &BatchFacts, done_ns: u64) -> LatencyBreakdown {
    LatencyBreakdown {
        backoff_ns: leg.enqueued_ns.saturating_sub(leg.request.arrival_ns),
        queue_ns: facts.start_ns.saturating_sub(leg.enqueued_ns),
        reconfig_ns: facts.reconfig_ns,
        setup_ns: facts
            .exec_start_ns
            .saturating_sub(facts.start_ns)
            .saturating_sub(facts.reconfig_ns),
        service_ns: done_ns.saturating_sub(facts.exec_start_ns),
    }
}

/// Read-only recorder threaded through an observed run. Every hook runs
/// in the sequential wave-order loop and only accumulates — nothing here
/// feeds a decision back into the simulation, which is why a traced run's
/// `ServeReport` aggregates are identical to an untraced run's (the
/// span-conservation proptests pin this).
struct Observer {
    trace: Option<FleetTrace>,
    metrics: Option<MetricsRecorder>,
    tiers: [TierBreakdown; 3],
    /// Per-lane open "queued" interval: `(since_ns, peak_depth)`. Busy
    /// spans are merged at depth 0↔>0 transitions, so the spans on a lane
    /// track never overlap.
    lane_open: [Option<(u64, u64)>; Technique::ALL.len()],
}

impl Observer {
    fn new(observe: &ObserveConfig, shards: usize) -> Observer {
        Observer {
            trace: observe.trace.as_ref().map(TraceConfig::ring),
            metrics: observe.metrics.as_ref().map(|m| MetricsRecorder::new(m, shards)),
            tiers: [TierBreakdown::default(); 3],
            lane_open: [None; Technique::ALL.len()],
        }
    }

    fn push(&mut self, event: SpanEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    /// One freshly offered request: open its root span (admitted) or
    /// record the shed/reject.
    fn on_offered(&mut self, request: &Request, outcome: AdmissionOutcome) {
        let at = request.arrival_ns;
        match outcome {
            AdmissionOutcome::Admitted => {
                let lane = request.technique().expect("admitted requests are well-formed").index();
                self.push(SpanEvent::RootOpen { id: request.id, lane, t: at });
            }
            AdmissionOutcome::Shed => {
                if let Some(technique) = request.technique() {
                    self.push(SpanEvent::Shed { lane: technique.index(), t: at });
                }
                if let Some(m) = &mut self.metrics {
                    m.on_shed(at);
                }
            }
            AdmissionOutcome::Rejected => {
                if let Some(m) = &mut self.metrics {
                    m.on_rejected(at);
                }
            }
        }
    }

    /// A queued primary displaced by priority-aware shedding at `now`.
    fn on_evicted(&mut self, leg: &Leg, now: u64) {
        self.push(SpanEvent::RootClose {
            id: leg.request.id,
            outcome: RootOutcome::Evicted,
            t: now,
        });
        if let Some(m) = &mut self.metrics {
            m.on_shed(now);
        }
    }

    fn on_timed_out(&mut self, id: u64, at: u64) {
        self.push(SpanEvent::RootClose { id, outcome: RootOutcome::TimedOut, t: at });
        if let Some(m) = &mut self.metrics {
            m.on_timed_out(at);
        }
    }

    fn on_failed(&mut self, id: u64, at: u64) {
        self.push(SpanEvent::RootClose { id, outcome: RootOutcome::Failed, t: at });
        if let Some(m) = &mut self.metrics {
            m.on_failed(at);
        }
    }

    fn on_retry(&mut self, ready_ns: u64) {
        if let Some(m) = &mut self.metrics {
            m.on_retry(ready_ns);
        }
    }

    fn on_hedge(&mut self, ready_ns: u64) {
        if let Some(m) = &mut self.metrics {
            m.on_hedge(ready_ns);
        }
    }

    /// A flight resolved successfully: close its root at `close_ns` (the
    /// last instant any of its legs was seen) and attribute the winning
    /// leg's latency to the request's priority tier.
    fn on_completed(
        &mut self,
        request: &Request,
        outcome: RootOutcome,
        close_ns: u64,
        done_ns: u64,
        breakdown: LatencyBreakdown,
    ) {
        self.push(SpanEvent::RootClose { id: request.id, outcome, t: close_ns });
        if let Some(m) = &mut self.metrics {
            m.on_completion(done_ns.saturating_sub(request.arrival_ns), done_ns);
        }
        self.tiers[request.priority.index()].add(breakdown);
    }

    /// One executed batch: the shard-track facts plus every member leg.
    fn on_batch(&mut self, shard: usize, facts: &BatchFacts, results: &[LegResult]) {
        if self.trace.is_some() {
            self.push(SpanEvent::Batch {
                shard,
                lane: facts.technique.index(),
                start_ns: facts.start_ns,
                reconfig_ns: facts.reconfig_ns,
                exec_start_ns: facts.exec_start_ns,
                busy_until_ns: facts.busy_until_ns,
                legs: results.len() as u32,
                crash: facts.crash,
            });
            for r in results {
                let (end_ns, outcome) = match r.fate {
                    LegFate::Done(d) => (d, LegOutcome::Done),
                    LegFate::Transient(d) => (d, LegOutcome::Transient),
                    LegFate::Crashed(at) => (at, LegOutcome::Crashed),
                };
                self.push(SpanEvent::Leg {
                    id: r.leg.request.id,
                    attempt: r.leg.attempt,
                    hedge: r.leg.hedge,
                    shard,
                    enqueued_ns: r.leg.enqueued_ns,
                    start_ns: r.start_ns,
                    end_ns,
                    outcome,
                });
            }
        }
        if let Some(m) = &mut self.metrics {
            m.add_busy(facts.start_ns, facts.busy_until_ns);
        }
    }

    fn on_quarantine(&mut self, shard: usize, from_ns: u64, until_ns: u64) {
        self.push(SpanEvent::Quarantine { shard, from_ns, until_ns });
        if let Some(m) = &mut self.metrics {
            m.on_quarantine(from_ns);
        }
    }

    /// Samples the admission lanes at `now`: opens/extends/closes the
    /// merged per-lane "queued" spans and records the total-depth gauge.
    fn note_queues(&mut self, depths: &[usize; Technique::ALL.len()], now: u64) {
        if self.trace.is_some() {
            for (lane, &depth) in depths.iter().enumerate() {
                let open = &mut self.lane_open[lane];
                if depth > 0 {
                    match open {
                        Some((_, peak)) => *peak = (*peak).max(depth as u64),
                        None => *open = Some((now, depth as u64)),
                    }
                } else if let Some((from_ns, peak_depth)) = open.take() {
                    self.push(SpanEvent::LaneBusy { lane, from_ns, until_ns: now, peak_depth });
                }
            }
        }
        if let Some(m) = &mut self.metrics {
            m.note_queue_depth(depths.iter().sum(), now);
        }
    }

    /// End of run: close any still-open lane spans and emit the chaos
    /// crash windows that fell inside the makespan.
    fn seal(&mut self, shards: &mut [Shard], makespan_ns: u64) {
        for lane in 0..self.lane_open.len() {
            if let Some((from_ns, peak_depth)) = self.lane_open[lane].take() {
                let until_ns = makespan_ns.max(from_ns);
                self.push(SpanEvent::LaneBusy { lane, from_ns, until_ns, peak_depth });
            }
        }
        if self.trace.is_some() {
            for (i, shard) in shards.iter_mut().enumerate() {
                for (at_ns, until_ns) in shard.chaos.windows_up_to(makespan_ns) {
                    self.push(SpanEvent::Crash { shard: i, at_ns, until_ns });
                }
            }
        }
    }

    /// Attaches the sealed observability section (and the raw span ring)
    /// to the assembled report.
    fn finish(self, report: &mut ServeReport) {
        let makespan_ns = report.makespan_ns;
        let shard_verdicts = report
            .shards
            .iter()
            .enumerate()
            .map(|(i, stats)| {
                let down_ns = report
                    .resilience
                    .as_ref()
                    .and_then(|r| r.shards.get(i))
                    .map_or(0, |s| s.down_ns);
                shard_verdict(stats, down_ns, makespan_ns)
            })
            .collect();
        if let Some(trace) = &self.trace {
            trace.warn_if_dropped("fleet span");
        }
        let events_dropped = self.trace.as_ref().map_or(0, |t| t.events_dropped);
        report.observability = Some(ObservabilityReport {
            events_dropped,
            tiers: self.tiers,
            shard_verdicts,
            metrics: self.metrics.map(|m| m.finish(makespan_ns)),
        });
        report.trace = self.trace;
    }
}

/// A retry or hedge leg waiting for its simulated release time.
#[derive(Clone, Copy, Debug)]
struct ReadyLeg {
    ready_ns: u64,
    seq: u64,
    leg: Leg,
}

impl PartialEq for ReadyLeg {
    fn eq(&self, other: &Self) -> bool {
        (self.ready_ns, self.seq) == (other.ready_ns, other.seq)
    }
}
impl Eq for ReadyLeg {}
impl PartialOrd for ReadyLeg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyLeg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready_ns, self.seq).cmp(&(other.ready_ns, other.seq))
    }
}

/// All request-lifecycle state of a run: flights, the ready heap for
/// delayed legs, resolved completions and the resilience tallies.
/// Processed strictly sequentially (in wave order), so every decision is
/// independent of the worker count.
struct Lifecycle {
    defense: Defense,
    flights: BTreeMap<u64, Flight>,
    ready: BinaryHeap<Reverse<ReadyLeg>>,
    seq: u64,
    rep: ResilienceReport,
    completions: Vec<Completion>,
}

impl Lifecycle {
    fn new(defense: Defense, capacity: usize) -> Lifecycle {
        Lifecycle {
            defense,
            flights: BTreeMap::new(),
            ready: BinaryHeap::new(),
            seq: 0,
            rep: ResilienceReport::default(),
            completions: Vec::with_capacity(capacity),
        }
    }

    fn push_ready(&mut self, ready_ns: u64, mut leg: Leg) {
        // Every delayed leg re-enters the queue at its release time; the
        // stamp is observational only (trace/attribution), so setting it
        // here cannot perturb an unobserved run.
        leg.enqueued_ns = ready_ns;
        let seq = self.seq;
        self.seq = self.seq.saturating_add(1);
        self.ready.push(Reverse(ReadyLeg { ready_ns, seq, leg }));
    }

    /// Accounts one freshly offered request.
    fn on_offered(&mut self, request: &Request, outcome: AdmissionOutcome) {
        let tier = &mut self.rep.tiers[request.priority.index()];
        tier.offered = tier.offered.saturating_add(1);
        match outcome {
            AdmissionOutcome::Admitted => {
                self.flights.insert(
                    request.id,
                    Flight {
                        request: *request,
                        outstanding: 1,
                        attempts_used: 0,
                        hedged: false,
                        best: None,
                        last_fail_ns: 0,
                        last_seen_ns: 0,
                    },
                );
            }
            AdmissionOutcome::Shed => {
                self.rep.outcomes.shed = self.rep.outcomes.shed.saturating_add(1);
            }
            AdmissionOutcome::Rejected => {
                tier.rejected = tier.rejected.saturating_add(1);
                self.rep.outcomes.rejected = self.rep.outcomes.rejected.saturating_add(1);
            }
        }
    }

    /// Resolves a primary evicted by priority-aware shedding.
    fn on_evicted(&mut self, leg: &Leg) {
        let removed = self.flights.remove(&leg.request.id);
        debug_assert!(removed.is_some(), "evicted legs belong to live flights");
        self.rep.outcomes.shed = self.rep.outcomes.shed.saturating_add(1);
    }

    /// Pick-time filter: returns `true` when the leg must not be
    /// dispatched — a hedge whose primary already resolved (cancelled) or
    /// any leg past its deadline (timed out).
    fn drop_at_pick(&mut self, leg: &Leg, now: u64, obs: &mut Option<Observer>) -> bool {
        let id = leg.request.id;
        if leg.hedge {
            let f = self.flights.get(&id).expect("queued hedge belongs to a live flight");
            if f.best.is_some_and(|b| b.done_ns <= now) {
                // The primary answered before the hedge reached a shard:
                // cancel it, exactly as a real fleet would.
                self.rep.hedges_cancelled = self.rep.hedges_cancelled.saturating_add(1);
                self.finish_leg(id, obs);
                return true;
            }
        }
        if let Some(deadline) =
            self.defense.deadline_for(leg.request.priority, leg.request.arrival_ns)
        {
            if deadline < now {
                if leg.hedge {
                    self.rep.hedges_cancelled = self.rep.hedges_cancelled.saturating_add(1);
                    self.finish_leg(id, obs);
                } else {
                    let f = self.flights.remove(&id).expect("queued leg belongs to a live flight");
                    debug_assert!(f.outstanding == 1 && f.best.is_none());
                    self.rep.outcomes.timed_out = self.rep.outcomes.timed_out.saturating_add(1);
                    if let Some(o) = obs {
                        o.on_timed_out(id, now);
                    }
                }
                return true;
            }
        }
        false
    }

    /// Processes one executed leg: record its fate, possibly launch a
    /// hedge, and resolve the flight if no legs remain outstanding.
    fn on_leg_result(
        &mut self,
        result: &LegResult,
        facts: &BatchFacts,
        obs: &mut Option<Observer>,
    ) {
        let LegResult { leg, fate, service_ns, .. } = result;
        let fate = *fate;
        let dispatched_ns = facts.start_ns;
        let id = leg.request.id;
        let f = self.flights.get_mut(&id).expect("executed leg belongs to a live flight");
        match fate {
            LegFate::Done(done_ns) => {
                f.last_seen_ns = f.last_seen_ns.max(done_ns);
                if f.best.is_none_or(|b| done_ns < b.done_ns) {
                    f.best = Some(Best {
                        done_ns,
                        dispatched_ns,
                        hedge: leg.hedge,
                        retried: leg.attempt > 0,
                        breakdown: breakdown_of(leg, facts, done_ns),
                    });
                }
            }
            LegFate::Transient(at) => {
                self.rep.transient_faults = self.rep.transient_faults.saturating_add(1);
                f.last_fail_ns = f.last_fail_ns.max(at);
                f.last_seen_ns = f.last_seen_ns.max(at);
            }
            LegFate::Crashed(at) => {
                self.rep.crash_killed = self.rep.crash_killed.saturating_add(1);
                f.last_fail_ns = f.last_fail_ns.max(at);
                f.last_seen_ns = f.last_seen_ns.max(at);
            }
        }
        // Hedge trigger: a primary-generation leg whose *own* service
        // time blew past the hedge delay (a straggler or degraded shard)
        // or that failed outright spawns one duplicate, released
        // `hedge_after_ns` after the original dispatch. The request then
        // resolves to whichever leg finishes first. Tiers below
        // `recover_from` never hedge.
        let recoverable = leg.request.priority.index() >= self.defense.recover_from.index();
        if !leg.hedge && !f.hedged && recoverable {
            if let Some(after) = self.defense.hedge_after_ns {
                let slow_or_failed = match fate {
                    LegFate::Done(_) => *service_ns > after,
                    LegFate::Transient(_) | LegFate::Crashed(_) => true,
                };
                if slow_or_failed {
                    f.hedged = true;
                    f.outstanding = f.outstanding.saturating_add(1);
                    self.rep.hedges_launched = self.rep.hedges_launched.saturating_add(1);
                    let hedge = Leg {
                        request: leg.request,
                        attempt: leg.attempt,
                        hedge: true,
                        enqueued_ns: 0,
                    };
                    let ready_ns = dispatched_ns.saturating_add(after);
                    if let Some(o) = obs.as_mut() {
                        o.on_hedge(ready_ns);
                    }
                    self.push_ready(ready_ns, hedge);
                }
            }
        }
        self.finish_leg(id, obs);
    }

    /// One leg of flight `id` is gone (completed, failed, or cancelled);
    /// resolves the flight once nothing is outstanding.
    fn finish_leg(&mut self, id: u64, obs: &mut Option<Observer>) {
        let f = self.flights.get_mut(&id).expect("finished leg belongs to a live flight");
        f.outstanding = f.outstanding.saturating_sub(1);
        if f.outstanding > 0 {
            return;
        }
        let f = self.flights.remove(&id).expect("flight present");
        let tier = f.request.priority.index();
        if let Some(best) = f.best {
            let RequestKind::Phase(phase) = f.request.kind else {
                unreachable!("flights only exist for admitted, known-technique requests");
            };
            // A completion past its deadline still completed — the work
            // ran — it just misses its SLO.
            let met = self
                .defense
                .deadline_for(f.request.priority, f.request.arrival_ns)
                .is_none_or(|dl| best.done_ns <= dl);
            self.rep.tiers[tier].completed = self.rep.tiers[tier].completed.saturating_add(1);
            if met {
                self.rep.tiers[tier].slo_met = self.rep.tiers[tier].slo_met.saturating_add(1);
            }
            if best.hedge {
                self.rep.outcomes.hedge_won = self.rep.outcomes.hedge_won.saturating_add(1);
            } else if best.retried {
                self.rep.outcomes.retried_ok = self.rep.outcomes.retried_ok.saturating_add(1);
            } else {
                self.rep.outcomes.completed_clean =
                    self.rep.outcomes.completed_clean.saturating_add(1);
            }
            if let Some(o) = obs {
                let outcome = if best.hedge {
                    RootOutcome::HedgeWon
                } else if best.retried {
                    RootOutcome::RetriedOk
                } else {
                    RootOutcome::Completed
                };
                let close_ns = best.done_ns.max(f.last_seen_ns);
                o.on_completed(&f.request, outcome, close_ns, best.done_ns, best.breakdown);
            }
            self.completions.push(Completion {
                request: f.request,
                phase,
                dispatched_ns: best.dispatched_ns,
                completed_ns: best.done_ns,
            });
            return;
        }
        // Every leg failed: retry with exponential backoff while budget,
        // deadline and tier allow, otherwise the request is lost.
        let recoverable = f.request.priority.index() >= self.defense.recover_from.index();
        if recoverable && f.attempts_used < self.defense.max_retries {
            let shift = f.attempts_used.min(16);
            let backoff = self.defense.retry_backoff_ns.saturating_mul(1u64 << shift);
            let ready_ns = f.last_fail_ns.saturating_add(backoff);
            let worth_it = self
                .defense
                .deadline_for(f.request.priority, f.request.arrival_ns)
                .is_none_or(|dl| ready_ns <= dl);
            if worth_it {
                self.rep.retries_scheduled = self.rep.retries_scheduled.saturating_add(1);
                let retry = Leg {
                    request: f.request,
                    attempt: f.attempts_used + 1,
                    hedge: false,
                    enqueued_ns: 0,
                };
                self.flights.insert(
                    f.request.id,
                    Flight {
                        attempts_used: f.attempts_used + 1,
                        outstanding: 1,
                        hedged: false,
                        ..f
                    },
                );
                if let Some(o) = obs {
                    o.on_retry(ready_ns);
                }
                self.push_ready(ready_ns, retry);
                return;
            }
            // A retry that cannot start before the deadline is a timeout.
            self.rep.outcomes.timed_out = self.rep.outcomes.timed_out.saturating_add(1);
            if let Some(o) = obs {
                o.on_timed_out(f.request.id, f.last_seen_ns);
            }
            return;
        }
        self.rep.outcomes.failed = self.rep.outcomes.failed.saturating_add(1);
        if let Some(o) = obs {
            o.on_failed(f.request.id, f.last_seen_ns);
        }
    }
}

/// Runs the full open-loop stream through a fleet and reports what
/// happened: [`run_fleet_observed`] with chaos, defences and observation
/// off. `requests` must be sorted by `arrival_ns` (the generator produces
/// them that way).
#[must_use]
pub fn run_fleet(
    config: &FleetConfig,
    cache: &CacheConfig,
    catalog: &ServingCatalog,
    requests: &[Request],
) -> ServeReport {
    let (chaos, defense, observe) = (ChaosConfig::off(), Defense::off(), ObserveConfig::off());
    run_fleet_observed(config, cache, catalog, requests, &chaos, &defense, &observe)
}

/// Runs the stream under a chaos plan and defence policy, with the
/// observability layer riding along. Every request is tracked through
/// retries, hedges, deadlines and quarantine to exactly one resolution;
/// the report carries a `resilience` section only when chaos or a
/// defence is on. The observer is strictly read-only over the simulation
/// — whether it records or not, the loop takes the same decisions, so an
/// observed report's aggregates are byte-identical to the unobserved
/// run's (only the additive `observability` section and the in-memory
/// span ring differ).
#[must_use]
pub fn run_fleet_observed(
    config: &FleetConfig,
    cache: &CacheConfig,
    catalog: &ServingCatalog,
    requests: &[Request],
    chaos: &ChaosConfig,
    defense: &Defense,
    observe: &ObserveConfig,
) -> ServeReport {
    assert!(config.shards > 0, "a fleet needs at least one shard");
    debug_assert!(
        requests.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns),
        "request stream must be sorted by arrival"
    );

    let resilient = !(chaos.is_off() && *defense == Defense::off());
    let mut shards: Vec<Shard> = (0..config.shards)
        .map(|i| Shard::new(cache, ShardChaos::new(chaos, i), config.trace_cache_bytes))
        .collect();
    let mut admission = AdmissionQueue::new(config.admission, defense.priority_shedding);
    let mut lc = Lifecycle::new(*defense, requests.len());
    let mut obs = (!observe.is_off()).then(|| Observer::new(observe, config.shards));

    let mut now = 0u64;
    let mut next_arrival = 0usize;
    loop {
        // 1. Ingest everything that has arrived by `now`, plus any retry
        //    or hedge legs whose release time has come.
        while next_arrival < requests.len() && requests[next_arrival].arrival_ns <= now {
            let request = requests[next_arrival];
            let outcome = admission.offer(request);
            if let Some(o) = &mut obs {
                o.on_offered(&request, outcome);
            }
            lc.on_offered(&request, outcome);
            for evicted in admission.take_evicted() {
                if let Some(o) = &mut obs {
                    o.on_evicted(&evicted, now);
                }
                lc.on_evicted(&evicted);
            }
            next_arrival += 1;
        }
        while lc.ready.peek().is_some_and(|Reverse(r)| r.ready_ns <= now) {
            let Reverse(r) = lc.ready.pop().expect("peeked");
            admission.offer_leg(r.leg);
        }
        if let Some(o) = &mut obs {
            o.note_queues(&admission.lane_depths(), now);
        }

        // 2. Hand one batch to every idle, healthy shard (deterministic:
        //    shards in index order, batches in oldest-head-of-line
        //    order). Overdue and cancelled legs are filtered here.
        let mut wave: Vec<(usize, &mut Shard, Technique, Vec<Leg>)> = Vec::new();
        let mut queue_open = true;
        for (idx, shard) in shards.iter_mut().enumerate() {
            if !queue_open || shard.free_at_ns > now {
                continue;
            }
            if shard.quarantined_until_ns > now || shard.chaos.available_from(now) > now {
                continue;
            }
            let picked = loop {
                let Some((technique, mut batch)) = admission.pick_batch(config.max_batch) else {
                    break None;
                };
                batch.retain(|leg| !lc.drop_at_pick(leg, now, &mut obs));
                if !batch.is_empty() {
                    break Some((technique, batch));
                }
            };
            match picked {
                Some((technique, batch)) => wave.push((idx, shard, technique, batch)),
                None => queue_open = false,
            }
        }

        // 3. Execute the wave (possibly empty). Each job owns a disjoint
        //    `&mut Shard`, and run_indexed returns results in wave order,
        //    so the outcome is identical whether REPRO_THREADS is 1 or 64.
        let start = now;
        let jobs: Vec<_> = wave
            .into_iter()
            .map(|(idx, shard, technique, batch)| {
                move || {
                    let (facts, results) = shard.run_batch(technique, &batch, catalog, start);
                    (idx, facts, results)
                }
            })
            .collect();
        let executed = if jobs.is_empty() { Vec::new() } else { pool::run_indexed(jobs) };
        for (idx, facts, batch_results) in executed {
            if let Some(o) = &mut obs {
                o.on_batch(idx, &facts, &batch_results);
            }
            for r in batch_results {
                lc.on_leg_result(&r, &facts, &mut obs);
            }
        }

        // 3b. Health tracking: a shard that just crossed the
        //     consecutive-failure threshold is pulled from rotation until
        //     its cooldown ends (sequential, in shard order).
        if defense.quarantine_after > 0 {
            for (idx, shard) in shards.iter_mut().enumerate() {
                if shard.fail_streak >= defense.quarantine_after {
                    let from = now.max(shard.free_at_ns);
                    shard.quarantined_until_ns =
                        from.saturating_add(defense.quarantine_cooldown_ns);
                    shard.quarantines = shard.quarantines.saturating_add(1);
                    shard.quarantine_down_ns =
                        shard.quarantine_down_ns.saturating_add(defense.quarantine_cooldown_ns);
                    shard.fail_streak = 0;
                    if let Some(o) = &mut obs {
                        o.on_quarantine(idx, from, shard.quarantined_until_ns);
                    }
                }
            }
        }
        if let Some(o) = &mut obs {
            o.note_queues(&admission.lane_depths(), now);
        }

        // 4. Advance to the next event: arrival, delayed-leg release,
        //    shard completion, crash repair, or quarantine expiry. The
        //    dispatch loop drained either the queue or the eligible
        //    shards, so no work is runnable before that instant.
        let mut next_event: Option<u64> = requests.get(next_arrival).map(|r| r.arrival_ns);
        let fold = |next_event: &mut Option<u64>, t: u64| {
            *next_event = Some(next_event.map_or(t, |n| n.min(t)));
        };
        if let Some(Reverse(r)) = lc.ready.peek() {
            fold(&mut next_event, r.ready_ns);
        }
        for shard in &mut shards {
            if shard.free_at_ns > now {
                fold(&mut next_event, shard.free_at_ns);
            }
            if shard.quarantined_until_ns > now {
                fold(&mut next_event, shard.quarantined_until_ns);
            }
            let up_at = shard.chaos.available_from(now);
            if up_at > now {
                fold(&mut next_event, up_at);
            }
        }
        match next_event {
            Some(t) => now = now.max(t),
            // No pending arrivals, no delayed legs, and no busy shards:
            // if the queue were non-empty, step 2 would have dispatched
            // it. All drained.
            None => break,
        }
    }

    debug_assert!(lc.flights.is_empty(), "every flight must resolve");
    let completions = lc.completions;
    let makespan_ns = completions.iter().map(|c| c.completed_ns).max().unwrap_or(0);
    let resilience = resilient.then(|| ResilienceReport {
        shards: shards
            .iter_mut()
            .map(|s| {
                let (crashes, crash_down_ns) = s.chaos.windows_within(makespan_ns);
                ShardResilience {
                    crashes,
                    quarantines: s.quarantines,
                    down_ns: crash_down_ns.saturating_add(s.quarantine_down_ns),
                    availability_permille: 0, // filled in by assemble
                    slowdown_permille: s.chaos.slowdown_permille,
                    lanes_left: s.chaos.lanes_left,
                }
            })
            .collect(),
        ..lc.rep
    });

    if let Some(o) = &mut obs {
        o.seal(&mut shards, makespan_ns);
    }

    let mut report = ServeReport::assemble(
        config,
        admission.counters(),
        admission.shed_by_technique(),
        &completions,
        &shards
            .iter()
            .map(|s| crate::report::ShardStats {
                batches: s.batches,
                requests: s.requests,
                reconfigs: s.reconfigs,
                busy_ns: s.busy_ns,
                ops: s.ops,
                offchip_bytes: s.offchip_bytes,
                utilization_permille: 0, // filled in by assemble (needs makespan)
            })
            .collect::<Vec<_>>(),
        resilience,
    );
    if let Some(o) = obs {
        o.finish(&mut report);
    }
    // In-memory only, like the trace handle: the summed per-shard
    // template-cache counters never reach the report JSON, so pinned
    // reports stay byte-identical whatever the cache budget.
    report.trace_cache =
        shards.iter().map(|s| s.trace_cache.stats()).reduce(TraceCacheStats::merged);
    report
}

/// Convenience entry point: generate the stream, build the default
/// catalog, run the fleet with chaos, defences and observation off.
#[must_use]
pub fn serve(config: &FleetConfig, gen_config: &crate::gen::GeneratorConfig) -> ServeReport {
    serve_observed(config, gen_config, &ChaosConfig::off(), &Defense::off(), &ObserveConfig::off())
}

/// [`serve`] under a chaos plan and defence policy, with the
/// observability layer riding along: [`run_fleet_observed`] on a
/// generated stream and the default catalog.
#[must_use]
pub fn serve_observed(
    config: &FleetConfig,
    gen_config: &crate::gen::GeneratorConfig,
    chaos: &ChaosConfig,
    defense: &Defense,
    observe: &ObserveConfig,
) -> ServeReport {
    let catalog = ServingCatalog::paper_default();
    let requests = crate::gen::generate(gen_config);
    run_fleet_observed(
        config,
        &CacheConfig::paper_default(),
        &catalog,
        &requests,
        chaos,
        defense,
        observe,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GeneratorConfig;

    #[test]
    fn conservation_holds_on_a_small_stream() {
        let gen = GeneratorConfig { requests: 500, ..GeneratorConfig::smoke(21) };
        let report = serve(&FleetConfig::with_shards(2), &gen);
        assert_eq!(report.counters.offered, 500);
        assert_eq!(
            report.counters.admitted + report.counters.shed + report.counters.rejected,
            report.counters.offered
        );
        assert_eq!(report.completed, report.counters.admitted);
        assert!(report.latencies_sorted_ns.iter().all(|&l| l > 0));
        assert!(report.resilience.is_none(), "chaos-off runs carry no resilience section");
    }

    #[test]
    fn single_shard_serialises_everything() {
        let gen = GeneratorConfig {
            requests: 64,
            unknown_per_mille: 0,
            burst_every: 0,
            ..GeneratorConfig::smoke(9)
        };
        let report = serve(&FleetConfig::with_shards(1), &gen);
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].requests, report.completed);
        // One shard must be at least as slow end-to-end as four.
        let report4 = serve(&FleetConfig::with_shards(4), &gen);
        assert!(report.makespan_ns >= report4.makespan_ns);
    }

    #[test]
    fn completions_never_precede_arrivals() {
        let gen = GeneratorConfig { requests: 300, ..GeneratorConfig::smoke(33) };
        let catalog = ServingCatalog::paper_default();
        let requests = crate::gen::generate(&gen);
        let report = run_fleet(
            &FleetConfig::paper_default(),
            &CacheConfig::paper_default(),
            &catalog,
            &requests,
        );
        assert!(report.completed > 0);
        // Latency = completion - arrival is computed in assemble and must
        // never underflow; reaching here without a panic proves it, and
        // the minimum observed latency must cover setup + one kernel.
        assert!(report.latencies_sorted_ns[0] >= BATCH_SETUP_NS);
    }

    #[test]
    fn resilient_run_conserves_requests() {
        let gen = GeneratorConfig { requests: 1_500, ..GeneratorConfig::smoke(5) };
        let chaos = ChaosConfig::intensity(17, 1);
        let (fleet, off) = (FleetConfig::paper_default(), ObserveConfig::off());
        let report = serve_observed(&fleet, &gen, &chaos, &Defense::full(140_000), &off);
        let res = report.resilience.expect("chaos runs carry the resilience section");
        assert_eq!(res.outcomes.total(), report.counters.offered, "{:?}", res.outcomes);
        assert_eq!(res.outcomes.completed_total(), report.completed);
        let tier_offered: u64 = res.tiers.iter().map(|t| t.offered).sum();
        assert_eq!(tier_offered, report.counters.offered);
    }

    #[test]
    fn transient_faults_without_retries_become_failures() {
        let gen =
            GeneratorConfig { requests: 1_000, unknown_per_mille: 0, ..GeneratorConfig::smoke(13) };
        let chaos = ChaosConfig {
            transient_per_mille: 120,
            crash_mtbf_ns: 0,
            straggler_per_mille: 0,
            degraded_per_mille: 0,
            ..ChaosConfig::intensity(29, 1)
        };
        let (fleet, off) = (FleetConfig::paper_default(), ObserveConfig::off());
        let undefended = serve_observed(&fleet, &gen, &chaos, &Defense::none(140_000), &off);
        let res = undefended.resilience.expect("resilience section");
        assert!(res.outcomes.failed > 0, "{:?}", res.outcomes);
        assert_eq!(res.outcomes.total(), undefended.counters.offered);
        // Retries recover most of them.
        let defended = serve_observed(&fleet, &gen, &chaos, &Defense::retries(140_000), &off);
        let dres = defended.resilience.expect("resilience section");
        assert!(dres.outcomes.retried_ok > 0);
        assert!(dres.outcomes.failed < res.outcomes.failed, "{dres:?}");
    }

    #[test]
    fn observed_run_leaves_aggregates_untouched() {
        let gen = GeneratorConfig { requests: 800, ..GeneratorConfig::smoke(7) };
        let chaos = ChaosConfig::intensity(11, 1);
        let defense = Defense::full(140_000);
        let fleet = FleetConfig::paper_default();
        let plain = serve_observed(&fleet, &gen, &chaos, &defense, &ObserveConfig::off());
        let observed = serve_observed(&fleet, &gen, &chaos, &defense, &ObserveConfig::full(800));
        // Stripping the additive section must recover the unobserved
        // report byte-for-byte: observation cannot perturb the run.
        let mut stripped = observed.clone();
        stripped.observability = None;
        stripped.trace = None;
        assert_eq!(plain.to_json().to_string_pretty(), stripped.to_json().to_string_pretty());
        let o = observed.observability.as_ref().expect("observed run");
        assert_eq!(o.events_dropped, 0, "sized_for(800) must hold the whole stream");
        // Attribution is exact: the per-tier five-way splits sum to the
        // total of every completion's end-to-end latency.
        assert_eq!(o.tiers.iter().map(|t| t.completed).sum::<u64>(), observed.completed);
        let attributed: u64 = o
            .tiers
            .iter()
            .map(|t| t.backoff_ns + t.queue_ns + t.reconfig_ns + t.setup_ns + t.service_ns)
            .sum();
        let exact: u64 = observed.latencies_sorted_ns.iter().sum();
        assert_eq!(attributed, exact);
        assert_eq!(o.shard_verdicts.len(), observed.shards.len());
        // The histogram p99 never understates the exact one.
        let m = o.metrics.as_ref().expect("metrics on");
        assert!(m.overall_p99_ns >= observed.p99_ns);
        assert!(!m.windows.is_empty());
    }

    #[test]
    fn baseline_observed_timeline_validates() {
        let gen = GeneratorConfig { requests: 400, ..GeneratorConfig::smoke(3) };
        let report = serve_observed(
            &FleetConfig::paper_default(),
            &gen,
            &ChaosConfig::off(),
            &Defense::off(),
            &ObserveConfig { trace: Some(TraceConfig::sized_for(400)), metrics: None },
        );
        assert!(report.resilience.is_none(), "observation must not add a resilience section");
        let timeline = crate::trace::fleet_timeline(&report).expect("trace was on");
        let check =
            pudiannao_accel::profile::validate_timeline(&timeline).expect("well-formed timeline");
        assert!(check.spans > 0);
        // 4 shard tracks always carry spans; lanes only when a queue
        // actually backed up, so only bound the track count.
        assert!(check.tracks >= 4, "got {} tracks", check.tracks);
        let m = report.observability.as_ref().expect("observability section");
        assert!(m.metrics.is_none(), "metrics stay off when only tracing");
    }

    #[test]
    fn crashed_shards_idle_until_repair_and_kill_inflight_legs() {
        let gen =
            GeneratorConfig { requests: 2_000, unknown_per_mille: 0, ..GeneratorConfig::smoke(41) };
        let chaos = ChaosConfig {
            crash_mtbf_ns: 200_000,
            crash_mttr_ns: 80_000,
            transient_per_mille: 0,
            straggler_per_mille: 0,
            degraded_per_mille: 0,
            ..ChaosConfig::intensity(3, 2)
        };
        let (fleet, off) = (FleetConfig::paper_default(), ObserveConfig::off());
        let report = serve_observed(&fleet, &gen, &chaos, &Defense::retries(140_000), &off);
        let res = report.resilience.expect("resilience section");
        assert!(res.crash_killed > 0, "crashes this frequent must catch batches");
        assert!(res.shards.iter().any(|s| s.crashes > 0));
        assert!(res.shards.iter().all(|s| s.availability_permille <= 1000));
        assert_eq!(res.outcomes.total(), report.counters.offered);
    }
}
