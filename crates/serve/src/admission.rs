//! Admission control: a bounded, technique-partitioned request queue.
//!
//! Each of the seven technique families gets its own FIFO so one hot
//! technique cannot starve the others (per-technique backpressure); a
//! global cap bounds total queued work. Requests past either bound are
//! **shed**, requests naming a technique the catalog does not know are
//! **rejected**, and everything else is **admitted**. The batch picker
//! always drains the technique with the oldest head-of-line request, so
//! batching by technique never reorders across more than one queue depth.
//!
//! Two resilience extensions ride on top, both inert unless a defence
//! policy is on:
//!
//! - **Priority-aware shedding** (set from `Defense::priority_shedding`):
//!   when a bound trips, instead of dropping the newcomer the queue
//!   evicts the *newest, lowest-priority* queued primary with priority
//!   strictly below the newcomer's — under overload the fleet degrades
//!   bronze traffic first and gold last. Evicted legs are surfaced
//!   through [`AdmissionQueue::take_evicted`] so the fleet can resolve
//!   them.
//! - **Forced legs** ([`AdmissionQueue::offer_leg`]): retry and hedge
//!   legs re-enter the queue past the bounds (their population is already
//!   bounded by `max_retries` and one hedge per attempt) and are never
//!   evicted, so a retry cannot be starved into livelock by fresh load.

use std::collections::VecDeque;

use pudiannao_memsim::Technique;

use crate::request::{Leg, Request};

/// Queue bounds for the admission layer.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Max queued requests per technique family.
    pub per_technique_cap: usize,
    /// Max queued requests across all techniques.
    pub global_cap: usize,
}

impl AdmissionConfig {
    /// Defaults tuned so the heavy `serve_bench` stream sheds only under
    /// bursts, not in steady state.
    #[must_use]
    pub fn paper_default() -> Self {
        AdmissionConfig { per_technique_cap: 48, global_cap: 224 }
    }
}

/// What happened to an offered request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Queued; will be batched and executed.
    Admitted,
    /// Dropped for load: its technique queue or the global queue was full.
    Shed,
    /// Refused: unknown technique id, never queued.
    Rejected,
}

/// Monotonic counters over every offered request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub rejected: u64,
}

/// The bounded queue in front of the shard pool.
pub struct AdmissionQueue {
    config: AdmissionConfig,
    priority_aware: bool,
    lanes: [VecDeque<Leg>; Technique::ALL.len()],
    queued: usize,
    /// Forced (retry/hedge) legs queued, total and per lane. Forced legs
    /// bypass the caps *and* do not consume cap budget: their population
    /// is bounded by the defence policy, and letting them crowd out fresh
    /// admissions would turn every recovery into extra shedding.
    forced: usize,
    forced_in_lane: [usize; Technique::ALL.len()],
    counters: AdmissionCounters,
    /// Shed/rejected tallies per technique lane (rejections all land in
    /// no lane, so only sheds are per-technique).
    shed_by_technique: [u64; Technique::ALL.len()],
    /// Primaries evicted by priority-aware shedding, awaiting resolution
    /// by the fleet.
    evicted: Vec<Leg>,
}

impl AdmissionQueue {
    /// An empty queue with `config`'s bounds; `priority_aware` turns on
    /// priority-aware shedding (see the module doc).
    #[must_use]
    pub fn new(config: AdmissionConfig, priority_aware: bool) -> Self {
        AdmissionQueue {
            config,
            priority_aware,
            lanes: Default::default(),
            queued: 0,
            forced: 0,
            forced_in_lane: [0; Technique::ALL.len()],
            counters: AdmissionCounters::default(),
            shed_by_technique: [0; Technique::ALL.len()],
            evicted: Vec::new(),
        }
    }

    /// Offers one request; returns how admission handled it.
    pub fn offer(&mut self, request: Request) -> AdmissionOutcome {
        self.counters.offered = self.counters.offered.saturating_add(1);
        let Some(technique) = request.technique() else {
            self.counters.rejected = self.counters.rejected.saturating_add(1);
            return AdmissionOutcome::Rejected;
        };
        let lane = technique.index();
        let lane_primaries = self.lanes[lane].len().saturating_sub(self.forced_in_lane[lane]);
        let primaries = self.queued.saturating_sub(self.forced);
        if lane_primaries >= self.config.per_technique_cap || primaries >= self.config.global_cap {
            if self.priority_aware && self.evict_below(lane, request) {
                self.lanes[lane].push_back(Leg::first(request));
                self.queued = self.queued.saturating_add(1);
                self.counters.admitted = self.counters.admitted.saturating_add(1);
                return AdmissionOutcome::Admitted;
            }
            self.counters.shed = self.counters.shed.saturating_add(1);
            self.shed_by_technique[lane] = self.shed_by_technique[lane].saturating_add(1);
            return AdmissionOutcome::Shed;
        }
        self.lanes[lane].push_back(Leg::first(request));
        self.queued = self.queued.saturating_add(1);
        self.counters.admitted = self.counters.admitted.saturating_add(1);
        AdmissionOutcome::Admitted
    }

    /// Evicts the newest queued primary whose priority is strictly below
    /// `incoming`'s, preferring the lowest priority present. When the
    /// *lane* cap tripped the victim must come from that lane; when only
    /// the global cap tripped any lane will do. Returns whether a slot
    /// was freed.
    fn evict_below(&mut self, lane: usize, incoming: Request) -> bool {
        let lane_full = self.lanes[lane].len().saturating_sub(self.forced_in_lane[lane])
            >= self.config.per_technique_cap;
        let candidate_lanes: Vec<usize> =
            if lane_full { vec![lane] } else { (0..self.lanes.len()).collect() };
        // (priority, recency) of the best victim: lowest priority first,
        // then newest (evicting old work wastes the longest wait).
        let mut best: Option<(usize, usize)> = None;
        for &l in &candidate_lanes {
            for (pos, leg) in self.lanes[l].iter().enumerate() {
                if leg.attempt > 0 || leg.hedge {
                    continue; // forced legs are never evicted
                }
                if leg.request.priority >= incoming.priority {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bl, bp)) => {
                        let b = &self.lanes[bl][bp];
                        (leg.request.priority, std::cmp::Reverse(leg.request.id))
                            < (b.request.priority, std::cmp::Reverse(b.request.id))
                    }
                };
                if better {
                    best = Some((l, pos));
                }
            }
        }
        let Some((l, pos)) = best else { return false };
        let victim = self.lanes[l].remove(pos).expect("victim position just found");
        self.queued = self.queued.saturating_sub(1);
        self.counters.shed = self.counters.shed.saturating_add(1);
        self.shed_by_technique[l] = self.shed_by_technique[l].saturating_add(1);
        self.evicted.push(victim);
        true
    }

    /// Re-queues a retry or hedge leg, bypassing the caps (the forced-leg
    /// population is bounded by the defence policy, not the queue).
    /// Unknown-technique legs cannot exist here: only admitted requests
    /// grow legs.
    pub fn offer_leg(&mut self, leg: Leg) {
        let technique = leg.request.technique().expect("forced legs carry a known technique");
        self.lanes[technique.index()].push_back(leg);
        self.queued = self.queued.saturating_add(1);
        self.forced = self.forced.saturating_add(1);
        self.forced_in_lane[technique.index()] =
            self.forced_in_lane[technique.index()].saturating_add(1);
    }

    /// Drains the primaries evicted by priority-aware shedding since the
    /// last call; the fleet resolves each as shed.
    pub fn take_evicted(&mut self) -> Vec<Leg> {
        std::mem::take(&mut self.evicted)
    }

    /// Pops a batch of up to `max_batch` legs, all one technique: the
    /// lane whose head-of-line leg has waited longest (ties broken by
    /// request id then technique index, so the choice is deterministic).
    pub fn pick_batch(&mut self, max_batch: usize) -> Option<(Technique, Vec<Leg>)> {
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.front().map(|l| (l.request.arrival_ns, l.request.id, i)))
            .min()?
            .2;
        let take = max_batch.max(1).min(self.lanes[lane].len());
        let batch: Vec<Leg> = self.lanes[lane].drain(..take).collect();
        self.queued = self.queued.saturating_sub(batch.len());
        let forced_taken = batch.iter().filter(|l| l.attempt > 0 || l.hedge).count();
        self.forced = self.forced.saturating_sub(forced_taken);
        self.forced_in_lane[lane] = self.forced_in_lane[lane].saturating_sub(forced_taken);
        Some((Technique::ALL[lane], batch))
    }

    /// Requests currently queued across all lanes.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Current depth of every technique lane, indexed like
    /// [`Technique::ALL`] — the queue-gauge snapshot the metrics layer
    /// samples.
    #[must_use]
    pub fn lane_depths(&self) -> [usize; Technique::ALL.len()] {
        let mut depths = [0; Technique::ALL.len()];
        for (d, lane) in depths.iter_mut().zip(&self.lanes) {
            *d = lane.len();
        }
        depths
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    #[must_use]
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }

    /// Sheds per technique lane, indexed like [`Technique::ALL`].
    #[must_use]
    pub fn shed_by_technique(&self) -> &[u64; Technique::ALL.len()] {
        &self.shed_by_technique
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, RequestKind, SizeTier};
    use pudiannao_codegen::phases::Phase;

    fn req(id: u64, arrival_ns: u64, phase: Phase) -> Request {
        req_p(id, arrival_ns, phase, Priority::Silver)
    }

    fn req_p(id: u64, arrival_ns: u64, phase: Phase, priority: Priority) -> Request {
        Request { id, arrival_ns, kind: RequestKind::Phase(phase), tier: SizeTier::Small, priority }
    }

    #[test]
    fn caps_shed_and_unknowns_reject() {
        let mut q =
            AdmissionQueue::new(AdmissionConfig { per_technique_cap: 2, global_cap: 3 }, false);
        assert_eq!(q.offer(req(0, 0, Phase::KnnPrediction)), AdmissionOutcome::Admitted);
        assert_eq!(q.offer(req(1, 1, Phase::KnnPrediction)), AdmissionOutcome::Admitted);
        // Third kNN overflows the technique lane.
        assert_eq!(q.offer(req(2, 2, Phase::KnnPrediction)), AdmissionOutcome::Shed);
        // A different technique still fits...
        assert_eq!(q.offer(req(3, 3, Phase::NbTraining)), AdmissionOutcome::Admitted);
        // ...until the global cap trips.
        assert_eq!(q.offer(req(4, 4, Phase::CtPrediction)), AdmissionOutcome::Shed);
        let bad = Request {
            id: 5,
            arrival_ns: 5,
            kind: RequestKind::Unknown(99),
            tier: SizeTier::Small,
            priority: Priority::Silver,
        };
        assert_eq!(q.offer(bad), AdmissionOutcome::Rejected);
        let c = q.counters();
        assert_eq!(c.offered, 6);
        assert_eq!(c.admitted + c.shed + c.rejected, c.offered);
        assert_eq!((c.admitted, c.shed, c.rejected), (3, 2, 1));
        assert_eq!(q.shed_by_technique()[pudiannao_memsim::Technique::Knn.index()], 1);
        assert!(q.take_evicted().is_empty());
    }

    #[test]
    fn batches_are_single_technique_and_oldest_first() {
        let mut q = AdmissionQueue::new(AdmissionConfig::paper_default(), false);
        q.offer(req(0, 50, Phase::DnnPrediction));
        q.offer(req(1, 10, Phase::SvmTraining));
        q.offer(req(2, 60, Phase::DnnPretraining));
        q.offer(req(3, 20, Phase::SvmPrediction));
        // SVM has the oldest head-of-line request (t=10) and both SVM
        // requests batch together.
        let (tech, batch) = q.pick_batch(8).unwrap();
        assert_eq!(tech, pudiannao_memsim::Technique::Svm);
        assert_eq!(batch.iter().map(|l| l.request.id).collect::<Vec<_>>(), vec![1, 3]);
        let (tech, batch) = q.pick_batch(1).unwrap();
        assert_eq!(tech, pudiannao_memsim::Technique::Dnn);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request.id, 0);
        assert_eq!(q.queued(), 1);
        q.pick_batch(8).unwrap();
        assert!(q.is_empty());
        assert!(q.pick_batch(8).is_none());
    }

    #[test]
    fn priority_shedding_evicts_newest_lowest_first() {
        let mut q =
            AdmissionQueue::new(AdmissionConfig { per_technique_cap: 3, global_cap: 3 }, true);
        q.offer(req_p(0, 0, Phase::KnnPrediction, Priority::Bronze));
        q.offer(req_p(1, 1, Phase::KnnPrediction, Priority::Silver));
        q.offer(req_p(2, 2, Phase::KnnPrediction, Priority::Bronze));
        // Gold arrives into a full lane: the *newest bronze* (id 2) goes.
        assert_eq!(
            q.offer(req_p(3, 3, Phase::KnnPrediction, Priority::Gold)),
            AdmissionOutcome::Admitted
        );
        let evicted = q.take_evicted();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].request.id, 2);
        assert_eq!(q.queued(), 3);
        // A bronze newcomer into a full queue of >=silver is simply shed.
        assert_eq!(
            q.offer(req_p(4, 4, Phase::KnnPrediction, Priority::Bronze)),
            AdmissionOutcome::Shed
        );
        assert!(q.take_evicted().is_empty());
        // Counters stay conserved: evictions count as sheds.
        let c = q.counters();
        assert_eq!(c.offered, 5);
        assert_eq!(c.admitted, 4);
        assert_eq!(c.shed, 2);
    }

    #[test]
    fn global_cap_eviction_crosses_lanes_and_skips_forced_legs() {
        let mut q =
            AdmissionQueue::new(AdmissionConfig { per_technique_cap: 8, global_cap: 2 }, true);
        q.offer(req_p(0, 0, Phase::KnnPrediction, Priority::Bronze));
        q.offer(req_p(1, 1, Phase::SvmTraining, Priority::Gold));
        // Global cap full; gold into a *different* lane evicts the bronze
        // from the kNN lane.
        assert_eq!(
            q.offer(req_p(2, 2, Phase::DnnPrediction, Priority::Gold)),
            AdmissionOutcome::Admitted
        );
        assert_eq!(q.take_evicted()[0].request.id, 0);
        // A forced retry leg is never evicted even though it is bronze.
        let retry = Leg {
            request: req_p(9, 0, Phase::CtPrediction, Priority::Bronze),
            attempt: 1,
            hedge: false,
            enqueued_ns: 0,
        };
        q.offer_leg(retry);
        assert_eq!(q.queued(), 3);
        assert_eq!(
            q.offer(req_p(5, 5, Phase::KnnPrediction, Priority::Gold)),
            AdmissionOutcome::Shed
        );
        assert!(q.take_evicted().is_empty());
    }

    #[test]
    fn forced_legs_do_not_consume_cap_budget() {
        let mut q =
            AdmissionQueue::new(AdmissionConfig { per_technique_cap: 2, global_cap: 2 }, false);
        q.offer_leg(Leg {
            request: req(7, 0, Phase::KnnPrediction),
            attempt: 1,
            hedge: false,
            enqueued_ns: 0,
        });
        q.offer_leg(Leg {
            request: req(8, 0, Phase::KnnPrediction),
            attempt: 0,
            hedge: true,
            enqueued_ns: 0,
        });
        // Two queued forced legs take no cap space: two fresh primaries
        // still fit...
        assert_eq!(q.offer(req(0, 1, Phase::KnnPrediction)), AdmissionOutcome::Admitted);
        assert_eq!(q.offer(req(1, 2, Phase::KnnPrediction)), AdmissionOutcome::Admitted);
        // ...and the third sheds on the primary count alone.
        assert_eq!(q.offer(req(2, 3, Phase::KnnPrediction)), AdmissionOutcome::Shed);
        assert_eq!(q.queued(), 4);
        // Draining restores the forced-leg accounting.
        let (_, batch) = q.pick_batch(16).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(q.is_empty());
        assert_eq!(q.offer(req(3, 4, Phase::KnnPrediction)), AdmissionOutcome::Admitted);
    }
}
