//! The serving catalog: 13 phases × 3 size tiers of pre-built memsim
//! workloads, each boxed behind the unified `Workload` trait.
//!
//! Serving-tier problems are deliberately small — a request should hold a
//! shard for microseconds, not the milliseconds the locality-study shapes
//! take — so these shapes are scaled-down cousins of the Section-2
//! figures, tiled the same way the paper tiles them. Two phases have no
//! dedicated memsim kernel and borrow the closest one:
//!
//! * **NB prediction** replays the NB *training* counting kernel at a
//!   smaller instance count: prediction streams testing instances through
//!   the same per-feature probability tables the training pass builds.
//! * **CT training** is counting-dominated (the paper groups it with NB
//!   for exactly this reason) and also maps to the NB counting kernel,
//!   with a CT-flavoured feature/value shape.

//! ## Trace-template cache
//!
//! The catalog's workloads are *templates*: a `(phase, tier)` pair always
//! generates the identical access trace, yet the fleet used to regenerate
//! it from the kernel loop nest for every one of ~100k requests. The
//! [`TraceCache`] records each template's flattened [`AccessBlock`] once,
//! on first use, and commits it. It then strips the recording for the
//! engine's cache geometry into a [`StrippedBlock`], keeps that in a
//! bounded per-shard arena and drops the recording. Every later leg on
//! an engine of that geometry replays the stripped block with one
//! [`SimdEngine::commit_stripped`] call, which skips the touches LRU
//! guarantees to hit: about three entries in four on the heavy stream.
//! The replay is counter-identical to fresh generation — flush
//! boundaries are invisible to the cache model, stripping changes no
//! counter and no line state, and a leg's completion timestamp is read
//! from the cumulative cycle counter only after the leg — so every
//! sha-pinned report stays byte-identical with the cache on or off. A leg
//! on an engine of another geometry generates its trace fresh and counts
//! as a miss.
//!
//! A batch's first leg runs on a just-reset engine, so the engine state
//! it leaves behind is a pure function of the template as well. The first
//! time a recorded template is replayed on a pristine engine
//! ([`SimdEngine::is_pristine`]), the cache keeps a clone of the engine
//! afterwards, about 10 KB at the paper geometry; later batch heads
//! restore it with [`SimdEngine::restore_from`], a plain copy, instead of
//! replaying the block.
//!
//! [`SimdEngine::commit_stripped`]: pudiannao_memsim::SimdEngine::commit_stripped
//! [`SimdEngine::is_pristine`]: pudiannao_memsim::SimdEngine::is_pristine
//! [`SimdEngine::restore_from`]: pudiannao_memsim::SimdEngine::restore_from

use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::kernels::{ct, dnn, kmeans, knn, linreg, nb, svm, TraceSink};
use pudiannao_memsim::{Access, AccessBlock, BatchSink, SimdEngine, StrippedBlock, Workload};

use crate::request::SizeTier;

/// Position of a phase in [`Phase::ALL`], used to index the catalog.
#[must_use]
pub fn phase_index(phase: Phase) -> usize {
    Phase::ALL.iter().position(|p| *p == phase).expect("Phase::ALL covers every variant")
}

/// Number of `(phase, tier)` slots in the catalog (and in a
/// [`TraceCache`]).
#[must_use]
pub fn slot_count() -> usize {
    Phase::ALL.len() * SizeTier::ALL.len()
}

/// The catalog slot serving `(phase, tier)` requests.
#[must_use]
pub fn slot_index(phase: Phase, tier: SizeTier) -> usize {
    phase_index(phase) * SizeTier::ALL.len() + tier.index()
}

/// The fleet's workload table: one boxed [`Workload`] per (phase, tier).
pub struct ServingCatalog {
    entries: Vec<Box<dyn Workload>>,
}

impl ServingCatalog {
    /// Builds the default catalog used by `serve_bench` and the tests.
    #[must_use]
    pub fn paper_default() -> ServingCatalog {
        let mut entries: Vec<Box<dyn Workload>> = Vec::with_capacity(Phase::ALL.len() * 3);
        for phase in Phase::ALL {
            for tier in SizeTier::ALL {
                entries.push(build(phase, tier));
            }
        }
        ServingCatalog { entries }
    }

    /// The workload that serves `(phase, tier)` requests.
    #[must_use]
    pub fn get(&self, phase: Phase, tier: SizeTier) -> &dyn Workload {
        self.entries[slot_index(phase, tier)].as_ref()
    }
}

/// One `(phase, tier)` slot of a [`TraceCache`].
enum Slot {
    /// Never executed through this cache yet.
    Empty,
    /// Recorded and stripped for one geometry; legs on engines of that
    /// geometry replay `stripped`. `head` is the engine as the slot's
    /// first replay from reset left it, once that replay has happened;
    /// later batch heads restore it instead of replaying.
    Ready { stripped: StrippedBlock, head: Option<Box<SimdEngine>> },
    /// Recording would overflow the arena budget; legs for this slot
    /// generate fresh forever (bounded memory beats caching the giants).
    TooBig,
}

/// Counters and footprint of one or more [`TraceCache`]s, summed for the
/// report. Never serialised into the report JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Legs served by replaying a recorded template.
    pub hits: u64,
    /// Legs that generated their trace fresh (first use, over-budget, or
    /// an engine of another geometry than the template was stripped for).
    pub misses: u64,
    /// Accounted bytes of stripped templates resident across the caches
    /// ([`StrippedBlock::bytes`]). Recordings are dropped once stripped,
    /// and batch-head snapshots (at most one engine clone per slot) are
    /// not counted.
    pub resident_bytes: u64,
    /// Slots holding a replayable block.
    pub ready_slots: u64,
    /// Slots whose template overflowed the budget.
    pub too_big_slots: u64,
}

impl TraceCacheStats {
    /// Replay share of all legs, in permille (0 when no legs ran).
    #[must_use]
    pub fn hit_permille(&self) -> u64 {
        (self.hits * 1000).checked_div(self.hits + self.misses).unwrap_or(0)
    }

    /// Element-wise sum, for aggregating per-shard caches.
    #[must_use]
    pub fn merged(self, other: TraceCacheStats) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            ready_slots: self.ready_slots + other.ready_slots,
            too_big_slots: self.too_big_slots + other.too_big_slots,
        }
    }
}

/// A [`TraceSink`] that only packs — the recording arm of a first-use
/// leg. The whole template lands in one block, committed once; chunked
/// commits would be equivalent (flush boundaries are invisible), just
/// more calls.
struct PackSink<'a> {
    block: &'a mut AccessBlock,
}

impl TraceSink for PackSink<'_> {
    fn op(&mut self, operands: &[Access]) {
        self.block.push_op(operands);
    }
}

/// Per-shard trace-template cache: one slot per `(phase, tier)`, a byte
/// budget bounding the stripped arena, and hit/miss counters.
///
/// A template costs its [`StrippedBlock::bytes`], a pure function of
/// the template's trace and the geometry, so the Ready/TooBig decision
/// is identical on every shard and every run.
///
/// Per-shard (not fleet-global) deliberately: shards execute their waves
/// in parallel, and a shared cache would need synchronisation on the
/// hottest path; 39 slots of small stripped templates are cheap enough
/// to duplicate. Each shard's leg sequence is deterministic, so its
/// counters — and their fleet-wide sum — are too.
pub struct TraceCache {
    slots: Vec<Slot>,
    budget_bytes: usize,
    used_bytes: usize,
    hits: u64,
    misses: u64,
}

impl TraceCache {
    /// An empty cache whose stripped templates may use at most
    /// `budget_bytes` of [`StrippedBlock::bytes`].
    #[must_use]
    pub fn new(budget_bytes: usize) -> TraceCache {
        TraceCache {
            slots: (0..slot_count()).map(|_| Slot::Empty).collect(),
            budget_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Executes one `(phase, tier)` leg through `engine`. On a hit it
    /// restores the slot's batch-head snapshot when `engine` is pristine
    /// (taking the snapshot on the first such hit) and replays the
    /// stripped template otherwise; it records and strips on first use,
    /// and generates fresh (via `scratch`, chunked) for over-budget
    /// templates and for engines of another geometry than the template
    /// was stripped for. With no budget left, a first use goes straight
    /// to that chunked path and records nothing. Counter-identical to
    /// streaming `catalog.get(phase, tier)` through a [`BatchSink`].
    pub fn execute(
        &mut self,
        catalog: &ServingCatalog,
        phase: Phase,
        tier: SizeTier,
        engine: &mut SimdEngine,
        scratch: &mut AccessBlock,
    ) {
        let idx = slot_index(phase, tier);
        if matches!(self.slots[idx], Slot::Empty) && self.used_bytes >= self.budget_bytes {
            self.slots[idx] = Slot::TooBig;
        }
        match &mut self.slots[idx] {
            Slot::Ready { stripped, head } if stripped.config() == engine.cache().config() => {
                self.hits += 1;
                if !engine.is_pristine() {
                    engine.commit_stripped(stripped);
                } else if let Some(snapshot) = head {
                    // Taken on the template's geometry, which is this engine's.
                    assert!(engine.restore_from(snapshot), "batch-head snapshot refused");
                } else {
                    engine.commit_stripped(stripped);
                    *head = Some(Box::new(engine.clone()));
                }
            }
            Slot::Ready { .. } | Slot::TooBig => {
                self.misses += 1;
                let mut sink = BatchSink::new(engine, scratch);
                catalog.get(phase, tier).trace(&mut sink);
                sink.finish();
            }
            Slot::Empty => {
                self.misses += 1;
                let config = engine.cache().config();
                let mut recording = AccessBlock::new(config.line_bytes);
                catalog.get(phase, tier).trace(&mut PackSink { block: &mut recording });
                let stripped =
                    StrippedBlock::new(&recording, config).expect("an engine's config is valid");
                engine.commit_block(&recording);
                drop(recording);
                let cost = stripped.bytes();
                if self.used_bytes + cost <= self.budget_bytes {
                    self.used_bytes += cost;
                    self.slots[idx] = Slot::Ready { stripped, head: None };
                } else {
                    self.slots[idx] = Slot::TooBig;
                }
            }
        }
    }

    /// This cache's counters and footprint.
    #[must_use]
    pub fn stats(&self) -> TraceCacheStats {
        let mut ready = 0;
        let mut too_big = 0;
        for s in &self.slots {
            match s {
                Slot::Ready { .. } => ready += 1,
                Slot::TooBig => too_big += 1,
                Slot::Empty => {}
            }
        }
        TraceCacheStats {
            hits: self.hits,
            misses: self.misses,
            resident_bytes: self.used_bytes as u64,
            ready_slots: ready,
            too_big_slots: too_big,
        }
    }
}

/// Seed for the data-dependent kernels (NB feature values, CT branch
/// directions); fixed so the catalog is one deterministic artefact.
const DATA_SEED: u64 = 0x5eed_cafe;

/// Picks `(small, medium, large)` by tier.
fn pick<T: Copy>(tier: SizeTier, values: (T, T, T)) -> T {
    match tier {
        SizeTier::Small => values.0,
        SizeTier::Medium => values.1,
        SizeTier::Large => values.2,
    }
}

fn build(phase: Phase, tier: SizeTier) -> Box<dyn Workload> {
    match phase {
        Phase::KnnPrediction => {
            let (testing, reference) = pick(tier, ((16, 32), (16, 64), (32, 128)));
            let shape = knn::DistanceShape { testing, reference, features: 32 };
            Box::new(knn::Tiled::bandwidth(shape, 16, 16))
        }
        Phase::KMeansClustering => {
            let (instances, centroids) = pick(tier, ((32, 16), (64, 16), (128, 32)));
            let shape = kmeans::KMeansShape { instances, centroids, features: 32 };
            Box::new(kmeans::Tiled { shape, tc: 16, tn: 16 })
        }
        Phase::DnnPrediction => {
            let (inputs, outputs) = pick(tier, ((256, 16), (512, 32), (1024, 64)));
            Box::new(dnn::Tiled { shape: dnn::LayerShape { inputs, outputs }, t: 256 })
        }
        Phase::DnnPretraining => {
            let (inputs, outputs) = pick(tier, ((512, 8), (512, 24), (1024, 48)));
            Box::new(dnn::Tiled { shape: dnn::LayerShape { inputs, outputs }, t: 256 })
        }
        Phase::DnnGlobalTraining => {
            let (inputs, outputs) = pick(tier, ((256, 24), (768, 32), (1536, 48)));
            Box::new(dnn::Tiled { shape: dnn::LayerShape { inputs, outputs }, t: 256 })
        }
        Phase::LrTraining => {
            let (coefficients, instances) = pick(tier, ((256, 16), (512, 32), (1024, 64)));
            Box::new(linreg::Tiled {
                shape: linreg::LinRegShape { coefficients, instances },
                t: 256,
            })
        }
        Phase::LrPrediction => {
            let (coefficients, instances) = pick(tier, ((256, 8), (512, 16), (1024, 32)));
            Box::new(linreg::Tiled {
                shape: linreg::LinRegShape { coefficients, instances },
                t: 256,
            })
        }
        Phase::SvmTraining => {
            let train = pick(tier, (16, 32, 48));
            let shape = svm::KernelMatrixShape { train, features: 32 };
            Box::new(svm::Tiled { shape, ti: 16, tj: 16 })
        }
        Phase::SvmPrediction => {
            let (support, testing) = pick(tier, ((32, 16), (64, 16), (128, 32)));
            let shape = svm::prediction_shape(support, testing, 32);
            Box::new(knn::Tiled::bandwidth(shape, 16, 16))
        }
        Phase::NbTraining => {
            let instances = pick(tier, (16, 32, 64));
            let shape = nb::NbShape { instances, features: 8, values: 4, classes: 5 };
            Box::new(nb::Training { shape, seed: DATA_SEED })
        }
        Phase::NbPrediction => {
            let instances = pick(tier, (8, 16, 32));
            let shape = nb::NbShape { instances, features: 8, values: 4, classes: 5 };
            Box::new(nb::Training { shape, seed: DATA_SEED + 1 })
        }
        Phase::CtTraining => {
            let instances = pick(tier, (12, 24, 48));
            let shape = nb::NbShape { instances, features: 12, values: 3, classes: 4 };
            Box::new(nb::Training { shape, seed: DATA_SEED + 2 })
        }
        Phase::CtPrediction => {
            let instances = pick(tier, (16, 32, 64));
            let shape = ct::TreeShape { depth: 10, instances, features: 16 };
            Box::new(ct::PredictionTiled { shape, top_depth: 6, seed: DATA_SEED + 3 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::technique_of;

    #[test]
    fn catalog_covers_every_phase_and_tier() {
        use pudiannao_memsim::Technique;
        let catalog = ServingCatalog::paper_default();
        for phase in Phase::ALL {
            // Two phases borrow another family's kernel (see module doc):
            // SVM prediction runs the kNN distance kernel, CT training the
            // NB counting kernel. Everything else matches its own family.
            let expected = match phase {
                Phase::SvmPrediction => Technique::Knn,
                Phase::CtTraining => Technique::Nb,
                _ => technique_of(phase),
            };
            for tier in SizeTier::ALL {
                let w = catalog.get(phase, tier);
                assert_eq!(
                    w.technique(),
                    expected,
                    "catalog entry for {phase:?}/{tier:?} configures the wrong kernel"
                );
            }
        }
    }

    #[test]
    fn tiers_grow_monotonically() {
        // A bigger tier must cost at least as many ops, or tiering is
        // meaningless for scheduling.
        let catalog = ServingCatalog::paper_default();
        let cfg = pudiannao_memsim::CacheConfig::paper_default();
        for phase in Phase::ALL {
            let mut prev = 0;
            for tier in SizeTier::ALL {
                let stats = pudiannao_memsim::kernels::run_fresh(catalog.get(phase, tier), &cfg);
                assert!(
                    stats.ops >= prev,
                    "{phase:?}: {tier:?} has {} ops, smaller tier had {prev}",
                    stats.ops
                );
                prev = stats.ops;
            }
        }
    }
}
