//! Trace generators for every loop nest analysed in Section 2.
//!
//! Each sub-module reproduces one ML technique's time-dominant kernel in
//! both the paper's *original* (untiled) and *tiled* forms:
//!
//! | module | paper figures | kernel |
//! |---|---|---|
//! | [`knn`] | Figures 1, 2, 3 | distance calculations |
//! | [`kmeans`] | Figure 4 | distance calculations (centroids vs instances) |
//! | [`dnn`] | Figures 5, 6, 7 | feedforward `y = f(Wx)` |
//! | [`linreg`] | Figure 8 | prediction `Y = theta X` |
//! | [`svm`] | Figure 9 | kernel-matrix computation |
//! | [`nb`] | Figure 10b | training-phase counting |
//! | [`ct`] | Section 2.7 | counting and tree-tiled prediction |
//!
//! The generators emit SIMD-operand accesses into a [`TraceSink`]. For the
//! bandwidth figures (2/4/5/8/9) that sink is a [`BatchSink`], which packs
//! the ops into blocks for a [`SimdEngine`]; for Figure 10 it is a
//! [`ReuseProfiler`]. Each module packages its loop nests as [`Workload`]
//! implementors (`knn::Untiled`, `dnn::Tiled`, `nb::Training`, ...), so
//! any kernel dispatches uniformly: callers hold a `&dyn Workload` and
//! [`run_buffered`] it through a reset engine for a [`KernelStats`], or
//! [`Workload::profile`] it through a reset profiler for a reuse summary.
//! [`Workload::run`] feeds the engine one [`SimdEngine::op`] at a time:
//! it is the per-op reference the batched path is tested against, and
//! [`run_fresh`] / [`profile_fresh`] are its one-shot conveniences.
//!
//! [`BatchSink`]: crate::BatchSink
//! [`run_buffered`]: crate::run_buffered
//! [`SimdEngine`]: crate::SimdEngine
//! [`SimdEngine::op`]: crate::SimdEngine::op
//! [`ReuseProfiler`]: crate::ReuseProfiler

pub mod ct;
pub mod dnn;
pub mod kmeans;
pub mod knn;
pub mod linreg;
pub mod nb;
pub mod svm;

use crate::access::Access;
use crate::cache::CacheConfig;
use crate::engine::{BandwidthReport, SimdEngine};
use crate::reuse::{ReuseProfiler, ReuseSummary};

/// Receiver of kernel traces: one call per SIMD operation with its
/// operand accesses.
pub trait TraceSink {
    /// Consumes one SIMD operation.
    fn op(&mut self, operands: &[Access]);
}

impl TraceSink for SimdEngine {
    fn op(&mut self, operands: &[Access]) {
        SimdEngine::op(self, operands);
    }
}

impl TraceSink for ReuseProfiler {
    fn op(&mut self, operands: &[Access]) {
        for a in operands {
            self.touch_access(a);
        }
    }
}

/// The seven ML technique families of Table 1, one per kernel module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Technique {
    /// k-nearest neighbours (distance calculations).
    Knn,
    /// k-Means clustering (centroid distance sweep).
    KMeans,
    /// Deep neural networks (feedforward / backprop / RBM).
    Dnn,
    /// Linear regression (prediction and gradient descent).
    LinReg,
    /// Support vector machines (kernel matrix / kernel evaluation).
    Svm,
    /// Naive Bayes (training-phase counting).
    Nb,
    /// Classification trees (counting and tree-tiled prediction).
    Ct,
}

impl Technique {
    /// All seven techniques in a fixed, deterministic order.
    pub const ALL: [Technique; 7] = [
        Technique::Knn,
        Technique::KMeans,
        Technique::Dnn,
        Technique::LinReg,
        Technique::Svm,
        Technique::Nb,
        Technique::Ct,
    ];

    /// Short stable label (used in reports and serving queues).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Technique::Knn => "knn",
            Technique::KMeans => "kmeans",
            Technique::Dnn => "dnn",
            Technique::LinReg => "linreg",
            Technique::Svm => "svm",
            Technique::Nb => "nb",
            Technique::Ct => "ct",
        }
    }

    /// Index into [`Technique::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Technique::Knn => 0,
            Technique::KMeans => 1,
            Technique::Dnn => 2,
            Technique::LinReg => 3,
            Technique::Svm => 4,
            Technique::Nb => 5,
            Technique::Ct => 6,
        }
    }
}

/// Everything one [`Workload::run`] observes: the engine's bandwidth
/// counters plus the cache hit/miss breakdown, so serving-layer callers
/// get utilisation inputs without reaching back into the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Engine cycles charged (1 GHz clock: 1 cycle = 1 ns).
    pub cycles: u64,
    /// SIMD operations executed.
    pub ops: u64,
    /// Total off-chip bytes moved.
    pub offchip_bytes: u64,
    /// Off-chip read bytes.
    pub offchip_read_bytes: u64,
    /// Off-chip write bytes.
    pub offchip_write_bytes: u64,
    /// Cache hits (reads + writes).
    pub cache_hits: u64,
    /// Cache misses (reads + writes).
    pub cache_misses: u64,
}

impl KernelStats {
    /// Snapshots a just-run engine's counters.
    #[must_use]
    pub fn from_engine(engine: &SimdEngine) -> KernelStats {
        let report = engine.report();
        let cache = engine.cache_stats();
        KernelStats {
            cycles: report.cycles,
            ops: report.ops,
            offchip_bytes: report.offchip_bytes,
            offchip_read_bytes: report.offchip_read_bytes,
            offchip_write_bytes: report.offchip_write_bytes,
            cache_hits: cache.read_hits + cache.write_hits,
            cache_misses: cache.read_misses + cache.write_misses,
        }
    }

    /// The bandwidth-report view (what the Section-2 figures plot).
    #[must_use]
    pub fn report(&self) -> BandwidthReport {
        BandwidthReport {
            cycles: self.cycles,
            ops: self.ops,
            offchip_bytes: self.offchip_bytes,
            offchip_read_bytes: self.offchip_read_bytes,
            offchip_write_bytes: self.offchip_write_bytes,
        }
    }
}

/// A runnable kernel workload: one loop nest plus its problem shape and
/// tiling parameters, dispatchable without knowing which technique it is.
///
/// This replaces the per-module `*_bandwidth_with` / `*_reuse_with`
/// function pairs: implementors describe *what to trace* once
/// ([`Workload::trace`]), and the provided [`Workload::run`] /
/// [`Workload::profile`] methods reproduce exactly the old
/// reset-trace-report sequence, so measurements are bit-identical to the
/// retired free functions. The trait is object-safe — fleets and figure
/// runners hold `&dyn Workload` / `Box<dyn Workload>`.
pub trait Workload: Send + Sync {
    /// Stable display name (e.g. `"knn/tiled"`).
    fn name(&self) -> &'static str;

    /// Which of the seven technique families this workload belongs to.
    fn technique(&self) -> Technique;

    /// Emits the workload's access trace into `sink`.
    fn trace(&self, sink: &mut dyn TraceSink);

    /// Runs the trace through `engine` (reset first) and snapshots the
    /// resulting stats. Engine reuse across calls keeps sweeps from
    /// reallocating the cache per point.
    fn run(&self, engine: &mut SimdEngine) -> KernelStats {
        engine.reset();
        self.trace(engine);
        KernelStats::from_engine(engine)
    }

    /// Replays the trace through `profiler` (reset first) and summarises
    /// per-variable reuse distances (the Figure-10 measurement).
    fn profile(&self, profiler: &mut ReuseProfiler) -> ReuseSummary {
        profiler.reset();
        self.trace(profiler);
        profiler.summary()
    }
}

/// Runs `workload` through a fresh engine over `cache`.
///
/// # Panics
///
/// Panics if `cache` is invalid.
#[must_use]
pub fn run_fresh(workload: &dyn Workload, cache: &CacheConfig) -> KernelStats {
    let mut engine = SimdEngine::new(cache.clone()).expect("valid cache config");
    workload.run(&mut engine)
}

/// Profiles `workload` through a fresh element-granular profiler.
#[must_use]
pub fn profile_fresh(workload: &dyn Workload) -> ReuseSummary {
    let mut profiler = ReuseProfiler::new(F32_BYTES as u32);
    workload.profile(&mut profiler)
}

/// Base address for testing instances / instances being processed.
pub const TESTING_BASE: u64 = 0x1000_0000;
/// Base address for reference instances / centroids / support vectors /
/// model coefficients.
pub const REFERENCE_BASE: u64 = 0x2000_0000;
/// Base address for outputs (distance matrices, predictions, counters).
pub const OUTPUT_BASE: u64 = 0x3000_0000;
/// Base address for streamed, never-reused data (synapse matrices).
pub const STREAM_BASE: u64 = 0x4000_0000;

/// Bytes in one fp32 feature.
pub const F32_BYTES: u64 = 4;
