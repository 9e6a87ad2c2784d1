//! Batched trace execution: pack kernel ops into SoA [`AccessBlock`]s
//! and stream them through [`Cache::access_soa`], instead of paying a
//! virtual `op()` round-trip into the cache for every SIMD operation.
//!
//! Two layers, each counter-for-counter equivalent to the per-op path
//! (all reduce to the same scalar access sequence — see
//! [`Cache::access_soa`]):
//!
//! * [`BatchSink`] — a [`TraceSink`] adapter that packs operand accesses
//!   into a bounded [`AccessBlock`] and flushes full blocks into an
//!   engine via [`SimdEngine::commit_block`]. Memory stays bounded
//!   (`FLUSH_ACCESSES` per-line entries) no matter how long the trace
//!   is, so even the hundred-million-access Section-2 sweeps can run
//!   batched.
//! * [`run_buffered`] — one workload through a reset engine via a
//!   [`BatchSink`]; the batched analogue of [`Workload::run`].
//!
//! [`Cache::access_soa`]: crate::Cache::access_soa

use crate::access::Access;
use crate::block::AccessBlock;
use crate::engine::SimdEngine;
use crate::kernels::{KernelStats, TraceSink, Workload};

/// Per-line entries packed before a flush: large enough to amortise the
/// block dispatch, small enough that the scratch block stays
/// cache-resident (8192 × 9 bytes of SoA columns = 72 KiB).
pub const FLUSH_ACCESSES: usize = 8192;

/// A [`TraceSink`] that packs ops into SoA blocks for an engine.
///
/// Dropping the sink flushes the remainder; [`BatchSink::finish`] does
/// the same with an explicit name for call sites where the flush is the
/// point.
pub struct BatchSink<'a> {
    engine: &'a mut SimdEngine,
    block: &'a mut AccessBlock,
}

impl<'a> BatchSink<'a> {
    /// Wraps `engine`, reusing `block` as scratch (cleared and re-armed
    /// for the engine's line size on entry).
    pub fn new(engine: &'a mut SimdEngine, block: &'a mut AccessBlock) -> BatchSink<'a> {
        block.rearm(engine.cache().config().line_bytes);
        BatchSink { engine, block }
    }

    /// Flushes any packed ops into the engine.
    pub fn finish(self) {
        // Drop does the work.
    }

    fn flush(&mut self) {
        if !self.block.is_empty() {
            self.engine.commit_block(self.block);
            self.block.clear();
        }
    }
}

impl TraceSink for BatchSink<'_> {
    fn op(&mut self, operands: &[Access]) {
        self.block.push_op(operands);
        if self.block.len() >= FLUSH_ACCESSES {
            self.flush();
        }
    }
}

impl Drop for BatchSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Runs `workload` through `engine` (reset first) via the batched path,
/// reusing `block` as scratch. Counters and cache state are identical to
/// [`Workload::run`]; wall-clock is not — this is the fast path.
pub fn run_buffered(
    workload: &dyn Workload,
    engine: &mut SimdEngine,
    block: &mut AccessBlock,
) -> KernelStats {
    engine.reset();
    let mut sink = BatchSink::new(engine, block);
    workload.trace(&mut sink);
    sink.finish();
    KernelStats::from_engine(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::kernels::{self, run_fresh};

    #[test]
    fn buffered_run_matches_per_op_run() {
        let cfg = CacheConfig::paper_default();
        let shape = kernels::knn::DistanceShape { testing: 32, reference: 128, features: 32 };
        let tiled = kernels::knn::Tiled::bandwidth(shape, 16, 16);
        let reference = run_fresh(&tiled, &cfg);
        let mut engine = SimdEngine::new(cfg.clone()).expect("valid config");
        let mut block = AccessBlock::new(cfg.line_bytes);
        let batched = run_buffered(&tiled, &mut engine, &mut block);
        assert_eq!(batched, reference);
    }

    #[test]
    fn flush_boundaries_do_not_change_counters() {
        // A trace far longer than one flush block: the mid-trace flushes
        // must be invisible in the counters.
        let cfg = CacheConfig::paper_default();
        let shape = kernels::kmeans::KMeansShape { instances: 512, centroids: 32, features: 32 };
        let w = kernels::kmeans::Tiled { shape, tc: 16, tn: 16 };
        let reference = run_fresh(&w, &cfg);
        assert!(
            reference.ops as usize * 2 > FLUSH_ACCESSES,
            "test workload too small to cross a flush boundary"
        );
        let mut engine = SimdEngine::new(cfg.clone()).expect("valid config");
        let mut block = AccessBlock::new(cfg.line_bytes);
        assert_eq!(run_buffered(&w, &mut engine, &mut block), reference);
    }

    #[test]
    fn batch_sink_rearms_scratch_to_engine_geometry() {
        // A scratch block left armed for a different line size must be
        // re-split for the engine it is now feeding.
        let cfg = CacheConfig::paper_default(); // 64-byte lines
        let shape = kernels::knn::DistanceShape { testing: 16, reference: 64, features: 32 };
        let tiled = kernels::knn::Tiled::bandwidth(shape, 16, 16);
        let reference = run_fresh(&tiled, &cfg);
        let mut engine = SimdEngine::new(cfg).expect("valid config");
        let mut block = AccessBlock::new(32);
        assert_eq!(run_buffered(&tiled, &mut engine, &mut block), reference);
    }
}
