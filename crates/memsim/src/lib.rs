//! Memory-hierarchy simulation for the PuDianNao locality analysis.
//!
//! Section 2 of the paper analyses seven ML techniques "with an in-house
//! cache simulator, which has 32KB cache (clocked at 1GHz) which has enough
//! banks to support a 256-bit SIMD engine. To focus on memory behaviors, we
//! assume that the SIMD engine can calculate any function with three
//! 256-bit inputs (e.g., f(a, b, c)) at one cycle."
//!
//! This crate rebuilds that infrastructure:
//!
//! - [`Cache`] — a banked set-associative LRU cache with write-back,
//!   write-allocate stores, counting exactly the off-chip traffic the
//!   paper's bandwidth figures report. It has one production pass,
//!   [`Cache::access_soa`] over a packed [`AccessBlock`], and one
//!   reference, [`Cache::access`], that takes one access at a time.
//! - [`StrippedBlock`] — a recorded block stripped, for one geometry, of
//!   the touches LRU guarantees to hit; [`SimdEngine::commit_stripped`]
//!   replays it with the counters and line states of the full block.
//! - [`SimdEngine`] — the 256-bit, 3-input, 1-op/cycle front end that
//!   drives the cache and converts traffic into a bandwidth *requirement*
//!   (bytes per cycle at 1 GHz).
//! - [`batch`] — the path the figures run: a [`BatchSink`] packs a
//!   kernel's ops into blocks and commits them to an engine
//!   ([`run_buffered`]); [`Workload::run`] feeds the same ops to
//!   [`SimdEngine::op`] one at a time and is the reference it is tested
//!   against.
//! - [`ReuseProfiler`] — the per-variable reuse-distance instrumentation
//!   behind Figure 10, including the class clustering that motivates the
//!   HotBuf / ColdBuf / OutputBuf split.
//! - [`kernels`] — faithful trace generators for every loop nest the paper
//!   lists (Figures 1, 3, 6, 7 and the analogous SVM / LR / NB / CT
//!   kernels), each packaged as a [`Workload`] in untiled and tiled form,
//!   regenerating Figures 2, 4, 5, 8 and 9.
//!
//! # Example: the k-NN tiling experiment (Figure 2)
//!
//! ```
//! use pudiannao_memsim::{kernels, run_buffered, AccessBlock, CacheConfig, SimdEngine};
//!
//! // References span 64 KB, twice the 32 KB cache, as at paper scale.
//! let shape = kernels::knn::DistanceShape { testing: 64, reference: 512, features: 32 };
//! let cfg = CacheConfig::paper_default();
//! let mut engine = SimdEngine::new(cfg.clone())?;
//! let mut block = AccessBlock::new(cfg.line_bytes);
//! let untiled = run_buffered(&kernels::knn::Untiled { shape }, &mut engine, &mut block);
//! let tiled =
//!     run_buffered(&kernels::knn::Tiled::bandwidth(shape, 32, 32), &mut engine, &mut block);
//! assert!(tiled.offchip_bytes < untiled.offchip_bytes / 4);
//! # Ok::<(), pudiannao_memsim::CacheConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// ^ `!(x > 0.0)` is used deliberately in validation: unlike `x <= 0.0`
// it also rejects NaN, which is exactly what config checks want.

mod access;
pub mod batch;
mod block;
mod cache;
mod engine;
pub mod kernels;
mod probe;
mod reuse;
mod strip;

pub use access::{Access, AccessKind, Addr, VarClass};
pub use batch::{run_buffered, BatchSink};
pub use block::AccessBlock;
pub use cache::{Cache, CacheConfig, CacheConfigError, CacheStats, LineState};
pub use engine::{BandwidthReport, SimdEngine, SIMD_WIDTH_BYTES};
pub use kernels::{KernelStats, Technique, Workload};
pub use reuse::{ReuseClass, ReuseProfiler, ReuseSummary, VariableReuse};
pub use strip::StrippedBlock;
