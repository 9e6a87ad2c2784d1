//! The 256-bit SIMD engine front end of the Section-2 methodology.

use crate::access::Access;
use crate::block::AccessBlock;
use crate::cache::{Cache, CacheConfig, CacheConfigError, CacheStats};
use core::fmt;

/// Width of one SIMD operand: 256 bits.
pub const SIMD_WIDTH_BYTES: u32 = 32;

/// The in-house simulator's compute front end: "the SIMD engine can
/// calculate any function with three 256-bit inputs (e.g., f(a, b, c)) at
/// one cycle", clocked at 1 GHz, backed by a 32 KB banked cache.
///
/// Kernels submit one [`SimdEngine::op`] per executed SIMD operation,
/// listing the operand accesses; the engine charges one cycle, routes every
/// operand through the cache, and accumulates the off-chip traffic that the
/// paper reports as a bandwidth *requirement*.
///
/// # Examples
///
/// ```
/// use pudiannao_memsim::{Access, Addr, CacheConfig, CacheConfigError, SimdEngine, VarClass};
///
/// let mut engine = SimdEngine::new(CacheConfig::paper_default())?;
/// engine.op(&[
///     Access::read(Addr(0), 32, VarClass::Hot),
///     Access::read(Addr(4096), 32, VarClass::Cold),
/// ]);
/// let report = engine.report();
/// assert_eq!(report.cycles, 1);
/// assert_eq!(report.offchip_bytes, 128); // two 64-byte line fills
/// # Ok::<(), CacheConfigError>(())
/// ```
///
/// A clone doubles as a snapshot: [`SimdEngine::restore_from`] copies a
/// clone's state back into an engine without allocating.
#[derive(Clone)]
pub struct SimdEngine {
    cache: Cache,
    cycles: u64,
    ops: u64,
}

impl SimdEngine {
    /// Creates an engine over a fresh cache.
    ///
    /// # Errors
    ///
    /// Propagates invalid cache configurations.
    pub fn new(config: CacheConfig) -> Result<SimdEngine, CacheConfigError> {
        Ok(SimdEngine { cache: Cache::new(config)?, cycles: 0, ops: 0 })
    }

    /// Executes one SIMD operation touching the given operands
    /// (conventionally up to three inputs and at most one output, matching
    /// the paper's `f(a, b, c)` engine; more are accepted and simply
    /// charged extra cache lookups). Each operand goes through the
    /// reference path, [`Cache::access`], so [`Workload::run`] is the
    /// per-op reference the batched [`crate::batch::run_buffered`] is
    /// tested against.
    ///
    /// [`Workload::run`]: crate::Workload::run
    pub fn op(&mut self, operands: &[Access]) {
        self.cycles += 1;
        self.ops += 1;
        for &a in operands {
            self.cache.access(a);
        }
    }

    /// Executes a packed [`AccessBlock`] — the production entry point
    /// for [`crate::batch`] and the serving fleet. Counter-for-counter
    /// equivalent to calling [`SimdEngine::op`] once per flattened
    /// operation: the block carries its own op count (the cycle charge)
    /// and its entries are the exact per-line sequence the reference path
    /// would derive, streamed through [`Cache::access_soa`].
    ///
    /// # Panics
    ///
    /// Panics if the block was packed for a different line size than this
    /// engine's cache.
    pub fn commit_block(&mut self, block: &AccessBlock) {
        self.cycles += block.ops();
        self.ops += block.ops();
        self.cache.access_soa(block);
    }

    /// Charges idle cycles without memory traffic (e.g. pipeline drain).
    pub fn stall(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// The backing cache (read-only), for differential tests that pin
    /// line states as well as counters.
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Whether the engine is in its reset state: zero cycles, zero ops
    /// and no cache access since it was built or last
    /// [`SimdEngine::reset`]. The cache is checked directly rather than
    /// inferred from the op count, so the answer does not depend on every
    /// path that reaches the cache also counting an op.
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        self.cycles == 0 && self.ops == 0 && self.cache.is_pristine()
    }

    /// Overwrites this engine's state — cache contents, line buffer,
    /// statistics and tick, plus cycles and ops — with `snapshot`'s (a
    /// clone taken earlier), without allocating. The configuration stays
    /// this engine's own. Returns `false`, leaving the engine untouched,
    /// when `snapshot` has a different cache configuration.
    #[must_use]
    pub fn restore_from(&mut self, snapshot: &SimdEngine) -> bool {
        if !self.cache.restore_from(&snapshot.cache) {
            return false;
        }
        self.cycles = snapshot.cycles;
        self.ops = snapshot.ops;
        true
    }

    /// The backing cache's statistics.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Produces the bandwidth report for everything executed so far.
    #[must_use]
    pub fn report(&self) -> BandwidthReport {
        BandwidthReport {
            cycles: self.cycles,
            ops: self.ops,
            offchip_bytes: self.cache.stats().offchip_bytes(),
            offchip_read_bytes: self.cache.stats().offchip_read_bytes,
            offchip_write_bytes: self.cache.stats().offchip_write_bytes,
        }
    }

    /// Resets the cache and counters.
    pub fn reset(&mut self) {
        self.cache.reset();
        self.cycles = 0;
        self.ops = 0;
    }
}

impl fmt::Debug for SimdEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimdEngine")
            .field("cycles", &self.cycles)
            .field("ops", &self.ops)
            .field("cache", &self.cache)
            .finish()
    }
}

/// Off-chip bandwidth requirement of a kernel, the y-axis of Figures 2, 4,
/// 5, 8 and 9.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BandwidthReport {
    /// Engine cycles elapsed (1 GHz clock).
    pub cycles: u64,
    /// SIMD operations executed.
    pub ops: u64,
    /// Total off-chip bytes moved.
    pub offchip_bytes: u64,
    /// Off-chip read bytes.
    pub offchip_read_bytes: u64,
    /// Off-chip write bytes.
    pub offchip_write_bytes: u64,
}

impl BandwidthReport {
    /// Bandwidth requirement in GB/s at the paper's 1 GHz clock: with one
    /// cycle per nanosecond, `bytes / cycles` bytes-per-nanosecond equals
    /// GB/s.
    #[must_use]
    pub fn gb_per_s(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.offchip_bytes as f64 / self.cycles as f64
    }

    /// Percentage reduction of this report's traffic relative to a
    /// baseline report (the paper quotes e.g. "93.9%" for tiled k-NN).
    #[must_use]
    pub fn reduction_vs(&self, baseline: &BandwidthReport) -> f64 {
        if baseline.offchip_bytes == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.offchip_bytes as f64 / baseline.offchip_bytes as f64)
    }
}

impl fmt::Display for BandwidthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} GB/s ({} bytes off-chip / {} cycles)",
            self.gb_per_s(),
            self.offchip_bytes,
            self.cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Addr, VarClass};

    #[test]
    fn ops_cost_one_cycle_each() {
        let mut e = SimdEngine::new(CacheConfig::paper_default()).unwrap();
        for i in 0..10 {
            e.op(&[Access::read(Addr(i * 32), 32, VarClass::Hot)]);
        }
        e.stall(5);
        let r = e.report();
        assert_eq!(r.ops, 10);
        assert_eq!(r.cycles, 15);
    }

    #[test]
    fn bandwidth_is_bytes_per_cycle() {
        let r = BandwidthReport {
            cycles: 100,
            ops: 100,
            offchip_bytes: 6400,
            offchip_read_bytes: 6400,
            offchip_write_bytes: 0,
        };
        assert!((r.gb_per_s() - 64.0).abs() < 1e-12);
        assert_eq!(BandwidthReport::default().gb_per_s(), 0.0);
    }

    #[test]
    fn reduction_percentage() {
        let base = BandwidthReport { offchip_bytes: 1000, ..Default::default() };
        let tiled = BandwidthReport { offchip_bytes: 61, ..Default::default() };
        assert!((tiled.reduction_vs(&base) - 93.9).abs() < 1e-9);
        assert_eq!(tiled.reduction_vs(&BandwidthReport::default()), 0.0);
    }

    #[test]
    fn reset_zeroes_report() {
        let mut e = SimdEngine::new(CacheConfig::paper_default()).unwrap();
        e.op(&[Access::read(Addr(0), 32, VarClass::Hot)]);
        e.reset();
        assert_eq!(e.report(), BandwidthReport::default());
    }

    #[test]
    fn restored_engine_continues_like_the_original() {
        let cfg = CacheConfig::paper_default();
        let stream: Vec<Access> = (0..3000u64)
            .map(|i| match i % 3 {
                0 => Access::read(Addr(i * 40 % 60_000), 32, VarClass::Hot),
                1 => Access::read(Addr(0x10_0000 + i * 8), 32, VarClass::Cold),
                _ => Access::write(Addr(0x20_0000 + (i % 512) * 4), 4, VarClass::Output),
            })
            .collect();
        let (head, tail) = stream.split_at(1500);
        let mut original = SimdEngine::new(cfg.clone()).unwrap();
        let mut restored = SimdEngine::new(cfg.clone()).unwrap();
        for a in head {
            original.op(core::slice::from_ref(a));
        }
        // Unrelated earlier state must be overwritten, line buffer included.
        for a in tail {
            restored.op(core::slice::from_ref(a));
        }
        assert!(restored.restore_from(&original));
        for a in tail {
            original.op(core::slice::from_ref(a));
            restored.op(core::slice::from_ref(a));
        }
        assert_eq!(restored.report(), original.report());
        assert_eq!(restored.cache_stats(), original.cache_stats());
        assert_eq!(restored.cache().line_states(), original.cache().line_states());

        let other = CacheConfig { capacity_bytes: 16 * 1024, ways: 4, ..cfg };
        let mut e = SimdEngine::new(other).unwrap();
        assert!(!e.restore_from(&original), "another geometry is refused");
        assert!(e.is_pristine(), "a refused restore leaves the engine untouched");
    }

    #[test]
    fn display_formats() {
        let r = BandwidthReport {
            cycles: 2,
            ops: 2,
            offchip_bytes: 128,
            offchip_read_bytes: 128,
            offchip_write_bytes: 0,
        };
        assert_eq!(r.to_string(), "64.000 GB/s (128 bytes off-chip / 2 cycles)");
    }
}
