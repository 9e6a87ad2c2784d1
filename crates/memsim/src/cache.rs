//! The set-associative cache model behind the Section-2 experiments.
//!
//! # Hot-path layout
//!
//! The simulator replays hundreds of millions of accesses per figure, so
//! the cache state is stored structure-of-arrays: way-packed `tags`,
//! `stamps` and `flags` slices indexed by `set * ways + way`, with no
//! per-line struct to chase. Three mechanisms keep lookups cheap without
//! changing a single counter:
//!
//! * a **class-indexed line buffer** in front of the tag scan — each
//!   entry maps a line address to the packed slot currently holding it,
//!   and is dropped the moment that slot is recycled by
//!   [`Cache::install`], so a buffer hit is *by construction* the same
//!   slot a full scan would find. Entries are grouped by the access's
//!   [`VarClass`] (two per class), giving every operand stream a private
//!   pair that other streams cannot churn out; a probe is at most two
//!   compares;
//! * a **way-parallel probe** ([`ProbePath`]): each set with `ways <= 8`
//!   keeps a packed one-byte-per-way tag signature, so a full set lookup
//!   is a SWAR XOR/haszero match (or a `std::arch` tag compare on
//!   x86_64/aarch64) instead of a per-way scalar scan, with the victim
//!   way selected lazily — only allocating misses pay for it. The
//!   monomorphised scalar scans survive as [`ProbePath::Scan`], both as
//!   the `ways > 8` fallback and as the differential reference;
//! * **run coalescing** ([`Cache::access_run`]): consecutive accesses to
//!   the same line are resolved with one lookup, batching the follow-up
//!   hit counters exactly (no eviction can intervene inside a run because
//!   no other set is touched);
//! * a **batched pass** ([`Cache::access_block`]): a whole flattened
//!   trace streams through one loop with the next access's set index
//!   computed while the current one resolves, eliminating the per-op
//!   call boundary that dominates short-operand kernels.
//!
//! [`Cache::access_scalar`] keeps the unbuffered, uncoalesced reference
//! path alive for differential tests and microbenchmarks.

use crate::access::{Access, AccessKind, VarClass};
use crate::block::{meta_class, meta_kind, AccessBlock};
use crate::probe::{self, SimdLevel};
use core::fmt;
use std::sync::OnceLock;

/// Replacement policy for a cache set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used line (the paper's implied policy).
    #[default]
    Lru,
    /// Evict the oldest-filled line regardless of use.
    Fifo,
}

/// Write policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-back with write-allocate: stores fill the line and dirty it;
    /// dirty evictions cost a line of off-chip write traffic.
    #[default]
    WriteBackAllocate,
    /// Write-through without allocation ("write-around"): stores that miss
    /// go straight to memory, costing their own bytes, and do not disturb
    /// the cache. Matches streaming-output behaviour.
    WriteAroundNoAllocate,
}

/// Configuration of a [`Cache`].
///
/// Defaults (via [`CacheConfig::paper_default`]) reproduce the paper's
/// in-house simulator: 32 KB, enough banks to feed a 256-bit SIMD engine
/// every cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes * ways`.
    pub capacity_bytes: u32,
    /// Cache line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The configuration of the paper's in-house locality simulator:
    /// 32 KB, 64-byte lines, 8-way LRU, write-back write-allocate.
    #[must_use]
    pub fn paper_default() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        }
    }

    /// Number of sets implied by the configuration.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: capacities
    /// and line sizes must be non-zero powers of two, and the capacity
    /// must divide evenly into `ways` lines per set.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::BadLineSize(self.line_bytes));
        }
        if self.ways == 0 {
            return Err(CacheConfigError::ZeroWays);
        }
        let set_bytes = self.line_bytes * self.ways;
        if self.capacity_bytes == 0 || !self.capacity_bytes.is_multiple_of(set_bytes) {
            return Err(CacheConfigError::BadCapacity(self.capacity_bytes));
        }
        if !self.sets().is_power_of_two() {
            return Err(CacheConfigError::BadCapacity(self.capacity_bytes));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::paper_default()
    }
}

/// Error from [`CacheConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheConfigError {
    /// Line size was zero or not a power of two.
    BadLineSize(u32),
    /// Associativity was zero.
    ZeroWays,
    /// Capacity was zero, not a multiple of the set size, or implies a
    /// non-power-of-two set count.
    BadCapacity(u32),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::BadLineSize(n) => {
                write!(f, "line size {n} must be a non-zero power of two")
            }
            CacheConfigError::ZeroWays => f.write_str("associativity must be non-zero"),
            CacheConfigError::BadCapacity(n) => {
                write!(f, "capacity {n} must be a non-zero power-of-two multiple of the set size")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Traffic and hit/miss statistics accumulated by a [`Cache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed (and filled a line).
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Bytes fetched from off-chip memory (line fills).
    pub offchip_read_bytes: u64,
    /// Bytes written to off-chip memory (dirty evictions or write-around
    /// stores).
    pub offchip_write_bytes: u64,
    /// Lines evicted (clean or dirty).
    pub evictions: u64,
}

impl CacheStats {
    /// Total off-chip traffic in bytes, the quantity Figures 2/4/5/8/9
    /// report as "memory bandwidth requirement" once divided by time.
    #[must_use]
    pub fn offchip_bytes(&self) -> u64 {
        self.offchip_read_bytes + self.offchip_write_bytes
    }

    /// Total accesses of both kinds.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Miss ratio over all accesses; 0 when no accesses happened.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 0.0;
        }
        (self.read_misses + self.write_misses) as f64 / total as f64
    }
}

/// One cache line's state, exposed for differential tests: comparing two
/// snapshots pins not just the hit/miss counters but the exact victim
/// choices and LRU/FIFO stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineState {
    /// Set index.
    pub set: u32,
    /// Way index within the set.
    pub way: u32,
    /// Tag held by the line (meaningful only when `valid`).
    pub tag: u64,
    /// Whether the line holds data.
    pub valid: bool,
    /// Whether the line is dirty (write-back policy).
    pub dirty: bool,
    /// LRU timestamp or FIFO fill order.
    pub stamp: u64,
}

pub(crate) const FLAG_VALID: u8 = 1;
const FLAG_DIRTY: u8 = 2;

/// How the cache resolves a full set lookup (hit way, and on allocating
/// misses the victim way) once the line buffer has missed. Selected
/// automatically at construction; [`Cache::force_probe_path`] lets
/// differential tests pin a specific path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbePath {
    /// The monomorphised scalar scans — the only path for `ways > 8`,
    /// and the reference the vector paths are tested against.
    Scan,
    /// SWAR probe over the packed per-set tag signature (any
    /// `ways <= 8`); portable, no target features required.
    Swar,
    /// `std::arch` probe (AVX2 or SSE2 on x86_64, NEON on aarch64) for
    /// ways 4 and 8, with vectorised victim select where the host
    /// supports it.
    Simd,
}

/// Line-buffer groups, one per [`VarClass`]: the kernels tag each operand
/// stream (testing row, reference row, output, synapse stream) with its
/// class, so indexing by class gives every stream a private pair of
/// entries that other streams cannot churn out.
const LB_CLASSES: usize = 4;
/// Entries per class group: a stream touches at most two distinct lines
/// per kernel step (a row spanning a line boundary, or the current and
/// previous line of a sequential walk).
const LB_ASSOC: usize = 2;
/// Total line-buffer entries.
const LB_ENTRIES: usize = LB_CLASSES * LB_ASSOC;
/// Sentinel line address marking a dead line-buffer entry. Real line
/// addresses are `addr >> line_shift`, so with `line_shift >= 1` this
/// value is unreachable; the degenerate 1-byte-line configuration keeps
/// the buffer disabled instead (see [`Cache::new`]).
const LB_DEAD: u64 = u64::MAX;

/// Hot mutable scalars of a batched pass, held in locals so the block
/// loop keeps them in registers instead of round-tripping `self.tick`
/// and the hit counters through memory at every access (the per-access
/// `tick` read-modify-write is a loop-carried dependency through a
/// store-to-load forward — the single longest chain in the hit path).
/// Only the counters the buffered-hit path touches live here; everything
/// slow-path stays on `self.stats`, keeping register pressure low. The
/// hit counts are deltas, folded into `self.stats` at block end.
struct BlockState {
    tick: u64,
    read_hits: u64,
    write_hits: u64,
    offchip_write_bytes: u64,
}

/// A banked set-associative cache.
///
/// Accesses spanning multiple lines are split internally, so a 32-byte
/// SIMD operand crossing a 64-byte line boundary costs two lookups —
/// exactly as banked hardware would behave.
///
/// # Examples
///
/// ```
/// use pudiannao_memsim::{Access, Addr, Cache, CacheConfig, CacheConfigError, VarClass};
///
/// let mut cache = Cache::new(CacheConfig::paper_default())?;
/// cache.access(Access::read(Addr(0), 32, VarClass::Hot));
/// cache.access(Access::read(Addr(0), 32, VarClass::Hot));
/// assert_eq!(cache.stats().read_hits, 1);
/// assert_eq!(cache.stats().read_misses, 1);
/// # Ok::<(), CacheConfigError>(())
/// ```
#[derive(Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Way-packed tag array: entry `set * ways + way`.
    tags: Box<[u64]>,
    /// Way-packed LRU timestamps / FIFO fill orders.
    stamps: Box<[u64]>,
    /// Way-packed `FLAG_VALID | FLAG_DIRTY` bits.
    flags: Box<[u8]>,
    /// Packed per-set tag signatures (one byte per way, see the `probe`
    /// module docs); maintained whenever `ways <= 8`, empty otherwise.
    sig: Box<[u64]>,
    stats: CacheStats,
    tick: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    ways: usize,
    /// Active full-lookup strategy.
    probe: ProbePath,
    /// Widest vector ISA the host offers (fixed at construction).
    simd: SimdLevel,
    /// Line buffer: recently resolved line addresses and the packed slot
    /// holding each, grouped by [`VarClass`] (entries `class * LB_ASSOC`
    /// and `+ 1`, most recent first). An entry is only ever created from
    /// a real scan or fill result and is killed (`addr = LB_DEAD`) when
    /// its slot is recycled, so a probe hit is exactly the slot a full
    /// scan would find.
    lb_addr: [u64; LB_ENTRIES],
    lb_slot: [u32; LB_ENTRIES],
    /// How many live buffer entries reference each packed slot. Lets
    /// [`Cache::install`] skip the entry-killing sweep unless the recycled
    /// slot is actually referenced — and the LRU victim, being the least
    /// recently touched line, almost never is.
    lb_refs: Box<[u8]>,
    /// False only for 1-byte lines, where every `u64` is a reachable line
    /// address and `LB_DEAD` would collide; the buffer then stays empty.
    lb_enabled: bool,
}

impl Cache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`] failures.
    pub fn new(config: CacheConfig) -> Result<Cache, CacheConfigError> {
        config.validate()?;
        let sets = config.sets();
        let slots = (sets * config.ways) as usize;
        let simd = probe::detect();
        // SWAR is the default fast path wherever the packed signature
        // exists: on the hosts measured so far it beats the `std::arch`
        // path even with AVX2 present, because `#[target_feature]`
        // functions cannot inline into a generic caller — every vector
        // probe pays a real call, while the SWAR match is ~10 ALU ops
        // compiled straight into the lookup. `Simd` stays selectable via
        // [`Cache::force_probe_path`] for hosts where the trade flips.
        let probe = if config.ways > 8 { ProbePath::Scan } else { ProbePath::Swar };
        let mut cache = Cache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: u64::from(sets - 1),
            ways: config.ways as usize,
            tags: vec![0; slots].into_boxed_slice(),
            stamps: vec![0; slots].into_boxed_slice(),
            flags: vec![0; slots].into_boxed_slice(),
            sig: vec![0; if config.ways <= 8 { sets as usize } else { 0 }].into_boxed_slice(),
            stats: CacheStats::default(),
            tick: 0,
            probe,
            simd,
            lb_addr: [LB_DEAD; LB_ENTRIES],
            lb_slot: [0; LB_ENTRIES],
            lb_refs: vec![0; slots].into_boxed_slice(),
            lb_enabled: config.line_bytes > 1,
            config,
        };
        // `MEMSIM_PROBE=scan|swar|simd` overrides the default probe on
        // every cache built in the process, so the probe comparison can
        // run on other hosts without a rebuild. The override obeys the
        // same support rules as [`Cache::force_probe_path`] and falls
        // back silently to the default where the geometry or host cannot
        // run the requested path — the probe never changes counters, so
        // the fallback is observationally safe.
        if let Some(path) = env_probe_override() {
            let _ = cache.force_probe_path(path);
        }
        Ok(cache)
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The probe path resolving full set lookups.
    #[must_use]
    pub fn probe_path(&self) -> ProbePath {
        self.probe
    }

    /// Forces a specific probe path, for differential tests and
    /// microbenchmarks that compare the paths against each other.
    /// Returns `false` (leaving the active path unchanged) when the
    /// geometry or host cannot run the requested path: `Swar` needs
    /// `ways <= 8`, `Simd` needs ways 4 or 8 plus a vector ISA.
    pub fn force_probe_path(&mut self, path: ProbePath) -> bool {
        let supported = match path {
            ProbePath::Scan => true,
            ProbePath::Swar => self.ways <= 8,
            ProbePath::Simd => (self.ways == 4 || self.ways == 8) && self.simd != SimdLevel::None,
        };
        if supported {
            self.probe = path;
        }
        supported
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.stamps.fill(0);
        self.flags.fill(0);
        self.sig.fill(0);
        self.lb_addr = [LB_DEAD; LB_ENTRIES];
        self.lb_slot = [0; LB_ENTRIES];
        self.lb_refs.fill(0);
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    /// Whether no access has reached this cache since it was built or
    /// last [`Cache::reset`]: every access advances the tick, so a zero
    /// tick means contents, line buffer and statistics are the reset
    /// state.
    pub(crate) fn is_pristine(&self) -> bool {
        self.tick == 0
    }

    /// Copies `src`'s contents, line buffer, statistics and tick into this
    /// cache without allocating; the configuration and probe path stay
    /// this cache's own. Returns `false`, leaving this cache untouched,
    /// when `src` was built with a different configuration.
    pub(crate) fn restore_from(&mut self, src: &Cache) -> bool {
        if self.config != src.config {
            return false;
        }
        self.tags.copy_from_slice(&src.tags);
        self.stamps.copy_from_slice(&src.stamps);
        self.flags.copy_from_slice(&src.flags);
        self.sig.copy_from_slice(&src.sig);
        self.lb_addr = src.lb_addr;
        self.lb_slot = src.lb_slot;
        self.lb_refs.copy_from_slice(&src.lb_refs);
        self.stats = src.stats;
        self.tick = src.tick;
        true
    }

    /// The state of every line, in `(set, way)` order. Intended for
    /// differential tests; not on any hot path.
    #[must_use]
    pub fn line_states(&self) -> Vec<LineState> {
        (0..self.tags.len())
            .map(|slot| LineState {
                set: (slot / self.ways) as u32,
                way: (slot % self.ways) as u32,
                tag: self.tags[slot],
                valid: self.flags[slot] & FLAG_VALID != 0,
                dirty: self.flags[slot] & FLAG_DIRTY != 0,
                stamp: self.stamps[slot],
            })
            .collect()
    }

    /// Performs one access, splitting it across cache lines as needed.
    pub fn access(&mut self, access: Access) {
        let start_line = access.addr.0 >> self.line_shift;
        let end_line = (access.addr.0 + u64::from(access.bytes.max(1)) - 1) >> self.line_shift;
        if start_line == end_line {
            self.access_line(start_line, access.kind, access.bytes, access.class);
        } else {
            for line_addr in start_line..=end_line {
                self.access_line(line_addr, access.kind, access.bytes, access.class);
            }
        }
    }

    /// Performs one access through the unbuffered reference path: a full
    /// tag scan per touched line, no line buffer, no coalescing. Counter
    /// and state transitions are identical to [`Cache::access`]; this
    /// exists so differential tests and microbenchmarks can compare the
    /// fast path against the straightforward implementation.
    pub fn access_scalar(&mut self, access: Access) {
        let start_line = access.addr.0 >> self.line_shift;
        let end_line = (access.addr.0 + u64::from(access.bytes.max(1)) - 1) >> self.line_shift;
        for line_addr in start_line..=end_line {
            self.tick += 1;
            self.access_line_slow(
                self.tick,
                line_addr,
                access.kind,
                access.bytes,
                access.class,
                false,
            );
        }
    }

    /// Streams a whole flattened trace through the cache in one pass.
    ///
    /// Equivalent, counter for counter and stamp for stamp, to calling
    /// [`Cache::access`] on each element in order (and therefore to any
    /// [`Cache::access_run`] partition of the same stream — both reduce
    /// to the scalar sequence). The win is structural: one call resolves
    /// the entire block, so the tick/stat/line-buffer state stays hot in
    /// registers instead of round-tripping through memory at every op
    /// boundary, and the next access's line span is computed while the
    /// current one resolves (software pipelining — the span's shift/add
    /// chain overlaps the probe's dependent loads).
    pub fn access_block(&mut self, accesses: &[Access]) {
        // Monomorphise the pass on the two policy axes (plus the
        // line-buffer switch) so the per-access policy branches
        // constant-fold away inside the hot loop.
        match (self.config.replacement, self.config.write_policy, self.lb_enabled) {
            (ReplacementPolicy::Lru, WritePolicy::WriteBackAllocate, true) => {
                self.block_pass::<true, true, true>(accesses);
            }
            (ReplacementPolicy::Lru, WritePolicy::WriteAroundNoAllocate, true) => {
                self.block_pass::<true, false, true>(accesses);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteBackAllocate, true) => {
                self.block_pass::<false, true, true>(accesses);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteAroundNoAllocate, true) => {
                self.block_pass::<false, false, true>(accesses);
            }
            (ReplacementPolicy::Lru, WritePolicy::WriteBackAllocate, false) => {
                self.block_pass::<true, true, false>(accesses);
            }
            (ReplacementPolicy::Lru, WritePolicy::WriteAroundNoAllocate, false) => {
                self.block_pass::<true, false, false>(accesses);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteBackAllocate, false) => {
                self.block_pass::<false, true, false>(accesses);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteAroundNoAllocate, false) => {
                self.block_pass::<false, false, false>(accesses);
            }
        }
    }

    /// The batched loop body. `LRU` / `WB` / `LB` encode the replacement
    /// policy, write policy and line-buffer switch as compile-time
    /// constants, so the per-access policy branches constant-fold away;
    /// the hot scalars ride in a by-value [`BlockState`] (an
    /// address-taken local would be pinned to its stack slot and
    /// re-loaded every iteration).
    fn block_pass<const LRU: bool, const WB: bool, const LB: bool>(&mut self, accesses: &[Access]) {
        let mut st =
            BlockState { tick: self.tick, read_hits: 0, write_hits: 0, offchip_write_bytes: 0 };
        for &a in accesses {
            let (start_line, end_line) = self.line_span(a);
            if start_line == end_line {
                st = self.block_line::<LRU, WB, LB>(st, start_line, a.kind, a.bytes, a.class);
            } else {
                for line_addr in start_line..=end_line {
                    st = self.block_line::<LRU, WB, LB>(st, line_addr, a.kind, a.bytes, a.class);
                }
            }
        }
        self.tick = st.tick;
        self.stats.read_hits += st.read_hits;
        self.stats.write_hits += st.write_hits;
        self.stats.offchip_write_bytes += st.offchip_write_bytes;
    }

    /// Streams a packed [`AccessBlock`] through the cache in one pass.
    ///
    /// Equivalent, counter for counter and stamp for stamp, to
    /// [`Cache::access_block`] on the stream the block was packed from:
    /// the block's entries *are* the per-line sequence the AoS pass
    /// derives on the fly (splitting and `addr >> line_shift` happened at
    /// pack time), so the loop body is just the line-buffer probe over a
    /// dense `u64` stream — no struct striding, no span computation, and
    /// under write-back–allocate no `bytes` load at all (that column is
    /// only consumed by the write-around policy; see
    /// [`Cache::finish_miss`] / [`Cache::hit_at`]).
    ///
    /// # Panics
    ///
    /// Panics if the block was packed for a different line size — its
    /// entries would describe a different per-line sequence.
    pub fn access_soa(&mut self, block: &AccessBlock) {
        assert_eq!(
            block.line_shift(),
            self.line_shift,
            "block packed for {}-byte lines fed to a {}-byte-line cache",
            block.line_bytes(),
            self.config.line_bytes,
        );
        let (addrs, bytes, meta) = block.parts();
        match (self.config.replacement, self.config.write_policy, self.lb_enabled) {
            (ReplacementPolicy::Lru, WritePolicy::WriteBackAllocate, true) => {
                self.block_pass_soa::<true, true, true>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Lru, WritePolicy::WriteAroundNoAllocate, true) => {
                self.block_pass_soa::<true, false, true>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteBackAllocate, true) => {
                self.block_pass_soa::<false, true, true>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteAroundNoAllocate, true) => {
                self.block_pass_soa::<false, false, true>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Lru, WritePolicy::WriteBackAllocate, false) => {
                self.block_pass_soa::<true, true, false>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Lru, WritePolicy::WriteAroundNoAllocate, false) => {
                self.block_pass_soa::<true, false, false>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteBackAllocate, false) => {
                self.block_pass_soa::<false, true, false>(addrs, bytes, meta);
            }
            (ReplacementPolicy::Fifo, WritePolicy::WriteAroundNoAllocate, false) => {
                self.block_pass_soa::<false, false, false>(addrs, bytes, meta);
            }
        }
    }

    /// The SoA loop body: [`Cache::block_line`] over pre-split per-line
    /// entries. Under `WB` the `bytes` column is provably unread by the
    /// whole downstream path, so that load is elided — the write-around
    /// instantiations zip it back in.
    fn block_pass_soa<const LRU: bool, const WB: bool, const LB: bool>(
        &mut self,
        addrs: &[u64],
        bytes: &[u32],
        meta: &[u8],
    ) {
        let mut st =
            BlockState { tick: self.tick, read_hits: 0, write_hits: 0, offchip_write_bytes: 0 };
        if WB {
            for (&line_addr, &m) in addrs.iter().zip(meta) {
                st = self.block_line::<LRU, WB, LB>(st, line_addr, meta_kind(m), 0, meta_class(m));
            }
        } else {
            for ((&line_addr, &b), &m) in addrs.iter().zip(bytes).zip(meta) {
                st = self.block_line::<LRU, WB, LB>(st, line_addr, meta_kind(m), b, meta_class(m));
            }
        }
        self.tick = st.tick;
        self.stats.read_hits += st.read_hits;
        self.stats.write_hits += st.write_hits;
        self.stats.offchip_write_bytes += st.offchip_write_bytes;
    }

    /// Per-access body of the block loop: the line-buffer probe with its
    /// bookkeeping on the register-resident [`BlockState`], falling back
    /// to the ordinary slow path (which writes `self.stats` directly —
    /// the two accumulators are disjoint deltas, summed at block end).
    ///
    /// `inline(always)`: left out-of-line the by-value [`BlockState`]
    /// would round-trip through memory on every access, which is the
    /// exact cost the batched pass exists to avoid.
    #[inline(always)]
    fn block_line<const LRU: bool, const WB: bool, const LB: bool>(
        &mut self,
        mut st: BlockState,
        line_addr: u64,
        kind: AccessKind,
        bytes: u32,
        class: VarClass,
    ) -> BlockState {
        st.tick += 1;
        let g = class as usize * LB_ASSOC;
        if LB {
            let slot = if self.lb_addr[g] == line_addr {
                self.lb_slot[g] as usize
            } else if self.lb_addr[g + 1] == line_addr {
                self.lb_slot[g + 1] as usize
            } else {
                self.access_line_slow(st.tick, line_addr, kind, bytes, class, true);
                return st;
            };
            match kind {
                AccessKind::Read => st.read_hits += 1,
                AccessKind::Write => {
                    st.write_hits += 1;
                    if WB {
                        // Check-before-set: repeated stores to a dirty
                        // line are the common case, and a predicted
                        // branch beats a read-modify-write store chain.
                        if self.flags[slot] & FLAG_DIRTY == 0 {
                            self.flags[slot] |= FLAG_DIRTY;
                        }
                    } else {
                        // Write-through on hit: bytes go to memory too.
                        st.offchip_write_bytes +=
                            u64::from(bytes).min(u64::from(self.config.line_bytes));
                    }
                }
            }
            if LRU {
                self.stamps[slot] = st.tick;
            }
            return st;
        }
        self.access_line_slow(st.tick, line_addr, kind, bytes, class, true);
        st
    }

    /// Performs a sequence of accesses, resolving each maximal run of
    /// consecutive same-line, same-kind touches with a single tag lookup.
    ///
    /// Equivalent, counter for counter and stamp for stamp, to calling
    /// [`Cache::access`] on each element in order: the first touch of a
    /// run is resolved exactly like a scalar access (so fills land on the
    /// same victim with the same stamp), and the remaining `k-1` touches
    /// are batched — no eviction can intervene inside a run because no
    /// other cache set is referenced between its touches.
    pub fn access_run(&mut self, accesses: &[Access]) {
        // Single-operand ops (reduction writes, scalar updates) skip the
        // run-detection machinery entirely.
        if let &[a] = accesses {
            let (start_line, end_line) = self.line_span(a);
            if start_line == end_line {
                self.access_line(start_line, a.kind, a.bytes, a.class);
            } else {
                for line_addr in start_line..=end_line {
                    self.access_line(line_addr, a.kind, a.bytes, a.class);
                }
            }
            return;
        }
        let n = accesses.len();
        let mut i = 0;
        // Each element's span is computed exactly once: the lookahead that
        // ends a run hands the breaking element's span to the next head.
        let mut cur = match accesses.first() {
            Some(&a) => self.line_span(a),
            None => return,
        };
        while i < n {
            let a = accesses[i];
            let (start_line, end_line) = cur;
            if start_line != end_line {
                // Line-crossing accesses fall back to the split path and
                // never participate in a run.
                for line_addr in start_line..=end_line {
                    self.access_line(line_addr, a.kind, a.bytes, a.class);
                }
                i += 1;
                if i < n {
                    cur = self.line_span(accesses[i]);
                }
                continue;
            }
            let mut j = i + 1;
            while j < n {
                let b = accesses[j];
                let b_span = self.line_span(b);
                if b.kind != a.kind || b_span != (start_line, start_line) {
                    cur = b_span;
                    break;
                }
                j += 1;
            }
            self.access_line(start_line, a.kind, a.bytes, a.class);
            if j > i + 1 {
                self.run_tail(start_line, a.kind, &accesses[i + 1..j]);
            }
            i = j;
        }
    }

    /// First and last line touched by an access.
    #[inline]
    fn line_span(&self, a: Access) -> (u64, u64) {
        let start = a.addr.0 >> self.line_shift;
        let end = (a.addr.0 + u64::from(a.bytes.max(1)) - 1) >> self.line_shift;
        (start, end)
    }

    /// Resolves the follow-up touches of a coalesced run after the first
    /// touch settled residency. One lookup covers the whole tail.
    fn run_tail(&mut self, line_addr: u64, kind: AccessKind, tail: &[Access]) {
        let line_bytes = u64::from(self.config.line_bytes);
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        let base = set_idx * self.ways;
        let k = tail.len() as u64;
        match self.find_way(set_idx, base, tag) {
            Some(way) => {
                // Resident after the first touch: every follow-up hits.
                let slot = base + way;
                self.tick += k;
                match kind {
                    AccessKind::Read => self.stats.read_hits += k,
                    AccessKind::Write => {
                        self.stats.write_hits += k;
                        match self.config.write_policy {
                            WritePolicy::WriteBackAllocate => self.flags[slot] |= FLAG_DIRTY,
                            WritePolicy::WriteAroundNoAllocate => {
                                for a in tail {
                                    self.stats.offchip_write_bytes +=
                                        u64::from(a.bytes).min(line_bytes);
                                }
                            }
                        }
                    }
                }
                if self.config.replacement == ReplacementPolicy::Lru {
                    self.stamps[slot] = self.tick;
                }
            }
            None if kind == AccessKind::Write
                && self.config.write_policy == WritePolicy::WriteAroundNoAllocate =>
            {
                // Write-around write miss: the line stays non-resident, so
                // every follow-up misses again with only byte traffic.
                self.tick += k;
                self.stats.write_misses += k;
                for a in tail {
                    self.stats.offchip_write_bytes += u64::from(a.bytes).min(line_bytes);
                }
            }
            None => {
                // Unreachable in practice (reads and write-allocate writes
                // fill on miss), kept exact by replaying scalar accesses.
                for a in tail {
                    self.tick += 1;
                    self.access_line_slow(self.tick, line_addr, a.kind, a.bytes, a.class, true);
                }
            }
        }
    }

    #[inline]
    fn access_line(&mut self, line_addr: u64, kind: AccessKind, bytes: u32, class: VarClass) {
        self.tick += 1;
        // Line-buffer probe in the access's class group: each operand
        // stream revisits at most two lines between transitions, so the
        // first compare almost always resolves the access.
        let g = class as usize * LB_ASSOC;
        if self.lb_enabled {
            if self.lb_addr[g] == line_addr {
                self.hit_at(self.tick, self.lb_slot[g] as usize, kind, bytes);
                return;
            }
            // No swap-to-front: a stream alternating between its two lines
            // would pay a four-element shuffle per access to save a single
            // compare.
            if self.lb_addr[g + 1] == line_addr {
                self.hit_at(self.tick, self.lb_slot[g + 1] as usize, kind, bytes);
                return;
            }
        }
        self.access_line_slow(self.tick, line_addr, kind, bytes, class, true);
    }

    /// Full set resolution; `insert_lb` feeds the line buffer on hits and
    /// fills (false on the scalar reference path).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn access_line_slow(
        &mut self,
        tick: u64,
        line_addr: u64,
        kind: AccessKind,
        bytes: u32,
        class: VarClass,
        insert_lb: bool,
    ) {
        let set_idx = (line_addr & self.set_mask) as usize;
        let base = set_idx * self.ways;
        let tag = line_addr >> self.set_bits;
        let hit = self.probe_hit(set_idx, base, tag);
        if hit != usize::MAX {
            let slot = base + hit;
            if insert_lb {
                self.lb_insert(line_addr, slot, class);
            }
            self.hit_at(tick, slot, kind, bytes);
            return;
        }
        self.finish_miss(tick, set_idx, base, line_addr, tag, kind, bytes, class, insert_lb);
    }

    /// Resolves the hit way through the active [`ProbePath`], returning
    /// `usize::MAX` on a miss. The victim way is *not* computed here —
    /// only allocating misses need one, and they pay for it lazily in
    /// [`Cache::finish_miss`] (unlike the old fused pass, which charged
    /// every slow lookup for a victim reduction it rarely used).
    #[inline]
    fn probe_hit(&self, set_idx: usize, base: usize, tag: u64) -> usize {
        match self.probe {
            ProbePath::Swar => {
                probe::swar_hit(self.sig[set_idx], &self.tags[base..base + self.ways], tag)
            }
            ProbePath::Simd => self.simd_hit(base, tag),
            ProbePath::Scan => {
                let found = match self.ways {
                    1 => self.scan_ways::<1>(base, tag),
                    2 => self.scan_ways::<2>(base, tag),
                    4 => self.scan_ways::<4>(base, tag),
                    8 => self.scan_ways::<8>(base, tag),
                    n => self.scan_dyn(base, tag, n),
                };
                found.unwrap_or(usize::MAX)
            }
        }
    }

    /// `std::arch` hit probe: full 64-bit tag compare across the set,
    /// masked to valid ways (invalid ways keep stale tags — commonly the
    /// all-zero fill, which a real tag can equal).
    #[inline]
    fn simd_hit(&self, base: usize, tag: u64) -> usize {
        let mask = if self.ways == 8 {
            let tags: &[u64; 8] = self.tags[base..base + 8].try_into().expect("8-way set");
            let flags: &[u8; 8] = self.flags[base..base + 8].try_into().expect("8-way set");
            probe::simd_hit_mask8(self.simd, tags, tag) & probe::valid_mask(flags)
        } else {
            let tags: &[u64; 4] = self.tags[base..base + 4].try_into().expect("4-way set");
            let flags: &[u8; 4] = self.flags[base..base + 4].try_into().expect("4-way set");
            probe::simd_hit_mask4(self.simd, tags, tag) & probe::valid_mask(flags)
        };
        if mask == 0 {
            usize::MAX
        } else {
            mask.trailing_zeros() as usize
        }
    }

    /// Selects the victim way for an allocating miss: an invalid way when
    /// one exists, else the first-minimum-stamp resident.
    #[inline]
    fn victim_way(&self, base: usize) -> usize {
        if self.probe == ProbePath::Simd {
            if self.ways == 8 {
                let stamps: &[u64; 8] = self.stamps[base..base + 8].try_into().expect("8-way set");
                if let Some(w) = probe::simd_victim8(self.simd, stamps) {
                    return w;
                }
            } else {
                let stamps: &[u64; 4] = self.stamps[base..base + 4].try_into().expect("4-way set");
                if let Some(w) = probe::simd_victim4(self.simd, stamps) {
                    return w;
                }
            }
        }
        match self.ways {
            1 => 0,
            2 => self.victim_tree::<2>(base),
            4 => self.victim_tree::<4>(base),
            8 => self.victim_tree::<8>(base),
            _ => self.victim_dyn(base),
        }
    }

    /// Portable victim select. Packing (stamp, way) picks the first
    /// minimum: stamps are unique within a full set, and lower ways win
    /// ties anyway. Invalid ways are exactly the stamp-0 ways (every
    /// resident line was stamped at a tick >= 1), so the same reduction
    /// finds the first invalid way before any valid one — no separate
    /// invalid scan is needed. The 6-bit shift is exact while
    /// `tick < 2^58` — at one access per tick that is centuries of
    /// simulation. A log-depth tree reduction replaces the N-deep
    /// compare-select chain.
    #[inline]
    fn victim_tree<const N: usize>(&self, base: usize) -> usize {
        let stamps = &self.stamps[base..base + N];
        let mut keys = [u64::MAX; N];
        for w in 0..N {
            keys[w] = (stamps[w] << 6) | w as u64;
        }
        let mut step = N / 2;
        while step > 0 {
            for w in 0..step {
                keys[w] = keys[w].min(keys[w + step]);
            }
            step /= 2;
        }
        (keys[0] & 63) as usize
    }

    /// Victim select for arbitrary associativities. Wide keys: the way
    /// index gets a full 32 bits. As in the tree path, invalid ways carry
    /// stamp 0 and win the reduction outright.
    fn victim_dyn(&self, base: usize) -> usize {
        let stamps = &self.stamps[base..base + self.ways];
        let mut victim_key = u128::MAX;
        for (w, &stamp) in stamps.iter().enumerate() {
            let key = (u128::from(stamp) << 32) | w as u128;
            if key < victim_key {
                victim_key = key;
            }
        }
        (victim_key & u128::from(u32::MAX)) as usize
    }

    /// The miss/fill transition, with the victim selected only on the
    /// policies that actually allocate.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn finish_miss(
        &mut self,
        tick: u64,
        set_idx: usize,
        base: usize,
        line_addr: u64,
        tag: u64,
        kind: AccessKind,
        bytes: u32,
        class: VarClass,
        insert_lb: bool,
    ) {
        let line_bytes = u64::from(self.config.line_bytes);
        match kind {
            AccessKind::Read => {
                self.stats.read_misses += 1;
                self.stats.offchip_read_bytes += line_bytes;
                let victim = self.victim_way(base);
                let slot = self.install(tick, set_idx, base, victim, tag, false);
                if insert_lb {
                    self.lb_insert(line_addr, slot, class);
                }
            }
            AccessKind::Write => {
                self.stats.write_misses += 1;
                match self.config.write_policy {
                    WritePolicy::WriteBackAllocate => {
                        // Fetch-on-write then dirty the line.
                        self.stats.offchip_read_bytes += line_bytes;
                        let victim = self.victim_way(base);
                        let slot = self.install(tick, set_idx, base, victim, tag, true);
                        if insert_lb {
                            self.lb_insert(line_addr, slot, class);
                        }
                    }
                    WritePolicy::WriteAroundNoAllocate => {
                        self.stats.offchip_write_bytes += u64::from(bytes).min(line_bytes);
                    }
                }
            }
        }
    }

    /// Bookkeeping shared by every hit path, buffered or scanned.
    #[inline]
    fn hit_at(&mut self, tick: u64, slot: usize, kind: AccessKind, bytes: u32) {
        match kind {
            AccessKind::Read => self.stats.read_hits += 1,
            AccessKind::Write => {
                self.stats.write_hits += 1;
                match self.config.write_policy {
                    WritePolicy::WriteBackAllocate => self.flags[slot] |= FLAG_DIRTY,
                    WritePolicy::WriteAroundNoAllocate => {
                        // Write-through on hit: bytes go to memory too.
                        self.stats.offchip_write_bytes +=
                            u64::from(bytes).min(u64::from(self.config.line_bytes));
                    }
                }
            }
        }
        if self.config.replacement == ReplacementPolicy::Lru {
            self.stamps[slot] = tick;
        }
    }

    /// Finds the way holding `tag` in the set starting at `base`, through
    /// the active probe path.
    #[inline]
    fn find_way(&self, set_idx: usize, base: usize, tag: u64) -> Option<usize> {
        let w = self.probe_hit(set_idx, base, tag);
        (w != usize::MAX).then_some(w)
    }

    #[inline]
    fn scan_ways<const N: usize>(&self, base: usize, tag: u64) -> Option<usize> {
        let tags = &self.tags[base..base + N];
        let flags = &self.flags[base..base + N];
        // Valid tags are unique within a set, so at most one way matches;
        // a full branchless scan beats an early exit whose taken position
        // the branch predictor cannot learn.
        let mut found = usize::MAX;
        for w in 0..N {
            if (flags[w] & FLAG_VALID != 0) & (tags[w] == tag) {
                found = w;
            }
        }
        (found != usize::MAX).then_some(found)
    }

    fn scan_dyn(&self, base: usize, tag: u64, ways: usize) -> Option<usize> {
        let tags = &self.tags[base..base + ways];
        let flags = &self.flags[base..base + ways];
        (0..ways).find(|&w| flags[w] & FLAG_VALID != 0 && tags[w] == tag)
    }

    /// Installs `tag` on the precomputed victim way: an invalid way when
    /// one exists (those win the stamp reduction outright), else the
    /// first-minimum-stamp resident (matching how `Iterator::min_by_key`
    /// resolves ties), which is evicted. Returns the recycled packed slot.
    #[inline]
    fn install(
        &mut self,
        tick: u64,
        set_idx: usize,
        base: usize,
        victim: usize,
        tag: u64,
        dirty: bool,
    ) -> usize {
        let slot = base + victim;
        if self.ways <= 8 {
            // Refresh the packed signature byte for the recycled way.
            let shift = (victim * 8) as u32;
            let word = &mut self.sig[set_idx];
            *word = (*word & !(0xff_u64 << shift)) | (probe::sig_byte(tag) << shift);
        }
        let victim_flags = self.flags[slot];
        if victim_flags & FLAG_VALID != 0 {
            self.stats.evictions += 1;
            if victim_flags & FLAG_DIRTY != 0 {
                self.stats.offchip_write_bytes += u64::from(self.config.line_bytes);
            }
        }
        // Any line-buffer entry pointing at the recycled slot is now a
        // lie; kill it before the new resident goes in. The reference
        // count makes the sweep conditional on there being anything to
        // kill, which for an LRU victim there almost never is.
        if self.lb_refs[slot] != 0 {
            for i in 0..LB_ENTRIES {
                let keep = self.lb_slot[i] != slot as u32;
                self.lb_addr[i] = if keep { self.lb_addr[i] } else { LB_DEAD };
            }
            self.lb_refs[slot] = 0;
        }
        self.tags[slot] = tag;
        self.stamps[slot] = tick;
        self.flags[slot] = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
        slot
    }

    #[inline]
    fn lb_insert(&mut self, line_addr: u64, slot: usize, class: VarClass) {
        if !self.lb_enabled {
            return;
        }
        // New line becomes the class's front entry; the previous front
        // survives as the second entry (streams alternate two lines).
        let g = class as usize * LB_ASSOC;
        // The dropped back entry releases its slot reference; a dead entry
        // subtracts 0 from whatever (in-bounds) slot it last held, so no
        // branch is needed.
        self.lb_refs[self.lb_slot[g + 1] as usize] -= u8::from(self.lb_addr[g + 1] != LB_DEAD);
        self.lb_addr[g + 1] = self.lb_addr[g];
        self.lb_slot[g + 1] = self.lb_slot[g];
        self.lb_addr[g] = line_addr;
        self.lb_slot[g] = slot as u32;
        self.lb_refs[slot] += 1;
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Parses a `MEMSIM_PROBE` value. Split from the env read so the mapping
/// is unit-testable without mutating process-global state.
fn parse_probe_override(value: &str) -> Option<ProbePath> {
    match value.trim().to_ascii_lowercase().as_str() {
        "scan" => Some(ProbePath::Scan),
        "swar" => Some(ProbePath::Swar),
        "simd" => Some(ProbePath::Simd),
        _ => None,
    }
}

/// The process-wide `MEMSIM_PROBE` override, read and parsed once. An
/// unrecognised value warns on the first cache construction and is then
/// ignored.
fn env_probe_override() -> Option<ProbePath> {
    static OVERRIDE: OnceLock<Option<ProbePath>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("MEMSIM_PROBE") {
        Ok(raw) => {
            let parsed = parse_probe_override(&raw);
            if parsed.is_none() {
                eprintln!("memsim: ignoring MEMSIM_PROBE={raw:?} (expected scan, swar or simd)");
            }
            parsed
        }
        Err(_) => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Addr, VarClass};

    fn read(addr: u64, bytes: u32) -> Access {
        Access::read(Addr(addr), bytes, VarClass::Hot)
    }

    fn write(addr: u64, bytes: u32) -> Access {
        Access::write(Addr(addr), bytes, VarClass::Output)
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::paper_default().validate().is_ok());
        let mut bad = CacheConfig::paper_default();
        bad.line_bytes = 48;
        assert_eq!(bad.validate(), Err(CacheConfigError::BadLineSize(48)));
        bad = CacheConfig::paper_default();
        bad.ways = 0;
        assert_eq!(bad.validate(), Err(CacheConfigError::ZeroWays));
        bad = CacheConfig::paper_default();
        bad.capacity_bytes = 1000;
        assert!(matches!(bad.validate(), Err(CacheConfigError::BadCapacity(_))));
        assert_eq!(CacheConfig::paper_default().sets(), 64);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::paper_default()).unwrap();
        c.access(read(0, 32));
        c.access(read(0, 32));
        c.access(read(32, 32)); // same 64B line
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 2);
        assert_eq!(c.stats().offchip_read_bytes, 64);
    }

    #[test]
    fn line_crossing_access_splits() {
        let mut c = Cache::new(CacheConfig::paper_default()).unwrap();
        c.access(read(48, 32)); // spans lines 0 and 1
        assert_eq!(c.stats().read_misses, 2);
        assert_eq!(c.stats().offchip_read_bytes, 128);
    }

    #[test]
    fn capacity_evictions_with_lru() {
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            ways: 2,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        };
        let mut c = Cache::new(cfg).unwrap();
        // 8 sets x 2 ways. Touch 3 lines mapping to set 0: 0, 512, 1024.
        c.access(read(0, 4));
        c.access(read(512, 4));
        c.access(read(0, 4)); // refresh line 0
        c.access(read(1024, 4)); // evicts 512 (LRU)
        c.access(read(0, 4)); // still a hit
        c.access(read(512, 4)); // miss again
        assert_eq!(c.stats().read_hits, 2);
        assert_eq!(c.stats().read_misses, 4);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn fifo_differs_from_lru() {
        let mut cfg = CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            ways: 2,
            replacement: ReplacementPolicy::Fifo,
            write_policy: WritePolicy::WriteBackAllocate,
        };
        let mut c = Cache::new(cfg.clone()).unwrap();
        c.access(read(0, 4));
        c.access(read(512, 4));
        c.access(read(0, 4)); // FIFO ignores the refresh
        c.access(read(1024, 4)); // evicts 0 under FIFO
        c.access(read(0, 4)); // miss under FIFO
        assert_eq!(c.stats().read_misses, 4);

        cfg.replacement = ReplacementPolicy::Lru;
        let mut c = Cache::new(cfg).unwrap();
        c.access(read(0, 4));
        c.access(read(512, 4));
        c.access(read(0, 4));
        c.access(read(1024, 4)); // evicts 512 under LRU
        c.access(read(0, 4)); // hit under LRU
        assert_eq!(c.stats().read_misses, 3);
    }

    #[test]
    fn write_back_dirty_eviction_costs_traffic() {
        let cfg = CacheConfig {
            capacity_bytes: 128,
            line_bytes: 64,
            ways: 1,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        };
        let mut c = Cache::new(cfg).unwrap();
        c.access(write(0, 4)); // miss: fetch 64, dirty
        assert_eq!(c.stats().offchip_read_bytes, 64);
        assert_eq!(c.stats().offchip_write_bytes, 0);
        c.access(read(128, 4)); // maps to set 0, evicts dirty line
        assert_eq!(c.stats().offchip_write_bytes, 64);
    }

    #[test]
    fn write_around_streams_to_memory() {
        let cfg = CacheConfig {
            write_policy: WritePolicy::WriteAroundNoAllocate,
            ..CacheConfig::paper_default()
        };
        let mut c = Cache::new(cfg).unwrap();
        c.access(write(0, 4));
        c.access(write(4, 4));
        assert_eq!(c.stats().write_misses, 2);
        assert_eq!(c.stats().offchip_write_bytes, 8);
        assert_eq!(c.stats().offchip_read_bytes, 0);
        // Cache contents untouched: a read still misses.
        c.access(read(0, 4));
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(CacheConfig::paper_default()).unwrap();
        c.access(read(0, 32));
        c.reset();
        assert_eq!(c.stats(), &CacheStats::default());
        c.access(read(0, 32));
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn stats_helpers() {
        let s = CacheStats {
            read_hits: 6,
            read_misses: 2,
            write_hits: 1,
            write_misses: 1,
            offchip_read_bytes: 128,
            offchip_write_bytes: 64,
            evictions: 0,
        };
        assert_eq!(s.offchip_bytes(), 192);
        assert_eq!(s.accesses(), 10);
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        let mut c = Cache::new(CacheConfig::paper_default()).unwrap();
        // 16 KB working set in a 32 KB cache: second sweep must fully hit.
        for pass in 0..2 {
            for addr in (0..16 * 1024).step_by(64) {
                c.access(read(addr, 32));
            }
            if pass == 0 {
                assert_eq!(c.stats().read_misses, 256);
            }
        }
        assert_eq!(c.stats().read_misses, 256);
        assert_eq!(c.stats().read_hits, 256);
    }

    /// Replays a stream on (fast `access`, `access_scalar`, `access_run`)
    /// and asserts identical stats and line states.
    fn assert_three_way_equal(cfg: &CacheConfig, stream: &[Access]) {
        let mut fast = Cache::new(cfg.clone()).unwrap();
        let mut scalar = Cache::new(cfg.clone()).unwrap();
        let mut run = Cache::new(cfg.clone()).unwrap();
        let mut soa = Cache::new(cfg.clone()).unwrap();
        for &a in stream {
            fast.access(a);
            scalar.access_scalar(a);
        }
        run.access_run(stream);
        let mut block = AccessBlock::new(cfg.line_bytes);
        for a in stream {
            block.push_op(core::slice::from_ref(a));
        }
        soa.access_soa(&block);
        assert_eq!(fast.stats(), scalar.stats());
        assert_eq!(fast.stats(), run.stats());
        assert_eq!(fast.stats(), soa.stats());
        assert_eq!(fast.line_states(), scalar.line_states());
        assert_eq!(fast.line_states(), run.line_states());
        assert_eq!(fast.line_states(), soa.line_states());
    }

    #[test]
    fn fast_scalar_and_run_paths_agree_on_interleaved_streams() {
        // The kernels' shape: two interleaved read streams plus an output
        // stream, with enough distinct lines to force evictions.
        let cfg = CacheConfig {
            capacity_bytes: 2048,
            line_bytes: 64,
            ways: 4,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        };
        let mut stream = Vec::new();
        for i in 0..512u64 {
            stream.push(read(0x1000 + (i % 64) * 32, 32));
            stream.push(read(0x9000 + i * 32, 32));
            if i % 8 == 7 {
                stream.push(write(0x20000 + i * 4, 4));
            }
        }
        assert_three_way_equal(&cfg, &stream);

        let wa = CacheConfig { write_policy: WritePolicy::WriteAroundNoAllocate, ..cfg };
        assert_three_way_equal(&wa, &stream);
    }

    #[test]
    fn coalesced_runs_match_scalar_exactly() {
        // Long same-line runs (the coalescing target) for every kind and
        // policy, including line-crossing breaks mid-stream.
        for policy in [WritePolicy::WriteBackAllocate, WritePolicy::WriteAroundNoAllocate] {
            let cfg = CacheConfig {
                capacity_bytes: 512,
                line_bytes: 64,
                ways: 2,
                replacement: ReplacementPolicy::Lru,
                write_policy: policy,
            };
            let mut stream = Vec::new();
            for rep in 0..64u64 {
                let line = rep * 64;
                for e in 0..16u64 {
                    stream.push(read(line + e * 4, 4));
                }
                for e in 0..16u64 {
                    stream.push(write(line + e * 4, 4));
                }
                stream.push(read(line + 48, 32)); // crosses into the next line
            }
            assert_three_way_equal(&cfg, &stream);
        }
    }

    #[test]
    fn line_buffer_entries_die_with_their_slot() {
        // Direct-mapped 2-line cache: alternating lines that map to the
        // same set constantly recycle slots; a stale buffer entry would
        // turn a miss into a hit and diverge from the scalar path.
        let cfg = CacheConfig {
            capacity_bytes: 128,
            line_bytes: 64,
            ways: 1,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        };
        let mut stream = Vec::new();
        for i in 0..64u64 {
            stream.push(read((i % 3) * 128, 8));
            stream.push(write((i % 5) * 128, 8));
        }
        assert_three_way_equal(&cfg, &stream);
    }

    #[test]
    fn fifo_stamps_survive_coalescing() {
        let cfg = CacheConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
            replacement: ReplacementPolicy::Fifo,
            write_policy: WritePolicy::WriteBackAllocate,
        };
        let mut stream = Vec::new();
        for i in 0..96u64 {
            let line = (i % 12) * 256;
            for e in 0..8u64 {
                stream.push(read(line + e * 8, 8));
            }
        }
        assert_three_way_equal(&cfg, &stream);
    }

    #[test]
    fn probe_override_parser() {
        assert_eq!(parse_probe_override("scan"), Some(ProbePath::Scan));
        assert_eq!(parse_probe_override("SWAR"), Some(ProbePath::Swar));
        assert_eq!(parse_probe_override(" simd\n"), Some(ProbePath::Simd));
        assert_eq!(parse_probe_override(""), None);
        assert_eq!(parse_probe_override("avx2"), None);
    }

    #[test]
    fn soa_pass_rejects_mismatched_line_size() {
        let mut c = Cache::new(CacheConfig::paper_default()).unwrap();
        let mut block = AccessBlock::new(32);
        block.push_op(&[read(0, 4)]);
        let err = std::panic::catch_unwind(core::panic::AssertUnwindSafe(|| {
            c.access_soa(&block);
        }));
        assert!(err.is_err());
    }
}
