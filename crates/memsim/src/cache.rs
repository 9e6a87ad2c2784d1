//! The set-associative cache model behind the Section-2 experiments.
//!
//! # One pass plus one reference
//!
//! [`Cache::access_soa`] is the production pass: the figure drivers, the
//! serving fleet and the benchmarks all reach it through
//! [`SimdEngine::commit_block`]. [`Cache::access`] is the reference: one
//! access at a time, one full set lookup per touched line, no line
//! buffer. Both drive the same hit, miss and fill transitions, so they
//! leave identical counters and line states; the workspace's
//! `cache_matches_reference` suite pins both to an independent model.
//!
//! # Hot-path layout
//!
//! The simulator replays hundreds of millions of accesses per figure, so
//! the cache state is stored structure-of-arrays: way-packed `tags`,
//! `stamps` and `flags` slices indexed by `set * ways + way`, with no
//! per-line struct to chase. Three mechanisms keep the SoA pass cheap
//! without changing a single counter:
//!
//! * a **class-indexed line buffer** in front of the set lookup — each
//!   entry maps a line address to the packed slot currently holding it,
//!   and is dropped the moment that slot is recycled by
//!   [`Cache::install`], so a buffer hit is *by construction* the same
//!   slot a full lookup would find. Entries are grouped by the access's
//!   [`VarClass`] (two per class), giving every operand stream a private
//!   pair that other streams cannot churn out; a probe is at most two
//!   compares;
//! * a **way-parallel probe**: each set with `ways <= 8` keeps a packed
//!   one-byte-per-way tag signature (see the `probe` module), so a set
//!   lookup is a SWAR XOR/haszero match instead of a per-way scan, with
//!   the victim way selected lazily — only misses pay for it.
//!   Wider sets scan their ways;
//! * a **register-resident loop**: a whole packed [`AccessBlock`] streams
//!   through one loop, with the tick and hit counters held in locals
//!   instead of `self`.
//!
//! A [`StrippedBlock`] replay ([`SimdEngine::commit_stripped`]) is a
//! third way in, for traces replayed many times: it runs the same lookup
//! as the other two for the entries that may miss, and stamps the
//! guaranteed hits it kept straight into their slots (see the `strip`
//! module for why that is exact).
//!
//! [`SimdEngine::commit_block`]: crate::SimdEngine::commit_block
//! [`SimdEngine::commit_stripped`]: crate::SimdEngine::commit_stripped

use crate::access::{Access, AccessKind, VarClass};
use crate::block::{meta_class, meta_kind, AccessBlock};
use crate::probe;
use crate::strip::{StrippedBlock, KEPT_GUARANTEED, KEPT_WRITE};
use core::fmt;

/// Geometry of a [`Cache`].
///
/// The policy is fixed: every cache evicts the least-recently-used line
/// of a set, and stores write back and allocate (a store miss fetches
/// its line like a load, then dirties it; a dirty eviction costs a line
/// of off-chip write traffic). Defaults (via
/// [`CacheConfig::paper_default`]) reproduce the paper's in-house
/// simulator: 32 KB, enough banks to feed a 256-bit SIMD engine every
/// cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes * ways`.
    pub capacity_bytes: u32,
    /// Cache line size in bytes (a power of two, at least 2).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// The configuration of the paper's in-house locality simulator:
    /// 32 KB, 64-byte lines, 8 ways.
    #[must_use]
    pub fn paper_default() -> CacheConfig {
        CacheConfig { capacity_bytes: 32 * 1024, line_bytes: 64, ways: 8 }
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
    /// Returns a description of the first violated constraint: line sizes
    /// must be powers of two of at least 2 bytes, capacities non-zero
    /// powers of two, and the capacity must divide evenly into `ways`
    /// lines per set.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.line_bytes < 2 || !self.line_bytes.is_power_of_two() {
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
    /// Line size was not a power of two of at least 2 bytes. A 1-byte
    /// line would make every `u64` a reachable line address, leaving the
    /// line buffer no value to mark a dead entry with.
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
                write!(f, "line size {n} must be a power of two of at least 2 bytes")
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
    /// Write accesses that missed (and filled a line).
    pub write_misses: u64,
    /// Bytes fetched from off-chip memory (line fills).
    pub offchip_read_bytes: u64,
    /// Bytes written to off-chip memory (dirty evictions).
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
/// choices and LRU stamps.
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
    /// Whether the line was written since its fill.
    pub dirty: bool,
    /// LRU timestamp: the tick of the line's last touch.
    pub stamp: u64,
}

const FLAG_VALID: u8 = 1;
const FLAG_DIRTY: u8 = 2;
/// Widest set the packed tag signature covers, one byte per way in a
/// `u64`; wider sets scan their ways.
const SIG_WAYS: usize = 8;

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
/// addresses are `addr >> line_shift`, and [`CacheConfig::validate`]
/// rejects 1-byte lines, so `line_shift >= 1` and this value is
/// unreachable.
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
}

/// Replay scratch: the slot each event of a [`StrippedBlock`] replay
/// resolved, by event ordinal. It is not cache state, so reset and
/// restore leave it alone and a clone (a batch-head snapshot) starts
/// without it.
#[derive(Default)]
struct EventSlots(Vec<u32>);

impl Clone for EventSlots {
    fn clone(&self) -> EventSlots {
        EventSlots::default()
    }
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
    /// Way-packed LRU timestamps.
    stamps: Box<[u64]>,
    /// Way-packed `FLAG_VALID | FLAG_DIRTY` bits.
    flags: Box<[u8]>,
    /// Packed per-set tag signatures (one byte per way, see the `probe`
    /// module docs); maintained whenever `ways <= SIG_WAYS`, empty
    /// otherwise.
    sig: Box<[u64]>,
    stats: CacheStats,
    tick: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    ways: usize,
    /// Line buffer: recently resolved line addresses and the packed slot
    /// holding each, grouped by [`VarClass`] (entries `class * LB_ASSOC`
    /// and `+ 1`, most recent first). An entry is only ever created from
    /// a real lookup or fill result and is killed (`addr = LB_DEAD`) when
    /// its slot is recycled, so a probe hit is exactly the slot a full
    /// lookup would find.
    lb_addr: [u64; LB_ENTRIES],
    lb_slot: [u32; LB_ENTRIES],
    /// How many live buffer entries reference each packed slot. Lets
    /// [`Cache::install`] skip the entry-killing sweep unless the recycled
    /// slot is actually referenced — and the LRU victim, being the least
    /// recently touched line, almost never is.
    lb_refs: Box<[u8]>,
    event_slots: EventSlots,
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
        let ways = config.ways as usize;
        Ok(Cache {
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: u64::from(sets - 1),
            ways,
            tags: vec![0; slots].into_boxed_slice(),
            stamps: vec![0; slots].into_boxed_slice(),
            flags: vec![0; slots].into_boxed_slice(),
            sig: vec![0; if ways <= SIG_WAYS { sets as usize } else { 0 }].into_boxed_slice(),
            stats: CacheStats::default(),
            tick: 0,
            lb_addr: [LB_DEAD; LB_ENTRIES],
            lb_slot: [0; LB_ENTRIES],
            lb_refs: vec![0; slots].into_boxed_slice(),
            event_slots: EventSlots::default(),
            config,
        })
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
    /// cache without allocating; the configuration stays this cache's
    /// own. Returns `false`, leaving this cache untouched, when `src` was
    /// built with a different configuration.
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

    /// Performs one access, splitting it across cache lines as needed:
    /// the reference path, with one full set lookup per touched line and
    /// no line buffer. [`Cache::access_soa`] over the same stream, packed,
    /// leaves identical counters and line states.
    pub fn access(&mut self, access: Access) {
        let (start_line, end_line) = access.line_span(self.line_shift);
        for line_addr in start_line..=end_line {
            self.tick += 1;
            self.access_line_slow(self.tick, line_addr, access.kind, access.class, false);
        }
    }

    /// Streams a packed [`AccessBlock`] through the cache in one pass.
    ///
    /// Equivalent, counter for counter and stamp for stamp, to
    /// [`Cache::access`] on each access the block was packed from, in
    /// order: the block's entries *are* the per-line sequence that path
    /// derives on the fly (splitting and `addr >> line_shift` happened at
    /// pack time), so the loop body is just the line-buffer probe over a
    /// dense `u64` stream — no struct striding and no span computation.
    /// The hot scalars ride in a by-value [`BlockState`] (an address-taken
    /// local would be pinned to its stack slot and re-loaded every
    /// iteration).
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
        let (addrs, meta) = block.parts();
        let mut st = BlockState { tick: self.tick, read_hits: 0, write_hits: 0 };
        for (&line_addr, &m) in addrs.iter().zip(meta) {
            st = self.block_line(st, line_addr, meta_kind(m), meta_class(m));
        }
        self.tick = st.tick;
        self.stats.read_hits += st.read_hits;
        self.stats.write_hits += st.write_hits;
    }

    /// Replays a [`StrippedBlock`]: counter for counter and stamp for
    /// stamp the same as [`Cache::access_soa`] over the block it was
    /// stripped from, from any start state (the `strip` module docs give
    /// the argument). Events take the full lookup at their own tick;
    /// a kept guaranteed hit stamps, and maybe dirties, the slot its
    /// line's last event resolved. The line buffer is neither probed nor
    /// filled.
    ///
    /// # Panics
    ///
    /// Panics if the block was stripped for another configuration.
    pub(crate) fn replay_stripped(&mut self, block: &StrippedBlock) {
        assert_eq!(
            block.config(),
            &self.config,
            "block stripped for {:?} replayed on {:?}",
            block.config(),
            self.config,
        );
        let start = self.tick;
        let mut slots = core::mem::take(&mut self.event_slots.0);
        slots.clear();
        slots.reserve(block.events as usize);
        for ((&line, &offset), &m) in block.lines.iter().zip(&block.offsets).zip(&block.meta) {
            let tick = start + offset;
            if m & KEPT_GUARANTEED != 0 {
                let slot = slots[line as usize] as usize;
                if m & KEPT_WRITE != 0 {
                    self.flags[slot] |= FLAG_DIRTY;
                }
                self.stamps[slot] = tick;
            } else {
                let kind = if m & KEPT_WRITE != 0 { AccessKind::Write } else { AccessKind::Read };
                slots.push(self.lookup(tick, line, kind) as u32);
            }
        }
        self.event_slots.0 = slots;
        self.tick = start + block.entries();
        self.stats.read_hits += block.read_hits;
        self.stats.write_hits += block.write_hits;
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
    fn block_line(
        &mut self,
        mut st: BlockState,
        line_addr: u64,
        kind: AccessKind,
        class: VarClass,
    ) -> BlockState {
        st.tick += 1;
        let g = class as usize * LB_ASSOC;
        let slot = if self.lb_addr[g] == line_addr {
            self.lb_slot[g] as usize
        } else if self.lb_addr[g + 1] == line_addr {
            self.lb_slot[g + 1] as usize
        } else {
            self.access_line_slow(st.tick, line_addr, kind, class, true);
            return st;
        };
        match kind {
            AccessKind::Read => st.read_hits += 1,
            AccessKind::Write => {
                st.write_hits += 1;
                // Check-before-set: repeated stores to a dirty line are
                // the common case, and a predicted branch beats a
                // read-modify-write store chain.
                if self.flags[slot] & FLAG_DIRTY == 0 {
                    self.flags[slot] |= FLAG_DIRTY;
                }
            }
        }
        self.stamps[slot] = st.tick;
        st
    }

    /// Full set resolution, [`Cache::lookup`], whose resolved slot
    /// `insert_lb` feeds to the line buffer (false on the
    /// [`Cache::access`] reference path).
    #[inline]
    fn access_line_slow(
        &mut self,
        tick: u64,
        line_addr: u64,
        kind: AccessKind,
        class: VarClass,
        insert_lb: bool,
    ) {
        let slot = self.lookup(tick, line_addr, kind);
        if insert_lb {
            self.lb_insert(line_addr, slot, class);
        }
    }

    /// Full set resolution: the hit bookkeeping, or the miss/fill
    /// transition. Both kinds fill on a miss (write-allocate), and a
    /// store dirties its line. Returns the packed slot now holding the
    /// line.
    #[inline]
    fn lookup(&mut self, tick: u64, line_addr: u64, kind: AccessKind) -> usize {
        let set_idx = (line_addr & self.set_mask) as usize;
        let base = set_idx * self.ways;
        let tag = line_addr >> self.set_bits;
        let hit = self.probe_hit(set_idx, base, tag);
        if hit == usize::MAX {
            match kind {
                AccessKind::Read => self.stats.read_misses += 1,
                AccessKind::Write => self.stats.write_misses += 1,
            }
            self.stats.offchip_read_bytes += u64::from(self.config.line_bytes);
            self.install(tick, set_idx, base, tag, kind == AccessKind::Write)
        } else {
            let slot = base + hit;
            match kind {
                AccessKind::Read => self.stats.read_hits += 1,
                AccessKind::Write => {
                    self.stats.write_hits += 1;
                    self.flags[slot] |= FLAG_DIRTY;
                }
            }
            self.stamps[slot] = tick;
            slot
        }
    }

    /// Resolves the hit way, returning `usize::MAX` on a miss: the SWAR
    /// signature match where the set has one, a way scan beyond. The
    /// victim way is *not* computed here — only misses need one, and they
    /// pay for it lazily in [`Cache::install`].
    #[inline]
    fn probe_hit(&self, set_idx: usize, base: usize, tag: u64) -> usize {
        let tags = &self.tags[base..base + self.ways];
        if self.ways <= SIG_WAYS {
            return probe::swar_hit(self.sig[set_idx], tags, tag);
        }
        let flags = &self.flags[base..base + self.ways];
        (0..self.ways).find(|&w| flags[w] & FLAG_VALID != 0 && tags[w] == tag).unwrap_or(usize::MAX)
    }

    /// Selects the victim way for a miss: an invalid way when
    /// one exists, else the first-minimum-stamp resident.
    #[inline]
    fn victim_way(&self, base: usize) -> usize {
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

    /// Installs `tag` on the set's victim way: an invalid way when one
    /// exists (those win the stamp reduction outright), else the
    /// first-minimum-stamp resident (matching how `Iterator::min_by_key`
    /// resolves ties), which is evicted. Returns the recycled packed slot.
    #[inline]
    fn install(&mut self, tick: u64, set_idx: usize, base: usize, tag: u64, dirty: bool) -> usize {
        let victim = self.victim_way(base);
        let slot = base + victim;
        if self.ways <= SIG_WAYS {
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
        for line_bytes in [0, 1, 48] {
            bad.line_bytes = line_bytes;
            assert_eq!(bad.validate(), Err(CacheConfigError::BadLineSize(line_bytes)));
        }
        bad.line_bytes = 2;
        bad.capacity_bytes = 2 * 8 * 4;
        assert!(bad.validate().is_ok(), "2-byte lines are the smallest valid size");
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
        let cfg = CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 2 };
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
    fn write_back_dirty_eviction_costs_traffic() {
        let cfg = CacheConfig { capacity_bytes: 128, line_bytes: 64, ways: 1 };
        let mut c = Cache::new(cfg).unwrap();
        c.access(write(0, 4)); // miss: fetch 64, dirty
        assert_eq!(c.stats().offchip_read_bytes, 64);
        assert_eq!(c.stats().offchip_write_bytes, 0);
        c.access(read(128, 4)); // maps to set 0, evicts dirty line
        assert_eq!(c.stats().offchip_write_bytes, 64);
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

    /// Replays a stream through [`Cache::access`] one access at a time
    /// and through [`Cache::access_soa`] packed one op per access, and
    /// asserts identical stats and line states.
    fn assert_paths_agree(cfg: &CacheConfig, stream: &[Access]) {
        let mut reference = Cache::new(cfg.clone()).unwrap();
        for &a in stream {
            reference.access(a);
        }
        let mut block = AccessBlock::new(cfg.line_bytes);
        for a in stream {
            block.push_op(core::slice::from_ref(a));
        }
        let mut soa = Cache::new(cfg.clone()).unwrap();
        soa.access_soa(&block);
        assert_eq!(soa.stats(), reference.stats());
        assert_eq!(soa.line_states(), reference.line_states());
    }

    #[test]
    fn paths_agree_on_interleaved_streams() {
        // The kernels' shape: two interleaved read streams plus an output
        // stream, with enough distinct lines to force evictions.
        let cfg = CacheConfig { capacity_bytes: 2048, line_bytes: 64, ways: 4 };
        let mut stream = Vec::new();
        for i in 0..512u64 {
            stream.push(read(0x1000 + (i % 64) * 32, 32));
            stream.push(read(0x9000 + i * 32, 32));
            if i % 8 == 7 {
                stream.push(write(0x20000 + i * 4, 4));
            }
        }
        assert_paths_agree(&cfg, &stream);
    }

    #[test]
    fn same_line_runs_agree() {
        // Long same-line runs (line-buffer hits on the SoA pass) of both
        // kinds, including line-crossing breaks mid-stream.
        let cfg = CacheConfig { capacity_bytes: 512, line_bytes: 64, ways: 2 };
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
        assert_paths_agree(&cfg, &stream);
    }

    #[test]
    fn line_buffer_entries_die_with_their_slot() {
        // Direct-mapped 2-line cache: alternating lines that map to the
        // same set constantly recycle slots; a stale buffer entry would
        // turn a miss into a hit and diverge from the reference path.
        let cfg = CacheConfig { capacity_bytes: 128, line_bytes: 64, ways: 1 };
        let mut stream = Vec::new();
        for i in 0..64u64 {
            stream.push(read((i % 3) * 128, 8));
            stream.push(write((i % 5) * 128, 8));
        }
        assert_paths_agree(&cfg, &stream);
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
