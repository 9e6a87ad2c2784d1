//! `StrippedBlock`: a recorded [`AccessBlock`] with its guaranteed hits
//! taken out, for one cache geometry.
//!
//! A trace that is replayed many times (the serving fleet's
//! `(phase, tier)` templates) spends most of its entries re-touching
//! lines that cannot have left the cache since their last touch. Under
//! LRU that is decidable from the block alone, whatever the cache held
//! before it: the stack property of Mattson et al. (1970), which Puzak's
//! trace stripping (1985) exploits.
//!
//! # The argument
//!
//! Call an entry of the block a *guaranteed hit* when its line was
//! touched earlier in the block and fewer than `ways` distinct other
//! lines of its set were touched since. Every touch leaves its line
//! resident (a hit keeps it, a miss installs it), and stamps it with a
//! tick later than every stamp already in the cache. So from the line's
//! last touch on, the only lines of its set stamped after it are the
//! distinct other lines touched since, fewer than `ways`. A miss in the
//! set in between is itself one of those lines, and it is not resident
//! when it misses, so at most `ways - 2` resident lines are newer than
//! ours. A victim is an invalid way (stamp 0) if the set has one, else
//! the oldest stamp of a full set of `ways` lines, which needs `ways - 1`
//! newer lines. So the line is never the victim, and the touch hits, from
//! any start state.
//!
//! Every other entry is an *event*: a full set lookup that may miss and
//! evict. Between two events of a set, the set's guaranteed hits change
//! nothing but their lines' stamps and dirty bits and the hit counters,
//! and the next event reads those stamps only through the victim choice.
//! So the stripped form keeps:
//!
//! - every event, with its line address, its kind and its tick offset;
//! - of the guaranteed hits, one entry per line per *window* (the entries
//!   between two events of the line's set, or after the set's last
//!   event): it carries the tick offset of the line's last touch in the
//!   window and whether any touch in the window wrote. It sits where the
//!   window's first touch of the line was; moving the stamp earlier is
//!   invisible, since no event of the set reads it in between.
//!
//! Every guaranteed hit, kept or dropped, is counted once, at strip
//! time, as a read hit or a write hit.
//!
//! Replay ([`SimdEngine::commit_stripped`]) walks the kept entries with
//! the tick of each at `start tick + its offset`. An event does the full
//! lookup at its tick and records the slot it resolved. A guaranteed
//! entry takes its slot from the event that last looked up its line: the
//! line has not moved since, by the argument above. It stamps that slot
//! and, if its window wrote, dirties it. At the end the tick advances by
//! the block's full length and the two hit counts are added. So the
//! counters and line states (tags, dirty bits, stamps) equal
//! [`Cache::access_soa`]'s over the whole block from any start state.
//!
//! Replay reads and fills no line-buffer entry, but an event's fill kills
//! the entries of the slot it recycles as in every other pass, so the
//! buffer stays truthful for the next [`Cache::access_soa`].
//!
//! Stripping is one pass over the block with a shadow LRU stack of
//! `ways` lines per set: `O(entries × ways)`, no hashing, and one
//! allocation of one shadow entry per cache line, not per block entry.
//!
//! [`SimdEngine::commit_stripped`]: crate::SimdEngine::commit_stripped
//! [`Cache::access_soa`]: crate::Cache::access_soa

use crate::access::AccessKind;
use crate::block::{meta_kind, AccessBlock};
use crate::cache::{CacheConfig, CacheConfigError};

/// Bit 0 of a kept entry's meta byte: the entry writes (an event's kind,
/// or any write folded into a guaranteed entry).
pub(crate) const KEPT_WRITE: u8 = 1;
/// Bit 1 of a kept entry's meta byte: the entry is a guaranteed hit, and
/// its `lines` value is the ordinal of the event that last looked up its
/// line instead of a line address.
pub(crate) const KEPT_GUARANTEED: u8 = 2;

/// Bytes one kept entry occupies across the three columns.
const BYTES_PER_KEPT: usize = 2 * core::mem::size_of::<u64>() + core::mem::size_of::<u8>();

/// Marks an empty shadow way; unreachable as a line address, since
/// [`CacheConfig::validate`] rejects 1-byte lines.
const SHADOW_EMPTY: u64 = u64::MAX;
/// Marks a shadow line with no kept guaranteed entry in its window.
const NO_ENTRY: usize = usize::MAX;

/// One line of a set's shadow LRU stack during stripping.
#[derive(Clone, Copy)]
struct Shadow {
    line: u64,
    /// Ordinal of the event that last looked this line up.
    event: u64,
    /// Index of the line's kept guaranteed entry in the current window.
    entry: usize,
}

/// A recorded [`AccessBlock`] stripped of its guaranteed hits for one
/// [`CacheConfig`]; see the module docs for what is kept and why replay
/// is exact.
///
/// Replay it with [`SimdEngine::commit_stripped`] on an engine of the
/// same configuration.
///
/// # Examples
///
/// ```
/// use pudiannao_memsim::{
///     Access, AccessBlock, Addr, CacheConfig, SimdEngine, StrippedBlock, VarClass,
/// };
///
/// let cfg = CacheConfig::paper_default();
/// let mut block = AccessBlock::new(cfg.line_bytes);
/// for i in 0..64 {
///     block.push_op(&[Access::read(Addr(i % 8 * 4), 4, VarClass::Hot)]);
/// }
/// let stripped = StrippedBlock::new(&block, &cfg)?;
/// // One line: its first touch may miss, and one entry stands for the 63 hits.
/// assert_eq!(stripped.len(), 2);
///
/// let (mut full, mut replayed) = (SimdEngine::new(cfg.clone())?, SimdEngine::new(cfg)?);
/// full.commit_block(&block);
/// replayed.commit_stripped(&stripped);
/// assert_eq!(full.report(), replayed.report());
/// assert_eq!(full.cache().line_states(), replayed.cache().line_states());
/// # Ok::<(), pudiannao_memsim::CacheConfigError>(())
/// ```
///
/// [`SimdEngine::commit_stripped`]: crate::SimdEngine::commit_stripped
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrippedBlock {
    config: CacheConfig,
    /// The recorded block's op count (the cycle charge).
    ops: u64,
    /// The recorded block's entry count (the tick advance).
    entries: u64,
    /// Guaranteed read hits and write hits, kept or dropped.
    pub(crate) read_hits: u64,
    pub(crate) write_hits: u64,
    /// Events kept (the replay's slot-scratch length).
    pub(crate) events: u64,
    /// An event's line address, or a guaranteed entry's event ordinal.
    pub(crate) lines: Vec<u64>,
    /// Tick offset of each kept entry from the replay's start tick.
    pub(crate) offsets: Vec<u64>,
    /// `KEPT_WRITE | KEPT_GUARANTEED` bits of each kept entry.
    pub(crate) meta: Vec<u8>,
}

impl StrippedBlock {
    /// Strips `block` for caches of `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheConfig::validate`] failures.
    ///
    /// # Panics
    ///
    /// Panics if `block` was packed for another line size than
    /// `config`'s.
    pub fn new(
        block: &AccessBlock,
        config: &CacheConfig,
    ) -> Result<StrippedBlock, CacheConfigError> {
        config.validate()?;
        assert_eq!(
            block.line_bytes(),
            config.line_bytes,
            "block packed for {}-byte lines stripped for {}-byte lines",
            block.line_bytes(),
            config.line_bytes,
        );
        let ways = config.ways as usize;
        let set_mask = u64::from(config.sets() - 1);
        let empty = Shadow { line: SHADOW_EMPTY, event: 0, entry: NO_ENTRY };
        // Per set, its last `ways` distinct lines, most recent first.
        let mut shadow = vec![empty; config.sets() as usize * ways];
        let mut out = StrippedBlock {
            config: config.clone(),
            ops: block.ops(),
            entries: block.len() as u64,
            read_hits: 0,
            write_hits: 0,
            events: 0,
            lines: Vec::new(),
            offsets: Vec::new(),
            meta: Vec::new(),
        };
        let (addrs, meta) = block.parts();
        for (offset, (&line, &m)) in (1u64..).zip(addrs.iter().zip(meta)) {
            let write = meta_kind(m) == AccessKind::Write;
            let set = (line & set_mask) as usize * ways;
            let stack = &mut shadow[set..set + ways];
            let Some(depth) = stack.iter().position(|s| s.line == line) else {
                // An event: it closes the window of every line in its set.
                for s in stack.iter_mut() {
                    s.entry = NO_ENTRY;
                }
                stack.copy_within(..ways - 1, 1);
                stack[0] = Shadow { line, event: out.events, entry: NO_ENTRY };
                out.events += 1;
                out.push(line, offset, u8::from(write));
                continue;
            };
            if write {
                out.write_hits += 1;
            } else {
                out.read_hits += 1;
            }
            let mut s = stack[depth];
            if s.entry == NO_ENTRY {
                s.entry = out.lines.len();
                out.push(s.event, offset, KEPT_GUARANTEED | u8::from(write));
            } else {
                // A later touch in the same window: fold it into the kept one.
                out.offsets[s.entry] = offset;
                out.meta[s.entry] |= u8::from(write);
            }
            stack.copy_within(..depth, 1);
            stack[0] = s;
        }
        out.lines.shrink_to_fit();
        out.offsets.shrink_to_fit();
        out.meta.shrink_to_fit();
        Ok(out)
    }

    fn push(&mut self, line: u64, offset: u64, meta: u8) {
        self.lines.push(line);
        self.offsets.push(offset);
        self.meta.push(meta);
    }

    /// The configuration this block was stripped for; replay needs an
    /// engine of exactly this configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// SIMD operations of the recorded block (the cycle charge).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Per-line entries of the recorded block (the tick advance).
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Kept entries: every event plus one guaranteed entry per line and
    /// window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no entry was kept (the recorded block had none).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Bytes the kept entries occupy: [`StrippedBlock::len`] × 17 (a
    /// `u64` line or event ordinal, a `u64` tick offset and a meta
    /// byte), a pure function of the recorded trace and the geometry.
    /// The serving layer's trace-template cache budgets with it.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.len() * BYTES_PER_KEPT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, Addr, VarClass};

    fn block(line_bytes: u32, touches: &[(u64, bool)]) -> AccessBlock {
        let mut b = AccessBlock::new(line_bytes);
        for &(line, write) in touches {
            let addr = Addr(line * u64::from(line_bytes));
            let a = if write {
                Access::write(addr, 1, VarClass::Output)
            } else {
                Access::read(addr, 1, VarClass::Hot)
            };
            b.push_op(&[a]);
        }
        b
    }

    #[test]
    fn keeps_events_and_one_guaranteed_entry_per_line_and_window() {
        // One set of two ways: lines 0, 1 and 2 share it.
        let cfg = CacheConfig { capacity_bytes: 128, line_bytes: 64, ways: 2 };
        let touches = [
            (0, false), // event 0
            (1, false), // event 1
            (0, true),  // guaranteed, kept: 0's window entry
            (1, false), // guaranteed, kept: 1's window entry
            (0, false), // guaranteed, folded into 0's entry
            (2, false), // event 2: a line new to the block
            (0, false), // guaranteed (only 2 touched since), new window
            (1, false), // event 3: 0 and 2 touched since
        ];
        let s = StrippedBlock::new(&block(64, &touches), &cfg).unwrap();
        let kept: Vec<_> =
            s.lines.iter().zip(&s.offsets).zip(&s.meta).map(|((&l, &o), &m)| (l, o, m)).collect();
        let g = KEPT_GUARANTEED;
        assert_eq!(
            kept,
            vec![(0, 1, 0), (1, 2, 0), (0, 5, g | 1), (1, 4, g), (2, 6, 0), (0, 7, g), (1, 8, 0)]
        );
        assert_eq!((s.read_hits, s.write_hits, s.events), (3, 1, 4));
        assert_eq!((s.entries(), s.ops(), s.len(), s.bytes()), (8, 8, 7, 7 * 17));
    }

    #[test]
    fn one_way_sets_keep_only_runs_of_one_line() {
        let cfg = CacheConfig { capacity_bytes: 64, line_bytes: 64, ways: 1 };
        let touches = [(0, false), (0, true), (0, false), (1, false), (0, false), (0, false)];
        let s = StrippedBlock::new(&block(64, &touches), &cfg).unwrap();
        assert_eq!(s.len(), 5, "events 0, 1, 0 and one window entry per run of line 0");
        assert_eq!((s.read_hits, s.write_hits, s.events), (2, 1, 3));
    }

    #[test]
    fn invalid_configs_are_refused() {
        let cfg = CacheConfig { capacity_bytes: 1000, line_bytes: 64, ways: 2 };
        let err = StrippedBlock::new(&AccessBlock::new(64), &cfg).unwrap_err();
        assert!(matches!(err, CacheConfigError::BadCapacity(1000)));
    }

    #[test]
    #[should_panic(expected = "stripped for 32-byte lines")]
    fn another_line_size_is_refused() {
        let cfg = CacheConfig { capacity_bytes: 1024, line_bytes: 32, ways: 2 };
        let _ = StrippedBlock::new(&AccessBlock::new(64), &cfg);
    }
}
