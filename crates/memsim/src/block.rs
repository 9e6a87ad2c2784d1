//! `AccessBlock`: the structure-of-arrays flattened trace the batched
//! pipeline streams through the cache.
//!
//! The original batched path buffered `Vec<Access>` — 24 bytes per
//! element with `addr`/`bytes`/`kind`/`class` interleaved, so the block
//! pass strides through structs and re-derives each access's line span
//! (shift, add, compare, branch) inside the hot loop. An [`AccessBlock`]
//! does that work once, at pack time:
//!
//! * **line splitting** — an access crossing a line boundary becomes one
//!   entry per touched line, so the cache pass never computes a span;
//! * **address pre-split** — each entry stores the *line address*
//!   (`addr >> line_shift`). A line address is exactly the packed
//!   `(set, tag)` pair — `set = line_addr & set_mask`,
//!   `tag = line_addr >> set_bits` — so the probe's set/tag extraction
//!   is a mask and a shift off a dense `u64` stream. Storing the line
//!   address rather than separate set/tag arrays keeps a packed block
//!   valid for any set count with the same line size;
//! * **dense layout** — three packed arrays (`u64` line addresses,
//!   `u32` byte counts, one `u8` packing kind+class), 13 bytes per
//!   entry instead of 24, with the `bytes` array only read on the
//!   write-around policy (see [`Cache::access_soa`]).
//!
//! Equivalence contract: iterating a block's entries in order yields the
//! exact per-line access sequence [`Cache::access`] would perform on the
//! original stream — same tick order, same counters, same stamps — which
//! is what keeps every sha-pinned report byte-identical.
//!
//! [`Cache::access`]: crate::Cache::access
//! [`Cache::access_soa`]: crate::Cache::access_soa

use crate::access::{Access, AccessKind, VarClass};

/// Bit 0 of a packed meta byte: set for writes.
const META_WRITE: u8 = 1;

/// Decode table for bits 2..1 of a packed meta byte. Indexing a const
/// table is branch-free and keeps the discriminants in one place (the
/// encode side uses `class as u8`, whose values Rust assigns in
/// declaration order).
const META_CLASSES: [VarClass; 4] =
    [VarClass::Hot, VarClass::Cold, VarClass::Output, VarClass::Stream];

/// Packs an access's kind and class into one meta byte.
#[inline]
fn meta_of(kind: AccessKind, class: VarClass) -> u8 {
    ((class as u8) << 1) | (kind == AccessKind::Write) as u8
}

/// Decodes the kind bit of a meta byte.
#[inline]
pub(crate) fn meta_kind(meta: u8) -> AccessKind {
    if meta & META_WRITE != 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Decodes the class bits of a meta byte.
#[inline]
pub(crate) fn meta_class(meta: u8) -> VarClass {
    META_CLASSES[(meta >> 1) as usize & 3]
}

/// A flattened trace block in structure-of-arrays layout, pre-split into
/// per-line touches for one specific line size.
///
/// Built by the batching sinks ([`BatchSink`]) via [`AccessBlock::push_op`]
/// and consumed whole by [`SimdEngine::commit_block`] /
/// [`Cache::access_soa`].
///
/// [`BatchSink`]: crate::BatchSink
/// [`SimdEngine::commit_block`]: crate::SimdEngine::commit_block
/// [`Cache::access_soa`]: crate::Cache::access_soa
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessBlock {
    /// `log2(line_bytes)` of the cache this block was packed for.
    line_shift: u32,
    /// SIMD operations flattened into this block (the cycle charge).
    ops: u64,
    /// Line address (`addr >> line_shift`) of each per-line touch.
    addrs: Vec<u64>,
    /// Original access width of each touch (only consumed by the
    /// write-around policy, which charges `min(bytes, line_bytes)` per
    /// touched line exactly like the scalar splitter).
    bytes: Vec<u32>,
    /// `(class << 1) | write_bit` of each touch.
    meta: Vec<u8>,
}

impl AccessBlock {
    /// An empty block packed for `line_bytes`-sized cache lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero or not a power of two (the same
    /// constraint [`CacheConfig::validate`] enforces).
    ///
    /// [`CacheConfig::validate`]: crate::CacheConfig::validate
    #[must_use]
    pub fn new(line_bytes: u32) -> AccessBlock {
        AccessBlock::with_capacity(line_bytes, 0)
    }

    /// [`AccessBlock::new`] with pre-allocated room for `capacity`
    /// per-line entries.
    #[must_use]
    pub fn with_capacity(line_bytes: u32, capacity: usize) -> AccessBlock {
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size {line_bytes} must be a non-zero power of two"
        );
        AccessBlock {
            line_shift: line_bytes.trailing_zeros(),
            ops: 0,
            addrs: Vec::with_capacity(capacity),
            bytes: Vec::with_capacity(capacity),
            meta: Vec::with_capacity(capacity),
        }
    }

    /// The line size this block's entries were split against.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// SIMD operations flattened into the block so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Per-line entries packed so far (>= the access count: line-crossing
    /// accesses contribute one entry per touched line).
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the block holds no entries *and* no pending op charge.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty() && self.ops == 0
    }

    /// Drops all entries and the op count, keeping the line size and the
    /// allocations (the recycling path in `batch` depends on this).
    pub fn clear(&mut self) {
        self.ops = 0;
        self.addrs.clear();
        self.bytes.clear();
        self.meta.clear();
    }

    /// [`AccessBlock::clear`] plus re-arming for a (possibly different)
    /// line size, with the same validity requirement as
    /// [`AccessBlock::new`].
    pub fn rearm(&mut self, line_bytes: u32) {
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size {line_bytes} must be a non-zero power of two"
        );
        self.clear();
        self.line_shift = line_bytes.trailing_zeros();
    }

    /// Flattens one SIMD operation's operand accesses into the block,
    /// splitting each across lines exactly like [`Cache::access`] does.
    ///
    /// Same-line operands are the overwhelmingly common case (a 32-byte
    /// SIMD operand in a 64-byte line), so the hot path is a branchless
    /// crossing check over the whole op followed by three exact-size
    /// iterator extends — one reserve per column, no per-element
    /// capacity branches. Crossing ops take the scalar expansion loop.
    ///
    /// [`Cache::access`]: crate::Cache::access
    #[inline]
    pub fn push_op(&mut self, operands: &[Access]) {
        self.ops += 1;
        let shift = self.line_shift;
        // The crossing check rides inside the address-column extend, so
        // the optimistic pack is one pass over the operands per column.
        let mut crossing = false;
        let base = self.addrs.len();
        self.addrs.extend(operands.iter().map(|a| {
            let (start, end) = a.line_span(shift);
            crossing |= end != start;
            start
        }));
        if crossing {
            self.addrs.truncate(base);
            self.push_op_crossing(operands);
        } else {
            self.bytes.extend(operands.iter().map(|a| a.bytes));
            self.meta.extend(operands.iter().map(|a| meta_of(a.kind, a.class)));
        }
    }

    /// The expansion loop for ops with at least one line-crossing
    /// operand: one entry per touched line, in address order.
    #[cold]
    fn push_op_crossing(&mut self, operands: &[Access]) {
        for a in operands {
            let m = meta_of(a.kind, a.class);
            let (start_line, end_line) = a.line_span(self.line_shift);
            for line_addr in start_line..=end_line {
                self.addrs.push(line_addr);
                self.bytes.push(a.bytes);
                self.meta.push(m);
            }
        }
    }

    /// Appends every entry (and the op charge) of `other`. Used by the
    /// serving layer's trace-template cache to splice flushed chunks into
    /// one replayable arena block.
    ///
    /// # Panics
    ///
    /// Panics if the blocks were packed for different line sizes — their
    /// entries would not describe the same per-line sequence.
    pub fn extend_from_block(&mut self, other: &AccessBlock) {
        assert_eq!(
            self.line_shift, other.line_shift,
            "cannot splice blocks packed for different line sizes"
        );
        self.ops += other.ops;
        self.addrs.extend_from_slice(&other.addrs);
        self.bytes.extend_from_slice(&other.bytes);
        self.meta.extend_from_slice(&other.meta);
    }

    /// The per-line touches in pack order, decoded — the reference view
    /// the differential tests compare against a scalar split.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u32, AccessKind, VarClass)> + '_ {
        self.addrs
            .iter()
            .zip(&self.bytes)
            .zip(&self.meta)
            .map(|((&addr, &bytes), &m)| (addr, bytes, meta_kind(m), meta_class(m)))
    }

    /// Heap bytes behind the packed arrays (capacity, not length) — the
    /// arena-budget accounting the trace-template cache uses.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.addrs.capacity() * core::mem::size_of::<u64>()
            + self.bytes.capacity() * core::mem::size_of::<u32>()
            + self.meta.capacity()
    }

    /// The raw packed arrays, for the cache's SoA pass.
    #[inline]
    pub(crate) fn parts(&self) -> (&[u64], &[u32], &[u8]) {
        (&self.addrs, &self.bytes, &self.meta)
    }

    /// `log2(line_bytes)`, for the pass's geometry check.
    #[inline]
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Addr;

    #[test]
    fn pack_splits_lines_like_the_scalar_path() {
        let mut b = AccessBlock::new(64);
        b.push_op(&[
            Access::read(Addr(0), 32, VarClass::Hot),
            Access::write(Addr(48), 32, VarClass::Output), // lines 0 and 1
        ]);
        b.push_op(&[Access::read(Addr(130), 0, VarClass::Stream)]); // 0 bytes -> 1 touch
        assert_eq!(b.ops(), 2);
        let got: Vec<_> = b.entries().collect();
        assert_eq!(
            got,
            vec![
                (0, 32, AccessKind::Read, VarClass::Hot),
                (0, 32, AccessKind::Write, VarClass::Output),
                (1, 32, AccessKind::Write, VarClass::Output),
                (2, 0, AccessKind::Read, VarClass::Stream),
            ]
        );
    }

    #[test]
    fn meta_round_trips_every_kind_and_class() {
        for kind in [AccessKind::Read, AccessKind::Write] {
            for class in [VarClass::Hot, VarClass::Cold, VarClass::Output, VarClass::Stream] {
                let m = meta_of(kind, class);
                assert_eq!(meta_kind(m), kind);
                assert_eq!(meta_class(m), class);
            }
        }
    }

    #[test]
    fn clear_keeps_capacity_and_line_size() {
        let mut b = AccessBlock::with_capacity(64, 128);
        b.push_op(&[Access::read(Addr(0), 32, VarClass::Hot)]);
        let cap_bytes = b.heap_bytes();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.line_bytes(), 64);
        assert_eq!(b.heap_bytes(), cap_bytes);
    }

    #[test]
    fn extend_splices_entries_and_ops() {
        let mut a = AccessBlock::new(64);
        a.push_op(&[Access::read(Addr(0), 32, VarClass::Hot)]);
        let mut b = AccessBlock::new(64);
        b.push_op(&[Access::write(Addr(64), 4, VarClass::Output)]);
        b.push_op(&[Access::read(Addr(128), 4, VarClass::Cold)]);
        a.extend_from_block(&b);
        assert_eq!(a.ops(), 3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.entries().count(), 3);
    }

    #[test]
    #[should_panic(expected = "different line sizes")]
    fn extend_rejects_mismatched_line_sizes() {
        let mut a = AccessBlock::new(64);
        a.extend_from_block(&AccessBlock::new(32));
    }

    #[test]
    fn rearm_changes_the_split_geometry() {
        let mut b = AccessBlock::new(64);
        b.push_op(&[Access::read(Addr(48), 32, VarClass::Hot)]); // crosses at 64B
        assert_eq!(b.len(), 2);
        b.rearm(128);
        b.push_op(&[Access::read(Addr(48), 32, VarClass::Hot)]); // fits in 128B
        assert_eq!(b.len(), 1);
        assert_eq!(b.line_bytes(), 128);
    }
}
