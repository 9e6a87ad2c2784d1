//! Differential suite pinning memsim's two cache paths to a reference
//! model: [`Cache::access`], one access at a time, and
//! [`Cache::access_soa`], the production pass over packed
//! [`AccessBlock`]s that [`SimdEngine::commit_block`] runs.
//!
//! The reference below is an independent reimplementation in the style the
//! simulator started from: one `Vec<Vec<RefLine>>` of per-set line
//! structs, a linear scan per access, and a first-invalid-then-lowest-stamp
//! victim. Comparing [`Cache::line_states`] snapshots, not just counters,
//! pins every victim choice and every LRU/FIFO stamp, so a shortcut that
//! changed one replacement decision fails here even when the aggregate
//! statistics happen to agree.
//!
//! Every property runs each case on every geometry below:
//! - ways 1, 2, 3, 4, 5, 8, 16 and 24: the SWAR probe up to 8 ways and the
//!   way scan beyond, the tree victim select for 2/4/8 and the generic one
//!   otherwise;
//! - 1, 2, 4 and 8 sets;
//! - 1-, 16- and 64-byte lines (1-byte lines switch off the SoA pass's line
//!   buffer);
//! - LRU and FIFO, each with write-back and with write-around.
//!
//! Accesses of 0–96 bytes fall in a window of [`WINDOW_LINES`] lines, so
//! they cross lines and the small caches recycle slots constantly.

use proptest::prelude::*;
use pudiannao::memsim::{
    Access, AccessBlock, AccessKind, Addr, Cache, CacheConfig, CacheStats, ReplacementPolicy,
    ReuseProfiler, SimdEngine, VarClass, WritePolicy,
};

const WAYS: [u32; 8] = [1, 2, 3, 4, 5, 8, 16, 24];
const SETS: [u32; 4] = [1, 2, 4, 8];
const LINE_BYTES: [u32; 3] = [1, 16, 64];
const CLASSES: [VarClass; 4] = [VarClass::Hot, VarClass::Cold, VarClass::Output, VarClass::Stream];
/// Lines an access may start in. The largest geometry holds 192 lines
/// and the smallest one, so some caches hold the whole window and others
/// thrash.
const WINDOW_LINES: u64 = 48;

/// Every geometry of the module docs, 384 in all.
fn every_geometry() -> impl Iterator<Item = CacheConfig> {
    let policies = [
        (ReplacementPolicy::Lru, WritePolicy::WriteBackAllocate),
        (ReplacementPolicy::Lru, WritePolicy::WriteAroundNoAllocate),
        (ReplacementPolicy::Fifo, WritePolicy::WriteBackAllocate),
        (ReplacementPolicy::Fifo, WritePolicy::WriteAroundNoAllocate),
    ];
    WAYS.into_iter().flat_map(move |ways| {
        SETS.into_iter().flat_map(move |sets| {
            LINE_BYTES.into_iter().flat_map(move |line_bytes| {
                policies.into_iter().map(move |(replacement, write_policy)| CacheConfig {
                    capacity_bytes: line_bytes * ways * sets,
                    line_bytes,
                    ways,
                    replacement,
                    write_policy,
                })
            })
        })
    })
}

#[derive(Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// The reference cache: per-set line vectors, a linear scan per touched
/// line, no line buffer and no packed signature.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<RefLine>>,
    stats: CacheStats,
    tick: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
}

/// `(set, way, tag if valid, valid, dirty, stamp)` per line.
type LineStates = Vec<(u32, u32, u64, bool, bool, u64)>;

/// First and last line of `a`, in the reference's own code: the end is
/// computed in 128 bits, and an access running past `u64::MAX` stops at
/// the top of the address space.
fn ref_line_span(a: &Access, line_shift: u32) -> (u64, u64) {
    let end = u128::from(a.addr.0) + u128::from(a.bytes.max(1)) - 1;
    let last = u64::try_from(end).unwrap_or(u64::MAX);
    (a.addr.0 >> line_shift, last >> line_shift)
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> RefCache {
        let sets = cfg.sets();
        RefCache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: u64::from(sets - 1),
            sets: vec![vec![RefLine::default(); cfg.ways as usize]; sets as usize],
            stats: CacheStats::default(),
            tick: 0,
            cfg: cfg.clone(),
        }
    }

    fn access(&mut self, a: &Access) {
        let (start, end) = ref_line_span(a, self.line_shift);
        for line_addr in start..=end {
            self.tick += 1;
            self.access_line(line_addr, a.kind, a.bytes);
        }
    }

    fn access_line(&mut self, line_addr: u64, kind: AccessKind, bytes: u32) {
        let line_bytes = u64::from(self.cfg.line_bytes);
        let tag = line_addr >> self.set_bits;
        let set = &mut self.sets[(line_addr & self.set_mask) as usize];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            match kind {
                AccessKind::Read => self.stats.read_hits += 1,
                AccessKind::Write => {
                    self.stats.write_hits += 1;
                    match self.cfg.write_policy {
                        WritePolicy::WriteBackAllocate => line.dirty = true,
                        WritePolicy::WriteAroundNoAllocate => {
                            self.stats.offchip_write_bytes += u64::from(bytes).min(line_bytes);
                        }
                    }
                }
            }
            if self.cfg.replacement == ReplacementPolicy::Lru {
                line.stamp = self.tick;
            }
            return;
        }
        let fill_dirty = match kind {
            AccessKind::Read => {
                self.stats.read_misses += 1;
                self.stats.offchip_read_bytes += line_bytes;
                false
            }
            AccessKind::Write => {
                self.stats.write_misses += 1;
                match self.cfg.write_policy {
                    WritePolicy::WriteBackAllocate => {
                        // Fetch-on-write then dirty the line.
                        self.stats.offchip_read_bytes += line_bytes;
                        true
                    }
                    WritePolicy::WriteAroundNoAllocate => {
                        self.stats.offchip_write_bytes += u64::from(bytes).min(line_bytes);
                        return; // no allocation
                    }
                }
            }
        };
        // First invalid way, else the first way with the lowest stamp.
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter().enumerate().min_by_key(|(w, l)| (l.stamp, *w)).expect("ways is non-zero").0
        });
        let line = &mut set[victim];
        if line.valid {
            self.stats.evictions += 1;
            if line.dirty {
                self.stats.offchip_write_bytes += line_bytes;
            }
        }
        *line = RefLine { tag, valid: true, dirty: fill_dirty, stamp: self.tick };
    }

    fn line_states(&self) -> LineStates {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(s, set)| {
                set.iter().enumerate().map(move |(w, l)| {
                    (s as u32, w as u32, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp)
                })
            })
            .collect()
    }
}

/// [`Cache::line_states`] in the reference's layout. Tags of invalid lines
/// are masked to 0 on both sides, so the comparison is about meaningful
/// state only.
fn states(cache: &Cache) -> LineStates {
    cache
        .line_states()
        .into_iter()
        .map(|l| (l.set, l.way, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp))
        .collect()
}

/// The reference model after `ops`, one access at a time.
fn reference(cfg: &CacheConfig, ops: &[Vec<Access>]) -> RefCache {
    let mut r = RefCache::new(cfg);
    for a in ops.iter().flatten() {
        r.access(a);
    }
    r
}

fn assert_matches(cache: &Cache, want: &RefCache, path: &str) {
    let cfg = cache.config();
    assert_eq!(*cache.stats(), want.stats, "{path} stats on {cfg:?}");
    assert_eq!(states(cache), want.line_states(), "{path} line states on {cfg:?}");
}

/// Ops of 1–4 accesses, each of 0–96 bytes, starting in the first
/// [`WINDOW_LINES`] 64-byte lines; [`fit`] folds them into a geometry's
/// own window.
fn any_ops(max_ops: usize) -> impl Strategy<Value = Vec<Vec<Access>>> {
    let access = (0..WINDOW_LINES * 64, 0u32..97, any::<bool>(), 0..CLASSES.len()).prop_map(
        |(addr, bytes, write, class)| {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            Access { addr: Addr(addr), bytes, kind, class: CLASSES[class] }
        },
    );
    proptest::collection::vec(proptest::collection::vec(access, 1..5), 1..max_ops)
}

/// `ops` with every address folded into `cfg`'s window of
/// [`WINDOW_LINES`] lines.
fn fit(ops: &[Vec<Access>], cfg: &CacheConfig) -> Vec<Vec<Access>> {
    let window = WINDOW_LINES * u64::from(cfg.line_bytes);
    ops.iter()
        .map(|op| op.iter().map(|&a| Access { addr: Addr(a.addr.0 % window), ..a }).collect())
        .collect()
}

/// Packs `ops` into consecutive blocks, starting a new block after each
/// count of `flushes` in turn (cycling), the way a sink flushes.
fn pack_blocks(ops: &[Vec<Access>], line_bytes: u32, flushes: &[usize]) -> Vec<AccessBlock> {
    let mut blocks = Vec::new();
    let mut rest = ops;
    for &n in flushes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(n.min(rest.len()));
        let mut block = AccessBlock::new(line_bytes);
        for op in head {
            block.push_op(op);
        }
        blocks.push(block);
        rest = tail;
    }
    blocks
}

/// The per-line entries of `ops` split in the reference's own code.
fn ref_entries(ops: &[Vec<Access>], line_bytes: u32) -> Vec<(u64, u32, AccessKind, VarClass)> {
    let shift = line_bytes.trailing_zeros();
    let mut out = Vec::new();
    for a in ops.iter().flatten() {
        let (start, end) = ref_line_span(a, shift);
        for line in start..=end {
            out.push((line, a.bytes, a.kind, a.class));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// [`Cache::access`], one access at a time, matches the reference.
    #[test]
    fn access_matches_reference(ops in any_ops(120)) {
        for cfg in every_geometry() {
            let ops = fit(&ops, &cfg);
            let mut cache = Cache::new(cfg.clone()).unwrap();
            for &a in ops.iter().flatten() {
                cache.access(a);
            }
            assert_matches(&cache, &reference(&cfg, &ops), "access");
        }
    }

    /// [`Cache::access_soa`] matches the reference over the ops packed
    /// into several blocks flushed at random op counts, and over one
    /// block spliced from them with `extend_from_block`, which equals the
    /// ops packed into one block.
    #[test]
    fn soa_blocks_match_reference(
        ops in any_ops(120),
        flushes in proptest::collection::vec(1usize..40, 1..6),
    ) {
        for cfg in every_geometry() {
            let ops = fit(&ops, &cfg);
            let want = reference(&cfg, &ops);
            let blocks = pack_blocks(&ops, cfg.line_bytes, &flushes);
            let mut cache = Cache::new(cfg.clone()).unwrap();
            let mut spliced = AccessBlock::new(cfg.line_bytes);
            for block in &blocks {
                cache.access_soa(block);
                spliced.extend_from_block(block);
            }
            assert_matches(&cache, &want, "access_soa over flushed blocks");
            prop_assert_eq!(&spliced, &pack_blocks(&ops, cfg.line_bytes, &[ops.len()])[0]);
            let mut cache = Cache::new(cfg.clone()).unwrap();
            cache.access_soa(&spliced);
            assert_matches(&cache, &want, "access_soa over a spliced block");
        }
    }

    /// Chunked [`SimdEngine::commit_block`] calls interleaved round-robin
    /// across 2–4 engines leave each engine bit-identical (report, stats,
    /// line states) to a sequential [`SimdEngine::op`] run of its own
    /// trace.
    #[test]
    fn interleaved_commits_match_sequential_ops(
        traces in proptest::collection::vec(any_ops(40), 2..5),
        chunk_ops in 1usize..8,
    ) {
        for cfg in every_geometry() {
            let traces: Vec<_> = traces.iter().map(|ops| fit(ops, &cfg)).collect();
            let chunked: Vec<Vec<AccessBlock>> = traces
                .iter()
                .map(|ops| pack_blocks(ops, cfg.line_bytes, &[chunk_ops]))
                .collect();
            let mut engines: Vec<SimdEngine> =
                traces.iter().map(|_| SimdEngine::new(cfg.clone()).unwrap()).collect();
            let rounds = chunked.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..rounds {
                for (engine, chunks) in engines.iter_mut().zip(&chunked) {
                    if let Some(block) = chunks.get(round) {
                        engine.commit_block(block);
                    }
                }
            }
            for (i, (engine, ops)) in engines.iter().zip(&traces).enumerate() {
                let mut sequential = SimdEngine::new(cfg.clone()).unwrap();
                for op in ops {
                    sequential.op(op);
                }
                prop_assert_eq!(engine.report(), sequential.report(), "engine {} on {:?}", i, cfg);
                prop_assert_eq!(
                    states(engine.cache()),
                    states(sequential.cache()),
                    "engine {} on {:?}",
                    i,
                    cfg
                );
                assert_matches(engine.cache(), &reference(&cfg, ops), "interleaved commit_block");
            }
        }
    }

    /// A trace replayed after `reset` behaves exactly like the same trace
    /// on a fresh cache, on both paths: reset clears the line buffer and
    /// the signatures along with the lines.
    #[test]
    fn reset_replay_matches_fresh_cache(ops in any_ops(60)) {
        for cfg in every_geometry() {
            let ops = fit(&ops, &cfg);
            let mut block = AccessBlock::new(cfg.line_bytes);
            for op in &ops {
                block.push_op(op);
            }
            let mut fresh = Cache::new(cfg.clone()).unwrap();
            fresh.access_soa(&block);
            let mut reused = Cache::new(cfg.clone()).unwrap();
            reused.access_soa(&block);
            reused.reset();
            reused.access_soa(&block);
            prop_assert_eq!(reused.stats(), fresh.stats(), "access_soa on {:?}", cfg);
            prop_assert_eq!(states(&reused), states(&fresh), "access_soa on {:?}", cfg);
            reused.reset();
            for &a in ops.iter().flatten() {
                reused.access(a);
            }
            prop_assert_eq!(reused.stats(), fresh.stats(), "access on {:?}", cfg);
            prop_assert_eq!(states(&reused), states(&fresh), "access on {:?}", cfg);
        }
    }

    /// A packed block's entries are exactly the reference line split of
    /// the ops, and the op count is conserved.
    #[test]
    fn packed_entries_match_reference_split(ops in any_ops(60)) {
        for line_bytes in LINE_BYTES {
            let mut block = AccessBlock::new(line_bytes);
            for op in &ops {
                block.push_op(op);
            }
            prop_assert_eq!(block.ops(), ops.len() as u64);
            let got: Vec<_> = block.entries().collect();
            prop_assert_eq!(got, ref_entries(&ops, line_bytes), "{}-byte lines", line_bytes);
        }
    }
}

/// An 8-byte access at `u64::MAX - 3` runs past the top of the address
/// space. Both cache paths stop at the top line, touch the same lines as
/// the reference, and the profiler stops at the top element.
#[test]
fn accesses_stop_at_the_top_of_the_address_space() {
    let top = Access::read(Addr(u64::MAX - 3), 8, VarClass::Hot);
    let store = Access::write(Addr(u64::MAX - 1), 4, VarClass::Output);
    let ops = vec![vec![top], vec![Access::read(Addr(0), 8, VarClass::Hot), store], vec![top]];
    for cfg in every_geometry() {
        // The top access touches 4 one-byte lines, or the one top line.
        let lines = if cfg.line_bytes == 1 { 4 } else { 1 };
        let want = reference(&cfg, &ops[..1]);
        assert_eq!(want.stats.accesses(), lines, "{cfg:?}");

        let mut cache = Cache::new(cfg.clone()).unwrap();
        cache.access(top);
        assert_matches(&cache, &want, "access at the top");
        let mut engine = SimdEngine::new(cfg.clone()).unwrap();
        let mut block = AccessBlock::new(cfg.line_bytes);
        block.push_op(&ops[0]);
        engine.commit_block(&block);
        assert_matches(engine.cache(), &want, "access_soa at the top");

        let want = reference(&cfg, &ops);
        for op in &ops[1..] {
            block.push_op(op);
        }
        let mut cache = Cache::new(cfg.clone()).unwrap();
        cache.access_soa(&block);
        assert_matches(&cache, &want, "access_soa across the top");
    }
    for (elem_bytes, touches) in [(1, 4), (4, 1), (8, 1)] {
        let mut profiler = ReuseProfiler::new(elem_bytes);
        profiler.touch_access(&top);
        assert_eq!(profiler.touches(), touches, "{elem_bytes}-byte elements");
    }
}
