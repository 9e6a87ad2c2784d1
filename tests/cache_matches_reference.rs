//! Differential suite pinning memsim's cache paths to a reference
//! model: [`Cache::access`], one access at a time,
//! [`Cache::access_soa`], the production pass over packed
//! [`AccessBlock`]s that [`SimdEngine::commit_block`] runs, and the
//! [`StrippedBlock`] replay of [`SimdEngine::commit_stripped`].
//!
//! The reference below is an independent reimplementation in the style the
//! simulator started from: one `Vec<Vec<RefLine>>` of per-set line
//! structs, a linear scan per access, and a first-invalid-then-lowest-stamp
//! victim. Comparing [`Cache::line_states`] snapshots, not just counters,
//! pins every victim choice and every LRU stamp, so a shortcut that
//! changed one replacement decision fails here even when the aggregate
//! statistics happen to agree.
//!
//! Every property runs each case on every geometry below:
//! - ways 1, 2, 3, 4, 5, 8, 16 and 24: the SWAR probe up to 8 ways and the
//!   way scan beyond, the tree victim select for 2/4/8 and the generic one
//!   otherwise;
//! - 1, 2, 4 and 8 sets;
//! - 2-, 16- and 64-byte lines (2 bytes is the smallest line
//!   [`CacheConfig::validate`] accepts).
//!
//! Accesses of 0–96 bytes fall in a window of [`WINDOW_LINES`] lines, so
//! they cross lines and the small caches recycle slots constantly.

use proptest::prelude::*;
use pudiannao::memsim::{
    Access, AccessBlock, AccessKind, Addr, Cache, CacheConfig, CacheStats, ReuseProfiler,
    SimdEngine, StrippedBlock, VarClass,
};

const WAYS: [u32; 8] = [1, 2, 3, 4, 5, 8, 16, 24];
const SETS: [u32; 4] = [1, 2, 4, 8];
const LINE_BYTES: [u32; 3] = [2, 16, 64];
const CLASSES: [VarClass; 4] = [VarClass::Hot, VarClass::Cold, VarClass::Output, VarClass::Stream];
/// Lines an access may start in. The largest geometry holds 192 lines
/// and the smallest one, so some caches hold the whole window and others
/// thrash.
const WINDOW_LINES: u64 = 48;

/// Every geometry of the module docs, 96 in all.
fn every_geometry() -> impl Iterator<Item = CacheConfig> {
    WAYS.into_iter().flat_map(|ways| {
        SETS.into_iter().flat_map(move |sets| {
            LINE_BYTES.into_iter().map(move |line_bytes| CacheConfig {
                capacity_bytes: line_bytes * ways * sets,
                line_bytes,
                ways,
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
/// line, no line buffer and no packed signature. LRU, write-back,
/// write-allocate.
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
            self.access_line(line_addr, a.kind);
        }
    }

    fn access_line(&mut self, line_addr: u64, kind: AccessKind) {
        let line_bytes = u64::from(self.cfg.line_bytes);
        let tag = line_addr >> self.set_bits;
        let set = &mut self.sets[(line_addr & self.set_mask) as usize];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            match kind {
                AccessKind::Read => self.stats.read_hits += 1,
                AccessKind::Write => {
                    self.stats.write_hits += 1;
                    line.dirty = true;
                }
            }
            line.stamp = self.tick;
            return;
        }
        match kind {
            AccessKind::Read => self.stats.read_misses += 1,
            AccessKind::Write => self.stats.write_misses += 1,
        }
        // Both kinds fetch the line; a store then dirties it.
        self.stats.offchip_read_bytes += line_bytes;
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
        let dirty = kind == AccessKind::Write;
        *line = RefLine { tag, valid: true, dirty, stamp: self.tick };
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
    ops_in(WINDOW_LINES, max_ops)
}

/// [`any_ops`] starting in the first `lines` 64-byte lines only.
fn ops_in(lines: u64, max_ops: usize) -> impl Strategy<Value = Vec<Vec<Access>>> {
    let access = (0..lines * 64, 0u32..97, any::<bool>(), 0..CLASSES.len()).prop_map(
        |(addr, bytes, write, class)| {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            Access { addr: Addr(addr), bytes, kind, class: CLASSES[class] }
        },
    );
    proptest::collection::vec(proptest::collection::vec(access, 1..5), 1..max_ops)
}

/// One op per touch of the byte at `addr`: two reads, `writes` stores,
/// then a read. The second read opens the line's guaranteed window as a
/// read, so the stores it absorbs must still dirty the line.
fn repeated_writes(addr: u64, writes: usize) -> Vec<Vec<Access>> {
    let read = vec![Access::read(Addr(addr), 1, VarClass::Hot)];
    let mut ops = vec![read.clone(), read.clone()];
    ops.extend((0..writes).map(|_| vec![Access::write(Addr(addr), 1, VarClass::Output)]));
    ops.push(read);
    ops
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
fn ref_entries(ops: &[Vec<Access>], line_bytes: u32) -> Vec<(u64, AccessKind, VarClass)> {
    let shift = line_bytes.trailing_zeros();
    let mut out = Vec::new();
    for a in ops.iter().flatten() {
        let (start, end) = ref_line_span(a, shift);
        for line in start..=end {
            out.push((line, a.kind, a.class));
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
    /// into several blocks flushed at random op counts, and over the ops
    /// packed into one block.
    #[test]
    fn soa_blocks_match_reference(
        ops in any_ops(120),
        flushes in proptest::collection::vec(1usize..40, 1..6),
    ) {
        for cfg in every_geometry() {
            let ops = fit(&ops, &cfg);
            let want = reference(&cfg, &ops);
            let mut cache = Cache::new(cfg.clone()).unwrap();
            for block in &pack_blocks(&ops, cfg.line_bytes, &flushes) {
                cache.access_soa(block);
            }
            assert_matches(&cache, &want, "access_soa over flushed blocks");
            let mut cache = Cache::new(cfg.clone()).unwrap();
            cache.access_soa(&pack_blocks(&ops, cfg.line_bytes, &[ops.len()])[0]);
            assert_matches(&cache, &want, "access_soa over one block");
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

    /// A [`StrippedBlock`] replay from a warm cache (dirty lines,
    /// part-filled sets, live line-buffer entries) leaves the stats and
    /// line states of the reference and of [`Cache::access_soa`] over the
    /// full block from the same start state: replayed once, then again
    /// from the state the first replay left, then once more after
    /// `reset`. A warm-up tail through `access_soa` after the two replays
    /// checks that the line buffer they left is still truthful. The block
    /// mixes random line-crossing ops, repeated stores to one line and a
    /// hot window of four lines, so sets see every reuse distance.
    #[test]
    fn stripped_replay_matches_reference(
        warm in any_ops(60),
        ops in any_ops(120),
        hot in ops_in(4, 80),
        store_addr in 0..WINDOW_LINES * 64,
        writes in 1usize..6,
    ) {
        let block_ops: Vec<Vec<Access>> =
            ops.into_iter().chain(repeated_writes(store_addr, writes)).chain(hot).collect();
        for cfg in every_geometry() {
            let warm = fit(&warm, &cfg);
            let block_ops = fit(&block_ops, &cfg);
            let warm_block = &pack_blocks(&warm, cfg.line_bytes, &[warm.len()])[0];
            let block = &pack_blocks(&block_ops, cfg.line_bytes, &[block_ops.len()])[0];
            let stripped = StrippedBlock::new(block, &cfg).unwrap();
            prop_assert_eq!(stripped.ops(), block.ops());
            prop_assert_eq!(stripped.entries(), block.len() as u64);

            let mut replayed = SimdEngine::new(cfg.clone()).unwrap();
            let mut full = SimdEngine::new(cfg.clone()).unwrap();
            replayed.commit_block(warm_block);
            full.commit_block(warm_block);
            let mut want = reference(&cfg, &warm);
            let steps = [
                ("first replay", Some(&stripped), (&block_ops, block)),
                ("second replay", Some(&stripped), (&block_ops, block)),
                ("warm-up tail", None, (&warm, warm_block)),
            ];
            for (step, stripped, (step_ops, packed)) in steps {
                match stripped {
                    Some(stripped) => replayed.commit_stripped(stripped),
                    None => replayed.commit_block(packed),
                }
                full.commit_block(packed);
                for a in step_ops.iter().flatten() {
                    want.access(a);
                }
                assert_matches(replayed.cache(), &want, step);
                prop_assert_eq!(replayed.report(), full.report(), "{} on {:?}", step, cfg);
                prop_assert_eq!(
                    states(replayed.cache()),
                    states(full.cache()),
                    "{} on {:?}",
                    step,
                    cfg
                );
            }

            replayed.reset();
            replayed.commit_stripped(&stripped);
            let mut fresh = SimdEngine::new(cfg.clone()).unwrap();
            fresh.commit_block(block);
            assert_matches(replayed.cache(), &reference(&cfg, &block_ops), "replay after reset");
            prop_assert_eq!(replayed.report(), fresh.report(), "after reset on {:?}", cfg);
            prop_assert_eq!(states(replayed.cache()), states(fresh.cache()), "after reset");
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
        // The top access touches 2 two-byte lines, or the one top line.
        let lines = if cfg.line_bytes == 2 { 2 } else { 1 };
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
