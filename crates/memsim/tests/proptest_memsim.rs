//! Property-based tests for the cache simulator and reuse profiler.

use proptest::prelude::*;
use pudiannao_memsim::{
    Access, AccessBlock, AccessKind, Addr, Cache, CacheConfig, ReuseProfiler, VarClass,
};

fn any_access() -> impl Strategy<Value = Access> {
    (0u64..(1 << 16), prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write)])
        .prop_map(|(addr, kind)| Access { addr: Addr(addr), bytes: 4, kind, class: VarClass::Hot })
}

/// Runs a trace of 4-byte accesses through [`Cache::access`] and, packed
/// one op per access, through [`Cache::access_soa`] on the paper cache.
/// On both paths hits + misses equals the number of line-level accesses,
/// and read traffic is whole cache lines.
fn assert_accounting_is_consistent(trace: &[Access]) {
    let mut reference = Cache::new(CacheConfig::paper_default()).unwrap();
    let mut block = AccessBlock::new(64);
    for a in trace {
        reference.access(*a);
        block.push_op(core::slice::from_ref(a));
    }
    let mut soa = Cache::new(CacheConfig::paper_default()).unwrap();
    soa.access_soa(&block);
    // Accesses are counted per touched cache line (a 4-byte access
    // crossing a 64-byte boundary counts twice).
    let expected: u64 = trace.iter().map(|a| (a.addr.0 + 3) / 64 - a.addr.0 / 64 + 1).sum();
    for (path, cache) in [("access", &reference), ("access_soa", &soa)] {
        let s = cache.stats();
        assert_eq!(s.accesses(), expected, "{path}");
        assert_eq!(s.offchip_read_bytes % 64, 0, "{path}");
        assert!(s.miss_ratio() >= 0.0 && s.miss_ratio() <= 1.0, "{path}");
        assert!(s.read_misses + s.write_misses >= s.evictions, "{path}");
    }
}

/// A 4-byte read at address 701 crosses the line boundary at 704, so it
/// counts as two line-level accesses.
#[test]
fn accounting_counts_a_line_crossing_read_twice() {
    assert_accounting_is_consistent(&[Access::read(Addr(701), 4, VarClass::Hot)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The accounting holds on random traces, on both cache paths.
    #[test]
    fn accounting_is_consistent(trace in proptest::collection::vec(any_access(), 1..300)) {
        assert_accounting_is_consistent(&trace);
    }

    /// Replaying the same trace twice at most halves the miss count only
    /// if the working set fits; in every case the second pass can never
    /// miss MORE than the first (LRU, no pathological aliasing of a
    /// deterministic trace).
    #[test]
    fn repeated_trace_never_misses_more(
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..150),
    ) {
        let run = |passes: usize| {
            let mut cache = Cache::new(CacheConfig::paper_default()).unwrap();
            let mut misses = Vec::new();
            for _ in 0..passes {
                let before = cache.stats().read_misses;
                for &a in &addrs {
                    cache.access(Access::read(Addr(a * 4), 4, VarClass::Hot));
                }
                misses.push(cache.stats().read_misses - before);
            }
            misses
        };
        let misses = run(2);
        prop_assert!(misses[1] <= misses[0], "second pass missed more: {misses:?}");
    }

    /// A bigger cache (same line/ways structure scaled in sets) never
    /// produces more misses for the same trace under LRU.
    #[test]
    fn capacity_monotonicity_under_lru(
        addrs in proptest::collection::vec(0u64..(1 << 15), 1..200),
    ) {
        let misses_with = |capacity: u32| {
            let cfg = CacheConfig { capacity_bytes: capacity, line_bytes: 64, ways: 8 };
            let mut cache = Cache::new(cfg).unwrap();
            for &a in &addrs {
                cache.access(Access::read(Addr(a * 4), 4, VarClass::Hot));
            }
            cache.stats().read_misses
        };
        // Note: set-associative caches are not strictly inclusive across
        // capacities in general, but doubling the set count with LRU and
        // the same indexing is monotone for read-only traces in practice;
        // we assert the weaker, always-true bound via full-capacity jump.
        let small = misses_with(16 * 1024);
        let large = misses_with(1024 * 1024); // effectively infinite here
        prop_assert!(large <= small);
        // The infinite cache sees only compulsory misses: distinct lines.
        let distinct: std::collections::HashSet<u64> =
            addrs.iter().map(|&a| (a * 4) / 64).collect();
        prop_assert_eq!(large, distinct.len() as u64);
    }

    /// The reuse profiler's total touches equal the touches fed in, and
    /// per-variable use counts sum to the same total.
    #[test]
    fn profiler_conserves_touches(
        addrs in proptest::collection::vec(0u64..256, 1..200),
    ) {
        let mut p = ReuseProfiler::new(4);
        for &a in &addrs {
            p.touch(Addr(a * 4), VarClass::Cold);
        }
        prop_assert_eq!(p.touches(), addrs.len() as u64);
        let total: u64 = p.summary().variables().iter().map(|v| v.uses).sum();
        prop_assert_eq!(total, addrs.len() as u64);
    }

    /// Mean reuse distances are at least 1 for any reused variable.
    #[test]
    fn reuse_distances_are_positive(
        addrs in proptest::collection::vec(0u64..32, 2..100),
    ) {
        let mut p = ReuseProfiler::new(4);
        for &a in &addrs {
            p.touch(Addr(a * 4), VarClass::Hot);
        }
        for v in p.summary().variables() {
            if v.uses > 1 {
                prop_assert!(v.mean_distance >= 1.0);
            } else {
                prop_assert_eq!(v.mean_distance, 0.0);
            }
        }
    }
}
