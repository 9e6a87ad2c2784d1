//! Trace-template-cache equivalence: a leg served by replaying a
//! recorded [`AccessBlock`] must leave the engine bit-identical — report,
//! cache stats, line states — to generating the trace fresh through a
//! [`BatchSink`], for every `(phase, tier)` in the catalog and for every
//! slot state (recording, replay, over-budget). At the fleet level the
//! cache must be invisible: the serialised report is byte-identical under
//! the default budget and under a zero budget, which keeps no template.

use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::{batch, AccessBlock, BatchSink, CacheConfig, SimdEngine};
use pudiannao_serve::{
    serve, FleetConfig, GeneratorConfig, ServingCatalog, SizeTier, TraceCache, TRACE_CACHE_BYTES,
};

fn engine() -> SimdEngine {
    SimdEngine::new(CacheConfig::paper_default()).expect("paper config is valid")
}

fn scratch() -> AccessBlock {
    AccessBlock::with_capacity(CacheConfig::paper_default().line_bytes, batch::FLUSH_ACCESSES + 32)
}

fn fresh_leg(catalog: &ServingCatalog, phase: Phase, tier: SizeTier, engine: &mut SimdEngine) {
    let mut block = scratch();
    let mut sink = BatchSink::new(engine, &mut block);
    catalog.get(phase, tier).trace(&mut sink);
    sink.finish();
}

fn states(engine: &SimdEngine) -> Vec<(u32, u32, u64, bool, bool, u64)> {
    engine
        .cache()
        .line_states()
        .into_iter()
        .map(|l| (l.set, l.way, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp))
        .collect()
}

fn assert_engines_equal(cached: &SimdEngine, fresh: &SimdEngine, what: &str) {
    assert_eq!(cached.report(), fresh.report(), "{what}: bandwidth report");
    assert_eq!(cached.cache_stats(), fresh.cache_stats(), "{what}: cache stats");
    assert_eq!(states(cached), states(fresh), "{what}: line states");
}

/// Every `(phase, tier)` leg, run through each path the cache has,
/// matches the same legs generated fresh: recording, a replay, a batch
/// head on a reset engine (which takes the snapshot), a second batch head
/// (which restores it) and a replay continuing from the restored state.
/// Small tiers cover all 39 slots; the Large tier of each phase is the
/// biggest template, so it exercises the recording path hardest.
#[test]
fn cached_replay_matches_fresh_generation() {
    let catalog = ServingCatalog::paper_default();
    // Each leg, and whether it heads a batch (runs on a reset engine).
    let legs = [
        ("recording", false),
        ("replay", false),
        ("snapshotting batch head", true),
        ("restoring batch head", true),
        ("replay after restore", false),
    ];
    for phase in Phase::ALL {
        for tier in [SizeTier::Small, SizeTier::Large] {
            let mut cache = TraceCache::new(TRACE_CACHE_BYTES);
            let mut buf = scratch();
            let mut cached = engine();
            let mut fresh = engine();
            for (leg, batch_head) in legs {
                if batch_head {
                    cached.reset();
                    fresh.reset();
                }
                cache.execute(&catalog, phase, tier, &mut cached, &mut buf);
                fresh_leg(&catalog, phase, tier, &mut fresh);
                assert_engines_equal(&cached, &fresh, &format!("{phase:?}/{tier:?} {leg} leg"));
            }
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (4, 1), "{phase:?}/{tier:?} counters");
            assert_eq!((stats.ready_slots, stats.too_big_slots), (1, 0));
        }
    }
}

/// One cache serving engines of two geometries on the same 64-byte line:
/// a template recorded, stripped and snapshotted on the paper geometry is
/// neither replayed nor restored on a 16 KB 4-way engine. Its legs there
/// generate fresh, count as misses and match fresh generation, batch
/// heads included.
#[test]
fn batch_head_snapshot_falls_back_on_another_geometry() {
    let catalog = ServingCatalog::paper_default();
    let other = CacheConfig { capacity_bytes: 16 * 1024, ways: 4, ..CacheConfig::paper_default() };
    let tier = SizeTier::Small;
    for phase in Phase::ALL {
        let mut cache = TraceCache::new(TRACE_CACHE_BYTES);
        let mut buf = scratch();
        // Record, then snapshot a batch head, on the paper geometry.
        let mut paper = engine();
        for _ in 0..2 {
            paper.reset();
            cache.execute(&catalog, phase, tier, &mut paper, &mut buf);
        }
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1), "{phase:?} paper legs");
        let mut cached = SimdEngine::new(other.clone()).expect("valid config");
        let mut fresh = SimdEngine::new(other.clone()).expect("valid config");
        for (leg, batch_head) in [("head", true), ("replay", false), ("second head", true)] {
            if batch_head {
                cached.reset();
                fresh.reset();
            }
            cache.execute(&catalog, phase, tier, &mut cached, &mut buf);
            fresh_leg(&catalog, phase, tier, &mut fresh);
            assert_engines_equal(&cached, &fresh, &format!("{phase:?} 16 KB 4-way {leg}"));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 4), "{phase:?}: other-geometry legs miss");
        assert_eq!((stats.ready_slots, stats.too_big_slots), (1, 0), "{phase:?} slot states");
    }
}

/// A zero-budget cache can never go Ready: every leg, the first use
/// included, generates fresh through the chunked `TooBig` path and still
/// matches plain `BatchSink` generation.
#[test]
fn over_budget_slots_still_match_fresh_generation() {
    let catalog = ServingCatalog::paper_default();
    let phase = Phase::KnnPrediction;
    let mut cache = TraceCache::new(0);
    let mut buf = scratch();
    let mut cached = engine();
    let mut fresh = engine();
    for round in 0..3 {
        cache.execute(&catalog, phase, SizeTier::Medium, &mut cached, &mut buf);
        fresh_leg(&catalog, phase, SizeTier::Medium, &mut fresh);
        assert_engines_equal(&cached, &fresh, &format!("zero-budget round {round}"));
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 3));
    assert_eq!((stats.ready_slots, stats.too_big_slots, stats.resident_bytes), (0, 1, 0));
}

/// Fleet level: the cache only moves wall-clock and memory. The
/// serialised report of a run with the default budget is byte-identical
/// to the same run with a zero budget. Both runs attach in-memory
/// counters — the zero-budget run's show no hit and no ready slot — and
/// the counters never leak into the JSON.
#[test]
fn fleet_report_is_byte_identical_cache_on_or_off() {
    let gen = GeneratorConfig { requests: 800, ..GeneratorConfig::smoke(77) };
    let on_cfg = FleetConfig::with_shards(2);
    let off_cfg = FleetConfig { trace_cache_bytes: 0, ..FleetConfig::with_shards(2) };
    assert_eq!(on_cfg.trace_cache_bytes, TRACE_CACHE_BYTES, "cache defaults on");

    let on = serve(&on_cfg, &gen);
    let off = serve(&off_cfg, &gen);
    assert_eq!(
        on.to_json().to_string_pretty(),
        off.to_json().to_string_pretty(),
        "report JSON differs with trace cache on vs off"
    );

    let stats = on.trace_cache.expect("cached run reports cache counters");
    assert!(stats.hits > 0, "smoke stream repeats phases, so replays must happen");
    assert!(stats.ready_slots > 0);
    let off_stats = off.trace_cache.expect("every fleet run reports cache counters");
    assert_eq!((off_stats.hits, off_stats.ready_slots), (0, 0), "a zero budget keeps nothing");
    // The counters live outside the serialised schema entirely.
    assert!(!on.to_json().to_string_pretty().contains("trace_cache"));
}
