//! A trace-template cache with no budget records nothing: every leg it
//! executes, first uses included, generates its trace through the chunked
//! [`BatchSink`] path, so it allocates no more than plain `BatchSink`
//! generation of the same leg.
//!
//! A counting global allocator is armed around each leg. This file holds
//! one test so no other test allocates while the counter is armed.

use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::{batch, AccessBlock, BatchSink, CacheConfig, SimdEngine};
use pudiannao_serve::{ServingCatalog, SizeTier, TraceCache};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn counted(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn zero_budget_legs_allocate_no_more_than_plain_generation() {
    let cfg = CacheConfig::paper_default();
    let catalog = ServingCatalog::paper_default();
    let mut cache = TraceCache::new(0);
    let engine = || SimdEngine::new(cfg.clone()).expect("valid config");
    let scratch = || AccessBlock::with_capacity(cfg.line_bytes, batch::FLUSH_ACCESSES + 32);
    let (mut cached, mut cached_buf) = (engine(), scratch());
    let (mut fresh, mut fresh_buf) = (engine(), scratch());
    for phase in Phase::ALL {
        for tier in SizeTier::ALL {
            let cache_allocs =
                counted(|| cache.execute(&catalog, phase, tier, &mut cached, &mut cached_buf));
            let fresh_allocs = counted(|| {
                let mut sink = BatchSink::new(&mut fresh, &mut fresh_buf);
                catalog.get(phase, tier).trace(&mut sink);
                sink.finish();
            });
            assert!(
                cache_allocs <= fresh_allocs,
                "{phase:?}/{tier:?}: a zero-budget first use allocated {cache_allocs} times, \
                 plain generation {fresh_allocs}",
            );
            assert_eq!(cached.report(), fresh.report(), "{phase:?}/{tier:?}");
        }
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.ready_slots, stats.resident_bytes), (0, 0, 0));
}
