//! Differential proptests for the batched trace executor: interleaving N
//! independent traces through [`SimdEngine::commit_block`] — in any chunk
//! partition, in any round-robin order — must leave every engine with the
//! same counters AND the same cache line states as running its trace
//! alone.

use proptest::prelude::*;
use pudiannao_memsim::{Access, AccessBlock, AccessKind, Addr, CacheConfig, SimdEngine, VarClass};

/// A recorded op list — the arbitrary-trace stand-in for the tiled
/// kernels.
struct Replay {
    ops: Vec<Vec<Access>>,
}

const CLASSES: [VarClass; 4] = [VarClass::Hot, VarClass::Cold, VarClass::Output, VarClass::Stream];

fn any_op() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        (0u64..4096, 1u32..64, any::<bool>(), 0usize..4).prop_map(|(addr, bytes, write, class)| {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            Access { addr: Addr(addr), bytes, kind, class: CLASSES[class] }
        }),
        1..4,
    )
}

fn any_workload() -> impl Strategy<Value = Replay> {
    proptest::collection::vec(any_op(), 1..60).prop_map(|ops| Replay { ops })
}

fn states(engine: &SimdEngine) -> Vec<(u32, u32, u64, bool, bool, u64)> {
    engine
        .cache()
        .line_states()
        .into_iter()
        .map(|l| (l.set, l.way, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round-robin interleaving of chunked `commit_block` calls across N
    /// engines is invisible: each engine ends bit-identical (stats, line
    /// states, bandwidth report) to a sequential per-op run of its own
    /// trace.
    #[test]
    fn interleaved_batch_matches_sequential(
        workloads in proptest::collection::vec(any_workload(), 2..5),
        chunk_ops in 1usize..8,
    ) {
        let cfg = CacheConfig::paper_default();

        // Sequential reference: one engine per workload, per-op driver.
        let mut reference: Vec<SimdEngine> = Vec::new();
        for w in &workloads {
            let mut e = SimdEngine::new(cfg.clone()).unwrap();
            for op in &w.ops {
                e.op(op);
            }
            reference.push(e);
        }

        // Interleaved: chop each trace into `chunk_ops`-op chunks — both
        // as AoS flat access lists (the `commit_accesses` reference) and
        // as packed SoA `AccessBlock`s (`commit_block`) — and commit them
        // round-robin across two independent engine sets.
        let mut aos_engines: Vec<SimdEngine> =
            workloads.iter().map(|_| SimdEngine::new(cfg.clone()).unwrap()).collect();
        let mut soa_engines: Vec<SimdEngine> =
            workloads.iter().map(|_| SimdEngine::new(cfg.clone()).unwrap()).collect();
        let chunked: Vec<Vec<(u64, Vec<Access>, AccessBlock)>> = workloads
            .iter()
            .map(|w| {
                w.ops
                    .chunks(chunk_ops)
                    .map(|ops| {
                        let mut block = AccessBlock::new(cfg.line_bytes);
                        for op in ops {
                            block.push_op(op);
                        }
                        (ops.len() as u64, ops.iter().flatten().copied().collect(), block)
                    })
                    .collect()
            })
            .collect();
        let rounds = chunked.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for ((aos, soa), chunks) in
                aos_engines.iter_mut().zip(soa_engines.iter_mut()).zip(&chunked)
            {
                if let Some((ops, flat, block)) = chunks.get(round) {
                    aos.commit_accesses(*ops, flat);
                    soa.commit_block(block);
                }
            }
        }

        for (i, ((aos, soa), sequential)) in
            aos_engines.iter().zip(&soa_engines).zip(&reference).enumerate()
        {
            prop_assert_eq!(aos.report(), sequential.report(), "engine {} AoS report", i);
            prop_assert_eq!(aos.cache_stats(), sequential.cache_stats(), "engine {} AoS stats", i);
            prop_assert_eq!(states(aos), states(sequential), "engine {} AoS line states", i);
            prop_assert_eq!(soa.report(), sequential.report(), "engine {} SoA report", i);
            prop_assert_eq!(soa.cache_stats(), sequential.cache_stats(), "engine {} SoA stats", i);
            prop_assert_eq!(states(soa), states(sequential), "engine {} SoA line states", i);
        }
    }
}
