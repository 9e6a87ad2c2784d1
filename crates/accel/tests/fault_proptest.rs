//! Property-based robustness tests for the fault layer: however hostile
//! the instruction stream and however aggressive the fault plan, the
//! executor must finish with `Ok` or a typed error — never a panic, and
//! always deterministically for a given seed.

use proptest::prelude::*;
use pudiannao_accel::isa::{AluOp, BufferRead, CounterOp, FuOps, Instruction, OutputSlot, Program};
use pudiannao_accel::{Accelerator, ArchConfig, Dram, EccMode, FaultConfig, FaultPlan, Hardening};

/// Builds one bounded-but-arbitrary instruction from raw draws. The
/// shapes intentionally include out-of-bounds addresses and mismatched
/// strides: those must surface as typed errors.
#[allow(clippy::too_many_arguments)]
fn arbitrary_instruction(
    fu_pick: u8,
    hot_addr: u32,
    hot_stride: u32,
    hot_iter: u32,
    cold_stride: u32,
    cold_iter: u32,
    out_stride: u32,
    dram_addr: u64,
) -> Instruction {
    let fu = match fu_pick % 6 {
        0 => FuOps::distance(None),
        1 => FuOps::distance(Some(hot_iter % 5)),
        2 => FuOps::dot_broadcast(None),
        3 => FuOps::count(CounterOp::CountGt),
        4 => FuOps::alu_only(AluOp::Div),
        _ => FuOps::product_reduce(),
    };
    Instruction {
        name: "fuzz".into(),
        hot: BufferRead::load(dram_addr, hot_addr, hot_stride, hot_iter),
        cold: BufferRead::load(dram_addr.wrapping_add(64), 0, cold_stride, cold_iter),
        out: OutputSlot::store(2048, out_stride, cold_iter),
        fu,
        hot_row_base: 0,
    }
}

fn hardening(pick: u8) -> Hardening {
    match pick % 4 {
        0 => Hardening::default(),
        1 => Hardening::secded(),
        2 => Hardening {
            hot_ecc: EccMode::Parity,
            cold_ecc: EccMode::Parity,
            out_ecc: EccMode::Parity,
            ..Hardening::default()
        },
        _ => Hardening { watchdog_cycles: Some(5_000), ..Hardening::secded() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary instruction shapes under arbitrary fault plans never
    /// panic, and equal seeds give equal outcomes.
    #[test]
    fn hostile_streams_never_panic(
        fu_pick in 0u8..6,
        hot_addr in 0u32..6000,
        hot_stride in 1u32..48,
        hot_iter in 1u32..40,
        cold_stride in 1u32..48,
        cold_iter in 1u32..40,
        out_stride in 1u32..24,
        dram_addr in 0u64..40_000,
        seed in 0u64..10_000,
        rate_millis in 0u64..1000,
        hardening_pick in 0u8..4,
        stuck_lane in 0u32..20,
    ) {
        let inst = arbitrary_instruction(
            fu_pick, hot_addr, hot_stride, hot_iter, cold_stride, cold_iter,
            out_stride, dram_addr,
        );
        let program = Program::new(vec![inst.clone(), inst]).unwrap();
        let rate = rate_millis as f64 / 1000.0;
        let config = FaultConfig {
            plan: FaultPlan {
                seed,
                buffer_upset_rate: rate,
                dma_corruption_rate: rate * 0.5,
                ifetch_corruption_rate: rate * 0.25,
                lane_fault_rate: rate * 0.5,
                lane_stuck_at: (stuck_lane < 10).then_some(stuck_lane),
                alu_fault_rate: rate * 0.5,
            },
            hardening: hardening(hardening_pick),
        };
        let run = || {
            let mut accel =
                Accelerator::builder(ArchConfig::paper_default()).faults(config).build().unwrap();
            let mut dram = Dram::new(1 << 16);
            accel.run(&program, &mut dram).map(|r| {
                (r.stats.cycles, r.fault.expect("faults enabled").injected_total())
            })
        };
        // No panic is the property; determinism is the bonus assertion.
        let a = run();
        let b = run();
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(x), Err(y)) => prop_assert_eq!(x.to_string(), y.to_string()),
            other => prop_assert!(false, "nondeterministic outcome: {:?}", other),
        }
    }

    /// A hardened executor never silently accepts a corrupted fetch: with
    /// the checksum fitted and fetch corruption certain, the first
    /// instruction fails typed.
    #[test]
    fn certain_fetch_corruption_is_always_detected(seed in 0u64..500) {
        let inst = arbitrary_instruction(0, 0, 16, 2, 16, 2, 2, 0);
        let program = Program::new(vec![inst]).unwrap();
        let mut accel = Accelerator::builder(ArchConfig::paper_default())
            .faults(FaultConfig {
                plan: FaultPlan { ifetch_corruption_rate: 1.0, ..FaultPlan::quiet(seed) },
                hardening: Hardening { ifetch_checksum: true, ..Hardening::default() },
            })
            .build()
            .unwrap();
        let err = accel.run(&program, &mut Dram::new(1 << 16)).unwrap_err();
        prop_assert!(err.is_fault_detection(), "{:?}", err);
    }
}
