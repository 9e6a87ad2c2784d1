//! Conservation properties of the observability layer: per-stage busy
//! cycles must never exceed the totals they decompose, buffer traffic
//! counters must follow mechanically from the instruction stream, and
//! enabling tracing must never perturb the simulation itself.

use proptest::prelude::*;
use pudiannao_accel::isa::{FuOps, Instruction, Program, ReadOp, WriteOp};
use pudiannao_accel::{Accelerator, ArchConfig, Dram, MluStage, TraceConfig};

/// A small independent distance instruction over its own DRAM regions.
fn distance_inst(i: usize, features: u32, hot_rows: u32, cold_rows: u32) -> Instruction {
    let base = (i as u64) * 100_000;
    Instruction::builder(format!("d{i}"))
        .hot_load(base, 0, features, hot_rows)
        .cold_load(base + 40_000, 0, features, cold_rows)
        .out_store(base + 80_000, hot_rows, cold_rows)
        .fu(FuOps::distance(None))
        .build()
}

fn write_rows(dram: &mut Dram, at: u64, rows: u32, width: u32, salt: u64) {
    for r in 0..rows {
        let row: Vec<f32> = (0..width)
            .map(|c| (((salt + u64::from(r) * 31 + u64::from(c) * 7) % 23) as f32) / 8.0)
            .collect();
        dram.write_f32(at + u64::from(r * width), &row);
    }
}

/// (features, hot_rows, cold_rows) for 1..=4 independent instructions.
fn program_shapes() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((1u32..48, 1u32..8, 1u32..8), 1..5)
}

fn build(shapes: &[(u32, u32, u32)]) -> (Program, Dram) {
    let mut dram = Dram::new(1 << 20);
    let mut insts = Vec::new();
    for (i, &(f, h, c)) in shapes.iter().enumerate() {
        let base = (i as u64) * 100_000;
        write_rows(&mut dram, base, h, f, i as u64);
        write_rows(&mut dram, base + 40_000, c, f, i as u64 + 7);
        insts.push(distance_inst(i, f, h, c));
    }
    (Program::new(insts).expect("non-empty"), dram)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stage busy cycles decompose compute time: their sum equals the
    /// compute-cycle total, and no single stage exceeds it; compute in
    /// turn never exceeds wall-clock cycles.
    #[test]
    fn stage_cycles_conserve_compute_time(shapes in program_shapes()) {
        let (program, mut dram) = build(&shapes);
        let mut accel =
            Accelerator::builder(ArchConfig::paper_default()).trace(TraceConfig::counters()).build().unwrap();
        let report = accel.run(&program, &mut dram).unwrap();
        let s = &report.stats;
        prop_assert_eq!(s.stage_cycles.total(), s.compute_cycles);
        prop_assert!(s.compute_cycles <= s.cycles);
        for stage in MluStage::ALL {
            prop_assert!(s.stage_cycles.get(stage) <= s.compute_cycles);
        }
        prop_assert!(s.dma_stall_cycles <= s.dma_cycles);
    }

    /// Buffer read/write counters follow mechanically from the
    /// instruction stream: one fill + one stream per Load slot, one
    /// result write + one drain per Store slot, with element counts
    /// equal to the slots' access footprints.
    #[test]
    fn buffer_counters_match_instruction_stream(shapes in program_shapes()) {
        let (program, mut dram) = build(&shapes);
        let mut accel =
            Accelerator::builder(ArchConfig::paper_default()).trace(TraceConfig::counters()).build().unwrap();
        let report = accel.run(&program, &mut dram).unwrap();
        let trace = report.trace.as_ref().expect("tracing enabled");

        let mut hot_elems = 0u64;
        let mut cold_elems = 0u64;
        let mut out_elems = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        for inst in program.instructions() {
            prop_assert_eq!(inst.hot.op, ReadOp::Load);
            prop_assert_eq!(inst.out.write_op, WriteOp::Store);
            hot_elems += inst.hot.elems();
            cold_elems += inst.cold.elems();
            out_elems += inst.out.elems();
            loads += 1;
            stores += 1;
        }
        prop_assert_eq!(trace.hotbuf.writes, loads);
        prop_assert_eq!(trace.hotbuf.reads, loads);
        prop_assert_eq!(trace.hotbuf.write_elems, hot_elems);
        prop_assert_eq!(trace.hotbuf.read_elems, hot_elems);
        prop_assert_eq!(trace.coldbuf.writes, loads);
        prop_assert_eq!(trace.coldbuf.write_elems, cold_elems);
        prop_assert_eq!(trace.outputbuf.writes, stores);
        prop_assert_eq!(trace.outputbuf.write_elems, out_elems);
        // Each Store drains what it wrote back to DRAM.
        prop_assert_eq!(trace.outputbuf.read_elems, out_elems);
        // One ping-pong flip per overlapped instruction.
        prop_assert_eq!(trace.ping_pong_flips, (shapes.len() as u64).saturating_sub(1));
        // Counters-only tracing drops nothing (there is nothing to drop).
        prop_assert_eq!(trace.events_dropped(), 0);
    }

    /// Tracing is observation only: a trace-off run and a full-trace run
    /// of the same program produce byte-identical statistics and memory.
    #[test]
    fn tracing_is_invisible_to_the_simulation(shapes in program_shapes()) {
        let (program, mut dram_plain) = build(&shapes);
        let mut dram_traced = dram_plain.clone();

        let cfg = ArchConfig::paper_default();
        let plain = Accelerator::new(cfg.clone())
            .unwrap()
            .run(&program, &mut dram_plain)
            .unwrap();
        let mut traced_accel = Accelerator::builder(cfg).trace(TraceConfig::full()).build().unwrap();
        let traced = traced_accel.run(&program, &mut dram_traced).unwrap();

        prop_assert_eq!(&plain.stats, &traced.stats);
        prop_assert_eq!(plain.config_fingerprint, traced.config_fingerprint);
        for i in 0..4u64 {
            let at = i * 100_000 + 80_000;
            prop_assert_eq!(dram_plain.read_f32(at, 64), dram_traced.read_f32(at, 64));
        }
    }
}
