//! Programming PuDianNao by hand — the Section-4 flexibility story.
//!
//! "If the user wants to use another ML technique that is only slightly
//! different from a hardwired ML technique, we might have to provide the
//! user a new accelerator. To improve the flexibility of the accelerator,
//! we use control instructions..."
//!
//! This example implements a technique the code generator does not ship:
//! **Nadaraya-Watson kernel regression**, `y(q) = sum_i w_i t_i / sum_i
//! w_i` with Gaussian weights `w_i = exp(-||q - x_i||^2)`. It is composed
//! from three hand-written instruction groups:
//!
//! 1. Distance + interpolation (`SUB MULT ADD ACC EXP-NEG`) — the weights.
//! 2. A broadcast dot of weights against the training targets — the
//!    numerator — and a product-free sum for the denominator.
//! 3. An ALU division — numerator / denominator.
//!
//! Run with: `cargo run --release --example custom_kernel`

use pudiannao::accel::isa::{AluOp, FuOps, Instruction, OutputSlot, Program, ReadOp, WriteOp};
use pudiannao::accel::{Accelerator, ArchConfig, Dram, TraceConfig};
use pudiannao::codegen::disasm;
use pudiannao::softfp::NonLinearFn;

const N_TRAIN: usize = 64;
const N_QUERY: usize = 8;
const F: usize = 16;

const X_AT: u64 = 0; // training instances
const T_AT: u64 = 4096; // training targets
const Q_AT: u64 = 8192; // queries
const W_AT: u64 = 100_000; // per-query weight rows
const ONES_AT: u64 = 200_000;
const NUM_AT: u64 = 300_000; // numerators
const DEN_AT: u64 = 300_100; // denominators
const Y_AT: u64 = 300_200; // predictions

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut dram = Dram::new(1 << 20);
    // Teacher: y = mean of the first three features.
    let mut train = Vec::new();
    for i in 0..N_TRAIN {
        let row: Vec<f32> = (0..F).map(|j| (((i * 7 + j * 13) % 32) as f32) / 32.0).collect();
        let target = (row[0] + row[1] + row[2]) / 3.0;
        dram.write_f32(X_AT + (i * F) as u64, &row);
        dram.write_f32(T_AT + i as u64, &[target]);
        train.push((row, target));
    }
    let mut queries = Vec::new();
    for q in 0..N_QUERY {
        let row: Vec<f32> = (0..F).map(|j| (((q * 11 + j * 5) % 32) as f32) / 32.0).collect();
        dram.write_f32(Q_AT + (q * F) as u64, &row);
        queries.push(row);
    }
    dram.write_f32(ONES_AT, &vec![1.0f32; N_TRAIN]);

    // Group 1: Gaussian weights w[q][i] = exp(-||q - x_i||^2).
    // Hot = training instances (reused for every query), cold = queries.
    let mut weight_fu = FuOps::distance(None);
    weight_fu.misc = pudiannao::accel::isa::MiscOp::Interp(NonLinearFn::ExpNeg);
    let weights = Instruction::builder("nw-weights")
        .hot_load(X_AT, 0, F as u32, N_TRAIN as u32)
        .cold_load(Q_AT, 0, F as u32, N_QUERY as u32)
        .out_store(W_AT, N_TRAIN as u32, N_QUERY as u32)
        .fu(weight_fu);

    // Group 2a: numerator[q] = w[q] . targets (broadcast dot, hot = the
    // target vector).
    let numerator = Instruction::builder("nw-numer")
        .hot_load(T_AT, 0, N_TRAIN as u32, 1)
        .cold_load(W_AT, 0, N_TRAIN as u32, N_QUERY as u32)
        .out_store(NUM_AT, 1, N_QUERY as u32)
        .fu(FuOps::dot_broadcast(None));
    // Group 2b: denominator[q] = w[q] . ones.
    let denominator = Instruction::builder("nw-denom")
        .hot_load(ONES_AT, 0, N_TRAIN as u32, 1)
        .cold_load(W_AT, 0, N_TRAIN as u32, N_QUERY as u32)
        .out_store(DEN_AT, 1, N_QUERY as u32)
        .fu(FuOps::dot_broadcast(None));

    // Group 3: y[q] = numerator[q] / denominator[q] on the ALU. The
    // output slot both loads the numerators and stores the quotients, a
    // shape with no shorthand, so it is spelled out.
    let divide = Instruction::builder("nw-divide")
        .cold_load(DEN_AT, 0, N_QUERY as u32, 1)
        .out(OutputSlot {
            read_op: ReadOp::Load,
            read_dram_addr: NUM_AT,
            addr: 0,
            stride: N_QUERY as u32,
            iter: 1,
            write_op: WriteOp::Store,
            write_dram_addr: Y_AT,
        })
        .fu(FuOps::alu_only(AluOp::Div));

    let program = Program::builder()
        .instruction(weights)
        .instruction(numerator)
        .instruction(denominator)
        .instruction(divide)
        .build()?;
    println!("hand-written Nadaraya-Watson program:");
    print!("{}", disasm::listing(&program, 10, 0));

    let config = ArchConfig::paper_default();
    let mut accel = Accelerator::builder(config.clone()).trace(TraceConfig::counters()).build()?;
    let report = accel.run(&program, &mut dram)?;
    println!("\n{}\n", report.stats);
    if let Some(trace) = &report.trace {
        println!(
            "trace: hot-buffer {} reads / {} writes, ALU ops {{div {}}}, {} ping-pong flips\n",
            trace.hotbuf.reads, trace.hotbuf.writes, trace.alu_ops.div, trace.ping_pong_flips,
        );
    }

    // Compare with the software reference.
    println!("{:<8} {:>12} {:>12} {:>10}", "query", "accelerator", "software", "error");
    let mut worst = 0.0f32;
    for (q, query) in queries.iter().enumerate() {
        let got = dram.read_f32(Y_AT + q as u64, 1)[0];
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for (x, t) in &train {
            let d: f32 = x.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            let w = (-d).exp();
            num += w * t;
            den += w;
        }
        let expect = num / den;
        let err = (got - expect).abs();
        worst = worst.max(err);
        println!("{q:<8} {got:>12.5} {expect:>12.5} {err:>10.5}");
    }
    println!("\nworst absolute error: {worst:.5} (fp16 datapath + 256-segment interpolation)");
    assert!(worst < 0.02, "custom kernel should track the software reference");
    Ok(())
}
