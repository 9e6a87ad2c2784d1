//! Cycle-level simulator of the PuDianNao ML accelerator (Section 3).
//!
//! The paper evaluated PuDianNao two ways: a Verilog design synthesised at
//! TSMC 65 nm, and "an in-house cycle-by-cycle C simulator of PuDianNao,
//! carefully calibrated to the verilog design" used for all large-scale
//! results. This crate is that simulator, rebuilt in Rust:
//!
//! - [`ArchConfig`] — the microarchitecture parameters: 16 functional
//!   units, each an MLU processing 16 features/cycle plus a small ALU;
//!   HotBuf (8 KB), ColdBuf (16 KB), OutputBuf (8 KB); 1 GHz clock; DMA
//!   up to 250 GB/s.
//! - [`isa`] — the Table-2 instruction format: five slots (CM, HotBuf,
//!   ColdBuf, OutputBuf, FU), with per-stage MLU opcodes and an ALU
//!   opcode.
//! - [`Accelerator`] — fetch/decode/execute over a [`Program`] against a
//!   simulated DRAM ([`Dram`]), with double-buffered DMA (the Table-3
//!   ping-pong pattern), bit-accurate 16-bit datapath arithmetic in the
//!   Adder/Multiplier/Adder-tree stages, 32-bit Counter/Acc/Misc stages,
//!   linear-interpolation non-linear functions, and a hardware k-sorter.
//! - [`timing`] — the per-instruction cycle formulas, shared by the
//!   executor and the analytic phase models so that full-paper-scale
//!   runtimes (10^12 cycles) can be predicted without 10^14 functional
//!   MACs.
//! - [`layout`] / [`EnergyModel`] — the Table-5 area/power breakdown
//!   (3.51 mm², 596 mW, 0.99 ns critical path) as model constants.
//! - [`trace`] — the observability layer: every run returns a
//!   [`RunReport`] (statistics + configuration fingerprint, JSON
//!   exportable), and [`AcceleratorBuilder::trace`] adds per-buffer
//!   activity counters, ALU op classification, and a bounded event ring
//!   without perturbing the statistics.
//! - [`profile`] — timeline export (Chrome Trace Event JSON from the
//!   event ring, one track per engine) and bottleneck attribution
//!   ([`analyze`] classifies a run as pipeline-, dma-, reconfiguration-
//!   or fault-overhead-bound).
//! - [`fault`] — deterministic fault injection ([`FaultPlan`]) and the
//!   modelled defences ([`Hardening`]): parity/SEC-DED buffer words,
//!   fetch checksums, a watchdog cycle budget, and graceful MLU-lane
//!   degradation. Zero-cost and provably zero-impact when disabled.
//!
//! # Example
//!
//! ```
//! use pudiannao_accel::{isa, Accelerator, ArchConfig, Dram, Error};
//!
//! // Dot-product of a stored vector against 4 streamed vectors.
//! let mut dram = Dram::new(1 << 20);
//! let theta: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
//! dram.write_f32(0, &theta);
//! for v in 0..4u64 {
//!     let x: Vec<f32> = (0..16).map(|i| (i + v as usize) as f32 / 8.0).collect();
//!     dram.write_f32(1024 + v * 16, &x);
//! }
//! let program = isa::Program::builder()
//!     .instruction(
//!         isa::Instruction::builder("lr-predict")
//!             .hot_load(0, 0, 16, 1)
//!             .cold_load(1024, 0, 16, 4)
//!             .out_store(4096, 1, 4)
//!             .fu(isa::FuOps::dot_broadcast(None)),
//!     )
//!     .build()?;
//! let mut accel = Accelerator::new(ArchConfig::paper_default())?;
//! let report = accel.run(&program, &mut dram)?;
//! assert!(report.stats.cycles > 0);
//! // Per-stage busy cycles partition the FU busy time exactly.
//! assert_eq!(report.stats.stage_cycles.total(), report.stats.compute_cycles);
//! let y = dram.read_f32(4096, 4);
//! // Exact dot is sum(i^2)/128 = 9.6875; the fp16 datapath is within rounding.
//! assert!((y[0] - 9.6875).abs() < 0.05);
//! # Ok::<(), Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// ^ `!(x > 0.0)` is used deliberately in validation: unlike `x <= 0.0`
// it also rejects NaN, which is exactly what config checks want.

mod buffer;
mod config;
mod energy;
mod error;
mod exec;
pub mod fault;
pub mod isa;
pub mod json;
mod ksorter;
pub mod layout;
mod memory;
pub mod profile;
mod stats;
pub mod timing;
pub mod trace;

pub use buffer::{Buffer, BufferKind};
pub use config::{ArchConfig, ConfigError};
pub use energy::EnergyModel;
pub use error::Error;
pub use exec::{charge_fetch, charge_instruction, Accelerator, AcceleratorBuilder, ExecError};
pub use fault::{EccMode, FaultConfig, FaultPlan, FaultReport, FaultSite, Hardening};
pub use isa::Program;
pub use ksorter::KSorter;
pub use memory::Dram;
pub use profile::{analyze, Bottleneck, PhaseAnalysis};
pub use stats::{ComponentEnergy, ExecStats, MluStage, StageCycles};
pub use trace::{RunReport, TraceConfig, TraceEvent, TraceReport};
