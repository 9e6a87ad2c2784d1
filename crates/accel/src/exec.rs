//! The control module and functional executor.
//!
//! "The control module fetches instructions from the InstBuf, decodes the
//! instructions, and sends operation signals to all FUs" (Section 4). The
//! executor here does exactly that over a [`Program`]: per instruction it
//! performs the DMA LOADs, streams the buffer operands through the decoded
//! MLU/ALU dataflow with bit-accurate 16-bit arithmetic in the 16-bit
//! stages, disposes results per the OutputBuf slot, and charges the
//! [`timing`] model's cycles with DMA double-buffered behind compute (the
//! Table-3 ping-pong).

use crate::buffer::{Buffer, BufferKind};
use crate::config::{ArchConfig, ConfigError};
use crate::energy::EnergyModel;
use crate::fault::{FaultConfig, FaultState};
use crate::isa::{CounterOp, Instruction, Program, ReadOp, WriteOp};
use crate::ksorter::KSorter;
use crate::memory::Dram;
use crate::stats::ExecStats;
use crate::timing::{self, DecodeError, InstTiming, Mode};
use crate::trace::{RunReport, TraceConfig, TraceReport};
use core::fmt;
use pudiannao_softfp::{quantize, taylor_ln, InterpTable, NonLinearFn, F16};
use std::collections::HashMap;

/// Errors raised during execution.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// Invalid architecture configuration.
    Config(ConfigError),
    /// The FU slot decodes to no supported dataflow.
    Decode(DecodeError),
    /// A buffer slot exceeds its buffer's capacity.
    BufferOverflow {
        /// Which buffer.
        buffer: BufferKind,
        /// Element offset requested.
        addr: u32,
        /// Elements requested.
        elems: u64,
    },
    /// A DRAM range is out of bounds.
    DramOverflow {
        /// Element address requested.
        addr: u64,
        /// Elements requested.
        elems: u64,
    },
    /// The instruction's slots are inconsistent with its mode.
    Malformed(&'static str),
    /// An instruction's projected cost exceeded the watchdog's
    /// per-instruction cycle budget (see
    /// [`Hardening::watchdog_cycles`](crate::Hardening)).
    Watchdog {
        /// Program index of the offending instruction.
        inst: u64,
        /// Its projected compute + DMA cycles.
        cycles: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A buffer word's ECC detected an error it could not correct
    /// (double-bit under SEC-DED, any odd-bit under parity).
    UncorrectableEcc {
        /// The buffer whose word failed the check.
        buffer: BufferKind,
        /// Element offset of the bad word.
        addr: u32,
    },
    /// The instruction stream failed checksum validation at fetch.
    InstStreamCorrupt {
        /// Program index of the corrupted instruction word.
        inst: u64,
    },
    /// An MLU lane failed its residue check with lane masking disabled.
    LaneFault {
        /// The faulty lane.
        lane: u32,
    },
}

impl ExecError {
    /// Whether this error is the fault-resilience machinery *working* —
    /// a defence detecting injected damage (watchdog, ECC detection,
    /// fetch checksum, lane residue check) rather than a malformed
    /// program or configuration. Campaign harnesses use this to separate
    /// "detected" outcomes from genuine crashes.
    #[must_use]
    pub fn is_fault_detection(&self) -> bool {
        matches!(
            self,
            ExecError::Watchdog { .. }
                | ExecError::UncorrectableEcc { .. }
                | ExecError::InstStreamCorrupt { .. }
                | ExecError::LaneFault { .. }
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Config(e) => write!(f, "configuration: {e}"),
            ExecError::Decode(e) => write!(f, "decode: {e}"),
            ExecError::BufferOverflow { buffer, addr, elems } => {
                write!(f, "{buffer} overflow: {elems} elems at offset {addr}")
            }
            ExecError::DramOverflow { addr, elems } => {
                write!(f, "DRAM overflow: {elems} elems at {addr}")
            }
            ExecError::Malformed(msg) => write!(f, "malformed instruction: {msg}"),
            ExecError::Watchdog { inst, cycles, budget } => {
                write!(
                    f,
                    "watchdog: instruction {inst} projected {cycles} cycles (budget {budget})"
                )
            }
            ExecError::UncorrectableEcc { buffer, addr } => {
                write!(f, "{buffer} ECC: uncorrectable error at offset {addr}")
            }
            ExecError::InstStreamCorrupt { inst } => {
                write!(f, "instruction stream corrupt at index {inst} (checksum mismatch)")
            }
            ExecError::LaneFault { lane } => {
                write!(f, "MLU lane {lane} failed its residue check")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ConfigError> for ExecError {
    fn from(e: ConfigError) -> ExecError {
        ExecError::Config(e)
    }
}

impl From<DecodeError> for ExecError {
    fn from(e: DecodeError) -> ExecError {
        ExecError::Decode(e)
    }
}

/// Charges the InstBuf fetch of an `instructions`-long program to `stats`:
/// the whole program streams through the InstBuf (refills overlap
/// execution); the initial fill serialises before the first instruction
/// issues.
///
/// The functional executor and the analytic phase models in
/// `pudiannao-codegen` both charge through this helper, so the two paths
/// cannot drift.
pub fn charge_fetch(config: &ArchConfig, stats: &mut ExecStats, instructions: u64) {
    let fetch_bytes = instructions * timing::INSTRUCTION_BYTES;
    stats.dma_bytes += fetch_bytes;
    stats.cycles += (fetch_bytes.min(u64::from(config.instbuf_bytes)) as f64
        / config.dma_bytes_per_cycle())
    .ceil() as u64;
}

/// Charges one instruction's [`InstTiming`] to `stats` and returns the
/// cycles it occupied the machine. When `overlapped`, the instruction's
/// DMA runs behind the previous instruction's compute (the Table-3
/// ping-pong) and only the slower of the two advances the clock; DMA
/// cycles not hidden by compute are counted as stall cycles. The first
/// instruction of a program (nothing to overlap with) and every
/// instruction with double-buffering disabled charge serially.
pub fn charge_instruction(
    energy: &EnergyModel,
    stats: &mut ExecStats,
    t: &InstTiming,
    overlapped: bool,
) -> u64 {
    let elapsed = if overlapped {
        t.compute_cycles.max(t.dma_cycles)
    } else {
        t.compute_cycles + t.dma_cycles
    };
    stats.cycles += elapsed;
    stats.instructions += 1;
    stats.compute_cycles += t.compute_cycles;
    stats.dma_cycles += t.dma_cycles;
    stats.dma_bytes += t.dma_bytes;
    stats.mlu_ops += t.mlu_ops;
    stats.alu_ops += t.alu_ops;
    stats.stage_cycles += t.stage_cycles;
    stats.dma_stall_cycles +=
        if overlapped { t.dma_cycles.saturating_sub(t.compute_cycles) } else { t.dma_cycles };
    if t.reconfigured_dma {
        stats.dma_reconfig_descriptors += u64::from(t.dma_reconfigs);
    } else {
        stats.dma_regular_descriptors += u64::from(t.dma_reconfigs);
    }
    stats.energy += energy.instruction_energy(t, elapsed);
    elapsed
}

/// Reusable per-instruction working memory.
///
/// The executor's steady-state loop is allocation-free: every instruction
/// stages its results (and the k-sorter register file) in this arena,
/// which grows to the high-water size once and is reused for the rest of
/// the accelerator's lifetime.
#[derive(Debug)]
struct Scratch {
    /// Results staged for the OutputBuf write (and the DRAM store).
    results: Vec<f32>,
    /// The Misc stage's smallest-k register file, re-targeted per cold
    /// row via [`KSorter::reset`].
    sorter: KSorter,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch { results: Vec::new(), sorter: KSorter::new(1) }
    }
}

/// The simulated accelerator.
///
/// Buffer contents persist across [`Accelerator::run`] calls, exactly as
/// SRAM contents persist across instruction sequences on the chip.
pub struct Accelerator {
    config: ArchConfig,
    energy: EnergyModel,
    hot: Buffer,
    cold: Buffer,
    out: Buffer,
    interp: HashMap<NonLinearFn, InterpTable>,
    trace_config: Option<TraceConfig>,
    fault: Option<FaultState>,
    scratch: Scratch,
}

/// Fluent constructor for [`Accelerator`]: the optional layers (tracing,
/// fault injection) are armed here, for the accelerator's lifetime.
///
/// ```ignore
/// let accel = Accelerator::builder(ArchConfig::paper_default())
///     .trace(TraceConfig::full())
///     .build()?;
/// ```
#[derive(Debug)]
pub struct AcceleratorBuilder {
    config: ArchConfig,
    trace: Option<TraceConfig>,
    faults: Option<FaultConfig>,
}

impl AcceleratorBuilder {
    /// Enables run tracing: each [`Accelerator::run`] returns a populated
    /// [`RunReport::trace`]. Tracing observes the run without perturbing
    /// it — [`ExecStats`] are identical with tracing on or off.
    #[must_use]
    pub fn trace(mut self, config: TraceConfig) -> AcceleratorBuilder {
        self.trace = Some(config);
        self
    }

    /// Enables deterministic fault injection and hardening: each
    /// [`Accelerator::run`] draws faults from the plan's seeded RNG and
    /// returns a populated [`RunReport::fault`]. Like tracing, the layer
    /// costs one branch per instruction when disabled; with an all-zero
    /// plan and no hardening it is provably zero-impact — statistics and
    /// memory contents stay bit-identical.
    ///
    /// Masked lanes and latent buffer errors persist across runs on the
    /// same accelerator (they model physical damage).
    #[must_use]
    pub fn faults(mut self, config: FaultConfig) -> AcceleratorBuilder {
        self.faults = Some(config);
        self
    }

    /// Validates the configuration and builds the accelerator with the
    /// requested layers armed.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn build(self) -> Result<Accelerator, ExecError> {
        let mut accel = Accelerator::new(self.config)?;
        accel.trace_config = self.trace;
        accel.fault = self.faults.map(FaultState::new);
        Ok(accel)
    }
}

impl Accelerator {
    /// Starts a fluent [`AcceleratorBuilder`] over `config`: chain
    /// [`AcceleratorBuilder::trace`] / [`AcceleratorBuilder::faults`] and
    /// finish with [`AcceleratorBuilder::build`].
    #[must_use]
    pub fn builder(config: ArchConfig) -> AcceleratorBuilder {
        AcceleratorBuilder { config, trace: None, faults: None }
    }

    /// Builds an accelerator from a validated configuration, with tracing
    /// and fault injection disabled; [`Accelerator::builder`] arms them.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(config: ArchConfig) -> Result<Accelerator, ExecError> {
        config.validate()?;
        Ok(Accelerator {
            energy: EnergyModel::new(&config),
            hot: Buffer::new(BufferKind::Hot, config.hotbuf_bytes),
            cold: Buffer::new(BufferKind::Cold, config.coldbuf_bytes),
            out: Buffer::new(BufferKind::Output, config.outputbuf_bytes),
            interp: HashMap::new(),
            trace_config: None,
            fault: None,
            scratch: Scratch::default(),
            config,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The active trace configuration, if any.
    #[must_use]
    pub fn trace_config(&self) -> Option<&TraceConfig> {
        self.trace_config.as_ref()
    }

    /// The active fault configuration, if any.
    #[must_use]
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.fault.as_ref().map(FaultState::config)
    }

    /// Executes a program against `dram`, returning a [`RunReport`] with
    /// the run's aggregate statistics, the trace (when armed with
    /// [`AcceleratorBuilder::trace`]), the fault report (when armed with
    /// [`AcceleratorBuilder::faults`]), and the configuration fingerprint.
    ///
    /// # Errors
    ///
    /// Any bounds violation, decode failure, or slot inconsistency aborts
    /// execution with a typed error; DRAM and buffers keep whatever the
    /// already-executed prefix wrote.
    pub fn run(&mut self, program: &Program, dram: &mut Dram) -> Result<RunReport, ExecError> {
        let mut stats = ExecStats::default();
        let mut trace = self.trace_config.as_ref().map(TraceReport::new);
        if let Some(f) = self.fault.as_mut() {
            f.begin_run();
        }
        charge_fetch(&self.config, &mut stats, program.len() as u64);
        let mut first = true;
        for (index, inst) in program.instructions().iter().enumerate() {
            // Fetch: the fault layer may hand back a corrupted copy of
            // the instruction word (or a typed error when the stream
            // checksum catches it).
            let fetched = match self.fault.as_mut() {
                Some(f) => f.fetch(index as u64, inst)?,
                None => None,
            };
            let inst = fetched.as_ref().unwrap_or(inst);
            let mode = timing::decode(&inst.fu, inst.hot.iter)?;
            let is_mlu =
                !matches!(mode, Mode::AluDiv | Mode::AluMul | Mode::AluLog { .. } | Mode::TreeStep);
            // Lane check runs before timing so an instruction that masks
            // a faulty lane is timed entirely at the reduced width.
            {
                let Accelerator { config, fault, .. } = &mut *self;
                if let Some(f) = fault.as_mut() {
                    f.lane_check(config, is_mlu)?;
                }
            }
            let t = {
                let timing_cfg = self
                    .fault
                    .as_ref()
                    .and_then(FaultState::degraded_config)
                    .unwrap_or(&self.config);
                timing::instruction_timing(timing_cfg, inst)?
            };
            if let Some(budget) = self.fault.as_ref().and_then(FaultState::watchdog_cycles) {
                let cycles = t.compute_cycles.saturating_add(t.dma_cycles);
                if cycles > budget {
                    return Err(ExecError::Watchdog { inst: index as u64, cycles, budget });
                }
            }
            self.exec_functional(mode, inst, dram)?;
            let overlapped = !first && self.config.double_buffering;
            first = false;
            let issue_cycle = stats.cycles;
            let energy_before = stats.energy;
            charge_instruction(&self.energy, &mut stats, &t, overlapped);
            if let Some(f) = self.fault.as_mut() {
                let overhead = f.take_overhead_cycles();
                stats.cycles += overhead;
                stats.fault_overhead_cycles += overhead;
                f.apply_ecc_energy(&mut stats, &energy_before);
            }
            if let Some(trace) = trace.as_mut() {
                trace.record_instruction(
                    index as u64,
                    inst,
                    &mode,
                    &t,
                    issue_cycle,
                    stats.cycles,
                    overlapped,
                );
                if let Some(f) = self.fault.as_mut() {
                    f.drain_events_into(trace, index as u64, stats.cycles);
                }
            } else if let Some(f) = self.fault.as_mut() {
                f.clear_events();
            }
        }
        if let Some(trace) = trace.as_mut() {
            trace.set_high_water(BufferKind::Hot, self.hot.footprint_elems() as u64);
            trace.set_high_water(BufferKind::Cold, self.cold.footprint_elems() as u64);
            trace.set_high_water(BufferKind::Output, self.out.footprint_elems() as u64);
            trace.warn_if_dropped();
        }
        Ok(RunReport {
            label: None,
            stats,
            trace,
            config_fingerprint: self.config.fingerprint(),
            fault: self.fault.as_mut().map(FaultState::take_report),
        })
    }

    fn check_buffer(&self, buffer: BufferKind, addr: u32, elems: u64) -> Result<(), ExecError> {
        let buf = match buffer {
            BufferKind::Hot => &self.hot,
            BufferKind::Cold => &self.cold,
            BufferKind::Output => &self.out,
        };
        if buf.in_bounds(addr, elems) {
            Ok(())
        } else {
            Err(ExecError::BufferOverflow { buffer, addr, elems })
        }
    }

    fn check_dram(dram: &Dram, addr: u64, elems: u64) -> Result<(), ExecError> {
        if dram.in_bounds(addr, elems) {
            Ok(())
        } else {
            Err(ExecError::DramOverflow { addr, elems })
        }
    }

    /// Performs the LOAD side of a buffer slot. When faults are enabled,
    /// the fresh fill supersedes any latent errors under it, and the
    /// transfer itself may be corrupted in flight (before the ECC
    /// encode, so buffer protection cannot see it).
    fn load_input(
        buf: &mut Buffer,
        slot: &crate::isa::BufferRead,
        dram: &Dram,
        fault: &mut Option<FaultState>,
    ) -> Result<(), ExecError> {
        if slot.op == ReadOp::Load && slot.elems() > 0 {
            if !buf.in_bounds(slot.addr, slot.elems()) {
                return Err(ExecError::BufferOverflow {
                    buffer: buf.kind(),
                    addr: slot.addr,
                    elems: slot.elems(),
                });
            }
            if slot.dram_row_stride == 0 || slot.dram_row_stride == u64::from(slot.stride) {
                Self::check_dram(dram, slot.dram_addr, slot.elems())?;
                let data = dram.slice(slot.dram_addr, slot.elems() as usize);
                buf.write(slot.addr, data);
            } else {
                // 2D transfer: one descriptor, strided row starts.
                // Saturating span: an adversarial stride must surface as
                // a typed DRAM overflow, not an arithmetic panic.
                let span = slot
                    .dram_row_stride
                    .saturating_mul(u64::from(slot.iter.saturating_sub(1)))
                    .saturating_add(u64::from(slot.stride));
                Self::check_dram(dram, slot.dram_addr, span)?;
                for r in 0..slot.iter {
                    let src = slot.dram_addr + u64::from(r) * slot.dram_row_stride;
                    let data = dram.slice(src, slot.stride as usize);
                    buf.write(slot.addr + r * slot.stride, data);
                }
            }
            if let Some(f) = fault.as_mut() {
                f.note_write(buf.kind(), slot.addr, slot.elems());
                f.corrupt_fill(buf, slot.addr, slot.elems());
            }
        }
        Ok(())
    }

    fn exec_functional(
        &mut self,
        mode: Mode,
        inst: &Instruction,
        dram: &mut Dram,
    ) -> Result<(), ExecError> {
        // DMA in. Tree-step node words bypass the 16-bit HotBuf
        // quantisation (they are integers/pointers streamed as raw words),
        // so their hot slot is consumed directly from DRAM in `compute`.
        if mode != Mode::TreeStep {
            Self::load_input(&mut self.hot, &inst.hot, dram, &mut self.fault)?;
        }
        Self::load_input(&mut self.cold, &inst.cold, dram, &mut self.fault)?;
        if inst.out.read_op == ReadOp::Load && inst.out.elems() > 0 {
            Self::check_dram(dram, inst.out.read_dram_addr, inst.out.elems())?;
            self.check_buffer(BufferKind::Output, inst.out.addr, inst.out.elems())?;
            let data = dram.slice(inst.out.read_dram_addr, inst.out.elems() as usize);
            self.out.write(inst.out.addr, data);
            let Accelerator { out, fault, .. } = &mut *self;
            if let Some(f) = fault.as_mut() {
                f.note_write(BufferKind::Output, inst.out.addr, inst.out.elems());
                f.corrupt_fill(out, inst.out.addr, inst.out.elems());
            }
        }

        // Soft-error window: upsets strike the occupied buffer words
        // between the fills and the streamed reads below.
        {
            let Accelerator { hot, cold, out, fault, .. } = &mut *self;
            if let Some(f) = fault.as_mut() {
                f.inject_upsets(hot, cold, out);
            }
        }

        // Operand bounds for the streamed reads, then the read-side ECC
        // scrub of each region the instruction streams.
        if inst.hot.op != ReadOp::Null && mode != Mode::TreeStep {
            self.check_buffer(BufferKind::Hot, inst.hot.addr, inst.hot.elems())?;
            let Accelerator { hot, fault, .. } = &mut *self;
            if let Some(f) = fault.as_mut() {
                f.scrub(hot, inst.hot.addr, inst.hot.elems())?;
            }
        }
        if inst.cold.op != ReadOp::Null {
            self.check_buffer(BufferKind::Cold, inst.cold.addr, inst.cold.elems())?;
            let Accelerator { cold, fault, .. } = &mut *self;
            if let Some(f) = fault.as_mut() {
                f.scrub(cold, inst.cold.addr, inst.cold.elems())?;
            }
        }
        if inst.out.elems() > 0 {
            self.check_buffer(BufferKind::Output, inst.out.addr, inst.out.elems())?;
            if inst.out.read_op != ReadOp::Null {
                let Accelerator { out, fault, .. } = &mut *self;
                if let Some(f) = fault.as_mut() {
                    f.scrub(out, inst.out.addr, inst.out.elems())?;
                }
            }
        }

        // Compute into the scratch arena (no per-instruction allocation).
        self.compute(mode, inst, dram)?;

        // Undetected lane faults and ALU upsets land in the staged
        // results.
        {
            let is_mlu =
                !matches!(mode, Mode::AluDiv | Mode::AluMul | Mode::AluLog { .. } | Mode::TreeStep);
            let Accelerator { fault, scratch, .. } = &mut *self;
            if let Some(f) = fault.as_mut() {
                f.post_compute(is_mlu, &mut scratch.results);
            }
        }

        // Dispose results.
        if !self.scratch.results.is_empty() {
            self.out.write(inst.out.addr, &self.scratch.results);
            let len = self.scratch.results.len() as u64;
            if let Some(f) = self.fault.as_mut() {
                f.note_write(BufferKind::Output, inst.out.addr, len);
            }
            if inst.out.write_op == WriteOp::Store {
                Self::check_dram(dram, inst.out.write_dram_addr, len)?;
                dram.write_f32(inst.out.write_dram_addr, &self.scratch.results);
                if let Some(f) = self.fault.as_mut() {
                    f.corrupt_store(dram, inst.out.write_dram_addr, len);
                }
            }
        }
        Ok(())
    }

    fn interp_table(&mut self, f: NonLinearFn) -> &InterpTable {
        let segments = self.config.interp_segments;
        self.interp.entry(f).or_insert_with(|| {
            InterpTable::for_function(f, segments).expect("validated non-zero segment count")
        })
    }

    /// Executes the decoded dataflow, leaving the results staged in
    /// `self.scratch.results`. All working memory comes from the scratch
    /// arena: the steady-state loop performs no heap allocation.
    #[allow(clippy::too_many_lines)]
    fn compute(&mut self, mode: Mode, inst: &Instruction, dram: &Dram) -> Result<(), ExecError> {
        // Materialise the interpolation table outside the destructured
        // borrow region below (it needs `&mut self.interp` + `self.config`).
        if let Mode::Distance { activation: Some(f), .. } | Mode::Dot { activation: Some(f), .. } =
            mode
        {
            let _ = self.interp_table(f);
        }

        let Accelerator { config, hot, cold, out, interp, scratch, fault, .. } = self;
        // Masked (faulty) MLU lanes shrink the effective datapath width:
        // same results via a different reduction chunking, at more cycles.
        let masked = fault.as_ref().map_or(0, |f| f.masked_lanes());
        let lanes = config.lanes.saturating_sub(masked).max(1) as usize;
        let width = inst.cold.stride as usize;
        let out_stride = inst.out.stride as usize;
        let seeded = inst.out.read_op != ReadOp::Null;
        let hot_row =
            |h: u32| hot.read(inst.hot.addr + h * inst.hot.stride, inst.hot.stride as usize);
        let hot_rows = || hot.read(inst.hot.addr, inst.hot.elems() as usize);
        let cold_row =
            |c: u32| cold.read(inst.cold.addr + c * inst.cold.stride, inst.cold.stride as usize);
        let activation_table =
            |f: NonLinearFn| interp.get(&f).expect("interp table materialised before compute");
        let results = &mut scratch.results;
        results.clear();

        match mode {
            Mode::Distance { sort_k, activation } => {
                if inst.out.iter != inst.cold.iter {
                    return Err(ExecError::Malformed("distance: out.iter must equal cold.iter"));
                }
                if inst.hot.stride != inst.cold.stride {
                    return Err(ExecError::Malformed("distance: row widths must match"));
                }
                // The hot rows are the adder trees. A cold row is read only
                // when there are hot rows to reduce it against.
                let n_hot = inst.hot.iter as usize;
                let distances = |c: u32, emit: &mut dyn FnMut(usize, f32)| {
                    if n_hot > 0 {
                        reduce_rows(hot_rows(), n_hot, cold_row(c), lanes, distance_leaf, emit);
                    }
                };
                match sort_k {
                    Some(k) => {
                        if k == 0 {
                            return Err(ExecError::Malformed("distance+sort: k must be positive"));
                        }
                        let k = k as usize;
                        if out_stride != 2 * k {
                            return Err(ExecError::Malformed(
                                "distance+sort: out.stride must be 2k",
                            ));
                        }
                        let sorter = &mut scratch.sorter;
                        for c in 0..inst.cold.iter {
                            sorter.reset(k);
                            if seeded {
                                let seed =
                                    out.read(inst.out.addr + c * inst.out.stride, out_stride);
                                sorter.seed_flat(seed);
                            }
                            distances(c, &mut |h, d| sorter.offer(d, inst.hot_row_base + h as u64));
                            sorter.write_output_into(results);
                        }
                        Ok(())
                    }
                    None => {
                        if seeded {
                            return Err(ExecError::Malformed("plain distance does not accumulate"));
                        }
                        if out_stride < n_hot {
                            return Err(ExecError::Malformed(
                                "distance: out.stride must hold hot.iter values",
                            ));
                        }
                        results.resize(inst.out.elems() as usize, 0.0);
                        for c in 0..inst.cold.iter {
                            let out_row = &mut results[c as usize * out_stride..];
                            distances(c, &mut |h, d| out_row[h] = d);
                        }
                        if let Some(f) = activation {
                            let table = activation_table(f);
                            for v in results.iter_mut() {
                                *v = table.eval(*v);
                            }
                        }
                        Ok(())
                    }
                }
            }
            Mode::Dot { activation, pairwise } => {
                if inst.out.iter != inst.cold.iter {
                    return Err(ExecError::Malformed("dot: out.iter must equal cold.iter"));
                }
                let n_hot = if pairwise { inst.hot.iter as usize } else { 1 };
                if out_stride < n_hot {
                    return Err(ExecError::Malformed("dot: out.stride too small"));
                }
                if inst.hot.stride != inst.cold.stride {
                    return Err(ExecError::Malformed("dot: row widths must match"));
                }
                let n_out = inst.out.elems() as usize;
                if seeded {
                    results.extend_from_slice(out.read(inst.out.addr, n_out));
                } else {
                    results.resize(n_out, 0.0);
                }
                if pairwise {
                    // The hot rows are the adder trees; each cold row is
                    // reduced against all of them.
                    for c in 0..inst.cold.iter {
                        let out_row = &mut results[c as usize * out_stride..];
                        let emit = |h: usize, d: f32| out_row[h] += d;
                        reduce_rows(hot_rows(), n_hot, cold_row(c), lanes, dot_leaf, emit);
                    }
                } else if inst.cold.iter > 0 {
                    // One hot row: the cold rows are the adder trees, so the
                    // groups still fill all their lanes.
                    let cold_rows = cold.read(inst.cold.addr, inst.cold.elems() as usize);
                    let n_cold = inst.cold.iter as usize;
                    let emit = |c: usize, d: f32| results[c * out_stride] += d;
                    reduce_rows(cold_rows, n_cold, hot_row(0), lanes, dot_leaf, emit);
                }
                if let Some(f) = activation {
                    let table = activation_table(f);
                    for v in results.iter_mut() {
                        *v = table.eval(*v);
                    }
                }
                Ok(())
            }
            Mode::Count(op) => {
                if inst.out.iter != inst.hot.iter || out_stride != width {
                    return Err(ExecError::Malformed(
                        "count: out must be hot.iter rows of cold width",
                    ));
                }
                if inst.hot.stride != inst.cold.stride {
                    return Err(ExecError::Malformed("count: row widths must match"));
                }
                let n_out = inst.out.elems() as usize;
                if seeded {
                    results.extend_from_slice(out.read(inst.out.addr, n_out));
                } else {
                    results.resize(n_out, 0.0);
                }
                for c in 0..inst.cold.iter {
                    let row = cold_row(c);
                    for h in 0..inst.hot.iter {
                        let cand = hot_row(h);
                        let counts = &mut results[h as usize * out_stride..][..width];
                        match op {
                            CounterOp::CountEq => count_hits(counts, row, cand, |x, cd| x == cd),
                            CounterOp::CountGt => count_hits(counts, row, cand, |x, cd| x > cd),
                            CounterOp::Null => unreachable!("decoded as Count"),
                        }
                    }
                }
                Ok(())
            }
            Mode::WeightedSum => {
                // out[j] (+)= sum_r hot[r] * cold[r][j]: products in
                // binary16, accumulation in the 32-bit Acc stage.
                if inst.out.iter != 1 || out_stride != width {
                    return Err(ExecError::Malformed(
                        "weighted-sum: out must be one row of cold width",
                    ));
                }
                if inst.hot.iter != 1 || inst.hot.stride != inst.cold.iter {
                    return Err(ExecError::Malformed(
                        "weighted-sum: hot must be one row of cold.iter scalars",
                    ));
                }
                if seeded {
                    results.extend_from_slice(out.read(inst.out.addr, width));
                } else {
                    results.resize(width, 0.0);
                }
                let scalars = hot_row(0);
                for r in 0..inst.cold.iter {
                    let w = F16::from_f32(scalars[r as usize]);
                    let row = cold_row(r);
                    for (j, &x) in row.iter().enumerate() {
                        results[j] += (w * F16::from_f32(x)).to_f32();
                    }
                }
                Ok(())
            }
            Mode::ProductReduce => {
                if inst.out.iter != inst.cold.iter || out_stride != 1 {
                    return Err(ExecError::Malformed(
                        "product: out must be one value per cold row",
                    ));
                }
                let n_out = inst.out.elems() as usize;
                if seeded {
                    results.extend_from_slice(out.read(inst.out.addr, n_out));
                } else {
                    results.resize(n_out, 1.0);
                }
                for c in 0..inst.cold.iter {
                    let row = cold_row(c);
                    let mut p = results[c as usize];
                    for &v in row {
                        p *= v;
                    }
                    results[c as usize] = p;
                }
                Ok(())
            }
            Mode::AluDiv | Mode::AluMul => {
                if !seeded {
                    return Err(ExecError::Malformed(
                        "elementwise ALU op needs seeded output rows",
                    ));
                }
                if inst.out.iter != inst.cold.iter || out_stride != width {
                    return Err(ExecError::Malformed("elementwise ALU op: shapes must match"));
                }
                results.extend_from_slice(out.read(inst.out.addr, inst.out.elems() as usize));
                for c in 0..inst.cold.iter {
                    let row = cold_row(c);
                    for (j, &d) in row.iter().enumerate() {
                        let idx = c as usize * out_stride + j;
                        results[idx] = if mode == Mode::AluMul {
                            results[idx] * d
                        } else if d != 0.0 {
                            results[idx] / d
                        } else {
                            0.0
                        };
                    }
                }
                Ok(())
            }
            Mode::AluLog { terms } => {
                if !seeded {
                    return Err(ExecError::Malformed("log: output rows must be seeded"));
                }
                results.extend_from_slice(out.read(inst.out.addr, inst.out.elems() as usize));
                for v in results.iter_mut() {
                    *v = taylor_ln(*v, terms);
                }
                Ok(())
            }
            Mode::TreeStep => {
                // Nodes are integer/pointer words: stream them straight
                // from DRAM (the hardware moves them as raw words, not
                // fp16; the 16-bit buffers would corrupt child indices).
                if inst.hot.op != ReadOp::Load || inst.hot.stride != 4 {
                    return Err(ExecError::Malformed(
                        "tree-step: hot must LOAD 4-element node rows",
                    ));
                }
                if !seeded || inst.out.iter != inst.cold.iter || out_stride != 1 {
                    return Err(ExecError::Malformed(
                        "tree-step: out must be one seeded state per instance",
                    ));
                }
                Self::check_dram(dram, inst.hot.dram_addr, inst.hot.elems())?;
                let nodes = dram.slice(inst.hot.dram_addr, inst.hot.elems() as usize);
                let base = inst.hot_row_base;
                results.extend_from_slice(out.read(inst.out.addr, inst.out.elems() as usize));
                for c in 0..inst.cold.iter {
                    let s = results[c as usize];
                    if s < 0.0 {
                        continue; // already at a leaf
                    }
                    let n = s as u64;
                    if n < base || n >= base + u64::from(inst.hot.iter) {
                        continue; // belongs to another subtree
                    }
                    let row = &nodes[((n - base) * 4) as usize..((n - base) * 4 + 4) as usize];
                    if row[0] < 0.0 {
                        // Leaf: encode the class as -(1 + class).
                        results[c as usize] = -(1.0 + row[1]);
                    } else {
                        let feature = row[0] as usize;
                        if feature >= width {
                            return Err(ExecError::Malformed("tree-step: feature out of range"));
                        }
                        let x = cold_row(c)[feature];
                        results[c as usize] = if x <= row[1] { row[2] } else { row[3] };
                    }
                }
                Ok(())
            }
        }
    }
}

impl fmt::Debug for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Accelerator").field("config", &self.config).finish_non_exhaustive()
    }
}

/// The Adder and Multiplier stages of a distance lane:
/// `q(q(q(a) - q(b))^2)`, every binary16 op a [`quantize`] of the exact
/// `f32` result, which is how [`F16`] arithmetic rounds.
#[inline]
fn distance_leaf(a: f32, b: f32) -> f32 {
    let d = quantize(quantize(a) - quantize(b));
    quantize(d * d)
}

/// The Multiplier stage of a dot lane: `q(q(a) * q(b))`.
#[inline]
fn dot_leaf(a: f32, b: f32) -> f32 {
    quantize(quantize(a) * quantize(b))
}

/// Adder trees reduced side by side, one per row of a group.
const GROUP: usize = 8;

/// Leaves held on the stack per adder-tree block: the paper's MLU width.
const TREE_BLOCK: usize = 16;

/// One value per adder tree of a group; lane `j` belongs to row `j`.
type Lanes = [f32; GROUP];

/// The binary16 adder, lane by lane.
#[inline]
fn add_lanes(a: &Lanes, b: &Lanes) -> Lanes {
    let mut sum = [0.0f32; GROUP];
    for ((s, &x), &y) in sum.iter_mut().zip(a).zip(b) {
        *s = quantize(x + y);
    }
    sum
}

/// Reduces each of the `n_rows` consecutive rows in `rows` against
/// `single` on the MLU and hands `emit(row, value)` the results in row
/// order.
///
/// Each row is one adder tree: its `leaf` values are fed `lanes` per
/// chunk, each chunk's leaves are summed in binary16 by
/// [`chunk_trees`], and the chunk sums are accumulated in `f32` from
/// `+0.0` (the 32-bit Acc stage). The rows go [`GROUP`] at a time, lane
/// `j` of every step doing exactly row `j`'s scalar sequence, so the
/// bits equal the `F16` reference reduction (`tree_sum_sq` /
/// `tree_sum_dot` in the tests) for any lane count. A partial last group
/// leaves its spare lanes at zero and drops their sums.
fn reduce_rows(
    rows: &[f32],
    n_rows: usize,
    single: &[f32],
    lanes: usize,
    leaf: impl Fn(f32, f32) -> f32 + Copy,
    mut emit: impl FnMut(usize, f32),
) {
    let width = single.len();
    for first in (0..n_rows).step_by(GROUP) {
        let count = GROUP.min(n_rows - first);
        let group = &rows[first * width..(first + count) * width];
        let mut acc = [0.0f32; GROUP];
        let mut lo = 0;
        while lo < width {
            let n = lanes.min(width - lo);
            for (a, s) in acc.iter_mut().zip(chunk_trees(group, single, lo, n, leaf)) {
                *a += s;
            }
            lo += n;
        }
        for (j, &v) in acc[..count].iter().enumerate() {
            emit(first + j, v);
        }
    }
}

/// The adder trees of one group over elements `lo..lo + n`: one tree per
/// row of `rows` (up to [`GROUP`] consecutive rows as long as `single`),
/// each against `single`, split at `ceil(n / 2)` like summing a
/// materialised product buffer. A span wider than [`TREE_BLOCK`] recurses
/// down to blocks that fit the stack.
///
/// A block stages each row's leaves contiguously, as the row sits in its
/// buffer. A power-of-two block then reduces adjacent pairs level by
/// level, which is the same order without the recursion: the first level
/// reads each pair across the rows into one [`Lanes`] vector, and every
/// later level is one vector [`add_lanes`]. Any other width recurses
/// over the staged columns. Lanes without a row keep zero leaves, which
/// sum to `+0.0`.
fn chunk_trees(
    rows: &[f32],
    single: &[f32],
    lo: usize,
    n: usize,
    leaf: impl Fn(f32, f32) -> f32 + Copy,
) -> Lanes {
    if n > TREE_BLOCK {
        let mid = n.div_ceil(2);
        let low = chunk_trees(rows, single, lo, mid, leaf);
        return add_lanes(&low, &chunk_trees(rows, single, lo + mid, n - mid, leaf));
    }
    let mut staged = [[0.0f32; TREE_BLOCK]; GROUP];
    for (leaves, row) in staged.iter_mut().zip(rows.chunks_exact(single.len())) {
        for ((v, &x), &y) in leaves.iter_mut().zip(&row[lo..lo + n]).zip(&single[lo..lo + n]) {
            *v = leaf(x, y);
        }
    }
    if n == 1 || !n.is_power_of_two() {
        return column_tree(&staged, 0, n);
    }
    let mut level = [[0.0f32; GROUP]; TREE_BLOCK / 2];
    for (i, pair_sums) in level[..n / 2].iter_mut().enumerate() {
        for (s, leaves) in pair_sums.iter_mut().zip(&staged) {
            *s = quantize(leaves[2 * i] + leaves[2 * i + 1]);
        }
    }
    let mut width = n / 2;
    while width > 1 {
        width /= 2;
        // In place: sum `i` lands below the pairs still to be read.
        for i in 0..width {
            level[i] = add_lanes(&level[2 * i], &level[2 * i + 1]);
        }
    }
    level[0]
}

/// Adder trees over staged columns `lo..lo + n`, split at `ceil(n / 2)`.
fn column_tree(staged: &[[f32; TREE_BLOCK]; GROUP], lo: usize, n: usize) -> Lanes {
    if n == 1 {
        return core::array::from_fn(|j| staged[j][lo]);
    }
    let mid = n.div_ceil(2);
    add_lanes(&column_tree(staged, lo, mid), &column_tree(staged, lo + mid, n - mid))
}

/// The Counter stage over one row: `counts[pos] + 1` wherever
/// `hit(row[pos], cand[pos])`, as a select rather than a branch. A miss
/// keeps the counter's bits, so a `-0.0` counter stays `-0.0`.
#[inline]
fn count_hits(counts: &mut [f32], row: &[f32], cand: &[f32], hit: impl Fn(f32, f32) -> bool) {
    for ((n, &x), &cd) in counts.iter_mut().zip(row).zip(cand) {
        let bumped = *n + 1.0;
        *n = if hit(x, cd) { bumped } else { *n };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BufferRead, CounterOp, FuOps, OutputSlot};

    fn accel() -> Accelerator {
        Accelerator::new(ArchConfig::paper_default()).unwrap()
    }

    fn traced(config: crate::trace::TraceConfig) -> Accelerator {
        Accelerator::builder(ArchConfig::paper_default()).trace(config).build().unwrap()
    }

    fn faulty(config: FaultConfig) -> Accelerator {
        Accelerator::builder(ArchConfig::paper_default()).faults(config).build().unwrap()
    }

    fn run_one(inst: Instruction, dram: &mut Dram) -> Result<RunReport, ExecError> {
        accel().run(&Program::new(vec![inst]).unwrap(), dram)
    }

    #[test]
    fn distance_matches_software_f16_reference() {
        // Nine hot rows: one full group of adder trees and a partial one.
        // Row h is row 0 shifted by h * 0.01, so every distance stays near
        // row 0's (about 7.9) and within 0.05 of exact.
        let mut dram = Dram::new(4096);
        let hot: Vec<Vec<f32>> =
            (0..9).map(|h| (0..16).map(|i| i as f32 * 0.1 + h as f32 * 0.01).collect()).collect();
        let b: Vec<f32> = (0..16).map(|i| 1.0 - i as f32 * 0.05).collect();
        dram.write_f32(0, &hot.concat());
        dram.write_f32(200, &b);
        let inst = Instruction {
            name: "dist".into(),
            hot: BufferRead::load(0, 0, 16, 9),
            cold: BufferRead::load(200, 0, 16, 1),
            out: OutputSlot::store(500, 9, 1),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        for (h, a) in hot.iter().enumerate() {
            let got = dram.read_f32(500 + h as u64, 1)[0];
            // One 16-lane chunk: the F16 reference tree over the row.
            assert_eq!(got.to_bits(), tree_sum_sq(a, &b).to_f32().to_bits(), "hot row {h}");
            // And close to the exact distance.
            let exact: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!((got - exact).abs() < 0.05, "hot row {h}: {got} vs {exact}");
        }
    }

    #[test]
    fn distance_with_sorter_finds_nearest() {
        let mut dram = Dram::new(8192);
        // 8 hot rows at increasing distance from the one cold row.
        for h in 0..8 {
            let row: Vec<f32> = (0..16).map(|_| h as f32).collect();
            dram.write_f32(h * 16, &row);
        }
        dram.write_f32(1000, &[2.1f32; 16]); // nearest hot row: 2
        let inst = Instruction {
            name: "knn".into(),
            hot: BufferRead::load(0, 0, 16, 8),
            cold: BufferRead::load(1000, 0, 16, 1),
            out: OutputSlot::store(2000, 6, 1), // k = 3 -> 2k = 6
            fu: FuOps::distance(Some(3)),
            hot_row_base: 100,
        };
        run_one(inst, &mut dram).unwrap();
        let out = dram.read_f32(2000, 6);
        // Distances are 16 * (2.1 - h)^2: nearest h = 2, then 3, then 1.
        assert_eq!(out[1], 102.0); // nearest reference tag = base + 2
        assert_eq!(out[3], 103.0);
        assert_eq!(out[5], 101.0);
        assert!(out[0] <= out[2] && out[2] <= out[4]);
    }

    #[test]
    fn sorter_partials_resume_across_instructions() {
        // Two instructions each covering half the references, with the
        // Table-3 accumulate pattern, must equal one covering all.
        let mut dram = Dram::new(8192);
        for h in 0..8 {
            let row: Vec<f32> = (0..16).map(|j| ((h * 31 + j * 7) % 13) as f32).collect();
            dram.write_f32(h * 16, &row);
        }
        dram.write_f32(1000, &[5.0f32; 16]);

        let full = Instruction {
            name: "knn".into(),
            hot: BufferRead::load(0, 0, 16, 8),
            cold: BufferRead::load(1000, 0, 16, 1),
            out: OutputSlot::store(2000, 4, 1),
            fu: FuOps::distance(Some(2)),
            hot_row_base: 0,
        };
        run_one(full, &mut dram).unwrap();
        let expect = dram.read_f32(2000, 4);

        let first_half = Instruction {
            name: "knn".into(),
            hot: BufferRead::load(0, 0, 16, 4),
            cold: BufferRead::load(1000, 0, 16, 1),
            out: OutputSlot::write(0, 4, 1),
            fu: FuOps::distance(Some(2)),
            hot_row_base: 0,
        };
        let second_half = Instruction {
            name: "knn".into(),
            hot: BufferRead::load(64, 0, 16, 4),
            cold: BufferRead::read(0, 16, 1),
            out: OutputSlot::accumulate_store(0, 4, 1, 3000),
            fu: FuOps::distance(Some(2)),
            hot_row_base: 4,
        };
        let mut a = accel();
        a.run(&Program::new(vec![first_half, second_half]).unwrap(), &mut dram).unwrap();
        assert_eq!(dram.read_f32(3000, 4), expect);
    }

    #[test]
    fn broadcast_dot_with_partials_and_activation() {
        let mut dram = Dram::new(8192);
        let theta: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) / 32.0).collect();
        let x: Vec<f32> = (0..32).map(|i| (i as f32) / 32.0).collect();
        dram.write_f32(0, &theta);
        dram.write_f32(100, &x);
        // Split the dot into two 16-element halves with accumulation, then
        // a sigmoid on the final block.
        let first = Instruction {
            name: "dnn".into(),
            hot: BufferRead::load(0, 0, 16, 1),
            cold: BufferRead::load(100, 0, 16, 1),
            out: OutputSlot::write(0, 1, 1),
            fu: FuOps::dot_broadcast(None),
            hot_row_base: 0,
        };
        let second = Instruction {
            name: "dnn".into(),
            hot: BufferRead::load(16, 0, 16, 1),
            cold: BufferRead::load(116, 0, 16, 1),
            out: OutputSlot::accumulate_store(0, 1, 1, 4000),
            fu: FuOps::dot_broadcast(Some(NonLinearFn::Sigmoid)),
            hot_row_base: 0,
        };
        let mut a = accel();
        a.run(&Program::new(vec![first, second]).unwrap(), &mut dram).unwrap();
        let got = dram.read_f32(4000, 1)[0];
        let exact: f32 = theta.iter().zip(&x).map(|(a, b)| a * b).sum();
        let expect = 1.0 / (1.0 + (-exact).exp());
        assert!((got - expect).abs() < 5e-3, "{got} vs {expect}");
    }

    #[test]
    fn pairwise_dot_fills_matrix() {
        let mut dram = Dram::new(8192);
        for h in 0..3 {
            dram.write_f32(h * 8, &[(h + 1) as f32; 8]);
        }
        for c in 0..2 {
            dram.write_f32(1000 + c * 8, &[(c + 1) as f32 * 0.5; 8]);
        }
        let inst = Instruction {
            name: "svm".into(),
            hot: BufferRead::load(0, 0, 8, 3),
            cold: BufferRead::load(1000, 0, 8, 2),
            out: OutputSlot::store(2000, 3, 2),
            fu: FuOps::dot_broadcast(None),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        let out = dram.read_f32(2000, 6);
        // out[c][h] = 8 * (h+1) * (c+1) * 0.5
        assert_eq!(out, vec![4.0, 8.0, 12.0, 8.0, 16.0, 24.0]);
    }

    #[test]
    fn counting_accumulates_per_candidate_and_position() {
        let mut dram = Dram::new(8192);
        // Candidates: row 0 = all zeros, row 1 = all ones.
        dram.write_f32(0, &[0.0f32; 4]);
        dram.write_f32(4, &[1.0f32; 4]);
        // Instances.
        dram.write_f32(100, &[0.0, 1.0, 1.0, 0.0]);
        dram.write_f32(104, &[0.0, 0.0, 1.0, 2.0]);
        let inst = Instruction {
            name: "nb".into(),
            hot: BufferRead::load(0, 0, 4, 2),
            cold: BufferRead::load(100, 0, 4, 2),
            out: OutputSlot::store(3000, 4, 2),
            fu: FuOps::count(CounterOp::CountEq),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        let counts = dram.read_f32(3000, 8);
        // candidate 0 (value 0): positions [2, 1, 0, 1]
        assert_eq!(&counts[0..4], &[2.0, 1.0, 0.0, 1.0]);
        // candidate 1 (value 1): positions [0, 1, 2, 0]
        assert_eq!(&counts[4..8], &[0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn count_gt_thresholds() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[0.5f32, 0.5]); // thresholds
        dram.write_f32(100, &[0.6, 0.4]);
        dram.write_f32(102, &[0.7, 0.9]);
        let inst = Instruction {
            name: "ct".into(),
            hot: BufferRead::load(0, 0, 2, 1),
            cold: BufferRead::load(100, 0, 2, 2),
            out: OutputSlot::store(200, 2, 1),
            fu: FuOps::count(CounterOp::CountGt),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        assert_eq!(dram.read_f32(200, 2), vec![2.0, 1.0]);
    }

    #[test]
    fn product_reduce_multiplies_rows() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[0.5f32, 0.5, 0.5, 0.5]);
        dram.write_f32(4, &[1.0f32, 2.0, 3.0, 1.0]);
        let inst = Instruction {
            name: "nb-pred".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(0, 0, 4, 2),
            out: OutputSlot::store(100, 1, 2),
            fu: FuOps::product_reduce(),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        let out = dram.read_f32(100, 2);
        assert!((out[0] - 0.0625).abs() < 1e-4);
        assert!((out[1] - 6.0).abs() < 1e-2);
    }

    #[test]
    fn alu_div_normalises() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[10.0f32, 20.0]); // numerators (centroid sums)
        dram.write_f32(10, &[2.0f32, 4.0]); // denominators (counts)
        let inst = Instruction {
            name: "kmeans-upd".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(10, 0, 2, 1),
            out: OutputSlot {
                read_op: ReadOp::Load,
                read_dram_addr: 0,
                addr: 0,
                stride: 2,
                iter: 1,
                write_op: WriteOp::Store,
                write_dram_addr: 100,
            },
            fu: FuOps::alu_only(AluOp::Div),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        assert_eq!(dram.read_f32(100, 2), vec![5.0, 5.0]);
    }

    #[test]
    fn tree_step_advances_and_classifies() {
        let mut dram = Dram::new(4096);
        // Tree: node 0 splits feature 0 at 0.5 -> children 1 (leaf class
        // 7) and 2 (leaf class 9). Node rows: [feature, thr, left, right].
        dram.write_f32(0, &[0.0, 0.5, 1.0, 2.0]);
        dram.write_f32(4, &[-1.0, 7.0, 0.0, 0.0]);
        dram.write_f32(8, &[-1.0, 9.0, 0.0, 0.0]);
        // Two instances.
        dram.write_f32(100, &[0.3, 0.0]);
        dram.write_f32(102, &[0.9, 0.0]);
        // Seed states at the root (node 0).
        dram.write_f32(200, &[0.0, 0.0]);
        let step = |level: &str| Instruction {
            name: level.into(),
            hot: BufferRead::load(0, 0, 4, 3),
            cold: BufferRead::load(100, 0, 2, 2),
            out: OutputSlot {
                read_op: ReadOp::Load,
                read_dram_addr: 200,
                addr: 0,
                stride: 1,
                iter: 2,
                write_op: WriteOp::Store,
                write_dram_addr: 200,
            },
            fu: FuOps::alu_only(AluOp::TreeStep),
            hot_row_base: 0,
        };
        let mut a = accel();
        a.run(&Program::new(vec![step("l0"), step("l1")]).unwrap(), &mut dram).unwrap();
        let state = dram.read_f32(200, 2);
        assert_eq!(state, vec![-8.0, -10.0]); // -(1 + class)
    }

    #[test]
    fn alu_mul_rows_multiplies_elementwise() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[2.0f32, 3.0]); // seed rows
        dram.write_f32(10, &[4.0f32, 0.5]); // cold rows
        let inst = Instruction {
            name: "mul".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(10, 0, 2, 1),
            out: OutputSlot {
                read_op: ReadOp::Load,
                read_dram_addr: 0,
                addr: 0,
                stride: 2,
                iter: 1,
                write_op: WriteOp::Store,
                write_dram_addr: 100,
            },
            fu: FuOps::alu_only(crate::isa::AluOp::MulRows),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        assert_eq!(dram.read_f32(100, 2), vec![8.0, 1.5]);
    }

    #[test]
    fn alu_mul_requires_seed() {
        let mut dram = Dram::new(4096);
        dram.write_f32(10, &[4.0f32, 0.5]);
        let inst = Instruction {
            name: "mul".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(10, 0, 2, 1),
            out: OutputSlot::store(100, 2, 1),
            fu: FuOps::alu_only(crate::isa::AluOp::MulRows),
            hot_row_base: 0,
        };
        assert!(matches!(run_one(inst, &mut dram), Err(ExecError::Malformed(_))));
    }

    #[test]
    fn weighted_sum_matches_software() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[0.5f32, 2.0, -1.0]); // scalars (3 rows)
        dram.write_f32(10, &[1.0f32, 2.0]); // row 0
        dram.write_f32(12, &[3.0f32, 4.0]); // row 1
        dram.write_f32(14, &[5.0f32, 6.0]); // row 2
        let inst = Instruction {
            name: "wsum".into(),
            hot: BufferRead::load(0, 0, 3, 1),
            cold: BufferRead::load(10, 0, 2, 3),
            out: OutputSlot::store(100, 2, 1),
            fu: FuOps::weighted_sum(),
            hot_row_base: 0,
        };
        run_one(inst, &mut dram).unwrap();
        // 0.5*[1,2] + 2*[3,4] - 1*[5,6] = [1.5, 3]
        assert_eq!(dram.read_f32(100, 2), vec![1.5, 3.0]);
    }

    #[test]
    fn bounds_errors_are_typed() {
        let mut dram = Dram::new(64);
        let too_big = Instruction {
            name: "x".into(),
            hot: BufferRead::load(0, 0, 16, 10_000),
            cold: BufferRead::load(0, 0, 16, 1),
            out: OutputSlot::store(0, 1, 1),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        match run_one(too_big, &mut dram) {
            Err(ExecError::DramOverflow { .. }) | Err(ExecError::BufferOverflow { .. }) => {}
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[0.0; 32]);
        let inst = Instruction {
            name: "bad".into(),
            hot: BufferRead::load(0, 0, 16, 1),
            cold: BufferRead::load(0, 0, 16, 4),
            out: OutputSlot::store(100, 1, 3), // out.iter != cold.iter
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        assert!(matches!(run_one(inst, &mut dram), Err(ExecError::Malformed(_))));
    }

    #[test]
    fn stats_accumulate_across_instructions() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[1.0; 64]);
        let inst = Instruction {
            name: "d".into(),
            hot: BufferRead::load(0, 0, 16, 2),
            cold: BufferRead::load(32, 0, 16, 2),
            out: OutputSlot::store(200, 2, 2),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        let program = Program::new(vec![inst.clone(), inst]).unwrap();
        let stats = accel().run(&program, &mut dram).unwrap().stats;
        assert_eq!(stats.instructions, 2);
        assert!(stats.cycles > 0);
        assert!(stats.energy.total() > 0.0);
        assert!(stats.dma_bytes > 0);
        assert!(stats.fu_utilization() > 0.0);
    }

    #[test]
    fn double_buffering_overlaps_dma() {
        let mut dram = Dram::new(1 << 16);
        let mk = || Instruction {
            name: "d".into(),
            hot: BufferRead::load(0, 0, 16, 64),
            cold: BufferRead::load(2048, 0, 16, 32),
            out: OutputSlot::store(8192, 64, 32),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        let program = Program::new(vec![mk(), mk(), mk(), mk()]).unwrap();
        let overlapped = accel().run(&program, &mut dram).unwrap().stats;
        let mut cfg = ArchConfig::paper_default();
        cfg.double_buffering = false;
        let serial = Accelerator::new(cfg).unwrap().run(&program, &mut dram).unwrap().stats;
        assert!(overlapped.cycles < serial.cycles);
        // The hidden DMA cycles show up as stalls only when they exceed
        // compute; serial execution stalls for every DMA cycle.
        assert_eq!(serial.dma_stall_cycles, serial.dma_cycles);
        assert!(overlapped.dma_stall_cycles < serial.dma_stall_cycles);
    }

    #[test]
    fn tracing_never_perturbs_stats() {
        let mut dram_a = Dram::new(4096);
        let mut dram_b = Dram::new(4096);
        dram_a.write_f32(0, &[1.0; 64]);
        dram_b.write_f32(0, &[1.0; 64]);
        let mk = || Instruction {
            name: "d".into(),
            hot: BufferRead::load(0, 0, 16, 2),
            cold: BufferRead::load(32, 0, 16, 2),
            out: OutputSlot::store(200, 2, 2),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        let program = Program::new(vec![mk(), mk()]).unwrap();
        let plain = accel().run(&program, &mut dram_a).unwrap();
        let traced = traced(crate::trace::TraceConfig::full()).run(&program, &mut dram_b).unwrap();
        assert_eq!(plain.stats, traced.stats);
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some());
        assert_eq!(plain.config_fingerprint, traced.config_fingerprint);
        assert_eq!(dram_a.read_f32(200, 4), dram_b.read_f32(200, 4));
    }

    #[test]
    fn trace_counts_buffer_traffic_and_events() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[1.0; 64]);
        let inst = Instruction {
            name: "d".into(),
            hot: BufferRead::load(0, 0, 16, 2),
            cold: BufferRead::load(32, 0, 16, 2),
            out: OutputSlot::store(200, 2, 2),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        let mut a = traced(crate::trace::TraceConfig::full());
        let report = a.run(&Program::new(vec![inst.clone(), inst]).unwrap(), &mut dram).unwrap();
        let trace = report.trace.unwrap();
        // Two instructions, each DMA-filling and streaming 32 hot elems.
        assert_eq!(trace.hotbuf.writes, 2);
        assert_eq!(trace.hotbuf.write_elems, 64);
        assert_eq!(trace.hotbuf.read_elems, 64);
        assert_eq!(trace.coldbuf.write_elems, 64);
        // Each instruction writes 4 results and the store drains them.
        assert_eq!(trace.outputbuf.write_elems, 8);
        assert_eq!(trace.outputbuf.read_elems, 8);
        assert_eq!(trace.hotbuf.high_water_elems, 32);
        // Second instruction overlapped its DMA behind the first.
        assert_eq!(trace.ping_pong_flips, 1);
        assert!(trace.events_iter().any(|e| e.kind() == "issue"));
        assert!(trace.events_iter().any(|e| e.kind() == "dma_start"));
        assert!(trace.events_iter().any(|e| e.kind() == "ping_pong_flip"));
        assert_eq!(trace.events_dropped(), 0);
        // Cycle stamps never decrease instruction-to-instruction.
        assert!(trace
            .events_iter()
            .zip(trace.events_iter().skip(1))
            .all(|(a, b)| a.cycle() <= b.cycle() || a.kind() == "dma_complete"));
    }

    /// Reference adder-tree reduction of the squared differences of one lane
    /// chunk in [`F16`] arithmetic, with the leaf computing `(a - b)^2` in
    /// binary16.
    fn tree_sum_sq(a: &[f32], b: &[f32]) -> F16 {
        match a.len().min(b.len()) {
            0 => F16::ZERO,
            1 => {
                let d = F16::from_f32(a[0]) - F16::from_f32(b[0]);
                d * d
            }
            n => {
                let mid = n.div_ceil(2);
                tree_sum_sq(&a[..mid], &b[..mid]) + tree_sum_sq(&a[mid..n], &b[mid..n])
            }
        }
    }

    /// Reference adder-tree reduction of the lane products of one chunk, with
    /// the leaf computing `a * b` in binary16; same order as [`tree_sum_sq`].
    fn tree_sum_dot(a: &[f32], b: &[f32]) -> F16 {
        match a.len().min(b.len()) {
            0 => F16::ZERO,
            1 => F16::from_f32(a[0]) * F16::from_f32(b[0]),
            n => {
                let mid = n.div_ceil(2);
                tree_sum_dot(&a[..mid], &b[..mid]) + tree_sum_dot(&a[mid..n], &b[mid..n])
            }
        }
    }

    /// Reference reduction: materialise the binary16 products, then sum
    /// with the adder tree's pairwise order — the unfused form the fused
    /// `tree_sum_*` references must match bit for bit.
    fn f16_tree_sum(values: &[F16]) -> F16 {
        match values.len() {
            0 => F16::ZERO,
            1 => values[0],
            n => {
                let (lo, hi) = values.split_at(n.div_ceil(2));
                f16_tree_sum(lo) + f16_tree_sum(hi)
            }
        }
    }

    /// Lane operands `(a, b)` of length `n` for the differential test:
    /// smooth values that are not binary16-exact; operands whose
    /// differences and products are binary16 subnormals; products and
    /// squares that overflow to infinity (opposite-signed infinities then
    /// sum to NaN), with one input beyond the binary16 range; and the
    /// smooth values with a NaN in the middle.
    fn operand_classes(n: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
        let smooth = |i: usize| ((i as f32 * 0.37 - 3.0) * 1.7, (i as f32 * 0.11 + 0.5) / 1.3);
        let tiny = |i: usize| {
            let a = 7.3e-4 * (i % 11) as f32 - 3e-3;
            (a, if i.is_multiple_of(2) { a * 0.97 + 1.3e-5 * (i % 4) as f32 } else { -a })
        };
        let huge = |i: usize| {
            let a = if i == 5 { 7e4 } else { 260.0 + i as f32 * 1.37 };
            (a, if i.is_multiple_of(3) { -a } else { 240.0 - i as f32 })
        };
        let nan = |i: usize| if i == n / 2 { (f32::NAN, 1.0) } else { smooth(i) };
        let class = |f: &dyn Fn(usize) -> (f32, f32)| (0..n).map(f).unzip();
        vec![class(&smooth), class(&tiny), class(&huge), class(&nan)]
    }

    /// The Acc stage over the `F16` reference: each lane chunk's tree sum,
    /// accumulated in `f32` from `+0.0`.
    fn reference_chunks(
        a: &[f32],
        b: &[f32],
        lanes: usize,
        tree: fn(&[f32], &[f32]) -> F16,
    ) -> f32 {
        a.chunks(lanes).zip(b.chunks(lanes)).fold(0.0, |acc, (ca, cb)| acc + tree(ca, cb).to_f32())
    }

    /// The grouped kernel's value for every row of `rows` against
    /// `single`, checking that `reduce_rows` emits each row once, in order.
    fn grouped(
        rows: &[Vec<f32>],
        single: &[f32],
        lanes: usize,
        leaf: fn(f32, f32) -> f32,
    ) -> Vec<f32> {
        let mut got = Vec::new();
        reduce_rows(&rows.concat(), rows.len(), single, lanes, leaf, |r, v| {
            assert_eq!(r, got.len(), "rows emitted out of order");
            got.push(v);
        });
        assert_eq!(got.len(), rows.len());
        got
    }

    /// Row `r` of a group whose lanes differ in operand class: class
    /// `(k + r) % 4`'s `a` operand, rotated by `r` so no two rows repeat.
    fn mixed_rows(classes: &[(Vec<f32>, Vec<f32>)], k: usize, n_rows: usize) -> Vec<Vec<f32>> {
        (0..n_rows)
            .map(|r| {
                let a = &classes[(k + r) % classes.len()].0;
                (0..a.len()).map(|i| a[(i + r) % a.len()]).collect()
            })
            .collect()
    }

    #[test]
    fn fused_tree_sums_match_materialised_reduction() {
        // The operand classes reach the cases they are named for.
        let classes = operand_classes(16);
        let (tiny_a, tiny_b) = &classes[1];
        assert!(tiny_a
            .iter()
            .zip(tiny_b)
            .any(|(&x, &y)| (F16::from_f32(x) - F16::from_f32(y)).is_subnormal()));
        let one =
            |(a, b): &(Vec<f32>, Vec<f32>), leaf| grouped(std::slice::from_ref(a), b, 16, leaf)[0];
        assert!(one(&classes[2], distance_leaf).is_infinite());
        assert!(one(&classes[2], dot_leaf).is_nan());
        assert!(one(&classes[3], dot_leaf).is_nan());
        // A NaN lane next to finite lanes in one group stays in its lane.
        let sums = grouped(&mixed_rows(&classes, 0, GROUP), &classes[0].1, 16, dot_leaf);
        assert!(sums[3].is_nan() && sums[0].is_finite() && sums[4].is_finite(), "{sums:?}");

        for n in 0..=67usize {
            let classes = operand_classes(n);
            for (a, b) in &classes {
                let sq_prods: Vec<F16> = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| {
                        let d = F16::from_f32(x) - F16::from_f32(y);
                        d * d
                    })
                    .collect();
                assert_eq!(
                    tree_sum_sq(a, b).to_bits(),
                    f16_tree_sum(&sq_prods).to_bits(),
                    "squared-distance reduction diverges at n = {n}"
                );
                let dot_prods: Vec<F16> =
                    a.iter().zip(b).map(|(&x, &y)| F16::from_f32(x) * F16::from_f32(y)).collect();
                assert_eq!(
                    tree_sum_dot(a, b).to_bits(),
                    f16_tree_sum(&dot_prods).to_bits(),
                    "dot reduction diverges at n = {n}"
                );
            }
            // Every class provides the shared row in turn, against groups
            // whose lanes cycle through the classes.
            for (k, (_, single)) in classes.iter().enumerate() {
                for n_rows in [1usize, 7, 8, 9, 17] {
                    let rows = mixed_rows(&classes, k, n_rows);
                    for lanes in [1usize, 4, 15, 16, 17, 32, 64] {
                        let kernels = [
                            (
                                "squared distance",
                                distance_leaf as fn(f32, f32) -> f32,
                                tree_sum_sq as fn(&[f32], &[f32]) -> F16,
                            ),
                            ("dot", dot_leaf, tree_sum_dot),
                        ];
                        for (what, leaf, tree) in kernels {
                            let got = grouped(&rows, single, lanes, leaf);
                            for (r, (row, g)) in rows.iter().zip(&got).enumerate() {
                                assert_eq!(
                                    g.to_bits(),
                                    reference_chunks(row, single, lanes, tree).to_bits(),
                                    "{what}: lanes {lanes} n {n} rows {n_rows} row {r} \
                                     a {row:?} b {single:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trace_classifies_alu_ops() {
        let mut dram = Dram::new(4096);
        dram.write_f32(0, &[10.0f32, 20.0]);
        dram.write_f32(10, &[2.0f32, 4.0]);
        let inst = Instruction {
            name: "kmeans-upd".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(10, 0, 2, 1),
            out: OutputSlot {
                read_op: ReadOp::Load,
                read_dram_addr: 0,
                addr: 0,
                stride: 2,
                iter: 1,
                write_op: WriteOp::Store,
                write_dram_addr: 100,
            },
            fu: FuOps::alu_only(AluOp::Div),
            hot_row_base: 0,
        };
        let mut a = traced(crate::trace::TraceConfig::counters());
        let report = a.run(&Program::new(vec![inst]).unwrap(), &mut dram).unwrap();
        let trace = report.trace.unwrap();
        assert_eq!(trace.alu_ops.div, report.stats.alu_ops);
        assert_eq!(trace.alu_ops.total(), report.stats.alu_ops);
        assert_eq!(trace.alu_ops.tree_step, 0);
    }

    use crate::fault::{FaultConfig, FaultPlan, Hardening};

    /// A small two-instruction distance program plus its input data.
    fn fault_fixture() -> (Program, Dram) {
        let mut dram = Dram::new(8192);
        let data: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37 - 3.0) * 0.25).collect();
        dram.write_f32(0, &data);
        let mk = |out_addr: u64| Instruction {
            name: "d".into(),
            hot: BufferRead::load(0, 0, 16, 2),
            cold: BufferRead::load(32, 0, 16, 2),
            out: OutputSlot::store(out_addr, 2, 2),
            fu: FuOps::distance(None),
            hot_row_base: 0,
        };
        (Program::new(vec![mk(200), mk(300)]).unwrap(), dram)
    }

    #[test]
    fn quiet_faults_never_perturb_stats_or_data() {
        let (program, mut dram_a) = fault_fixture();
        let mut dram_b = dram_a.clone();
        let plain = accel().run(&program, &mut dram_a).unwrap();
        let mut hardened = faulty(FaultConfig {
            plan: FaultPlan::quiet(7),
            hardening: Hardening { watchdog_cycles: Some(1 << 30), ..Hardening::default() },
        });
        let faulty = hardened.run(&program, &mut dram_b).unwrap();
        assert_eq!(plain.stats, faulty.stats);
        assert_eq!(dram_a.read_f32(200, 8), dram_b.read_f32(200, 8));
        assert!(plain.fault.is_none());
        let report = faulty.fault.unwrap();
        assert_eq!(report.injected_total(), 0);
        assert_eq!(report.overhead_cycles, 0);
        assert!(hardened.fault_config().is_some());
    }

    #[test]
    fn watchdog_aborts_oversized_instructions() {
        let (program, mut dram) = fault_fixture();
        let mut a = faulty(FaultConfig {
            plan: FaultPlan::quiet(1),
            hardening: Hardening { watchdog_cycles: Some(1), ..Hardening::default() },
        });
        let err = a.run(&program, &mut dram).unwrap_err();
        assert!(matches!(err, ExecError::Watchdog { budget: 1, .. }), "{err:?}");
        assert!(err.is_fault_detection());
    }

    #[test]
    fn secded_corrects_seeded_upsets_deterministically() {
        let (program, clean_dram) = fault_fixture();
        let golden = {
            let mut d = clean_dram.clone();
            accel().run(&program, &mut d).unwrap();
            d.read_f32(200, 8).to_vec()
        };
        let mut corrected_somewhere = false;
        for seed in 0..32u64 {
            let config = FaultConfig {
                plan: FaultPlan { buffer_upset_rate: 0.9, ..FaultPlan::quiet(seed) },
                hardening: Hardening::secded(),
            };
            let run =
                |dram: &mut Dram| faulty(config).run(&program, dram).map(|r| r.fault.unwrap());
            let mut dram_a = clean_dram.clone();
            let mut dram_b = clean_dram.clone();
            let got_a = run(&mut dram_a);
            let got_b = run(&mut dram_b);
            // Same seed -> byte-identical outcome, whatever it is.
            match (&got_a, &got_b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(ra, rb);
                    assert_eq!(dram_a.read_f32(200, 8), dram_b.read_f32(200, 8));
                    if ra.corrected > 0 {
                        corrected_somewhere = true;
                        // Every upset this seed produced was repaired.
                        assert_eq!(dram_a.read_f32(200, 8), golden[..]);
                    }
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(format!("{ea}"), format!("{eb}"));
                    assert!(ea.is_fault_detection(), "{ea:?}");
                }
                other => panic!("divergent outcomes for seed {seed}: {other:?}"),
            }
        }
        assert!(corrected_somewhere, "no seed exercised a SEC-DED correction");
    }

    #[test]
    fn stuck_lane_is_masked_and_degrades_gracefully() {
        let (program, clean_dram) = fault_fixture();
        let mut dram_a = clean_dram.clone();
        let baseline = accel().run(&program, &mut dram_a).unwrap();
        let golden = dram_a.read_f32(200, 8).to_vec();

        let mut a = faulty(FaultConfig {
            plan: FaultPlan { lane_stuck_at: Some(0), ..FaultPlan::quiet(3) },
            hardening: Hardening::secded(),
        });
        let mut dram_b = clean_dram.clone();
        let degraded = a.run(&program, &mut dram_b).unwrap();
        let report = degraded.fault.unwrap();
        assert_eq!(report.lanes_masked, 1);
        assert_eq!(report.injected_lane, 1); // fires once, then stays masked
        assert!(report.overhead_cycles > 0);
        // Reduced lane count -> measurably more cycles.
        assert!(
            degraded.stats.cycles > baseline.stats.cycles,
            "degraded {} vs baseline {}",
            degraded.stats.cycles,
            baseline.stats.cycles
        );
        assert_eq!(degraded.stats.fault_overhead_cycles, report.overhead_cycles);
        // Different reduction chunking, same result within fp16 tolerance.
        for (got, want) in dram_b.read_f32(200, 8).iter().zip(&golden) {
            assert!((got - want).abs() <= 0.05 * want.abs().max(1.0), "{got} vs {want}");
        }
        // The damage persists into the next run on the same accelerator.
        let mut dram_c = clean_dram.clone();
        let next = a.run(&program, &mut dram_c).unwrap();
        assert_eq!(next.fault.unwrap().lanes_masked, 1);
        assert!(next.stats.cycles > baseline.stats.cycles);
    }

    #[test]
    fn unmasked_stuck_lane_is_a_typed_error() {
        let (program, mut dram) = fault_fixture();
        let mut a = faulty(FaultConfig {
            plan: FaultPlan { lane_stuck_at: Some(2), ..FaultPlan::quiet(3) },
            hardening: Hardening { lane_masking: false, ..Hardening::secded() },
        });
        let err = a.run(&program, &mut dram).unwrap_err();
        assert!(matches!(err, ExecError::LaneFault { lane: 2 }), "{err:?}");
        assert!(err.is_fault_detection());
    }

    #[test]
    fn ifetch_checksum_detects_corrupted_instructions() {
        let (program, clean_dram) = fault_fixture();
        let plan = FaultPlan { ifetch_corruption_rate: 1.0, ..FaultPlan::quiet(11) };
        // Checksum fitted: typed detection on the first instruction.
        let mut a = faulty(FaultConfig {
            plan,
            hardening: Hardening { ifetch_checksum: true, ..Hardening::default() },
        });
        let err = a.run(&program, &mut clean_dram.clone()).unwrap_err();
        assert!(matches!(err, ExecError::InstStreamCorrupt { inst: 0 }), "{err:?}");
        assert!(err.is_fault_detection());
        // Unhardened: the corrupted instruction executes; whatever happens
        // must be an Ok or a typed error, never a panic.
        for seed in 0..16u64 {
            let mut b = faulty(FaultConfig {
                plan: FaultPlan { seed, ..plan },
                hardening: Hardening::default(),
            });
            match b.run(&program, &mut clean_dram.clone()) {
                Ok(report) => assert!(report.fault.unwrap().injected_ifetch > 0),
                Err(e) => assert!(!e.is_fault_detection(), "undetectable without checksum: {e:?}"),
            }
        }
    }

    #[test]
    fn dma_corruption_is_silent_data_corruption() {
        let (program, clean_dram) = fault_fixture();
        let mut dram_a = clean_dram.clone();
        accel().run(&program, &mut dram_a).unwrap();
        let golden = dram_a.read_f32(200, 8).to_vec();
        let mut corrupted_somewhere = false;
        for seed in 0..8u64 {
            // ECC everywhere, yet in-flight DMA corruption still slips by.
            let mut a = faulty(FaultConfig {
                plan: FaultPlan { dma_corruption_rate: 1.0, ..FaultPlan::quiet(seed) },
                hardening: Hardening::secded(),
            });
            let mut dram_b = clean_dram.clone();
            let report = a.run(&program, &mut dram_b).unwrap().fault.unwrap();
            assert!(report.injected_dma > 0);
            assert!(report.silent > 0);
            if dram_b.read_f32(200, 8) != golden[..] {
                corrupted_somewhere = true;
            }
        }
        assert!(corrupted_somewhere, "every in-flight corruption was masked");
    }
}
