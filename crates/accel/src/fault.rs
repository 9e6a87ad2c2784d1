//! Deterministic fault injection and resilience modelling.
//!
//! A 65 nm SRAM-heavy design — HotBuf, ColdBuf and OutputBuf dominate the
//! Table-5 area — is exactly the kind of structure where soft errors
//! strike first, yet the paper evaluates only fault-free execution. This
//! module injects the misbehaviour and models the defences:
//!
//! - **Injection** ([`FaultPlan`]): seeded, reproducible bit flips in
//!   buffer words, DMA transfers corrupted in flight, stuck-at and
//!   transient faults in individual MLU lanes, and ALU result upsets.
//!   Like [`TraceConfig`](crate::TraceConfig), the whole layer costs one
//!   branch per instruction when disabled and is provably zero-impact:
//!   with faults off, every statistic and output byte is identical.
//! - **Hardening** ([`Hardening`]): a parity / SEC-DED word model on the
//!   three buffers (correct single-bit, detect double-bit, with cycle and
//!   energy costs), instruction-stream checksum validation at fetch, and
//!   a per-instruction watchdog cycle budget.
//! - **Graceful degradation**: on a detected lane fault the executor can
//!   mask the faulty MLU lane and continue at reduced throughput, with
//!   the timing model re-run at the reduced lane count.
//!
//! Outcomes surface three ways: counters in [`FaultReport`] (attached to
//! [`RunReport`](crate::RunReport) when faults are enabled), typed
//! [`ExecError`](crate::ExecError) variants for detected-uncorrectable
//! events, and [`TraceEvent`](crate::TraceEvent) entries in the trace
//! ring when tracing is on.

use crate::buffer::{Buffer, BufferKind};
use crate::config::ArchConfig;
use crate::energy::ecc_energy_overhead;
use crate::exec::ExecError;
use crate::isa::Instruction;
use crate::json::Value;
use crate::memory::Dram;
use crate::stats::{ComponentEnergy, ExecStats};
use crate::timing::{ECC_CHECK_CYCLES, LANE_REPLAY_CYCLES, SECDED_CORRECTION_CYCLES};
use crate::trace::{TraceEvent, TraceReport};

/// Default per-instruction watchdog budget: generous enough for every
/// legitimate kernel tile (the largest paper-scale instruction occupies
/// ~10^5 cycles), small enough to catch runaway shapes long before they
/// monopolise a host process.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 1 << 24;

/// Error-protection scheme of a buffer's SRAM words.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EccMode {
    /// No protection: every upset reaches the datapath silently.
    #[default]
    Off,
    /// One parity bit per word: detects an odd number of flipped bits
    /// (cannot correct), misses an even number.
    Parity,
    /// Single-error-correct, double-error-detect Hamming code: corrects
    /// one flipped bit, detects two.
    SecDed,
}

impl EccMode {
    /// Check bits stored per `data_bits`-bit word (parity: 1; SEC-DED:
    /// the Hamming bits plus the overall parity bit — 6 over 16 data
    /// bits, 7 over 32).
    #[must_use]
    pub const fn check_bits(self, data_bits: u32) -> u32 {
        match self {
            EccMode::Off => 0,
            EccMode::Parity => 1,
            EccMode::SecDed => {
                if data_bits <= 16 {
                    6
                } else {
                    7
                }
            }
        }
    }

    /// Fractional SRAM energy overhead of this mode on a buffer with
    /// `data_bits`-bit words (the array widens by the check bits).
    #[must_use]
    pub fn energy_overhead(self, data_bits: u32) -> f64 {
        ecc_energy_overhead(self.check_bits(data_bits), data_bits)
    }

    /// Whether a read scrub repairs a word with `flips` flipped bits.
    const fn corrects(self, flips: u8) -> bool {
        matches!(self, EccMode::SecDed) && flips == 1
    }

    /// Whether a read scrub flags (without repairing) a word with `flips`
    /// flipped bits.
    const fn detects(self, flips: u8) -> bool {
        match self {
            EccMode::Off => false,
            EccMode::Parity => flips % 2 == 1,
            EccMode::SecDed => flips >= 2,
        }
    }
}

/// Which defences are fitted. Everything defaults to off — an unhardened
/// machine — so each mechanism's contribution can be measured separately.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hardening {
    /// HotBuf word protection.
    pub hot_ecc: EccMode,
    /// ColdBuf word protection.
    pub cold_ecc: EccMode,
    /// OutputBuf word protection.
    pub out_ecc: EccMode,
    /// Validate the instruction-stream checksum at fetch, turning a
    /// corrupted instruction word into a typed
    /// [`ExecError::InstStreamCorrupt`](crate::ExecError) instead of
    /// decoding garbage.
    pub ifetch_checksum: bool,
    /// Residue-check the MLU lanes, turning a lane fault into detection
    /// (replay, masking or [`ExecError::LaneFault`](crate::ExecError))
    /// instead of silent data corruption.
    pub lane_detection: bool,
    /// On a detected permanent lane fault, mask the lane and continue at
    /// reduced throughput instead of failing the run. Requires
    /// `lane_detection`.
    pub lane_masking: bool,
    /// Per-instruction cycle budget: an instruction whose projected
    /// compute + DMA cost exceeds it aborts with
    /// [`ExecError::Watchdog`](crate::ExecError) instead of hanging the
    /// simulation.
    pub watchdog_cycles: Option<u64>,
}

impl Hardening {
    /// The fully hardened configuration: SEC-DED on all three buffers,
    /// fetch checksums, lane detection with masking, and the default
    /// watchdog budget.
    #[must_use]
    pub fn secded() -> Hardening {
        Hardening {
            hot_ecc: EccMode::SecDed,
            cold_ecc: EccMode::SecDed,
            out_ecc: EccMode::SecDed,
            ifetch_checksum: true,
            lane_detection: true,
            lane_masking: true,
            watchdog_cycles: Some(DEFAULT_WATCHDOG_CYCLES),
        }
    }

    /// The ECC mode protecting one buffer.
    #[must_use]
    pub const fn ecc(&self, kind: BufferKind) -> EccMode {
        match kind {
            BufferKind::Hot => self.hot_ecc,
            BufferKind::Cold => self.cold_ecc,
            BufferKind::Output => self.out_ecc,
        }
    }
}

/// What to inject, all driven by one seed. Rates are per-opportunity
/// Bernoulli probabilities (clamped to `[0, 1]` at use): buffer upsets
/// per buffer per instruction, DMA corruption per transfer, fetch
/// corruption per instruction, lane/ALU faults per computing instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; equal seeds reproduce the exact same fault sequence.
    pub seed: u64,
    /// Probability of a soft-error bit flip in each buffer's occupied
    /// words, per instruction.
    pub buffer_upset_rate: f64,
    /// Probability that a DMA transfer (buffer fill or DRAM store) is
    /// corrupted in flight. In-flight corruption happens *before* the
    /// ECC encode, so buffer ECC cannot see it.
    pub dma_corruption_rate: f64,
    /// Probability that an instruction word is corrupted on fetch.
    pub ifetch_corruption_rate: f64,
    /// Probability of a transient fault in one MLU lane, per MLU
    /// instruction.
    pub lane_fault_rate: f64,
    /// A permanently stuck-at MLU lane (index into the lane array), for
    /// deterministic degradation scenarios: it faults every MLU
    /// instruction until detected and masked.
    pub lane_stuck_at: Option<u32>,
    /// Probability of an upset in an ALU result, per ALU instruction.
    pub alu_fault_rate: f64,
}

impl FaultPlan {
    /// A plan injecting nothing (but still seeded — useful as a base).
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }
}

/// The full fault-layer configuration: what to inject and which defences
/// are fitted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Injection plan.
    pub plan: FaultPlan,
    /// Fitted defences.
    pub hardening: Hardening,
}

/// Where a fault was injected (trace events and reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSite {
    /// A HotBuf word.
    HotBuf,
    /// A ColdBuf word.
    ColdBuf,
    /// An OutputBuf word.
    OutputBuf,
    /// A DMA transfer in flight.
    Dma,
    /// An instruction word at fetch.
    Ifetch,
    /// An MLU lane.
    Lane,
    /// An ALU result.
    Alu,
}

impl FaultSite {
    /// Stable name used in reports and trace events.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FaultSite::HotBuf => "hotbuf",
            FaultSite::ColdBuf => "coldbuf",
            FaultSite::OutputBuf => "outputbuf",
            FaultSite::Dma => "dma",
            FaultSite::Ifetch => "ifetch",
            FaultSite::Lane => "lane",
            FaultSite::Alu => "alu",
        }
    }

    const fn of_buffer(kind: BufferKind) -> FaultSite {
        match kind {
            BufferKind::Hot => FaultSite::HotBuf,
            BufferKind::Cold => FaultSite::ColdBuf,
            BufferKind::Output => FaultSite::OutputBuf,
        }
    }
}

/// What one run's fault layer did: injections by site, and how each one
/// resolved. Returned in [`RunReport::fault`](crate::RunReport) whenever
/// faults are enabled (even at all-zero rates, so "faults were on but
/// nothing fired" is distinguishable from "faults were off").
///
/// Detected-uncorrectable events abort the run with a typed error, so
/// they never appear here — the error itself is the report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// Bit flips injected into buffer words.
    pub injected_buffer: u64,
    /// DMA transfers corrupted in flight.
    pub injected_dma: u64,
    /// Instruction words corrupted at fetch.
    pub injected_ifetch: u64,
    /// MLU lane faults (transient or stuck-at) that fired.
    pub injected_lane: u64,
    /// ALU result upsets.
    pub injected_alu: u64,
    /// Buffer words repaired by SEC-DED on read.
    pub corrected: u64,
    /// Injections that escaped every fitted defence into data or control.
    pub silent: u64,
    /// Transient lane faults caught by detection and replayed.
    pub replayed: u64,
    /// MLU lanes currently masked (persists across runs, like the
    /// physical damage it models).
    pub lanes_masked: u32,
    /// Cycles spent on ECC checks, corrections, replays and lane
    /// reconfiguration (also in
    /// [`ExecStats::fault_overhead_cycles`](crate::ExecStats)).
    pub overhead_cycles: u64,
    /// Extra buffer energy burned by the ECC check bits, in joules.
    pub ecc_energy_joules: f64,
}

impl FaultReport {
    /// Total injections across every site.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected_buffer
            + self.injected_dma
            + self.injected_ifetch
            + self.injected_lane
            + self.injected_alu
    }

    /// JSON object with every counter.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with(
                "injected",
                Value::object()
                    .with("buffer", self.injected_buffer)
                    .with("dma", self.injected_dma)
                    .with("ifetch", self.injected_ifetch)
                    .with("lane", self.injected_lane)
                    .with("alu", self.injected_alu)
                    .with("total", self.injected_total()),
            )
            .with("corrected", self.corrected)
            .with("silent", self.silent)
            .with("replayed", self.replayed)
            .with("lanes_masked", u64::from(self.lanes_masked))
            .with("overhead_cycles", self.overhead_cycles)
            .with("ecc_energy_joules", self.ecc_energy_joules)
    }
}

/// xorshift64* over a SplitMix64-scrambled seed: tiny, fast, and good
/// enough for fault sampling; fully deterministic with no external
/// dependency.
#[derive(Clone, Debug)]
struct Rng64(u64);

impl Rng64 {
    fn new(seed: u64) -> Rng64 {
        // SplitMix64 finalizer: decorrelates sequential seeds (0, 1, 2..)
        // and guarantees a non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng64((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        if !(p > 0.0) {
            return false;
        }
        if p >= 1.0 {
            let _ = self.next();
            return true;
        }
        // 53 uniform mantissa bits against the threshold.
        ((self.next() >> 11) as f64) * (1.0 / ((1u64 << 53) as f64)) < p
    }

    /// Uniform draw in `[0, n)`; `n` must be positive.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A buffer word with a latent (not-yet-read) injected error.
#[derive(Clone, Copy, Debug)]
struct PendingError {
    addr: u32,
    original: f32,
    flips: u8,
}

/// A fault-layer occurrence queued for the trace ring.
#[derive(Clone, Copy, Debug)]
enum QueuedFault {
    Injected(FaultSite),
    Corrected(BufferKind),
    LaneMasked(u32),
}

/// Live state of the fault layer, owned by the executor. Like SRAM
/// contents, latent errors and masked lanes persist across runs.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    config: FaultConfig,
    rng: Rng64,
    /// Latent errors per buffer, indexed like [`buffer_index`].
    pending: [Vec<PendingError>; 3],
    masked_lanes: u32,
    /// Cached lanes-reduced configuration when lanes are masked.
    degraded: Option<ArchConfig>,
    stuck_masked: bool,
    /// Set by the pre-compute lane check; consumed after compute to
    /// corrupt one staged result (an undetected lane/ALU fault).
    pending_result_corruption: bool,
    report: FaultReport,
    events: Vec<QueuedFault>,
    overhead_cycles: u64,
}

const fn buffer_index(kind: BufferKind) -> usize {
    match kind {
        BufferKind::Hot => 0,
        BufferKind::Cold => 1,
        BufferKind::Output => 2,
    }
}

/// Cap on tracked latent errors per buffer: beyond it the oldest record
/// is dropped (its upset simply stays in the data, i.e. behaves as
/// unprotected — a sound under-approximation of the ECC).
const MAX_PENDING: usize = 64;

impl FaultState {
    pub(crate) fn new(config: FaultConfig) -> FaultState {
        FaultState {
            rng: Rng64::new(config.plan.seed),
            config,
            pending: [Vec::new(), Vec::new(), Vec::new()],
            masked_lanes: 0,
            degraded: None,
            stuck_masked: false,
            pending_result_corruption: false,
            report: FaultReport::default(),
            events: Vec::new(),
            overhead_cycles: 0,
        }
    }

    /// Resets the per-run report (masked lanes and latent errors persist,
    /// like the hardware damage they model).
    pub(crate) fn begin_run(&mut self) {
        self.report = FaultReport::default();
        self.events.clear();
        self.overhead_cycles = 0;
        self.pending_result_corruption = false;
    }

    /// The lanes-reduced configuration to time instructions with, when
    /// degraded.
    pub(crate) fn degraded_config(&self) -> Option<&ArchConfig> {
        self.degraded.as_ref()
    }

    /// MLU lanes currently masked.
    pub(crate) fn masked_lanes(&self) -> u32 {
        self.masked_lanes
    }

    /// The per-instruction watchdog budget, if armed.
    pub(crate) fn watchdog_cycles(&self) -> Option<u64> {
        self.config.hardening.watchdog_cycles
    }

    /// The configuration this state was built from.
    pub(crate) fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Models instruction fetch: with the configured probability the
    /// fetched word is corrupted. A fitted checksum detects it (typed
    /// error); otherwise the corrupted instruction decodes and executes,
    /// typically ending in a bounds error (crash) or silent corruption.
    pub(crate) fn fetch(
        &mut self,
        index: u64,
        inst: &Instruction,
    ) -> Result<Option<Instruction>, ExecError> {
        if !self.rng.chance(self.config.plan.ifetch_corruption_rate) {
            return Ok(None);
        }
        self.report.injected_ifetch += 1;
        self.events.push(QueuedFault::Injected(FaultSite::Ifetch));
        if self.config.hardening.ifetch_checksum {
            self.overhead_cycles += ECC_CHECK_CYCLES;
            return Err(ExecError::InstStreamCorrupt { inst: index });
        }
        self.report.silent += 1;
        let mut bad = inst.clone();
        match self.rng.below(4) {
            0 => bad.hot.dram_addr ^= 1 << self.rng.below(24),
            1 => bad.cold.dram_addr ^= 1 << self.rng.below(24),
            2 => bad.out.iter ^= 1 << self.rng.below(8),
            _ => bad.hot.iter ^= 1 << self.rng.below(8),
        }
        Ok(Some(bad))
    }

    /// Pre-compute lane check for MLU instructions: fires the stuck-at
    /// lane (until masked) and transient lane faults. Masking happens
    /// here so the instruction is timed and computed at the reduced lane
    /// count; undetected faults set a flag consumed by
    /// [`FaultState::post_compute`].
    pub(crate) fn lane_check(&mut self, arch: &ArchConfig, is_mlu: bool) -> Result<(), ExecError> {
        if !is_mlu {
            return Ok(());
        }
        let h = self.config.hardening;
        let stuck = !self.stuck_masked
            && self.config.plan.lane_stuck_at.is_some_and(|lane| lane < arch.lanes);
        let transient = self.rng.chance(self.config.plan.lane_fault_rate);
        if !stuck && !transient {
            return Ok(());
        }
        self.report.injected_lane += 1;
        self.events.push(QueuedFault::Injected(FaultSite::Lane));
        if !h.lane_detection {
            self.report.silent += 1;
            self.pending_result_corruption = true;
            return Ok(());
        }
        if stuck {
            if !h.lane_masking {
                return Err(ExecError::LaneFault {
                    lane: self.config.plan.lane_stuck_at.unwrap_or(0),
                });
            }
            // Mask the faulty lane: the residue check isolates it, the
            // control module shrinks the lane map, and the instruction
            // replays at the reduced width.
            self.stuck_masked = true;
            self.masked_lanes += 1;
            let lanes_left = arch.lanes.saturating_sub(self.masked_lanes).max(1);
            self.degraded = Some(arch.with_lanes(lanes_left));
            self.report.lanes_masked = self.masked_lanes;
            self.overhead_cycles += LANE_REPLAY_CYCLES;
            self.events.push(QueuedFault::LaneMasked(lanes_left));
            // A transient on top of the same instruction is subsumed by
            // the replay.
            return Ok(());
        }
        // Transient, detected: flush and replay the pipeline.
        self.report.replayed += 1;
        self.overhead_cycles += LANE_REPLAY_CYCLES;
        Ok(())
    }

    /// Forgets latent errors under a freshly written region (new data
    /// supersedes the upset).
    pub(crate) fn note_write(&mut self, kind: BufferKind, addr: u32, len: u64) {
        let end = u64::from(addr).saturating_add(len);
        self.pending[buffer_index(kind)]
            .retain(|p| u64::from(p.addr) < u64::from(addr) || u64::from(p.addr) >= end);
    }

    /// Possibly corrupts a buffer region just filled by a DMA transfer.
    /// The flip happens in flight — before the ECC encode — so no pending
    /// record is kept: buffer ECC is blind to it by construction.
    pub(crate) fn corrupt_fill(&mut self, buf: &mut Buffer, addr: u32, elems: u64) {
        if elems == 0 || !self.rng.chance(self.config.plan.dma_corruption_rate) {
            return;
        }
        let word = addr + self.rng.below(elems) as u32;
        let bit = self.rng.below(32) as u32;
        let _ = buf.flip_bit(word, bit);
        self.report.injected_dma += 1;
        self.report.silent += 1;
        self.events.push(QueuedFault::Injected(FaultSite::Dma));
    }

    /// Possibly corrupts a DRAM region just written by a store DMA.
    pub(crate) fn corrupt_store(&mut self, dram: &mut Dram, addr: u64, elems: u64) {
        if elems == 0 || !self.rng.chance(self.config.plan.dma_corruption_rate) {
            return;
        }
        let word = addr + self.rng.below(elems);
        let bit = self.rng.below(32) as u32;
        let _ = dram.flip_bit(word, bit);
        self.report.injected_dma += 1;
        self.report.silent += 1;
        self.events.push(QueuedFault::Injected(FaultSite::Dma));
    }

    /// Injects at most one soft-error upset per buffer for this
    /// instruction: a single-bit flip (or, a quarter of the time, a
    /// double-bit flip — the adjacent-cell multi-bit upset ECC sizing
    /// worries about) in a random occupied word, remembered as a latent
    /// error until a read scrubs it or a write supersedes it.
    pub(crate) fn inject_upsets(&mut self, hot: &mut Buffer, cold: &mut Buffer, out: &mut Buffer) {
        for buf in [hot, cold, out] {
            let occupied = buf.footprint_elems() as u64;
            if occupied == 0 || !self.rng.chance(self.config.plan.buffer_upset_rate) {
                continue;
            }
            let addr = self.rng.below(occupied) as u32;
            let width = u64::from(buf.kind().elem_bytes()) * 8;
            let first_bit = self.rng.below(width) as u32;
            let double = self.rng.below(4) == 0;
            let (original, _) = buf.flip_bit(addr, first_bit);
            let flips = if double {
                let second_bit = (first_bit + 1 + self.rng.below(width - 1) as u32) % width as u32;
                let _ = buf.flip_bit(addr, second_bit);
                2
            } else {
                1
            };
            let kind = buf.kind();
            let queue = &mut self.pending[buffer_index(kind)];
            if queue.len() >= MAX_PENDING {
                queue.remove(0);
            }
            queue.push(PendingError { addr, original, flips });
            self.report.injected_buffer += 1;
            self.events.push(QueuedFault::Injected(FaultSite::of_buffer(kind)));
        }
    }

    /// Read-side scrub of a streamed operand region: the fitted ECC mode
    /// checks every word as it streams. Latent errors under the region
    /// are corrected (SEC-DED, single-bit), detected (typed error), or
    /// escape silently into the dataflow.
    pub(crate) fn scrub(
        &mut self,
        buf: &mut Buffer,
        addr: u32,
        elems: u64,
    ) -> Result<(), ExecError> {
        let kind = buf.kind();
        let mode = self.config.hardening.ecc(kind);
        if mode != EccMode::Off {
            self.overhead_cycles += ECC_CHECK_CYCLES;
        }
        let end = u64::from(addr).saturating_add(elems);
        let idx = buffer_index(kind);
        let mut i = 0;
        while i < self.pending[idx].len() {
            let p = self.pending[idx][i];
            if u64::from(p.addr) < u64::from(addr) || u64::from(p.addr) >= end {
                i += 1;
                continue;
            }
            self.pending[idx].remove(i);
            if mode.corrects(p.flips) {
                buf.restore(p.addr, p.original);
                self.report.corrected += 1;
                self.overhead_cycles += SECDED_CORRECTION_CYCLES;
                self.events.push(QueuedFault::Corrected(kind));
            } else if mode.detects(p.flips) {
                return Err(ExecError::UncorrectableEcc { buffer: kind, addr: p.addr });
            } else {
                self.report.silent += 1;
            }
        }
        Ok(())
    }

    /// Post-compute hook: lands the pending undetected lane corruption
    /// and samples ALU upsets, flipping a bit in one staged result.
    pub(crate) fn post_compute(&mut self, is_mlu: bool, results: &mut [f32]) {
        let mut corrupt = core::mem::take(&mut self.pending_result_corruption);
        if !is_mlu && self.rng.chance(self.config.plan.alu_fault_rate) {
            self.report.injected_alu += 1;
            self.report.silent += 1;
            self.events.push(QueuedFault::Injected(FaultSite::Alu));
            corrupt = true;
        }
        if corrupt && !results.is_empty() {
            let i = self.rng.below(results.len() as u64) as usize;
            let bit = self.rng.below(32) as u32;
            results[i] = f32::from_bits(results[i].to_bits() ^ (1u32 << bit));
        }
    }

    /// Takes (and resets) the overhead cycles accumulated since the last
    /// call, folding them into the run totals.
    pub(crate) fn take_overhead_cycles(&mut self) -> u64 {
        let cycles = core::mem::take(&mut self.overhead_cycles);
        self.report.overhead_cycles += cycles;
        cycles
    }

    /// Applies the ECC energy tax to the buffer energy this instruction
    /// burned (`stats.energy - before`).
    pub(crate) fn apply_ecc_energy(&mut self, stats: &mut ExecStats, before: &ComponentEnergy) {
        let h = self.config.hardening;
        let hot = (stats.energy.hotbuf - before.hotbuf) * h.hot_ecc.energy_overhead(16);
        let cold = (stats.energy.coldbuf - before.coldbuf) * h.cold_ecc.energy_overhead(16);
        let out = (stats.energy.outputbuf - before.outputbuf) * h.out_ecc.energy_overhead(32);
        stats.energy.hotbuf += hot;
        stats.energy.coldbuf += cold;
        stats.energy.outputbuf += out;
        self.report.ecc_energy_joules += hot + cold + out;
    }

    /// Flushes queued fault occurrences into the trace ring.
    pub(crate) fn drain_events_into(&mut self, trace: &mut TraceReport, inst: u64, cycle: u64) {
        for q in self.events.drain(..) {
            let event = match q {
                QueuedFault::Injected(site) => TraceEvent::FaultInjected { site, inst, cycle },
                QueuedFault::Corrected(buffer) => {
                    TraceEvent::FaultCorrected { buffer, inst, cycle }
                }
                QueuedFault::LaneMasked(lanes_left) => {
                    TraceEvent::LaneMasked { lanes_left, inst, cycle }
                }
            };
            trace.push_event(event);
        }
    }

    /// Discards queued fault occurrences (no trace enabled).
    pub(crate) fn clear_events(&mut self) {
        self.events.clear();
    }

    /// The finished report for this run.
    pub(crate) fn take_report(&mut self) -> FaultReport {
        self.report.lanes_masked = self.masked_lanes;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        let mut c = Rng64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        // chance() respects the edges.
        assert!(!Rng64::new(1).chance(0.0));
        assert!(Rng64::new(1).chance(1.0));
        assert!(!Rng64::new(1).chance(f64::NAN));
        // below() stays in range.
        let mut r = Rng64::new(7);
        for _ in 0..100 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(Rng64::new(9).below(1), 0);
    }

    #[test]
    fn chance_rate_is_roughly_calibrated() {
        let mut r = Rng64::new(1234);
        let hits = (0..10_000).filter(|_| r.chance(0.1)).count();
        assert!((800..1200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn ecc_mode_policy_table() {
        assert!(EccMode::SecDed.corrects(1));
        assert!(!EccMode::SecDed.corrects(2));
        assert!(EccMode::SecDed.detects(2));
        assert!(EccMode::Parity.detects(1));
        assert!(!EccMode::Parity.detects(2)); // even flips alias
        assert!(!EccMode::Parity.corrects(1));
        assert!(!EccMode::Off.detects(1));
        assert_eq!(EccMode::SecDed.check_bits(16), 6);
        assert_eq!(EccMode::SecDed.check_bits(32), 7);
        assert_eq!(EccMode::Parity.check_bits(16), 1);
        assert_eq!(EccMode::Off.check_bits(16), 0);
        assert!(EccMode::SecDed.energy_overhead(16) > EccMode::Parity.energy_overhead(16));
        assert_eq!(EccMode::Off.energy_overhead(16), 0.0);
    }

    #[test]
    fn hardening_presets() {
        let h = Hardening::secded();
        assert_eq!(h.ecc(BufferKind::Hot), EccMode::SecDed);
        assert_eq!(h.ecc(BufferKind::Cold), EccMode::SecDed);
        assert_eq!(h.ecc(BufferKind::Output), EccMode::SecDed);
        assert!(h.ifetch_checksum && h.lane_detection && h.lane_masking);
        assert_eq!(h.watchdog_cycles, Some(DEFAULT_WATCHDOG_CYCLES));
        assert_eq!(Hardening::default().ecc(BufferKind::Hot), EccMode::Off);
        assert_eq!(Hardening::default().watchdog_cycles, None);
    }

    #[test]
    fn report_json_and_totals() {
        let r = FaultReport {
            injected_buffer: 3,
            injected_dma: 1,
            injected_lane: 2,
            corrected: 2,
            silent: 1,
            lanes_masked: 1,
            overhead_cycles: 40,
            ..FaultReport::default()
        };
        assert_eq!(r.injected_total(), 6);
        let j = r.to_json();
        assert_eq!(j.get("corrected"), Some(&Value::UInt(2)));
        assert_eq!(j.get("injected").and_then(|v| v.get("total")), Some(&Value::UInt(6)));
        assert!(j.to_string().contains("\"lanes_masked\":1"));
    }

    #[test]
    fn fault_sites_have_stable_names() {
        for (site, name) in [
            (FaultSite::HotBuf, "hotbuf"),
            (FaultSite::ColdBuf, "coldbuf"),
            (FaultSite::OutputBuf, "outputbuf"),
            (FaultSite::Dma, "dma"),
            (FaultSite::Ifetch, "ifetch"),
            (FaultSite::Lane, "lane"),
            (FaultSite::Alu, "alu"),
        ] {
            assert_eq!(site.name(), name);
        }
    }
}
