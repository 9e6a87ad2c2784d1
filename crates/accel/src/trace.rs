//! Structured observability for the executor.
//!
//! The paper's evaluation hinges on knowing *where* cycles and joules go
//! (the Table-5 breakdown, NB's OutputBuf round-trip penalty, CT's DMA
//! reconfiguration cost). This module provides that visibility for the
//! simulator: per-buffer read/write/occupancy counters, per-kind ALU op
//! counts, ping-pong flip counts and a bounded event ring — all gathered
//! behind a [`TraceConfig`] that costs one branch per instruction when
//! disabled and never changes [`ExecStats`].
//!
//! [`RunReport`] is the unit of output: the run's statistics, the optional
//! trace, and a fingerprint of the architecture configuration, exportable
//! as JSON so per-component numbers can be diffed across experiments.
//!
//! # Examples
//!
//! ```
//! use pudiannao_accel::{isa, Accelerator, ArchConfig, Dram, TraceConfig};
//!
//! let mut accel = Accelerator::builder(ArchConfig::paper_default())
//!     .trace(TraceConfig::full())
//!     .build()?;
//! let program = isa::Program::builder()
//!     .instruction(
//!         isa::Instruction::builder("dot")
//!             .hot_load(0, 0, 16, 1)
//!             .cold_load(1024, 0, 16, 4)
//!             .out_store(4096, 1, 4)
//!             .fu(isa::FuOps::dot_broadcast(None)),
//!     )
//!     .build()?;
//! let report = accel.run(&program, &mut Dram::new(1 << 20))?;
//! let trace = report.trace.as_ref().expect("tracing was enabled");
//! assert_eq!(trace.hotbuf.write_elems, 16); // the DMA fill
//! assert!(trace.events_iter().next().is_some());
//! assert!(report.to_json().to_string().contains("stage_cycles"));
//! # Ok::<(), pudiannao_accel::Error>(())
//! ```

use crate::buffer::BufferKind;
use crate::config::ArchConfig;
use crate::isa::{Instruction, ReadOp, WriteOp};
use crate::json::Value;
use crate::stats::ExecStats;
use crate::timing::{InstTiming, Mode};
use core::fmt;

/// What to record during a run. Constructed off, tracing costs one branch
/// per instruction; the executor's [`ExecStats`] are bit-identical with
/// tracing on, off, or absent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record the event ring (instruction issue/retire, DMA start and
    /// completion, ping-pong flips). Counters are always recorded when a
    /// trace is enabled.
    pub events: bool,
    /// Ring capacity: when full, the oldest events are dropped (and
    /// counted in [`TraceReport::events_dropped`]). With `events` on, a
    /// capacity of 0 counts every event as dropped.
    pub event_capacity: usize,
}

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

impl TraceConfig {
    /// Counters only — buffer activity, ALU op kinds, ping-pong flips —
    /// with the event ring off.
    #[must_use]
    pub fn counters() -> TraceConfig {
        TraceConfig { events: false, event_capacity: DEFAULT_EVENT_CAPACITY }
    }

    /// Counters plus the event ring at [`DEFAULT_EVENT_CAPACITY`].
    #[must_use]
    pub fn full() -> TraceConfig {
        TraceConfig { events: true, event_capacity: DEFAULT_EVENT_CAPACITY }
    }

    /// Counters plus an event ring holding the last `capacity` events.
    #[must_use]
    pub fn with_event_capacity(capacity: usize) -> TraceConfig {
        TraceConfig { events: true, event_capacity: capacity }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::counters()
    }
}

/// One timestamped occurrence in the executor. `cycle` is the run's
/// cumulative cycle count at the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// Instruction `inst` (program index) issued.
    Issue {
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
    /// Instruction `inst` retired (its charge is complete).
    Retire {
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
    /// The DMA began serving instruction `inst`'s descriptors.
    DmaStart {
        /// Program index.
        inst: u64,
        /// Bytes the descriptors move.
        bytes: u64,
        /// Descriptors issued.
        descriptors: u32,
        /// Whether the engine had to be reconfigured for an irregular
        /// pattern.
        reconfigured: bool,
        /// Cycle stamp.
        cycle: u64,
    },
    /// The DMA finished instruction `inst`'s transfers.
    DmaComplete {
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
    /// The double-buffering ping-pong flipped: instruction `inst` computes
    /// out of one half while the DMA fills the other.
    PingPongFlip {
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
    /// The fault layer injected a fault while instruction `inst` executed.
    FaultInjected {
        /// Where the fault landed.
        site: crate::fault::FaultSite,
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
    /// SEC-DED corrected a single-bit error read from a buffer.
    FaultCorrected {
        /// The buffer whose word was repaired.
        buffer: BufferKind,
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
    /// A faulty MLU lane was masked; the machine continues degraded.
    LaneMasked {
        /// Lanes still active after masking.
        lanes_left: u32,
        /// Program index.
        inst: u64,
        /// Cycle stamp.
        cycle: u64,
    },
}

impl TraceEvent {
    /// Stable event-kind name used in reports.
    #[must_use]
    pub const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::DmaStart { .. } => "dma_start",
            TraceEvent::DmaComplete { .. } => "dma_complete",
            TraceEvent::PingPongFlip { .. } => "ping_pong_flip",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::FaultCorrected { .. } => "fault_corrected",
            TraceEvent::LaneMasked { .. } => "lane_masked",
        }
    }

    /// The event's cycle stamp.
    #[must_use]
    pub const fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::Retire { cycle, .. }
            | TraceEvent::DmaStart { cycle, .. }
            | TraceEvent::DmaComplete { cycle, .. }
            | TraceEvent::PingPongFlip { cycle, .. }
            | TraceEvent::FaultInjected { cycle, .. }
            | TraceEvent::FaultCorrected { cycle, .. }
            | TraceEvent::LaneMasked { cycle, .. } => cycle,
        }
    }

    fn to_json(self) -> Value {
        let base = Value::object().with("kind", self.kind()).with("cycle", self.cycle());
        match self {
            TraceEvent::Issue { inst, .. }
            | TraceEvent::Retire { inst, .. }
            | TraceEvent::DmaComplete { inst, .. }
            | TraceEvent::PingPongFlip { inst, .. } => base.with("inst", inst),
            TraceEvent::DmaStart { inst, bytes, descriptors, reconfigured, .. } => base
                .with("inst", inst)
                .with("bytes", bytes)
                .with("descriptors", descriptors)
                .with("reconfigured", reconfigured),
            TraceEvent::FaultInjected { site, inst, .. } => {
                base.with("inst", inst).with("site", site.name())
            }
            TraceEvent::FaultCorrected { buffer, inst, .. } => {
                base.with("inst", inst).with("buffer", buffer.to_string())
            }
            TraceEvent::LaneMasked { lanes_left, inst, .. } => {
                base.with("inst", inst).with("lanes_left", lanes_left)
            }
        }
    }
}

/// Activity counters for one on-chip buffer, recorded at slot granularity
/// (one DMA fill or one streamed operand region per count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferCounters {
    /// Streamed read operations (slot reads, seed reads, store drains).
    pub reads: u64,
    /// Elements covered by those reads.
    pub read_elems: u64,
    /// Write operations (DMA fills, result writes).
    pub writes: u64,
    /// Elements covered by those writes.
    pub write_elems: u64,
    /// High-water footprint in elements: the largest `addr + len` any
    /// write has touched since the accelerator was built (SRAM contents
    /// persist across runs, so this is cumulative).
    pub high_water_elems: u64,
}

impl BufferCounters {
    fn to_json(self) -> Value {
        Value::object()
            .with("reads", self.reads)
            .with("read_elems", self.read_elems)
            .with("writes", self.writes)
            .with("write_elems", self.write_elems)
            .with("high_water_elems", self.high_water_elems)
    }
}

/// ALU operations by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AluOpCounts {
    /// Scalar divisions.
    pub div: u64,
    /// Elementwise row multiplications.
    pub mul_rows: u64,
    /// Taylor-series log terms.
    pub log: u64,
    /// Decision-tree comparison steps.
    pub tree_step: u64,
}

impl AluOpCounts {
    /// Total ALU operations (equals the run's `alu_ops`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.div + self.mul_rows + self.log + self.tree_step
    }

    fn to_json(self) -> Value {
        Value::object()
            .with("div", self.div)
            .with("mul_rows", self.mul_rows)
            .with("log", self.log)
            .with("tree_step", self.tree_step)
    }
}

/// A bounded drop-oldest event ring. Once `capacity` events are held,
/// each new event evicts the oldest, and every lost event is counted in
/// [`EventRing::events_dropped`], so a truncated record keeps the most
/// recent events and says how many it lost. A capacity of 0 keeps
/// nothing and counts every event as dropped.
///
/// The device trace ([`TraceReport`]) and the serving layer's fleet span
/// ring both store their events in one.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRing<T> {
    capacity: usize,
    events: Vec<T>,
    start: usize,
    /// Events discarded because the ring was full.
    pub events_dropped: u64,
}

/// Set by the first overflow warning of the process, from either layer.
static OVERFLOW_WARNED: std::sync::Once = std::sync::Once::new();

impl<T> EventRing<T> {
    /// An empty ring holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> EventRing<T> {
        EventRing {
            capacity,
            events: Vec::with_capacity(capacity.min(1 << 12)),
            start: 0,
            events_dropped: 0,
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn push(&mut self, event: T) {
        if self.events.len() < self.capacity {
            self.events.push(event);
            return;
        }
        if let Some(oldest) = self.events.get_mut(self.start) {
            *oldest = event;
            self.start = (self.start + 1) % self.capacity;
        }
        self.events_dropped = self.events_dropped.saturating_add(1);
    }

    /// Borrowing iterator over the held events, oldest first.
    pub fn events_iter(&self) -> impl Iterator<Item = &T> + Clone + '_ {
        self.events[self.start..].iter().chain(&self.events[..self.start])
    }

    /// Prints one stderr warning if this ring dropped events — at most
    /// once per process, whichever layer's ring (`ring` names it)
    /// overflows first, so a sweep of truncated runs warns once. The
    /// drop counts themselves are always in the reports and timelines.
    pub fn warn_if_dropped(&self, ring: &str) {
        if self.events_dropped > 0 {
            OVERFLOW_WARNED.call_once(|| {
                eprintln!(
                    "warning: {ring} event ring overflowed; {} event(s) dropped — the timeline \
                     is truncated (raise TraceConfig::event_capacity for a complete one)",
                    self.events_dropped
                );
            });
        }
    }
}

impl<T> Default for EventRing<T> {
    fn default() -> EventRing<T> {
        EventRing::new(0)
    }
}

/// Everything one traced run recorded. Produced by
/// [`Accelerator::run`](crate::Accelerator::run) when tracing is enabled.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// HotBuf activity.
    pub hotbuf: BufferCounters,
    /// ColdBuf activity.
    pub coldbuf: BufferCounters,
    /// OutputBuf activity.
    pub outputbuf: BufferCounters,
    /// ALU operations by kind.
    pub alu_ops: AluOpCounts,
    /// Double-buffering ping-pong flips.
    pub ping_pong_flips: u64,
    events: EventRing<TraceEvent>,
    record_events: bool,
}

impl TraceReport {
    pub(crate) fn new(config: &TraceConfig) -> TraceReport {
        let capacity = if config.events { config.event_capacity } else { 0 };
        TraceReport {
            events: EventRing::new(capacity),
            record_events: config.events,
            ..TraceReport::default()
        }
    }

    /// The counters for one buffer.
    #[must_use]
    pub const fn buffer(&self, kind: BufferKind) -> &BufferCounters {
        match kind {
            BufferKind::Hot => &self.hotbuf,
            BufferKind::Cold => &self.coldbuf,
            BufferKind::Output => &self.outputbuf,
        }
    }

    /// Borrowing iterator over the recorded events, oldest first (at most
    /// the configured capacity; older events beyond it are dropped and
    /// counted).
    pub fn events_iter(&self) -> impl Iterator<Item = &TraceEvent> + Clone + '_ {
        self.events.events_iter()
    }

    /// Events discarded because the ring was full (0 when the ring is
    /// off: a counters-only trace records no events and drops none).
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events.events_dropped
    }

    /// Warns on stderr, once per process, if this run's ring overflowed.
    pub(crate) fn warn_if_dropped(&self) {
        self.events.warn_if_dropped("accel trace");
    }

    /// Records an executor or fault-layer event when the ring is on.
    pub(crate) fn push_event(&mut self, event: TraceEvent) {
        if self.record_events {
            self.events.push(event);
        }
    }

    fn buffer_mut(&mut self, kind: BufferKind) -> &mut BufferCounters {
        match kind {
            BufferKind::Hot => &mut self.hotbuf,
            BufferKind::Cold => &mut self.coldbuf,
            BufferKind::Output => &mut self.outputbuf,
        }
    }

    /// Counts one write: a DMA fill or a result write.
    fn record_write(&mut self, kind: BufferKind, elems: u64) {
        let c = self.buffer_mut(kind);
        c.writes += 1;
        c.write_elems += elems;
    }

    fn record_stream(&mut self, kind: BufferKind, elems: u64) {
        let c = self.buffer_mut(kind);
        c.reads += 1;
        c.read_elems += elems;
    }

    /// Records one executed instruction: buffer activity from its slots,
    /// ALU kinds from its mode, DMA and pipeline events.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_instruction(
        &mut self,
        index: u64,
        inst: &Instruction,
        mode: &Mode,
        timing: &InstTiming,
        issue_cycle: u64,
        retire_cycle: u64,
        overlapped: bool,
    ) {
        // Buffer activity, slot by slot. Tree steps consume their hot slot
        // directly from DRAM (raw node words bypass the 16-bit HotBuf), so
        // only non-tree instructions touch the HotBuf here.
        if !matches!(mode, Mode::TreeStep) && inst.hot.op != ReadOp::Null {
            if inst.hot.op == ReadOp::Load {
                self.record_write(BufferKind::Hot, inst.hot.elems());
            }
            self.record_stream(BufferKind::Hot, inst.hot.elems());
        }
        if inst.cold.op != ReadOp::Null {
            if inst.cold.op == ReadOp::Load {
                self.record_write(BufferKind::Cold, inst.cold.elems());
            }
            self.record_stream(BufferKind::Cold, inst.cold.elems());
        }
        if inst.out.read_op != ReadOp::Null {
            if inst.out.read_op == ReadOp::Load {
                self.record_write(BufferKind::Output, inst.out.elems());
            }
            self.record_stream(BufferKind::Output, inst.out.elems());
        }
        if inst.out.write_op != WriteOp::Null {
            self.record_write(BufferKind::Output, inst.out.elems());
            if inst.out.write_op == WriteOp::Store {
                // The store DMA drains the freshly written region.
                self.record_stream(BufferKind::Output, inst.out.elems());
            }
        }

        // ALU kinds.
        match mode {
            Mode::AluDiv => self.alu_ops.div += timing.alu_ops,
            Mode::AluMul => self.alu_ops.mul_rows += timing.alu_ops,
            Mode::AluLog { .. } => self.alu_ops.log += timing.alu_ops,
            Mode::TreeStep => self.alu_ops.tree_step += timing.alu_ops,
            _ => {}
        }

        if overlapped {
            self.ping_pong_flips += 1;
        }

        // Events.
        self.push_event(TraceEvent::Issue { inst: index, cycle: issue_cycle });
        if timing.dma_bytes > 0 || timing.dma_reconfigs > 0 {
            self.push_event(TraceEvent::DmaStart {
                inst: index,
                bytes: timing.dma_bytes,
                descriptors: timing.dma_reconfigs,
                reconfigured: timing.reconfigured_dma,
                cycle: issue_cycle,
            });
            self.push_event(TraceEvent::DmaComplete {
                inst: index,
                cycle: issue_cycle + timing.dma_cycles,
            });
        }
        if overlapped {
            self.push_event(TraceEvent::PingPongFlip { inst: index, cycle: issue_cycle });
        }
        self.push_event(TraceEvent::Retire { inst: index, cycle: retire_cycle });
    }

    pub(crate) fn set_high_water(&mut self, kind: BufferKind, elems: u64) {
        self.buffer_mut(kind).high_water_elems = elems;
    }

    /// JSON object with all counters and the event ring.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with(
                "buffers",
                Value::object()
                    .with("hotbuf", self.hotbuf.to_json())
                    .with("coldbuf", self.coldbuf.to_json())
                    .with("outputbuf", self.outputbuf.to_json()),
            )
            .with("alu_ops", self.alu_ops.to_json())
            .with("ping_pong_flips", self.ping_pong_flips)
            .with("events_dropped", self.events_dropped())
            .with("events", Value::array(self.events_iter().map(|e| e.to_json()).collect()))
    }
}

/// The result of one [`Accelerator::run`](crate::Accelerator::run): the
/// statistics every run produces, the trace when one was enabled, and a
/// fingerprint identifying the architecture configuration the numbers
/// were measured on. Analytic phase models produce the same shape via
/// [`RunReport::from_stats`], so paper-scale modelled phases and
/// functionally executed programs serialise identically.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Optional label (a phase or program name) for report files that
    /// bundle several runs.
    pub label: Option<String>,
    /// Aggregate statistics.
    pub stats: ExecStats,
    /// The trace, when tracing was enabled for the run.
    pub trace: Option<TraceReport>,
    /// [`ArchConfig::fingerprint`] of the configuration that produced
    /// `stats` — lets report consumers refuse to diff across different
    /// hardware points.
    pub config_fingerprint: String,
    /// What the fault layer injected and how it resolved, when fault
    /// injection was enabled for the run.
    pub fault: Option<crate::fault::FaultReport>,
}

impl RunReport {
    /// Wraps analytically modelled statistics (no trace) in a report.
    #[must_use]
    pub fn from_stats(
        label: impl Into<String>,
        stats: ExecStats,
        config: &ArchConfig,
    ) -> RunReport {
        RunReport {
            label: Some(label.into()),
            stats,
            trace: None,
            config_fingerprint: config.fingerprint(),
            fault: None,
        }
    }

    /// JSON object for the whole report. The `fault` key appears only
    /// when fault injection was enabled, so fault-free reports stay
    /// byte-identical to the pre-fault-layer format.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object()
            .with("label", self.label.clone())
            .with("config_fingerprint", self.config_fingerprint.as_str())
            .with("stats", self.stats.to_json())
            .with("trace", self.trace.as_ref().map_or(Value::Null, TraceReport::to_json));
        if let Some(fault) = &self.fault {
            obj.set("fault", fault.to_json());
        }
        obj
    }

    /// Pretty-printed JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            write!(f, "{label}: ")?;
        }
        write!(f, "{}", self.stats)?;
        if self.trace.is_some() {
            f.write_str(" (traced)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut t = TraceReport::new(&TraceConfig::with_event_capacity(2));
        for i in 0..5 {
            t.push_event(TraceEvent::Issue { inst: i, cycle: i });
        }
        assert!(t.events_iter().copied().eq([
            TraceEvent::Issue { inst: 3, cycle: 3 },
            TraceEvent::Issue { inst: 4, cycle: 4 },
        ]));
        assert_eq!(t.events_dropped(), 3);
    }

    #[test]
    fn counters_only_config_drops_all_events() {
        let mut t = TraceReport::new(&TraceConfig::counters());
        t.push_event(TraceEvent::Retire { inst: 0, cycle: 1 });
        assert_eq!(t.events_iter().count(), 0);
        assert_eq!(t.events_dropped(), 0);
    }

    #[test]
    fn zero_capacity_ring_counts_drops() {
        let mut t = TraceReport::new(&TraceConfig::with_event_capacity(0));
        t.push_event(TraceEvent::Retire { inst: 0, cycle: 1 });
        assert_eq!(t.events_iter().count(), 0);
        assert_eq!(t.events_dropped(), 1);
    }

    #[test]
    fn overflow_arms_the_process_wide_warning() {
        let mut ring = EventRing::new(1);
        ring.push(0u8);
        ring.push(1);
        assert_eq!(
            (ring.events_iter().copied().collect::<Vec<_>>(), ring.events_dropped),
            (vec![1], 1)
        );
        ring.warn_if_dropped("test");
        assert!(OVERFLOW_WARNED.is_completed(), "later overflows, in either layer, stay quiet");
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::DmaStart {
            inst: 7,
            bytes: 64,
            descriptors: 2,
            reconfigured: true,
            cycle: 99,
        };
        assert_eq!(e.kind(), "dma_start");
        assert_eq!(e.cycle(), 99);
        let j = e.to_json().to_string();
        assert!(j.contains("\"reconfigured\":true"));
        assert_eq!(TraceEvent::PingPongFlip { inst: 0, cycle: 3 }.kind(), "ping_pong_flip");
    }

    #[test]
    fn report_json_shape() {
        let cfg = ArchConfig::paper_default();
        let report = RunReport::from_stats("phase", ExecStats::default(), &cfg);
        let j = report.to_json();
        assert_eq!(j.get("label"), Some(&Value::Str("phase".into())));
        assert_eq!(j.get("config_fingerprint"), Some(&Value::Str(cfg.fingerprint())));
        assert_eq!(j.get("trace"), Some(&Value::Null));
        assert!(report.to_json_pretty().contains("\"stats\""));
        assert!(report.to_string().contains("phase:"));
        // Fault-free reports carry no fault key at all.
        assert!(j.get("fault").is_none());
        let mut faulty = RunReport::from_stats("phase", ExecStats::default(), &cfg);
        faulty.fault = Some(crate::fault::FaultReport::default());
        assert!(faulty.to_json().get("fault").is_some());
    }

    #[test]
    fn fault_events_serialise() {
        use crate::fault::FaultSite;
        let e = TraceEvent::FaultInjected { site: FaultSite::Dma, inst: 2, cycle: 17 };
        assert_eq!(e.kind(), "fault_injected");
        assert_eq!(e.cycle(), 17);
        assert!(e.to_json().to_string().contains("\"site\":\"dma\""));
        let c = TraceEvent::FaultCorrected { buffer: BufferKind::Hot, inst: 2, cycle: 18 };
        assert_eq!(c.kind(), "fault_corrected");
        assert!(c.to_json().to_string().contains("\"buffer\":\"HotBuf\""));
        let m = TraceEvent::LaneMasked { lanes_left: 15, inst: 3, cycle: 20 };
        assert_eq!(m.kind(), "lane_masked");
        assert!(m.to_json().to_string().contains("\"lanes_left\":15"));
    }
}
