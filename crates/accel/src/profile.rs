//! Timeline profiling and bottleneck attribution.
//!
//! The paper's evaluation is an *attribution* story: Figure 15's wins and
//! losses come down to where each phase's cycles go — NB prediction pays
//! OutputBuf round-trips, CT prediction pays DMA-descriptor
//! reconfiguration, the dense phases keep the MLU pipeline full. This
//! module turns the raw observability data from [`crate::trace`] into
//! that story twice over:
//!
//! - [`chrome_trace`] converts a run's event ring into Chrome Trace Event
//!   JSON (loadable in `chrome://tracing` or Perfetto) with one track per
//!   engine: ifetch/control, each MLU pipeline stage, the ALU, the three
//!   DMA buffer streams, and fault/ECC overhead. Durations are derived
//!   from the same [`crate::timing::InstTiming`] formulas the executor
//!   charged, so the timeline is exact, not sampled.
//! - [`analyze`] classifies a [`RunReport`] as pipeline-, dma-,
//!   reconfiguration- or fault-overhead-bound ([`Bottleneck`]) with the
//!   utilisation breakdown behind the verdict ([`PhaseAnalysis`]).
//! - [`validate_timeline`] structurally checks an exported timeline
//!   (begin/end balance, per-track monotonicity) — the guard used by the
//!   property tests; [`export_timeline`] writes a timeline and validates
//!   the file it wrote.
//!
//! Apart from that one writer, everything here is a pure function over
//! already-collected reports: profiling a run costs nothing beyond the
//! trace layer that recorded it, and nothing at all when tracing is off.

use crate::config::ArchConfig;
use crate::isa::{Program, ReadOp, WriteOp};
use crate::json::{self, Value};
use crate::stats::MluStage;
use crate::timing::instruction_timing;
use crate::trace::{RunReport, TraceEvent, TraceReport};

/// Chrome `pid` used for all tracks (one simulated process).
const PID: u64 = 1;

/// Track (Chrome `tid`) of the ifetch/control engine.
const TRACK_IFETCH: usize = 0;
/// Track of the hot-operand DMA stream (tracks 1–7 are the MLU stages).
const TRACK_DMA_HOT: usize = 8;
/// Track of the cold-operand DMA stream.
const TRACK_DMA_COLD: usize = 9;
/// Track of the output DMA stream.
const TRACK_DMA_OUT: usize = 10;
/// Track of fault/ECC overhead.
const TRACK_FAULT: usize = 11;

fn stage_track(stage: MluStage) -> usize {
    1 + MluStage::ALL.iter().position(|&s| s == stage).expect("stage in ALL")
}

fn track_name(track: usize) -> &'static str {
    match track {
        TRACK_IFETCH => "ifetch/control",
        TRACK_DMA_HOT => "dma-hot",
        TRACK_DMA_COLD => "dma-cold",
        TRACK_DMA_OUT => "dma-out",
        TRACK_FAULT => "fault/ecc",
        t => match MluStage::ALL[t - 1] {
            MluStage::Counter => "mlu-counter",
            MluStage::Adder => "mlu-adder",
            MluStage::Multiplier => "mlu-multiplier",
            MluStage::AdderTree => "mlu-adder-tree",
            MluStage::Acc => "mlu-acc",
            MluStage::Misc => "mlu-misc",
            MluStage::Alu => "alu",
        },
    }
}

/// One pending timeline entry before serialisation.
struct Entry {
    track: u64,
    ts: u64,
    /// `'B'`, `'E'` or `'i'`.
    ph: char,
    name: String,
    args: Option<Value>,
}

impl Entry {
    fn to_json(&self) -> Value {
        let mut obj = Value::object()
            .with("name", self.name.as_str())
            .with("ph", self.ph.to_string())
            .with("ts", self.ts)
            .with("pid", PID)
            .with("tid", self.track);
        if self.ph == 'i' {
            obj.set("s", "t"); // thread-scoped instant
        }
        if let Some(args) = &self.args {
            obj.set("args", args.clone());
        }
        obj
    }
}

/// Reusable Chrome Trace Event document builder: a fixed set of named
/// tracks under one process, duration spans and thread-scoped instants
/// accumulated per track, serialised with the metadata events first and a
/// *stable* timestamp sort over the rest. Keeping each track's entries in
/// generation order means the stable sort preserves begin/end adjacency
/// at equal stamps, so an `E` always precedes the next span's `B` on its
/// track — the invariant [`validate_timeline`] checks.
///
/// [`chrome_trace`] builds the device timeline on it; the serving layer
/// reuses it for the fleet timeline (`pudiannao_serve::trace`).
pub struct TimelineBuilder {
    process: String,
    names: Vec<String>,
    lanes: Vec<Vec<Entry>>,
}

impl TimelineBuilder {
    /// A builder with one lane per entry of `track_names`; track `i` is
    /// serialised as Chrome `tid == i`, named `track_names[i]`.
    #[must_use]
    pub fn new(process: &str, track_names: &[&str]) -> TimelineBuilder {
        TimelineBuilder {
            process: process.to_owned(),
            names: track_names.iter().map(|&n| n.to_owned()).collect(),
            lanes: track_names.iter().map(|_| Vec::new()).collect(),
        }
    }

    /// Emits a `[start, start + dur)` duration span; zero-length spans
    /// are skipped so every emitted event has positive duration.
    pub fn span(&mut self, track: usize, name: &str, start: u64, dur: u64, args: Option<Value>) {
        if dur == 0 {
            return;
        }
        let lane = &mut self.lanes[track];
        lane.push(Entry { track: track as u64, ts: start, ph: 'B', name: name.to_owned(), args });
        lane.push(Entry {
            track: track as u64,
            ts: start.saturating_add(dur),
            ph: 'E',
            name: name.to_owned(),
            args: None,
        });
    }

    /// Emits a thread-scoped instant event.
    pub fn instant(&mut self, track: usize, name: &str, ts: u64, args: Option<Value>) {
        self.lanes[track].push(Entry {
            track: track as u64,
            ts,
            ph: 'i',
            name: name.to_owned(),
            args,
        });
    }

    /// Serialises the document: `process_name`/`thread_name` metadata
    /// first (every named track, even empty ones, so the viewer shows a
    /// stable lane layout), then every entry in timestamp order, with
    /// `other_data` attached verbatim as the document's `otherData`.
    #[must_use]
    pub fn build(self, other_data: Value) -> Value {
        let mut events: Vec<Value> = Vec::new();
        events.push(
            Value::object()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", PID)
                .with("args", Value::object().with("name", self.process.as_str())),
        );
        for (track, name) in self.names.iter().enumerate() {
            events.push(
                Value::object()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", PID)
                    .with("tid", track as u64)
                    .with("args", Value::object().with("name", name.as_str())),
            );
        }
        let mut entries: Vec<Entry> = self.lanes.into_iter().flatten().collect();
        entries.sort_by_key(|e| e.ts);
        events.extend(entries.iter().map(Entry::to_json));
        Value::object().with("traceEvents", Value::array(events)).with("otherData", other_data)
    }
}

/// Converts a traced run's event ring into a Chrome Trace Event document
/// (the `{"traceEvents": [...]}` object format), loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// One track per engine: ifetch/control, the seven MLU pipeline stages
/// (the ALU is the seventh), the three DMA streams, and fault/ECC
/// overhead. Durations come from re-deriving each instruction's
/// [`crate::timing::InstTiming`] under `config` — the exact cycles the
/// executor charged. Timestamps are cycle numbers (rendered as
/// microseconds by Chrome; at the paper's 1 GHz, 1 "µs" = 1 ns of chip
/// time). `labels[i]`, when present, names instruction `i`'s spans (pass
/// disassembly lines for a readable timeline); otherwise the
/// instruction's own name is used.
///
/// Instructions whose `Issue`/`Retire` pair was evicted from the bounded
/// ring are omitted; `events_dropped` is surfaced in the document's
/// `otherData` so a truncated timeline is never mistaken for a complete
/// one.
#[must_use]
pub fn chrome_trace(
    config: &ArchConfig,
    program: &Program,
    trace: &TraceReport,
    labels: &[String],
) -> Value {
    let names: Vec<&str> = (0..=TRACK_FAULT).map(track_name).collect();
    let mut tracks = TimelineBuilder::new("pudiannao", &names);

    // Pass 1: pair Issue/Retire per instruction and note overlap flags.
    let mut pairs: Vec<(u64, u64, u64, bool)> = Vec::new(); // (inst, issue, retire, overlapped)
    let mut issued: Option<(u64, u64)> = None;
    let mut overlapped = false;
    for event in trace.events_iter() {
        match *event {
            TraceEvent::Issue { inst, cycle } => {
                issued = Some((inst, cycle));
                overlapped = false;
            }
            TraceEvent::PingPongFlip { inst, .. } if issued.map(|(i, _)| i) == Some(inst) => {
                overlapped = true;
            }
            TraceEvent::Retire { inst, cycle } => {
                if let Some((i, issue)) = issued.take() {
                    if i == inst {
                        pairs.push((inst, issue, cycle, overlapped));
                    }
                }
            }
            _ => {}
        }
    }

    // Pass 2: derive duration spans from the timing model.
    let mut prev: Option<(u64, u64)> = None; // (inst, retire)
    for &(inst, issue, retire, overlapped) in &pairs {
        let Some(instruction) = program.instructions().get(inst as usize) else { continue };
        let Ok(t) = instruction_timing(config, instruction) else { continue };
        let label =
            labels.get(inst as usize).map_or_else(|| instruction.name.as_str(), String::as_str);

        // InstBuf fill before the first instruction; later instructions
        // issue back-to-back (fetch is charged once up front).
        let fetch_start = match prev {
            None if inst == 0 => Some(0),
            Some((p, p_retire)) if p + 1 == inst => Some(p_retire),
            _ => None,
        };
        if let Some(start) = fetch_start {
            tracks.span(TRACK_IFETCH, "ifetch", start, issue.saturating_sub(start), None);
        }
        prev = Some((inst, retire));

        // MLU/ALU stage spans: each active stage's attributed share of
        // the instruction's busy time, anchored at issue (the stages run
        // concurrently as a pipeline; the shares partition
        // `compute_cycles` exactly — see `StageCycles`).
        for stage in MluStage::ALL {
            tracks.span(stage_track(stage), label, issue, t.stage_cycles.get(stage), None);
        }

        // DMA spans: the engine's busy window is [issue, issue +
        // dma_cycles]; split it across the instruction's active streams
        // proportionally to bytes moved (remainder to the first, the
        // same convention as the stage attribution), laid out
        // hot -> cold -> out.
        let hot_bytes =
            if instruction.hot.op == ReadOp::Load { instruction.hot.elems() * 4 } else { 0 };
        let cold_bytes =
            if instruction.cold.op == ReadOp::Load { instruction.cold.elems() * 4 } else { 0 };
        let mut out_bytes =
            if instruction.out.read_op == ReadOp::Load { instruction.out.elems() * 4 } else { 0 };
        if instruction.out.write_op == WriteOp::Store {
            out_bytes += instruction.out.elems() * 4;
        }
        let streams =
            [(TRACK_DMA_HOT, hot_bytes), (TRACK_DMA_COLD, cold_bytes), (TRACK_DMA_OUT, out_bytes)];
        let total_bytes: u64 = streams.iter().map(|&(_, b)| b).sum();
        if total_bytes > 0 && t.dma_cycles > 0 {
            let proportional = |b: u64| {
                (u128::from(t.dma_cycles) * u128::from(b) / u128::from(total_bytes)) as u64
            };
            let floor_sum: u64 = streams.iter().map(|&(_, b)| proportional(b)).sum();
            let mut remainder = t.dma_cycles - floor_sum;
            let mut cursor = issue;
            for (track, bytes) in streams {
                if bytes == 0 {
                    continue;
                }
                // Remainder to the first active stream so the spans tile
                // the DMA window exactly (the stage-attribution rule).
                let share = proportional(bytes) + core::mem::take(&mut remainder);
                let args = Value::object()
                    .with("bytes", bytes)
                    .with("descriptors", t.dma_reconfigs)
                    .with("reconfigured", t.reconfigured_dma);
                tracks.span(track, label, cursor, share, Some(args));
                cursor += share;
            }
        }

        // Anything beyond the modelled elapsed time is fault-layer
        // overhead (ECC checks/corrections, lane replays) — or, in a
        // degraded run, the slowdown from masked lanes.
        let expected = if overlapped {
            t.compute_cycles.max(t.dma_cycles)
        } else {
            t.compute_cycles + t.dma_cycles
        };
        let overhead = retire.saturating_sub(issue).saturating_sub(expected);
        tracks.span(TRACK_FAULT, "fault-overhead", retire - overhead, overhead, None);
    }

    // Pass 3: instants straight from the ring.
    for event in trace.events_iter() {
        match *event {
            TraceEvent::PingPongFlip { inst, cycle } => {
                let args = Value::object().with("inst", inst);
                tracks.instant(TRACK_IFETCH, "ping-pong flip", cycle, Some(args));
            }
            TraceEvent::FaultInjected { site, inst, cycle } => {
                let args = Value::object().with("inst", inst).with("site", site.name());
                tracks.instant(TRACK_FAULT, "fault injected", cycle, Some(args));
            }
            TraceEvent::FaultCorrected { buffer, inst, cycle } => {
                let args = Value::object().with("inst", inst).with("buffer", buffer.to_string());
                tracks.instant(TRACK_FAULT, "secded corrected", cycle, Some(args));
            }
            TraceEvent::LaneMasked { lanes_left, inst, cycle } => {
                let args = Value::object().with("inst", inst).with("lanes_left", lanes_left);
                tracks.instant(TRACK_FAULT, "lane masked", cycle, Some(args));
            }
            _ => {}
        }
    }

    tracks.build(
        Value::object()
            .with("config_fingerprint", config.fingerprint())
            .with("events_dropped", trace.events_dropped())
            .with("timestamp_unit", "cycles"),
    )
}

/// Summary counts from a structurally valid timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineCheck {
    /// Complete begin/end duration spans.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Distinct tracks that carried at least one event.
    pub tracks: usize,
}

/// Structurally validates a Chrome Trace Event document produced by
/// [`chrome_trace`] (or parsed back from disk): the `traceEvents` array
/// exists, every event carries `name`/`ph`/`pid`/`ts`, per-track
/// timestamps are monotone non-decreasing, and every `B` is balanced by
/// an `E` at a timestamp no earlier than its begin (all durations
/// non-negative).
///
/// # Errors
///
/// A description of the first structural violation.
pub fn validate_timeline(doc: &Value) -> Result<TimelineCheck, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing traceEvents array".to_owned())?;
    let mut check = TimelineCheck::default();
    let mut last_ts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut open: std::collections::BTreeMap<u64, Vec<(String, u64)>> =
        std::collections::BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if event.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if event.get("pid").and_then(Value::as_u64).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = event
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let tid = event
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let prev = last_ts.insert(tid, ts).unwrap_or(0);
        if ts < prev {
            return Err(format!("event {i}: track {tid} timestamps regress ({prev} -> {ts})"));
        }
        let name = event.get("name").and_then(Value::as_str).unwrap_or_default();
        match ph {
            "B" => open.entry(tid).or_default().push((name.to_owned(), ts)),
            "E" => {
                let Some((begin_name, begin_ts)) = open.entry(tid).or_default().pop() else {
                    return Err(format!("event {i}: E without matching B on track {tid}"));
                };
                if begin_ts > ts {
                    return Err(format!("event {i}: negative duration on track {tid}"));
                }
                if begin_name != name {
                    return Err(format!(
                        "event {i}: E name {name:?} does not match B name {begin_name:?}"
                    ));
                }
                check.spans += 1;
            }
            "i" => check.instants += 1,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    if let Some((tid, stack)) = open.iter().find(|(_, stack)| !stack.is_empty()) {
        return Err(format!("track {tid}: {} unbalanced B event(s)", stack.len()));
    }
    check.tracks = last_ts.len();
    Ok(check)
}

/// Writes a timeline document to `path` with [`json::write_file`], then
/// reads the file back, parses it and runs [`validate_timeline`] on it:
/// the counts returned describe the bytes on disk, not the in-memory
/// document. The device timeline ([`chrome_trace`]) and the serving
/// layer's fleet timeline are both exported through it.
///
/// # Errors
///
/// A message naming `path` when the write, the read-back or the parse
/// fails, or when the document is structurally invalid.
pub fn export_timeline(
    doc: &Value,
    path: impl AsRef<std::path::Path>,
) -> Result<TimelineCheck, String> {
    let path = path.as_ref();
    json::write_file(path, doc)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    let parsed =
        json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    validate_timeline(&parsed)
        .map_err(|e| format!("{} is not a valid timeline: {e}", path.display()))
}

/// Fraction of total cycles spent on fault-layer overhead above which a
/// phase is fault-overhead-bound.
pub const FAULT_BOUND_THRESHOLD: f64 = 0.05;

/// Fraction of total cycles stalled on the DMA above which a phase is
/// memory-bound (dma- or reconfiguration-bound).
pub const STALL_BOUND_THRESHOLD: f64 = 0.15;

/// Share of DMA busy cycles spent reprogramming descriptors above which
/// a memory-bound phase is reconfiguration-bound rather than
/// bandwidth-bound.
pub const RECONFIG_SHARE_THRESHOLD: f64 = 0.5;

/// What limits a phase's throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// The MLU/ALU pipeline is the critical path (the DMA hides behind
    /// compute). Includes NB prediction: its OutputBuf round-trip penalty
    /// inflates *compute* occupancy, not DMA stalls.
    Pipeline,
    /// Execution stalls on DMA bandwidth.
    Dma,
    /// Execution stalls on DMA *descriptor reconfiguration* — the
    /// irregular-access cost CT prediction pays for tree-node gathers.
    Reconfiguration,
    /// Fault-layer overhead (ECC, replays, lane masking) dominates.
    FaultOverhead,
}

impl Bottleneck {
    /// Stable verdict name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Bottleneck::Pipeline => "pipeline-bound",
            Bottleneck::Dma => "dma-bound",
            Bottleneck::Reconfiguration => "reconfiguration-bound",
            Bottleneck::FaultOverhead => "fault-overhead-bound",
        }
    }
}

impl core::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One buffer's high-water footprint against its capacity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferOccupancy {
    /// Largest footprint any write has touched, in elements.
    pub high_water_elems: u64,
    /// Buffer capacity in elements.
    pub capacity_elems: u64,
}

impl BufferOccupancy {
    /// High-water mark as a fraction of capacity.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.capacity_elems == 0 {
            return 0.0;
        }
        self.high_water_elems as f64 / self.capacity_elems as f64
    }

    fn to_json(self) -> Value {
        Value::object()
            .with("high_water_elems", self.high_water_elems)
            .with("capacity_elems", self.capacity_elems)
            .with("fraction", self.fraction())
    }
}

/// The utilisation breakdown behind a [`Bottleneck`] verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseAnalysis {
    /// The verdict.
    pub verdict: Bottleneck,
    /// FU busy fraction ([`crate::ExecStats::fu_utilization`]).
    pub fu_utilization: f64,
    /// Fraction of total cycles stalled waiting on the DMA.
    pub dma_stall_fraction: f64,
    /// Share of DMA busy cycles spent reprogramming descriptors for
    /// irregular patterns.
    pub dma_reconfig_fraction: f64,
    /// Fraction of total cycles spent on fault-layer overhead.
    pub fault_overhead_fraction: f64,
    /// HotBuf high-water vs capacity, when the run carried a trace.
    pub hotbuf: Option<BufferOccupancy>,
    /// ColdBuf high-water vs capacity, when the run carried a trace.
    pub coldbuf: Option<BufferOccupancy>,
    /// OutputBuf high-water vs capacity, when the run carried a trace.
    pub outputbuf: Option<BufferOccupancy>,
}

impl PhaseAnalysis {
    /// JSON object: the verdict plus every fraction (buffer occupancies
    /// only when the run carried a trace).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object()
            .with("verdict", self.verdict.name())
            .with("fu_utilization", self.fu_utilization)
            .with("dma_stall_fraction", self.dma_stall_fraction)
            .with("dma_reconfig_fraction", self.dma_reconfig_fraction)
            .with("fault_overhead_fraction", self.fault_overhead_fraction);
        if let (Some(hot), Some(cold), Some(out)) = (self.hotbuf, self.coldbuf, self.outputbuf) {
            obj.set(
                "buffers",
                Value::object()
                    .with("hotbuf", hot.to_json())
                    .with("coldbuf", cold.to_json())
                    .with("outputbuf", out.to_json()),
            );
        }
        obj
    }
}

/// Classifies what limits a run's throughput, from its report alone.
///
/// The taxonomy follows the paper's Figure-15 discussion. In threshold
/// order:
///
/// 1. **fault-overhead-bound** — fault-layer overhead (ECC checks and
///    corrections, pipeline replays, lane masking) exceeds
///    [`FAULT_BOUND_THRESHOLD`] of total cycles.
/// 2. **reconfiguration-bound** — the run stalls on the DMA
///    ([`STALL_BOUND_THRESHOLD`]) *and* most of the DMA's busy time goes
///    to descriptor reconfiguration ([`RECONFIG_SHARE_THRESHOLD`]): CT
///    prediction's tree-node gathers ("PuDianNao frequently reconfigures
///    its DMA to support irregular memory accesses").
/// 3. **dma-bound** — the run stalls on the DMA but the time goes to
///    moving bytes: LR's streaming phases, where each instruction's
///    operand traffic exceeds its compute occupancy.
/// 4. **pipeline-bound** — otherwise: the DMA hides behind compute and
///    the MLU/ALU pipeline is the critical path. NB prediction lands
///    here *by design*: its OutputBuf round-trip penalty inflates Misc/
///    Acc-stage occupancy rather than DMA stalls.
///
/// `config` supplies descriptor-reconfiguration cost and buffer
/// capacities; it must be the configuration the run was measured on
/// (compare [`RunReport::config_fingerprint`]).
#[must_use]
pub fn analyze(report: &RunReport, config: &ArchConfig) -> PhaseAnalysis {
    let stats = &report.stats;
    let cycles = stats.cycles.max(1) as f64;
    let dma_stall_fraction = stats.dma_stall_cycles as f64 / cycles;
    let fault_overhead_fraction = stats.fault_overhead_cycles as f64 / cycles;
    let reconfig_cycles = stats.dma_reconfig_descriptors * u64::from(config.dma_reconfig_cycles);
    let dma_reconfig_fraction = if stats.dma_cycles == 0 {
        0.0
    } else {
        (reconfig_cycles as f64 / stats.dma_cycles as f64).min(1.0)
    };

    let verdict = if fault_overhead_fraction >= FAULT_BOUND_THRESHOLD {
        Bottleneck::FaultOverhead
    } else if dma_stall_fraction >= STALL_BOUND_THRESHOLD {
        if dma_reconfig_fraction >= RECONFIG_SHARE_THRESHOLD {
            Bottleneck::Reconfiguration
        } else {
            Bottleneck::Dma
        }
    } else {
        Bottleneck::Pipeline
    };

    let occupancy = |kind: fn(&crate::trace::TraceReport) -> u64, capacity: u32| {
        report.trace.as_ref().map(|t| BufferOccupancy {
            high_water_elems: kind(t),
            capacity_elems: u64::from(capacity),
        })
    };
    PhaseAnalysis {
        verdict,
        fu_utilization: stats.fu_utilization(),
        dma_stall_fraction,
        dma_reconfig_fraction,
        fault_overhead_fraction,
        hotbuf: occupancy(|t| t.hotbuf.high_water_elems, config.hotbuf_elems()),
        coldbuf: occupancy(|t| t.coldbuf.high_water_elems, config.coldbuf_elems()),
        outputbuf: occupancy(|t| t.outputbuf.high_water_elems, config.outputbuf_elems()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Accelerator;
    use crate::isa::{FuOps, Instruction};
    use crate::memory::Dram;
    use crate::stats::ExecStats;
    use crate::trace::TraceConfig;

    fn traced_run() -> (ArchConfig, Program, RunReport) {
        let config = ArchConfig::paper_default();
        let mut accel =
            Accelerator::builder(config.clone()).trace(TraceConfig::full()).build().unwrap();
        let mut dram = Dram::new(1 << 20);
        dram.write_f32(0, &[1.0; 256]);
        let program = Program::builder()
            .instruction(
                Instruction::builder("dot-a")
                    .hot_load(0, 0, 16, 1)
                    .cold_load(64, 0, 16, 4)
                    .out_store(4096, 1, 4)
                    .fu(FuOps::dot_broadcast(None)),
            )
            .instruction(
                Instruction::builder("dot-b")
                    .hot_load(0, 0, 16, 1)
                    .cold_load(128, 0, 16, 4)
                    .out_store(4200, 1, 4)
                    .fu(FuOps::dot_broadcast(None)),
            )
            .build()
            .unwrap();
        let report = accel.run(&program, &mut dram).unwrap();
        (config, program, report)
    }

    #[test]
    fn timeline_is_structurally_valid() {
        let (config, program, report) = traced_run();
        let trace = report.trace.as_ref().unwrap();
        let doc = chrome_trace(&config, &program, trace, &[]);
        let check = validate_timeline(&doc).unwrap();
        assert!(check.spans > 0);
        assert!(check.instants > 0); // the ping-pong flip
        assert!(check.tracks >= 4); // ifetch + stages + dma streams
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("events_dropped")),
            Some(&Value::UInt(0))
        );
    }

    #[test]
    fn exported_timeline_validates_from_disk() {
        let (config, program, report) = traced_run();
        let doc = chrome_trace(&config, &program, report.trace.as_ref().unwrap(), &[]);
        let path = std::env::temp_dir().join(format!("export_timeline_{}", std::process::id()));
        let check = export_timeline(&doc, &path).unwrap();
        assert_eq!(check, validate_timeline(&doc).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc.to_string_pretty());
        let err = export_timeline(&Value::object(), &path).unwrap_err();
        assert!(err.ends_with("is not a valid timeline: missing traceEvents array"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn timeline_uses_supplied_labels() {
        let (config, program, report) = traced_run();
        let trace = report.trace.as_ref().unwrap();
        let labels = vec!["first-label".to_owned(), "second-label".to_owned()];
        let doc = chrome_trace(&config, &program, trace, &labels);
        let text = doc.to_string();
        assert!(text.contains("first-label"));
        assert!(text.contains("second-label"));
        // Without labels, instruction names are used.
        let doc = chrome_trace(&config, &program, trace, &[]);
        assert!(doc.to_string().contains("dot-a"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_timeline(&Value::object()).is_err());
        let bad = Value::object().with(
            "traceEvents",
            Value::array(vec![Value::object()
                .with("name", "x")
                .with("ph", "E")
                .with("ts", 1u64)
                .with("pid", 1u64)
                .with("tid", 0u64)]),
        );
        assert!(validate_timeline(&bad).unwrap_err().contains("E without matching B"));
        let regress = Value::object().with(
            "traceEvents",
            Value::array(vec![
                Value::object()
                    .with("name", "x")
                    .with("ph", "i")
                    .with("ts", 5u64)
                    .with("pid", 1u64)
                    .with("tid", 0u64),
                Value::object()
                    .with("name", "y")
                    .with("ph", "i")
                    .with("ts", 4u64)
                    .with("pid", 1u64)
                    .with("tid", 0u64),
            ]),
        );
        assert!(validate_timeline(&regress).unwrap_err().contains("regress"));
        let unbalanced = Value::object().with(
            "traceEvents",
            Value::array(vec![Value::object()
                .with("name", "x")
                .with("ph", "B")
                .with("ts", 1u64)
                .with("pid", 1u64)
                .with("tid", 0u64)]),
        );
        assert!(validate_timeline(&unbalanced).unwrap_err().contains("unbalanced"));
    }

    #[test]
    fn analyzer_verdicts_follow_the_taxonomy() {
        let config = ArchConfig::paper_default();
        let mk = |stats: ExecStats| RunReport::from_stats("t", stats, &config);

        let pipeline = mk(ExecStats {
            cycles: 1000,
            compute_cycles: 950,
            dma_cycles: 400,
            ..Default::default()
        });
        assert_eq!(analyze(&pipeline, &config).verdict, Bottleneck::Pipeline);

        let dma = mk(ExecStats {
            cycles: 1000,
            compute_cycles: 600,
            dma_cycles: 900,
            dma_stall_cycles: 400,
            dma_regular_descriptors: 100,
            ..Default::default()
        });
        assert_eq!(analyze(&dma, &config).verdict, Bottleneck::Dma);

        // 10 reconfigured descriptors x 64 cycles = 640 of 900 DMA cycles.
        let reconf = mk(ExecStats {
            cycles: 1000,
            compute_cycles: 100,
            dma_cycles: 900,
            dma_stall_cycles: 800,
            dma_reconfig_descriptors: 10,
            ..Default::default()
        });
        assert_eq!(analyze(&reconf, &config).verdict, Bottleneck::Reconfiguration);

        let faulty = mk(ExecStats {
            cycles: 1000,
            compute_cycles: 500,
            fault_overhead_cycles: 100,
            ..Default::default()
        });
        assert_eq!(analyze(&faulty, &config).verdict, Bottleneck::FaultOverhead);
        assert_eq!(faulty.stats.fault_overhead_cycles, 100);
    }

    #[test]
    fn analysis_breakdown_and_json() {
        let (config, _, report) = traced_run();
        let analysis = analyze(&report, &config);
        assert!(analysis.fu_utilization > 0.0 && analysis.fu_utilization <= 1.0);
        let hot = analysis.hotbuf.expect("traced run has occupancy");
        assert!(hot.fraction() > 0.0 && hot.fraction() <= 1.0);
        let j = analysis.to_json();
        assert_eq!(j.get("verdict").and_then(Value::as_str), Some(analysis.verdict.name()));
        assert!(j.get("buffers").is_some());
        // Stats-only reports (the analytic phase models) omit occupancy.
        let modelled = RunReport::from_stats("m", report.stats, &config);
        let j = analyze(&modelled, &config).to_json();
        assert!(j.get("buffers").is_none());
        assert_eq!(BufferOccupancy::default().fraction(), 0.0);
    }

    #[test]
    fn timeline_round_trips_through_json_parse() {
        let (config, program, report) = traced_run();
        let trace = report.trace.as_ref().unwrap();
        let doc = chrome_trace(&config, &program, trace, &[]);
        for text in [doc.to_string(), doc.to_string_pretty()] {
            let reparsed = crate::json::parse(&text).expect("timeline is valid JSON");
            assert_eq!(reparsed, doc, "parse(render(doc)) must be the identity");
            assert_eq!(validate_timeline(&reparsed), validate_timeline(&doc));
        }
    }

    #[test]
    fn empty_trace_yields_empty_timeline() {
        let config = ArchConfig::paper_default();
        let program = Program::builder()
            .instruction(
                Instruction::builder("dot")
                    .hot_load(0, 0, 16, 1)
                    .cold_load(64, 0, 16, 4)
                    .out_store(4096, 1, 4)
                    .fu(FuOps::dot_broadcast(None)),
            )
            .build()
            .unwrap();
        let trace = crate::trace::TraceReport::default();
        let doc = chrome_trace(&config, &program, &trace, &[]);
        let check = validate_timeline(&doc).unwrap();
        assert_eq!(check.spans, 0);
        assert_eq!(check.instants, 0);
    }
}
