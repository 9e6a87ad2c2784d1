//! Windowed serving metrics: an HDR-style log-bucket latency histogram
//! plus per-window counters and gauges, sampled on a fixed simulated-time
//! grid.
//!
//! The end-of-run aggregates in [`ServeReport`](crate::report::ServeReport)
//! average a whole run together, which is exactly how a chaos-induced
//! p99.9 spike hides: a 90µs crash window in a 4ms run moves the overall
//! p99 barely at all. Cutting the run into fixed windows of simulated
//! time turns crash/recovery into a visible time series — queue depth
//! rises while a shard is down, the window p99 spikes, shed/retry rates
//! jump, then everything drains back.
//!
//! Everything is integer arithmetic on simulated ns and all recording
//! happens in the fleet's sequential wave-order loop, so the metrics are
//! byte-identical at any `REPRO_THREADS` and recording them cannot
//! perturb the simulation.

use pudiannao_accel::json::Value;

/// log2 of the sub-bucket count per power of two: 32 sub-buckets, so the
/// histogram's relative error is bounded by 1/32 of the value.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Hard cap on materialised windows, so a degenerate window size cannot
/// allocate without bound. The last window absorbs everything beyond it.
pub const MAX_WINDOWS: usize = 1 << 16;

/// An HDR-style log-bucket histogram over `u64` values (simulated ns).
///
/// Values below [`SUB_BUCKETS`] are exact; above that, each power of two
/// is split into [`SUB_BUCKETS`] equal sub-buckets, so any recorded value
/// lands in a bucket whose width is at most `value / 32` — a ≤ 3.125%
/// relative error, pinned by the quantile error-bound test below.
/// Quantiles are nearest-rank over the bucket counts and report the
/// bucket's *upper* bound, so the histogram never understates a latency.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Bucket index of `v`: identity below [`SUB_BUCKETS`], then
/// `(log2(v) - SUB_BITS + 1) * 32 + sub-bucket` above.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((u64::from(shift) + 1) * SUB_BUCKETS + ((v >> shift) - SUB_BUCKETS)) as usize
}

/// Inclusive `(low, high)` value range of bucket `idx` — the inverse of
/// [`bucket_index`]: every `v` with `bucket_index(v) == idx` satisfies
/// `low <= v <= high`.
#[must_use]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return (idx, idx);
    }
    let shift = idx / SUB_BUCKETS - 1;
    let low = (SUB_BUCKETS + idx % SUB_BUCKETS) << shift;
    (low, low + ((1 << shift) - 1))
}

impl LogHistogram {
    #[must_use]
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total = self.total.saturating_add(1);
    }

    /// Recorded values so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile (`q_permille` is the quantile × 1000, like
    /// [`percentile_ns`]), reported as the holding bucket's upper bound.
    /// Zero on an empty histogram; exact for n ∈ {1, 2} of small values.
    #[must_use]
    pub fn quantile(&self, q_permille: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // The same rank rule as percentile_ns, so the two agree exactly
        // whenever every sample sits in a width-one bucket.
        let rank = (self.total * q_permille).div_ceil(1000).max(1).min(self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx).1;
            }
        }
        bucket_bounds(self.counts.len().saturating_sub(1)).1
    }
}

/// Metrics-layer configuration: the simulated-time window size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Window width in simulated ns.
    pub window_ns: u64,
}

impl Default for MetricsConfig {
    /// 100µs windows: fine enough that a `mid`-intensity crash window
    /// (~90µs MTTR) spans its own sample, coarse enough that the heavy
    /// stream keeps every window populated.
    fn default() -> MetricsConfig {
        MetricsConfig { window_ns: 100_000 }
    }
}

/// Counters and gauges for one simulated-time window.
#[derive(Clone, Debug, Default)]
struct WindowStats {
    completions: u64,
    shed: u64,
    rejected: u64,
    timed_out: u64,
    failed: u64,
    retries: u64,
    hedges: u64,
    quarantines: u64,
    queue_depth_max: u64,
    busy_ns: u64,
    latency: LogHistogram,
}

/// Accumulates windowed metrics during a fleet run. All hooks are called
/// from the sequential event loop; the recorder never feeds back into the
/// simulation.
#[derive(Clone, Debug)]
pub struct MetricsRecorder {
    window_ns: u64,
    shards: u64,
    windows: Vec<WindowStats>,
    overall: LogHistogram,
}

impl MetricsRecorder {
    #[must_use]
    pub fn new(config: &MetricsConfig, shards: usize) -> MetricsRecorder {
        MetricsRecorder {
            window_ns: config.window_ns.max(1),
            shards: shards as u64,
            windows: Vec::new(),
            overall: LogHistogram::new(),
        }
    }

    fn window_mut(&mut self, at_ns: u64) -> &mut WindowStats {
        let idx = ((at_ns / self.window_ns) as usize).min(MAX_WINDOWS - 1);
        if self.windows.len() <= idx {
            self.windows.resize_with(idx + 1, WindowStats::default);
        }
        &mut self.windows[idx]
    }

    /// A request completed at `at_ns` with end-to-end latency
    /// `latency_ns`.
    pub fn on_completion(&mut self, latency_ns: u64, at_ns: u64) {
        self.overall.record(latency_ns);
        let w = self.window_mut(at_ns);
        w.completions += 1;
        w.latency.record(latency_ns);
    }

    pub fn on_shed(&mut self, at_ns: u64) {
        self.window_mut(at_ns).shed += 1;
    }

    pub fn on_rejected(&mut self, at_ns: u64) {
        self.window_mut(at_ns).rejected += 1;
    }

    pub fn on_timed_out(&mut self, at_ns: u64) {
        self.window_mut(at_ns).timed_out += 1;
    }

    pub fn on_failed(&mut self, at_ns: u64) {
        self.window_mut(at_ns).failed += 1;
    }

    /// A retry leg was scheduled for release at `at_ns`.
    pub fn on_retry(&mut self, at_ns: u64) {
        self.window_mut(at_ns).retries += 1;
    }

    /// A hedge leg was scheduled for release at `at_ns`.
    pub fn on_hedge(&mut self, at_ns: u64) {
        self.window_mut(at_ns).hedges += 1;
    }

    pub fn on_quarantine(&mut self, at_ns: u64) {
        self.window_mut(at_ns).quarantines += 1;
    }

    /// Samples the admission queue's total depth (a gauge: per-window
    /// maximum).
    pub fn note_queue_depth(&mut self, depth: usize, at_ns: u64) {
        let w = self.window_mut(at_ns);
        w.queue_depth_max = w.queue_depth_max.max(depth as u64);
    }

    /// Charges shard busy time `[from_ns, until_ns)`, split across the
    /// windows it overlaps.
    pub fn add_busy(&mut self, from_ns: u64, until_ns: u64) {
        if until_ns <= from_ns {
            return;
        }
        let window_ns = self.window_ns;
        let first = ((from_ns / window_ns) as usize).min(MAX_WINDOWS - 1);
        let last = (((until_ns - 1) / window_ns) as usize).min(MAX_WINDOWS - 1);
        for idx in first..=last {
            let w_start = idx as u64 * window_ns;
            // The clamped last window absorbs everything past the cap.
            let w_end = if idx == MAX_WINDOWS - 1 { u64::MAX } else { w_start + window_ns };
            let overlap = until_ns.min(w_end).saturating_sub(from_ns.max(w_start));
            let w = self.window_mut(w_start);
            w.busy_ns = w.busy_ns.saturating_add(overlap);
        }
    }

    /// Seals the run into a report. `makespan_ns` bounds the series (a
    /// run shorter than one window still yields its partial window).
    #[must_use]
    pub fn finish(self, makespan_ns: u64) -> MetricsReport {
        let MetricsRecorder { window_ns, shards, windows, overall } = self;
        let span_windows = ((makespan_ns.div_ceil(window_ns)) as usize).clamp(1, MAX_WINDOWS);
        let count = windows.len().max(span_windows);
        let mut out = Vec::with_capacity(count);
        let empty = WindowStats::default();
        for idx in 0..count {
            let w = windows.get(idx).unwrap_or(&empty);
            let capacity = window_ns.saturating_mul(shards.max(1));
            out.push(WindowSummary {
                start_ns: idx as u64 * window_ns,
                completions: w.completions,
                shed: w.shed,
                rejected: w.rejected,
                timed_out: w.timed_out,
                failed: w.failed,
                retries: w.retries,
                hedges: w.hedges,
                quarantines: w.quarantines,
                queue_depth_max: w.queue_depth_max,
                busy_permille: w.busy_ns.saturating_mul(1000).checked_div(capacity).unwrap_or(0),
                p50_ns: w.latency.quantile(500),
                p99_ns: w.latency.quantile(990),
            });
        }
        MetricsReport {
            window_ns,
            overall_p50_ns: overall.quantile(500),
            overall_p99_ns: overall.quantile(990),
            overall_p999_ns: overall.quantile(999),
            windowed_p99_max_ns: out.iter().map(|w| w.p99_ns).max().unwrap_or(0),
            windows: out,
        }
    }
}

/// One sealed window of the time series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowSummary {
    /// Window start in simulated ns (width is the report's `window_ns`).
    pub start_ns: u64,
    pub completions: u64,
    pub shed: u64,
    pub rejected: u64,
    pub timed_out: u64,
    pub failed: u64,
    /// Retry legs released into this window.
    pub retries: u64,
    /// Hedge legs released into this window.
    pub hedges: u64,
    pub quarantines: u64,
    /// Deepest the admission queue got within the window.
    pub queue_depth_max: u64,
    /// Fleet busy time over `window_ns * shards`, in per-mille.
    pub busy_permille: u64,
    /// Window-local completion-latency quantiles (histogram upper bound).
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The sealed metrics time series, carried on
/// [`ObservabilityReport`](crate::report::ObservabilityReport).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsReport {
    pub window_ns: u64,
    /// Whole-run latency quantiles off the log-bucket histogram (≤ 1/32
    /// relative error vs the exact sorted percentiles in the report).
    pub overall_p50_ns: u64,
    pub overall_p99_ns: u64,
    pub overall_p999_ns: u64,
    /// The worst single-window p99: it catches a transient spike the
    /// whole-run p99 averages away.
    pub windowed_p99_max_ns: u64,
    pub windows: Vec<WindowSummary>,
}

impl MetricsReport {
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut windows = Value::array(Vec::new());
        for w in &self.windows {
            windows.push(
                Value::object()
                    .with("start_ns", w.start_ns)
                    .with("completions", w.completions)
                    .with("shed", w.shed)
                    .with("rejected", w.rejected)
                    .with("timed_out", w.timed_out)
                    .with("failed", w.failed)
                    .with("retries", w.retries)
                    .with("hedges", w.hedges)
                    .with("quarantines", w.quarantines)
                    .with("queue_depth_max", w.queue_depth_max)
                    .with("busy_permille", w.busy_permille)
                    .with("p50_ns", w.p50_ns)
                    .with("p99_ns", w.p99_ns),
            );
        }
        Value::object()
            .with("window_ns", self.window_ns)
            .with("overall_p50_ns", self.overall_p50_ns)
            .with("overall_p99_ns", self.overall_p99_ns)
            .with("overall_p999_ns", self.overall_p999_ns)
            .with("windowed_p99_max_ns", self.windowed_p99_max_ns)
            .with("windows", windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::report::percentile_ns;

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        for v in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            let (low, high) = bucket_bounds(idx);
            assert!(low <= v && v <= high, "v={v} idx={idx} low={low} high={high}");
            // Width never exceeds 1/32 of the smallest bucket member.
            assert!(high - low <= low / SUB_BUCKETS, "v={v}");
        }
        // Small values are exact; the boundary bucket starts at 32.
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_bounds(bucket_index(33)), (33, 33));
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_bounds(64), (64, 65));
    }

    #[test]
    fn quantiles_on_tiny_samples() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(500), 0);
        assert_eq!(h.quantile(990), 0);

        let mut h1 = LogHistogram::new();
        h1.record(17);
        for q in [1, 500, 990, 999, 1000] {
            assert_eq!(h1.quantile(q), 17, "q={q}");
        }

        let mut h2 = LogHistogram::new();
        h2.record(3);
        h2.record(29);
        // Same rank rule as percentile_ns: p50 is the first sample.
        assert_eq!(h2.quantile(500), 3);
        assert_eq!(h2.quantile(990), 29);
        assert_eq!(h2.total(), 2);
    }

    /// The pinned relative-error bound: for any sample set, every
    /// histogram quantile is ≥ the exact nearest-rank quantile and
    /// overshoots by at most the width of the exact value's bucket
    /// (≤ value/32).
    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let mut rng = crate::gen::SplitMix64::new(0xe44_0bb1);
        for trial in 0..64 {
            let n = 1 + (trial * 37) % 500;
            let mut samples: Vec<u64> = (0..n).map(|_| rng.below(4_000_000)).collect();
            let mut hist = LogHistogram::new();
            for &s in &samples {
                hist.record(s);
            }
            samples.sort_unstable();
            for q in [1, 250, 500, 900, 990, 999, 1000] {
                let exact = percentile_ns(&samples, q);
                let approx = hist.quantile(q);
                let (low, high) = bucket_bounds(bucket_index(exact));
                assert!(approx >= exact, "q={q} approx={approx} exact={exact}");
                assert!(
                    approx - exact <= high - low,
                    "q={q} approx={approx} exact={exact} width={}",
                    high - low
                );
            }
        }
    }

    #[test]
    fn busy_time_is_split_across_windows_and_conserved() {
        let mut m = MetricsRecorder::new(&MetricsConfig { window_ns: 100 }, 2);
        m.add_busy(50, 250); // windows 0 (50ns), 1 (100ns), 2 (50ns)
        m.on_completion(40, 120);
        m.note_queue_depth(7, 10);
        m.note_queue_depth(3, 20);
        let rep = m.finish(250);
        assert_eq!(rep.window_ns, 100);
        assert_eq!(rep.windows.len(), 3);
        let busy: Vec<u64> = rep.windows.iter().map(|w| w.busy_permille).collect();
        // capacity per window = 100ns * 2 shards = 200ns.
        assert_eq!(busy, vec![250, 500, 250]);
        assert_eq!(rep.windows[1].completions, 1);
        assert_eq!(rep.windows[1].p99_ns, 40);
        assert_eq!(rep.windows[0].queue_depth_max, 7);
        assert_eq!(rep.windowed_p99_max_ns, 40);
        assert_eq!(rep.overall_p50_ns, 40);
    }

    #[test]
    fn short_runs_still_yield_one_window_and_json_round_trips() {
        let mut m = MetricsRecorder::new(&MetricsConfig::default(), 4);
        m.on_completion(1234, 10);
        m.on_shed(11);
        m.on_retry(12);
        let rep = m.finish(20);
        assert_eq!(rep.windows.len(), 1);
        assert_eq!(rep.windows[0].shed, 1);
        assert_eq!(rep.windows[0].retries, 1);
        let text = rep.to_json().to_string_pretty();
        let parsed = pudiannao_accel::json::parse(&text).expect("valid json");
        assert_eq!(parsed.get("window_ns").and_then(Value::as_u64), Some(100_000));
        assert_eq!(parsed.get("windows").and_then(Value::as_array).map(<[_]>::len), Some(1));
    }

    #[test]
    fn window_cap_clamps_instead_of_allocating() {
        let mut m = MetricsRecorder::new(&MetricsConfig { window_ns: 1 }, 1);
        m.on_completion(5, u64::MAX - 1);
        m.add_busy(u64::MAX - 10, u64::MAX - 1);
        let rep = m.finish(u64::MAX - 1);
        assert_eq!(rep.windows.len(), MAX_WINDOWS);
        assert_eq!(rep.windows[MAX_WINDOWS - 1].completions, 1);
    }
}
