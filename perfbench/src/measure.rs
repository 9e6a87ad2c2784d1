//! Timing, check and metric bookkeeping shared by the three workloads.
//!
//! Every timing is scored best-of: the fastest of the repetitions a run
//! makes. On a shared virtual machine, host noise only ever adds time, and
//! it comes in phases — a busy neighbour on the core's sibling slows a
//! CPU-bound loop by up to 1.7x for seconds at a time — so the median of
//! a run moves with the neighbours while its minimum tracks the code.

use std::collections::BTreeMap;
use std::time::Instant;

/// One reported number: `value` in `unit`, with the deterministic work
/// counter (`work`) a reader needs to turn a time into a rate.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub work: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        work: impl Into<String>,
    ) -> Metric {
        Metric { name: name.into(), value, unit, work: work.into() }
    }

    /// A deterministic counter: its own work count.
    pub fn count(name: &str, value: u64, unit: &'static str) -> Metric {
        Metric::new(name, value as f64, unit, format!("{name}={value}"))
    }
}

/// What an untraced run measured: per pass, the seconds of its set-up
/// and of each call in its timed body.
pub struct Measured {
    setup: Vec<f64>,
    parts: Vec<Vec<f64>>,
    /// Peak resident MiB once the first pass is done: what one set-up
    /// and body need. Later passes can only add allocator fragmentation,
    /// by an amount that depends on how many passes the host was quick
    /// enough to fit in.
    pub peak_rss_mib: f64,
    /// The deterministic work one pass does, as `(counter, count)`.
    pub work: (&'static str, u64),
}

impl Measured {
    pub fn new(work: (&'static str, u64)) -> Measured {
        Measured { setup: Vec::new(), parts: Vec::new(), peak_rss_mib: 0.0, work }
    }

    pub fn push(&mut self, setup_s: f64, parts: Vec<f64>) {
        if self.parts.is_empty() {
            self.peak_rss_mib = peak_rss_mib();
        }
        self.setup.push(setup_s);
        self.parts.push(parts);
    }

    /// The body's wall-clock: each call's fastest time, summed over the
    /// calls. Scoring calls rather than whole passes lets a pass longer
    /// than a quiet spell of the host still be measured in quiet spells.
    pub fn wall_s(&self) -> f64 {
        let calls = self.parts.first().map_or(0, Vec::len);
        (0..calls).map(|c| best(self.parts.iter().map(|p| p[c]))).sum()
    }

    /// The fastest set-up.
    pub fn setup_s(&self) -> f64 {
        best(self.setup.iter().copied())
    }

    /// Each pass's body seconds, for the provenance record.
    pub fn pass_seconds(&self) -> Vec<f64> {
        self.parts.iter().map(|p| p.iter().sum()).collect()
    }
}

/// Per-layer samples of a traced run, one value per round, keyed by
/// metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The fastest round's value.
    pub fn best(&self, name: &str) -> f64 {
        best(self.0.get(name).unwrap_or_else(|| panic!("no samples for {name}")).iter().copied())
    }
}

/// Output checks run so far; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// The smallest of a non-empty sample.
fn best(values: impl Iterator<Item = f64>) -> f64 {
    values.reduce(f64::min).expect("at least one sample")
}

/// Set-up repetitions per pass. Set-up takes milliseconds, so one sample
/// per pass would leave too few to catch a quiet spell of the host.
const SETUP_REPS: usize = 3;

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// fastest repetition's seconds.
pub fn setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut secs) = timed(&mut setup);
    for _ in 1..SETUP_REPS {
        // Free the previous result first, so only one is ever resident.
        drop(out);
        let (next, s) = timed(&mut setup);
        out = next;
        secs = secs.min(s);
    }
    (out, secs)
}

/// Runs `f` once and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Calls `pass` back to back until `seconds` have elapsed, at least once.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}
