//! Shard-count scaling sweep behind `serve_report.json`'s
//! `scaling_sweep`, plus the fault-intensity x defence-arm chaos sweep
//! behind `chaos_report.json`.

use pudiannao_accel::json::Value;

use crate::chaos::{ChaosConfig, Defense};
use crate::fleet::{serve, serve_observed, FleetConfig, ObserveConfig};
use crate::gen::GeneratorConfig;
use crate::report::ServeReport;

/// Shard counts the sweep covers.
pub const SWEEP_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// One sweep measurement.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    pub shards: usize,
    pub completed: u64,
    pub shed: u64,
    pub throughput_rps: f64,
    pub p99_ns: u64,
    /// Mean per-shard busy fraction (integer per-mille): the scaling
    /// signal throughput alone hides — a fleet that adds shards while
    /// each one idles more.
    pub util_permille: u64,
}

impl SweepPoint {
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("shards", self.shards as u64)
            .with("completed", self.completed)
            .with("shed", self.shed)
            .with("throughput_rps", self.throughput_rps)
            .with("p99_ns", self.p99_ns)
            .with("util_permille", self.util_permille)
    }
}

/// Runs the same stream against 1/2/4/8-shard fleets.
#[must_use]
pub fn scaling_sweep(gen: &GeneratorConfig) -> Vec<SweepPoint> {
    SWEEP_SHARDS
        .iter()
        .map(|&shards| {
            let report = serve(&FleetConfig::with_shards(shards), gen);
            let util_permille = report.shards.iter().map(|s| s.utilization_permille).sum::<u64>()
                / report.shards.len().max(1) as u64;
            SweepPoint {
                shards,
                completed: report.completed,
                shed: report.counters.shed,
                throughput_rps: report.throughput_rps,
                p99_ns: report.p99_ns,
                util_permille,
            }
        })
        .collect()
}

/// The pinned stream behind the committed `scaling_sweep` and the chaos
/// sweep: small enough to run in a test, big enough that throughput is
/// stable. The committed `serve_report.json` and `chaos_report.json` pin
/// its output exactly, so changing this config re-pins both reports.
#[must_use]
pub fn gate_generator() -> GeneratorConfig {
    GeneratorConfig { requests: 8_000, ..GeneratorConfig::heavy(0x5e7e_1234) }
}

/// Seed of the pinned chaos plans the chaos sweep injects (arbitrary but
/// fixed: `chaos_report.json` and the `check.sh --chaos` counts pin it).
pub const CHAOS_SEED: u64 = 0xc4a0_5eed;

/// The defence arms the chaos sweep compares, weakest first.
pub const DEFENSE_ARMS: [&str; 3] = ["none", "retries", "full"];

/// Builds one named defence arm against the measured chaos-off p99.
#[must_use]
pub fn defense_arm(arm: &str, p99_ns: u64) -> Defense {
    match arm {
        "none" => Defense::none(p99_ns),
        "retries" => Defense::retries(p99_ns),
        _ => Defense::full(p99_ns),
    }
}

/// One cell of the chaos sweep: fault intensity x defence arm.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Fault intensity (0..=2, see [`ChaosConfig::intensity`]).
    pub intensity: u32,
    /// Defence arm name (one of [`DEFENSE_ARMS`]).
    pub defense: &'static str,
    pub report: ServeReport,
}

impl ChaosCell {
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("intensity", ChaosConfig::intensity_label(self.intensity))
            .with("defense", self.defense)
            .with("report", self.report.to_json())
    }
}

/// The fleet the chaos sweep runs on: the widest point of the scaling
/// sweep. Fault-tolerance is evaluated with redundancy headroom (the
/// N+1 provisioning a real fleet carries) — retries and hedges recover
/// failures by spending idle capacity. On a saturated fleet every
/// recovered leg just displaces a fresh request at the admission cap,
/// and no defence can win that trade.
#[must_use]
pub fn chaos_fleet() -> FleetConfig {
    FleetConfig::with_shards(*SWEEP_SHARDS.last().expect("sweep is non-empty"))
}

/// Runs the full fault-intensity x defence grid over one stream.
/// `baseline_p99_ns` is the measured chaos-off p99 the deadlines, backoff
/// and hedge delay derive from.
#[must_use]
pub fn chaos_sweep(gen: &GeneratorConfig, baseline_p99_ns: u64) -> Vec<ChaosCell> {
    let fleet = chaos_fleet();
    let mut cells = Vec::with_capacity(3 * DEFENSE_ARMS.len());
    for intensity in 0..3u32 {
        let chaos = ChaosConfig::intensity(CHAOS_SEED, intensity);
        for arm in DEFENSE_ARMS {
            let defense = defense_arm(arm, baseline_p99_ns);
            let report = serve_observed(&fleet, gen, &chaos, &defense, &ObserveConfig::off());
            cells.push(ChaosCell { intensity, defense: arm, report });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_shards_never_complete_less() {
        let gen = GeneratorConfig { requests: 600, ..GeneratorConfig::smoke(17) };
        let points = scaling_sweep(&gen);
        assert_eq!(points.len(), SWEEP_SHARDS.len());
        for pair in points.windows(2) {
            assert!(
                pair[1].completed >= pair[0].completed,
                "{} shards completed {} < {} shards' {}",
                pair[1].shards,
                pair[1].completed,
                pair[0].shards,
                pair[0].completed
            );
        }
    }
}
