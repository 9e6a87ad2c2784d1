//! Pinned chaos scenarios: the defence mechanisms must actually earn
//! their keep on concrete fault regimes, not just bookkeep cleanly.
//!
//! Everything here is deterministic — pinned seeds, pinned streams — so
//! these are exact regression tests, not flaky statistical ones.

use pudiannao_serve::sweep::{chaos_fleet, chaos_sweep, gate_generator, CHAOS_SEED};
use pudiannao_serve::{
    serve, serve_observed, ChaosConfig, Defense, FleetConfig, GeneratorConfig, ObserveConfig,
};

/// The smoke-sized slice of the pinned gate stream (same shape and seed,
/// fewer requests), matching `chaos_bench --smoke`.
fn smoke_stream() -> GeneratorConfig {
    GeneratorConfig { requests: 2_000, ..gate_generator() }
}

/// A sick-host regime: the fleet's base crash rate is benign, but a
/// crash-prone draw gives one shard a 100x shorter mean up-time — the
/// persistently bad machine real fleets quarantine. Crashes on healthy
/// shards are memoryless, so this concentration is precisely what makes
/// quarantine predictive rather than just capacity-destroying.
fn sick_host() -> ChaosConfig {
    ChaosConfig {
        seed: CHAOS_SEED,
        crash_mtbf_ns: 2_000_000,
        crash_mttr_ns: 30_000,
        crash_prone_per_mille: 250,
        crash_prone_divisor: 100,
        straggler_per_mille: 0,
        straggler_factor_permille: 1_000,
        degraded_per_mille: 0,
        degraded_lanes: 0,
        transient_per_mille: 0,
    }
}

/// Quarantining a crash-looping shard strictly improves the completion
/// tail: with retries alone, a re-dispatched leg can land on the same
/// dying shard again and again, each round trip fattening p99.9; with
/// quarantine, two wholesale-killed batches pull the shard out of
/// rotation long enough for retries to land on healthy peers.
#[test]
fn quarantine_pulls_a_crash_looping_shard_out_of_the_tail() {
    let gen = smoke_stream();
    let fleet = FleetConfig::paper_default();
    let p99 = serve(&fleet, &gen).p99_ns;
    let chaos = sick_host();
    let retries_only = Defense::retries(p99);
    let with_quarantine = Defense {
        quarantine_after: 2,
        quarantine_cooldown_ns: p99.saturating_mul(8),
        ..retries_only
    };

    let off = ObserveConfig::off();
    let undefended = serve_observed(&fleet, &gen, &chaos, &retries_only, &off);
    let defended = serve_observed(&fleet, &gen, &chaos, &with_quarantine, &off);

    let res = defended.resilience.as_ref().expect("chaos run is resilient");
    let quarantines: u64 = res.shards.iter().map(|s| s.quarantines).sum();
    assert!(quarantines > 0, "the crash-loop regime must actually trip quarantine");
    assert!(
        defended.p999_ns < undefended.p999_ns,
        "quarantine must strictly improve p99.9: defended {} vs undefended {}",
        defended.p999_ns,
        undefended.p999_ns
    );
}

/// The headline acceptance claim, library-level: at every swept fault
/// intensity the fully defended arm attains strictly more SLO than the
/// undefended arm. `chaos_bench` enforces the same invariant end-to-end
/// on both the smoke and the full 8k stream.
#[test]
fn full_defences_strictly_beat_none_at_every_intensity() {
    let gen = smoke_stream();
    let p99 = serve(&chaos_fleet(), &gen).p99_ns;
    let cells = chaos_sweep(&gen, p99);
    assert_eq!(cells.len(), 9, "3 intensities x 3 arms");
    for intensity in 0..3u32 {
        let slo = |arm: &str| {
            cells
                .iter()
                .find(|c| c.intensity == intensity && c.defense == arm)
                .and_then(|c| c.report.resilience.as_ref())
                .map(pudiannao_serve::ResilienceReport::overall_slo_permille)
                .expect("cell exists and is resilient")
        };
        let (none, retries, full) = (slo("none"), slo("retries"), slo("full"));
        assert!(
            full > none,
            "intensity {intensity}: full defences {full} must strictly beat none {none}"
        );
        // Retries alone sit between: they recover transient and crash
        // losses but do nothing for stragglers.
        assert!(
            retries > none,
            "intensity {intensity}: retries {retries} must strictly beat none {none}"
        );
    }
    // The mechanisms the sweep claims to exercise actually fired.
    let full_high = cells
        .iter()
        .find(|c| c.intensity == 2 && c.defense == "full")
        .and_then(|c| c.report.resilience.as_ref())
        .expect("high-intensity full cell");
    assert!(full_high.hedges_launched > 0, "hedging must fire under heavy stragglers");
    assert!(full_high.outcomes.retried_ok > 0, "retries must recover something");
    assert!(
        full_high.shards.iter().any(|s| s.availability_permille < 1_000),
        "crash windows must cost some shard availability"
    );
}

/// Priority-aware degradation: under the same overload, gold traffic's
/// SLO attainment must never fall below bronze's — shedding and recovery
/// both favour the premium tiers.
#[test]
fn premium_tiers_degrade_last() {
    let gen = smoke_stream();
    let p99 = serve(&chaos_fleet(), &gen).p99_ns;
    let cells = chaos_sweep(&gen, p99);
    for cell in cells.iter().filter(|c| c.defense == "full") {
        let res = cell.report.resilience.as_ref().expect("resilient cell");
        let [bronze, _, gold] = [
            res.tiers[0].slo_met_permille,
            res.tiers[1].slo_met_permille,
            res.tiers[2].slo_met_permille,
        ];
        assert!(
            gold >= bronze,
            "intensity {}: gold attainment {gold} fell below bronze {bronze}",
            cell.intensity
        );
    }
}
