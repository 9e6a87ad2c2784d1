//! Seeded, deterministic fleet-level fault injection and the defence
//! policy the fleet fights back with.
//!
//! PR 3 gave the *device* a fault model; this module lifts that machinery
//! one layer up, to the shard pool. Four fault classes, all derived from
//! one seed. The fleet runs one path whatever the plan: under
//! [`ChaosConfig::off`] every shard draws full speed and no crash window,
//! chaos-off runs reproduce `serve_report.json` byte for byte, and the
//! one path measured no cost on the `serve-heavy` benchmark workload (20
//! alternating pairs on a 2-core host: `wall_s` medians 1 % apart,
//! inside the run-to-run spread):
//!
//! - **Crash/restart windows**: each shard alternates up/down according
//!   to a per-shard renewal process (uniform jitter around
//!   `crash_mtbf_ns` / `crash_mttr_ns`). A batch caught by a crash loses
//!   every request that had not yet completed; a down shard cannot be
//!   dispatched until its window closes.
//! - **Stragglers**: a per-shard draw marks some shards slow; their
//!   service time is scaled by `straggler_factor_permille`.
//! - **Degraded shards**: a per-shard draw masks MLU lanes, and the
//!   capacity loss is *derived from the PR-3 accel fault model* —
//!   [`ArchConfig::with_lanes`] gives the degraded lane count and the
//!   slowdown is the lane ratio, the same graceful-degradation shape the
//!   device-level lane masking produces.
//! - **Transient request failures**: each dispatched leg fails with a
//!   per-mille probability, drawn by hashing `(seed, id, attempt, hedge)`
//!   so the outcome is independent of wave scheduling and worker count.
//!
//! Every draw is either per-shard state (owned by that shard, probed in
//! dispatch order) or a pure hash of stable identifiers, so a chaos run
//! is byte-identical at any `REPRO_THREADS` setting.

use pudiannao_accel::ArchConfig;

use crate::gen::SplitMix64;
use crate::request::Priority;

/// What the chaos layer injects. All rates zero means *off*
/// ([`ChaosConfig::is_off`]): every shard fate drawn from it runs at full
/// speed, never crashes and fails no leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for every per-shard and per-leg draw.
    pub seed: u64,
    /// Mean up-time between shard crashes, in simulated ns (0 = never).
    pub crash_mtbf_ns: u64,
    /// Mean repair time after a crash, in simulated ns.
    pub crash_mttr_ns: u64,
    /// Per-mille chance that a shard is crash-prone for the whole run —
    /// the persistently sick host real fleets quarantine. Crashes on
    /// healthy shards are memoryless, so pulling a shard out of rotation
    /// only pays off when failures actually concentrate somewhere.
    pub crash_prone_per_mille: u32,
    /// How many times shorter a crash-prone shard's mean up-time is.
    pub crash_prone_divisor: u64,
    /// Per-mille chance that a shard is a straggler for the whole run.
    pub straggler_per_mille: u32,
    /// Straggler service-time multiplier, per-mille (4000 = 4x slower).
    pub straggler_factor_permille: u64,
    /// Per-mille chance that a shard runs with masked MLU lanes.
    pub degraded_per_mille: u32,
    /// Lanes masked on a degraded shard (throughput loss comes from
    /// [`ArchConfig::with_lanes`], mirroring device-level lane masking).
    pub degraded_lanes: u32,
    /// Per-mille chance that one dispatched leg fails transiently.
    pub transient_per_mille: u32,
}

impl ChaosConfig {
    /// Injects nothing: full speed, no crash, no transient failure.
    #[must_use]
    pub fn off() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            crash_mtbf_ns: 0,
            crash_mttr_ns: 0,
            crash_prone_per_mille: 0,
            crash_prone_divisor: 1,
            straggler_per_mille: 0,
            straggler_factor_permille: 1000,
            degraded_per_mille: 0,
            degraded_lanes: 0,
            transient_per_mille: 0,
        }
    }

    /// Whether this plan can ever inject anything.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.crash_mtbf_ns == 0
            && self.straggler_per_mille == 0
            && self.degraded_per_mille == 0
            && self.transient_per_mille == 0
    }

    /// A plan at `intensity` (0..=2: low/mid/high), the axis the
    /// `chaos_bench` sweep walks. Rates are tuned against the pinned
    /// 8k-request gate stream: "low" injects tens of faults, "high"
    /// crashes shards every few hundred microseconds.
    #[must_use]
    pub fn intensity(seed: u64, intensity: u32) -> ChaosConfig {
        let scale = |low: u64, mid: u64, high: u64| match intensity {
            0 => low,
            1 => mid,
            _ => high,
        };
        ChaosConfig {
            seed,
            crash_mtbf_ns: scale(2_000_000, 900_000, 350_000),
            crash_mttr_ns: scale(60_000, 90_000, 140_000),
            // The sweep keeps crashes memoryless; the crash-prone draw is
            // exercised by the pinned quarantine scenario instead.
            crash_prone_per_mille: 0,
            crash_prone_divisor: 1,
            straggler_per_mille: scale(150, 250, 400) as u32,
            straggler_factor_permille: scale(2_000, 3_000, 5_000),
            degraded_per_mille: scale(150, 250, 400) as u32,
            // Of the paper's 16 MLU lanes: 1.33x / 2x / 4x capacity loss.
            degraded_lanes: scale(4, 8, 12) as u32,
            transient_per_mille: scale(8, 25, 70) as u32,
        }
    }

    /// Stable name of an intensity level for reports.
    #[must_use]
    pub fn intensity_label(intensity: u32) -> &'static str {
        match intensity {
            0 => "low",
            1 => "mid",
            _ => "high",
        }
    }

    /// Whether the leg identified by `(id, attempt, hedge)` fails
    /// transiently. A pure hash — no shared RNG — so the verdict cannot
    /// depend on dispatch interleaving across worker threads.
    #[must_use]
    pub fn leg_fails(&self, id: u64, attempt: u32, hedge: bool) -> bool {
        if self.transient_per_mille == 0 {
            return false;
        }
        let mut h = SplitMix64::new(
            self.seed ^ id.rotate_left(17) ^ (u64::from(attempt) << 40) ^ (u64::from(hedge) << 63),
        );
        h.below(1000) < u64::from(self.transient_per_mille)
    }
}

/// Per-shard chaos state: the straggler/degradation verdicts drawn at
/// fleet construction and the lazily generated crash-window stream. Owned
/// by its shard, so probing it during parallel wave execution needs no
/// shared state.
#[derive(Clone, Debug)]
pub struct ShardChaos {
    config: ChaosConfig,
    /// Combined service-time multiplier (straggler x degradation),
    /// per-mille; 1000 means full speed.
    pub slowdown_permille: u64,
    /// Lanes left after degradation (informational, for the report).
    pub lanes_left: u32,
    /// Crash windows generated so far, as `(down_start, down_end)` pairs,
    /// ascending and non-overlapping.
    windows: Vec<(u64, u64)>,
    /// Simulated time covered by `windows` so far.
    horizon: u64,
    rng: SplitMix64,
}

impl ShardChaos {
    /// Draws shard `index`'s fate from the plan.
    #[must_use]
    pub fn new(config: &ChaosConfig, index: usize) -> ShardChaos {
        let mut rng =
            SplitMix64::new(config.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut slowdown = 1000u64;
        let mut lanes_left = ArchConfig::paper_default().lanes;
        if config.straggler_per_mille > 0 && rng.below(1000) < u64::from(config.straggler_per_mille)
        {
            slowdown = slowdown.saturating_mul(config.straggler_factor_permille.max(1000)) / 1000;
        }
        if config.degraded_per_mille > 0 && rng.below(1000) < u64::from(config.degraded_per_mille) {
            // Reuse the accel fault model's degradation shape: mask lanes
            // through ArchConfig::with_lanes and charge the lane ratio.
            let full = ArchConfig::paper_default();
            let degraded = full.with_lanes(full.lanes.saturating_sub(config.degraded_lanes));
            lanes_left = degraded.lanes;
            slowdown = slowdown
                .saturating_mul(u64::from(full.lanes) * 1000 / u64::from(degraded.lanes.max(1)))
                / 1000;
        }
        let mut config = *config;
        if config.crash_mtbf_ns > 0
            && config.crash_prone_per_mille > 0
            && rng.below(1000) < u64::from(config.crash_prone_per_mille)
        {
            // A persistently sick host: its crash renewal process runs
            // `crash_prone_divisor` times faster than the fleet's.
            config.crash_mtbf_ns =
                (config.crash_mtbf_ns / config.crash_prone_divisor.max(1)).max(1);
        }
        ShardChaos {
            config,
            slowdown_permille: slowdown.max(1000),
            lanes_left,
            windows: Vec::new(),
            horizon: 0,
            rng,
        }
    }

    /// Extends the crash-window stream to cover simulated time `t`.
    fn ensure(&mut self, t: u64) {
        if self.config.crash_mtbf_ns == 0 {
            self.horizon = u64::MAX;
            return;
        }
        while self.horizon <= t {
            let up = jitter(&mut self.rng, self.config.crash_mtbf_ns);
            let down = jitter(&mut self.rng, self.config.crash_mttr_ns).max(1);
            let start = self.horizon.saturating_add(up);
            let end = start.saturating_add(down);
            self.windows.push((start, end));
            self.horizon = end;
        }
    }

    /// The first crash window that begins inside `[from, until)`, if any.
    pub fn crash_in(&mut self, from: u64, until: u64) -> Option<(u64, u64)> {
        if self.config.crash_mtbf_ns == 0 || until <= from {
            return None;
        }
        self.ensure(until);
        self.windows.iter().find(|&&(s, _)| s >= from && s < until).copied()
    }

    /// The plan this shard's fate was drawn from.
    #[must_use]
    pub fn plan(&self) -> &ChaosConfig {
        &self.config
    }

    /// Crash windows that began before `horizon`: `(count, down_ns)`,
    /// with downtime clipped to the horizon. Used for the per-shard
    /// availability figure in the report.
    pub fn windows_within(&mut self, horizon: u64) -> (u64, u64) {
        if self.config.crash_mtbf_ns == 0 {
            return (0, 0);
        }
        self.ensure(horizon);
        let mut count = 0u64;
        let mut down = 0u64;
        for &(s, e) in &self.windows {
            if s >= horizon {
                break;
            }
            count += 1;
            down = down.saturating_add(e.min(horizon).saturating_sub(s));
        }
        (count, down)
    }

    /// Every crash window that began before `horizon`, ends clipped to
    /// it — the trace layer's crash markers. Probing this lazily extends
    /// the same deterministic window stream the fleet consults, so an
    /// extra trace-time call can never change a simulation outcome.
    pub fn windows_up_to(&mut self, horizon: u64) -> Vec<(u64, u64)> {
        if self.config.crash_mtbf_ns == 0 {
            return Vec::new();
        }
        self.ensure(horizon);
        self.windows
            .iter()
            .take_while(|&&(s, _)| s < horizon)
            .map(|&(s, e)| (s, e.min(horizon)))
            .collect()
    }

    /// Earliest instant at or after `t` when the shard is up (i.e. `t`
    /// itself, or the end of the window covering `t`).
    pub fn available_from(&mut self, t: u64) -> u64 {
        if self.config.crash_mtbf_ns == 0 {
            return t;
        }
        self.ensure(t);
        match self.windows.iter().find(|&&(s, e)| s <= t && t < e) {
            Some(&(_, end)) => end,
            None => t,
        }
    }
}

/// Uniform draw in `[mean/2, 3*mean/2)` — the same jitter shape the
/// traffic generator uses for inter-arrival gaps.
fn jitter(rng: &mut SplitMix64, mean: u64) -> u64 {
    if mean == 0 {
        0
    } else {
        mean / 2 + rng.below(mean)
    }
}

/// The defence policy: deadlines, bounded retry, hedging, quarantine.
/// [`Defense::off`] defends nothing; the `chaos_bench` sweep compares
/// `none` (deadline accounting only), `retries`, and `full` (retries +
/// hedging + quarantine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Defense {
    /// Per-priority end-to-end deadlines (indexed like [`Priority::ALL`]);
    /// `None` disables deadline accounting entirely.
    pub deadlines_ns: Option<[u64; 3]>,
    /// Retries granted after a failed leg (0 = fail immediately).
    pub max_retries: u32,
    /// Backoff before retry `n` is `retry_backoff_ns << n` (saturating).
    pub retry_backoff_ns: u64,
    /// Launch a hedged duplicate if the primary has not answered this
    /// long after dispatch; derived from the chaos-off p99 by the bench.
    pub hedge_after_ns: Option<u64>,
    /// Lowest priority tier eligible for retries and hedges. Recovery
    /// spends fleet capacity; reserving it for paying tiers keeps a
    /// fault storm from turning best-effort recovery into shed fresh
    /// traffic.
    pub recover_from: Priority,
    /// Quarantine a shard after this many consecutive failed legs
    /// (0 = never).
    pub quarantine_after: u32,
    /// How long a quarantined shard drains before re-entering rotation.
    pub quarantine_cooldown_ns: u64,
    /// Shed lowest-priority-first when the admission queue overflows.
    pub priority_shedding: bool,
}

impl Defense {
    /// No defence: no deadlines, no retries, no hedging, no quarantine,
    /// FIFO shedding. With [`ChaosConfig::off`], a run carries no
    /// `resilience` section.
    #[must_use]
    pub fn off() -> Defense {
        Defense {
            deadlines_ns: None,
            max_retries: 0,
            retry_backoff_ns: 0,
            hedge_after_ns: None,
            recover_from: Priority::Bronze,
            quarantine_after: 0,
            quarantine_cooldown_ns: 0,
            priority_shedding: false,
        }
    }

    /// Tiered deadlines as multiples of the measured chaos-off p99:
    /// gold 3x, silver 12x, bronze 45x. Indexed like [`Priority::ALL`].
    #[must_use]
    pub fn tiered_deadlines(p99_ns: u64) -> [u64; 3] {
        let p99 = p99_ns.max(1);
        [p99.saturating_mul(45), p99.saturating_mul(12), p99.saturating_mul(3)]
    }

    /// Deadline accounting only — the "no defences" sweep arm: misses are
    /// counted but nothing is retried, hedged or quarantined.
    #[must_use]
    pub fn none(p99_ns: u64) -> Defense {
        Defense {
            deadlines_ns: Some(Defense::tiered_deadlines(p99_ns)),
            priority_shedding: true,
            ..Defense::off()
        }
    }

    /// Bounded retries with exponential backoff on top of [`Defense::none`].
    /// The backoff starts at a full p99: failures cluster around crashes
    /// and bursts, and a retry re-injected into that same congested
    /// window displaces a fresh request more often than not — deferring
    /// one p99 lands it in the fleet's idle capacity instead. Recovery
    /// is reserved for silver and gold; best-effort bronze fails open.
    #[must_use]
    pub fn retries(p99_ns: u64) -> Defense {
        Defense {
            max_retries: 2,
            retry_backoff_ns: p99_ns.max(1_000),
            recover_from: Priority::Silver,
            ..Defense::none(p99_ns)
        }
    }

    /// The fully defended arm: retries + p99-delay hedging + quarantine.
    /// The quarantine threshold is deliberately conservative (four
    /// wholesale-killed batches in a row): on memoryless crashes pulling
    /// a shard is pure capacity loss, so the backstop should only ever
    /// trip on a genuinely sick, crash-looping host. Operators facing a
    /// known bad machine tune it tighter — see the pinned sick-host
    /// scenario test, which quarantines after two killed batches with a
    /// long (8x p99) cooldown and strictly improves p99.9.
    #[must_use]
    pub fn full(p99_ns: u64) -> Defense {
        Defense {
            hedge_after_ns: Some(p99_ns.max(1)),
            quarantine_after: 4,
            quarantine_cooldown_ns: p99_ns.saturating_mul(2).max(10_000),
            ..Defense::retries(p99_ns)
        }
    }

    /// The deadline for a request of `priority` arriving at `arrival_ns`,
    /// or `None` when deadline accounting is off.
    #[must_use]
    pub fn deadline_for(&self, priority: Priority, arrival_ns: u64) -> Option<u64> {
        self.deadlines_ns.map(|d| arrival_ns.saturating_add(d[priority.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_off_and_intensities_are_not() {
        assert!(ChaosConfig::off().is_off());
        for i in 0..3 {
            assert!(!ChaosConfig::intensity(1, i).is_off());
        }
        assert_eq!(ChaosConfig::intensity_label(0), "low");
        assert_eq!(ChaosConfig::intensity_label(1), "mid");
        assert_eq!(ChaosConfig::intensity_label(2), "high");
    }

    #[test]
    fn leg_failure_draws_are_pure_and_calibrated() {
        let plan = ChaosConfig { transient_per_mille: 100, ..ChaosConfig::intensity(42, 1) };
        let hits = (0..10_000).filter(|&id| plan.leg_fails(id, 0, false)).count();
        assert!((700..1300).contains(&hits), "hits {hits}");
        // Same identifiers, same verdict; different attempt, fresh draw.
        for id in 0..200 {
            assert_eq!(plan.leg_fails(id, 0, false), plan.leg_fails(id, 0, false));
        }
        assert!(
            (0..10_000u64).any(|id| plan.leg_fails(id, 0, false) != plan.leg_fails(id, 1, false))
        );
        assert!(!ChaosConfig::off().leg_fails(3, 0, false));
    }

    #[test]
    fn crash_windows_are_deterministic_ascending_and_probed_consistently() {
        let plan = ChaosConfig::intensity(7, 2);
        let mut a = ShardChaos::new(&plan, 1);
        let mut b = ShardChaos::new(&plan, 1);
        let mut c = ShardChaos::new(&plan, 2);
        let wa = a.crash_in(0, 10_000_000);
        assert_eq!(wa, b.crash_in(0, 10_000_000));
        // Another shard sees a different (but still deterministic) stream.
        let _ = c.crash_in(0, 10_000_000);
        assert!(a.windows.windows(2).all(|w| w[0].1 <= w[1].0), "windows overlap");
        let (s, e) = wa.expect("high intensity crashes within 10ms");
        assert!(s < e);
        // available_from inside a window lands at its end, outside at t.
        assert_eq!(a.available_from(s), e);
        assert_eq!(a.available_from(e), e);
    }

    #[test]
    fn no_crash_plan_never_crashes() {
        let plan = ChaosConfig { crash_mtbf_ns: 0, ..ChaosConfig::intensity(3, 1) };
        let mut sc = ShardChaos::new(&plan, 0);
        assert_eq!(sc.crash_in(0, u64::MAX / 2), None);
        assert_eq!(sc.available_from(123), 123);
    }

    #[test]
    fn degraded_shards_slow_down_by_the_lane_ratio() {
        // Force degradation deterministically by sweeping shard indices
        // until one draws it.
        let plan = ChaosConfig {
            straggler_per_mille: 0,
            degraded_per_mille: 1000,
            degraded_lanes: 8,
            ..ChaosConfig::intensity(5, 1)
        };
        let sc = ShardChaos::new(&plan, 0);
        let full = ArchConfig::paper_default();
        assert_eq!(sc.lanes_left, full.lanes - 8);
        assert_eq!(sc.slowdown_permille, u64::from(full.lanes) * 1000 / u64::from(full.lanes - 8));
        // Healthy shard: exactly full speed.
        let quiet = ShardChaos::new(&ChaosConfig::off(), 0);
        assert_eq!(quiet.slowdown_permille, 1000);
    }

    #[test]
    fn defense_presets_nest() {
        let off = Defense::off();
        assert!(off.deadlines_ns.is_none() && off.max_retries == 0);
        let none = Defense::none(100_000);
        assert!(none.deadlines_ns.is_some() && none.max_retries == 0);
        let retries = Defense::retries(100_000);
        assert!(retries.max_retries > 0 && retries.hedge_after_ns.is_none());
        let full = Defense::full(100_000);
        assert!(full.hedge_after_ns.is_some() && full.quarantine_after > 0);
        // Gold deadline is the tightest.
        let d = Defense::tiered_deadlines(100_000);
        assert!(d[0] > d[1] && d[1] > d[2]);
        assert_eq!(full.deadline_for(crate::request::Priority::Gold, 10), Some(10 + 300_000));
        assert_eq!(full.deadline_for(crate::request::Priority::Bronze, 0), Some(4_500_000));
        assert_eq!(off.deadline_for(crate::request::Priority::Gold, 10), None);
    }
}
