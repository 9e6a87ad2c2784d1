//! Seeded open-loop workload generator.
//!
//! Emits a request stream with uniform inter-arrival jitter around a mean
//! gap, periodic zero-gap bursts, a 60/30/10 Small/Medium/Large size mix
//! over all 13 phases, and an optional trickle of unknown-technique
//! requests that the admission layer must reject.
//!
//! Everything is integer arithmetic on a splitmix64 stream, so the same
//! seed produces the same byte sequence on every platform and the
//! `serve_report.json` byte-identity test can hold across worker counts.

use crate::request::{Priority, Request, RequestKind, SizeTier};
use pudiannao_codegen::phases::Phase;

/// Seed salt of the priority side stream: tenant tiers are drawn from a
/// second splitmix sequence so bolting priorities onto the generator
/// never consumed a draw from — and therefore never shifted — the pinned
/// arrival/phase/size stream the byte-identity checks rely on.
const PRIORITY_STREAM_SALT: u64 = 0x7e4a_9f21_05c3_d88b;

/// splitmix64: tiny, seedable, and plenty for traffic shaping. (The
/// vendored `rand` crate is reserved for the ML kit; the generator keeps
/// its own PRNG so serving traffic never shifts when mlkit reseeds.)
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n > 0). The modulo bias is irrelevant at
    /// the magnitudes used here (n « 2^64) and keeps the draw branch-free.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// Traffic-shaping knobs for one generated stream.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// PRNG seed; same seed, same stream.
    pub seed: u64,
    /// Total requests to emit.
    pub requests: u64,
    /// Mean inter-arrival gap in ns; actual gaps are uniform in
    /// `[mean/2, 3*mean/2)`. Zero means all requests arrive at t=0.
    pub mean_gap_ns: u64,
    /// Every `burst_every`-th request opens a burst (0 disables bursts).
    pub burst_every: u64,
    /// Requests per burst that arrive with zero gap after the opener.
    pub burst_len: u64,
    /// Per-mille of requests carrying an unknown technique id.
    pub unknown_per_mille: u32,
}

impl GeneratorConfig {
    /// The heavy stream `serve_bench` runs by default: 100k requests at
    /// ~75% of a 4-shard fleet's service capacity, with bursts deep
    /// enough to exercise shedding and a trickle of malformed requests.
    #[must_use]
    pub fn heavy(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            requests: 100_000,
            mean_gap_ns: 700,
            burst_every: 1024,
            burst_len: 256,
            unknown_per_mille: 5,
        }
    }

    /// A scaled-down heavy stream (4k requests) for unit and property
    /// tests.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        GeneratorConfig { requests: 4_000, ..GeneratorConfig::heavy(seed) }
    }
}

/// Generates the full request stream, sorted by arrival time (arrival is
/// a running sum of non-negative gaps, so the stream is sorted by
/// construction).
#[must_use]
pub fn generate(cfg: &GeneratorConfig) -> Vec<Request> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut priority_rng = SplitMix64::new(cfg.seed ^ PRIORITY_STREAM_SALT);
    let mut out = Vec::with_capacity(cfg.requests as usize);
    let mut now = 0u64;
    let mut burst_left = 0u64;
    for id in 0..cfg.requests {
        if cfg.burst_every > 0 && id > 0 && id % cfg.burst_every == 0 {
            burst_left = cfg.burst_len;
        }
        let gap = if burst_left > 0 {
            burst_left -= 1;
            0
        } else if cfg.mean_gap_ns == 0 {
            0
        } else {
            cfg.mean_gap_ns / 2 + rng.below(cfg.mean_gap_ns)
        };
        now += gap;

        let kind = if u64::from(cfg.unknown_per_mille) > 0
            && rng.below(1000) < u64::from(cfg.unknown_per_mille)
        {
            // Ids >= 13 are outside the phase table; fold the draw into
            // that range so the catalog can never accidentally serve one.
            RequestKind::Unknown(13 + (rng.below(243) as u8))
        } else {
            RequestKind::Phase(Phase::ALL[rng.below(13) as usize])
        };
        let tier = match rng.below(10) {
            0..=5 => SizeTier::Small,
            6..=8 => SizeTier::Medium,
            _ => SizeTier::Large,
        };
        // 20% gold / 30% silver / 50% bronze: most traffic is sheddable
        // best-effort work, a protected premium slice rides on top.
        let priority = match priority_rng.below(10) {
            0..=1 => Priority::Gold,
            2..=4 => Priority::Silver,
            _ => Priority::Bronze,
        };
        out.push(Request { id, arrival_ns: now, kind, tier, priority });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = GeneratorConfig::smoke(7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.tier, y.tier);
            assert_eq!(x.priority, y.priority);
        }
    }

    #[test]
    fn priority_mix_tracks_the_side_stream() {
        let reqs = generate(&GeneratorConfig::smoke(7));
        let mut counts = [0u64; 3];
        for r in &reqs {
            counts[r.priority.index()] += 1;
        }
        let n = reqs.len() as u64;
        // 50/30/20 bronze/silver/gold within loose bounds.
        assert!((counts[0] * 10 / n) >= 4, "bronze share collapsed: {counts:?}");
        assert!((counts[1] * 10 / n) >= 2, "silver share collapsed: {counts:?}");
        assert!((counts[2] * 10 / n) >= 1, "gold share collapsed: {counts:?}");
    }

    #[test]
    fn arrivals_are_sorted_and_jitter_bounded() {
        let cfg = GeneratorConfig { burst_every: 0, ..GeneratorConfig::smoke(3) };
        let reqs = generate(&cfg);
        let mut prev = 0;
        for r in &reqs {
            assert!(r.arrival_ns >= prev);
            let gap = r.arrival_ns - prev;
            assert!(gap < cfg.mean_gap_ns * 3 / 2 + 1, "gap {gap} out of range");
            prev = r.arrival_ns;
        }
    }

    #[test]
    fn bursts_produce_zero_gaps() {
        let cfg = GeneratorConfig::smoke(11);
        let reqs = generate(&cfg);
        let zero_gaps =
            reqs.windows(2).filter(|w| w[1].arrival_ns == w[0].arrival_ns).count() as u64;
        // Each burst contributes `burst_len` zero gaps.
        let bursts = (cfg.requests - 1) / cfg.burst_every;
        assert!(zero_gaps >= bursts * cfg.burst_len, "{zero_gaps} zero gaps, {bursts} bursts");
    }

    #[test]
    fn unknown_rate_tracks_the_knob() {
        let cfg = GeneratorConfig { unknown_per_mille: 200, ..GeneratorConfig::smoke(5) };
        let reqs = generate(&cfg);
        let unknown =
            reqs.iter().filter(|r| matches!(r.kind, RequestKind::Unknown(_))).count() as f64;
        let rate = unknown / reqs.len() as f64;
        assert!((0.15..0.25).contains(&rate), "unknown rate {rate}");
        let none = GeneratorConfig { unknown_per_mille: 0, ..GeneratorConfig::smoke(5) };
        assert!(generate(&none).iter().all(|r| matches!(r.kind, RequestKind::Phase(_))));
    }
}
