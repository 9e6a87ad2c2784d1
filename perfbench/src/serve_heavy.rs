//! `serve-heavy`: the heavy open-loop traffic of `GeneratorConfig::heavy`
//! (arrivals fixed in simulated time whatever the fleet does) through
//! `run_fleet` on the paper-default 4-shard fleet, chaos off.
//!
//! A pass offers the heavy stream's 100k requests as [`STREAMS`]
//! independent streams of a quarter each, every one its own `run_fleet`
//! call. The work is the same as one 100k stream's, but each call is
//! short enough to be scored in a quiet spell of the host (see
//! `measure`); one 3-second call per pass was not.
//!
//! The traced split times the generator, the catalog and the fleet, then
//! replays each run's completed `(phase, tier)` legs — shard by shard,
//! batch by batch — through fresh `TraceCache`s and `SimdEngine`s outside
//! the fleet. That replay is the fleet's memsim work, so the fleet time
//! minus the replay time is the event loop's self time.

use crate::measure::{repeat_for, setup, timed, Checks, Measured, Metric, Samples};
use pudiannao_accel::json::{self, Value};
use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::{batch, AccessBlock, CacheConfig, SimdEngine};
use pudiannao_serve::{
    generate, percentile_ns, run_fleet, run_fleet_observed, slot_count, ChaosConfig, Defense,
    FleetConfig, GeneratorConfig, ObserveConfig, Request, RequestKind, ServeReport, ServingCatalog,
    SizeTier, SpanEvent, TraceCache, TraceCacheStats, TraceConfig,
};

/// The stream seed of the committed `serve_report.json`.
const PINNED_SEED: u64 = 0xd1a0_2015;

/// Streams a pass splits the heavy stream's requests into.
const STREAMS: u64 = 4;

/// Stream `i` of a pass: the heavy arrival process with a quarter of its
/// requests, seeded apart from every other seed's streams.
fn stream_config(seed: u64, i: u64) -> GeneratorConfig {
    let heavy = GeneratorConfig::heavy(seed.wrapping_mul(STREAMS).wrapping_add(i));
    GeneratorConfig { requests: heavy.requests / STREAMS, ..heavy }
}

struct Inputs {
    streams: Vec<Vec<Request>>,
    catalog: ServingCatalog,
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        streams: (0..STREAMS).map(|i| generate(&stream_config(seed, i))).collect(),
        catalog: ServingCatalog::paper_default(),
    }
}

fn fleet(catalog: &ServingCatalog, requests: &[Request]) -> ServeReport {
    run_fleet(&FleetConfig::paper_default(), &CacheConfig::paper_default(), catalog, requests)
}

/// Every offered request is admitted, shed or rejected, and with chaos
/// off every admitted request completes.
fn check_conservation(report: &ServeReport, checks: &mut Checks) {
    let c = &report.counters;
    checks.check(
        "offered = admitted + shed + rejected",
        c.offered == c.admitted + c.shed + c.rejected,
    );
    checks.check("completed = admitted", report.completed == c.admitted);
}

/// The full heavy stream at the pinned seed reproduces the committed
/// `serve_report.json` `report` object.
fn check_pin(checks: &mut Checks) {
    let text =
        std::fs::read_to_string("serve_report.json").expect("reading committed serve_report.json");
    let pinned = json::parse(&text).expect("serve_report.json parses");
    let requests = generate(&GeneratorConfig::heavy(PINNED_SEED));
    let report = fleet(&ServingCatalog::paper_default(), &requests);
    checks.check(
        "report at the pinned seed equals serve_report.json",
        pinned.get("report") == Some(&report.to_json()),
    );
}

/// Untraced run: each pass builds the streams and the catalog (set-up),
/// then times `run_fleet` on each stream.
pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::new(("serve.offered", 0));
    let mut first: Option<Vec<Value>> = None;
    repeat_for(seconds, || {
        let (inputs, setup_s) = setup(|| inputs(seed));
        let mut parts = Vec::with_capacity(inputs.streams.len());
        let mut reports = Vec::with_capacity(inputs.streams.len());
        for requests in &inputs.streams {
            let (report, secs) = timed(|| fleet(&inputs.catalog, requests));
            parts.push(secs);
            check_conservation(&report, checks);
            reports.push(report);
        }
        m.push(setup_s, parts);
        m.work.1 = reports.iter().map(|r| r.counters.offered).sum();
        let json: Vec<Value> = reports.iter().map(ServeReport::to_json).collect();
        match &first {
            Some(pinned) => checks.check("fleet reports repeat exactly", *pinned == json),
            None => first = Some(json),
        }
    });
    check_pin(checks);
    m
}

/// Completed legs as `(phase, tier)`, per shard, per batch, in execution
/// order.
type LegPlan = Vec<Vec<Vec<(Phase, SizeTier)>>>;

/// Recovers the leg plan of a run from one observed (span-traced) run of
/// the same stream: the observer never changes the fleet's decisions, so
/// its batches and legs are the untraced run's.
fn leg_plan(catalog: &ServingCatalog, requests: &[Request], checks: &mut Checks) -> LegPlan {
    let fleet = FleetConfig::paper_default();
    let observe =
        ObserveConfig { trace: Some(TraceConfig::sized_for(requests.len() as u64)), metrics: None };
    let report = run_fleet_observed(
        &fleet,
        &CacheConfig::paper_default(),
        catalog,
        requests,
        &ChaosConfig::off(),
        &Defense::off(),
        &observe,
    );
    let trace = report.trace.as_ref().expect("an observed run carries its span ring");
    checks.check("span ring kept every event", trace.events_dropped == 0);
    let mut batches = vec![Vec::new(); fleet.shards];
    let mut legs = vec![Vec::new(); fleet.shards];
    for event in trace.events_iter() {
        match *event {
            SpanEvent::Batch { shard, start_ns, legs: n, .. } => {
                batches[shard].push((start_ns, n as usize));
            }
            SpanEvent::Leg { id, shard, start_ns, .. } => legs[shard].push((start_ns, id)),
            _ => {}
        }
    }
    let mut plan = LegPlan::with_capacity(fleet.shards);
    let mut planned = 0;
    for (mut batches, mut legs) in batches.into_iter().zip(legs) {
        batches.sort_unstable();
        legs.sort_unstable();
        let mut legs = legs.into_iter();
        let shard = batches
            .iter()
            .map(|&(_, n)| {
                legs.by_ref()
                    .take(n)
                    .map(|(_, id)| {
                        let request = &requests[id as usize];
                        let RequestKind::Phase(phase) = request.kind else {
                            panic!("request {id} was dispatched without a phase");
                        };
                        (phase, request.tier)
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        planned += shard.iter().map(Vec::len).sum::<usize>();
        plan.push(shard);
    }
    checks.check("leg plan covers every completed request", planned as u64 == report.completed);
    plan
}

/// Replays a leg plan through one fresh trace-template cache and engine
/// per shard, resetting the engine per batch as the fleet does. Returns
/// the memsim ops executed and the summed cache counters.
fn replay(catalog: &ServingCatalog, plan: &LegPlan) -> (u64, TraceCacheStats) {
    let cfg = CacheConfig::paper_default();
    let budget = FleetConfig::paper_default().trace_cache_bytes;
    let mut ops = 0;
    let mut stats = TraceCacheStats::default();
    for shard in plan {
        let mut cache = TraceCache::new(budget);
        let mut engine = SimdEngine::new(cfg.clone()).expect("paper cache config is valid");
        let mut scratch = AccessBlock::with_capacity(cfg.line_bytes, batch::FLUSH_ACCESSES + 32);
        for legs in shard {
            engine.reset();
            for &(phase, tier) in legs {
                cache.execute(catalog, phase, tier, &mut engine, &mut scratch);
            }
            ops += engine.report().ops;
        }
        stats = stats.merged(cache.stats());
    }
    (ops, stats)
}

fn sim_ops(report: &ServeReport) -> u64 {
    report.shards.iter().map(|sh| sh.ops).sum()
}

/// Traced run: generator, catalog and fleet spans, the out-of-fleet
/// replay, and passes timed whole for the tracing overhead.
pub fn trace(seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let plan_inputs = inputs(seed);
    let plans: Vec<LegPlan> =
        plan_inputs.streams.iter().map(|r| leg_plan(&plan_inputs.catalog, r, checks)).collect();
    let mut s = Samples::default();
    let mut last = Vec::new();
    repeat_for(seconds, || {
        let (untraced_reports, untraced) = timed(|| {
            plan_inputs.streams.iter().map(|r| fleet(&plan_inputs.catalog, r)).collect::<Vec<_>>()
        });
        s.add("untraced", untraced);

        let (streams, generate_s) =
            timed(|| (0..STREAMS).map(|i| generate(&stream_config(seed, i))).collect::<Vec<_>>());
        let (catalog, catalog_s) = timed(ServingCatalog::paper_default);
        let (mut fleet_s, mut replay_s) = (0.0, 0.0);
        let mut reports = Vec::with_capacity(streams.len());
        for ((requests, plan), untraced) in streams.iter().zip(&plans).zip(&untraced_reports) {
            let (report, secs) = timed(|| fleet(&catalog, requests));
            fleet_s += secs;
            check_conservation(&report, checks);
            checks.check("fleet report repeats exactly", report.to_json() == untraced.to_json());
            let ((ops, cache), secs) = timed(|| replay(&catalog, plan));
            replay_s += secs;
            checks.check("replay executes the fleet's memsim ops", ops == sim_ops(&report));
            checks.check(
                "replay hits and misses the fleet's template caches",
                report
                    .trace_cache
                    .is_some_and(|tc| (tc.hits, tc.misses) == (cache.hits, cache.misses)),
            );
            reports.push(report);
        }
        s.add("serve.generate_s", generate_s);
        s.add("serve.catalog_s", catalog_s);
        s.add("serve.fleet_s", fleet_s);
        s.add("serve.replay_s", replay_s);
        last = reports;
    });
    drop(plan_inputs);
    check_pin(checks);

    let sum = |f: &dyn Fn(&ServeReport) -> u64| last.iter().map(f).sum::<u64>();
    let offered = sum(&|r| r.counters.offered);
    let completed = sum(&|r| r.completed);
    let ops = sum(&sim_ops);
    let legs = format!("serve.completed={completed} serve.sim_ops={ops}");
    let mut out = vec![
        Metric::new(
            "serve.generate_s",
            s.best("serve.generate_s"),
            "s",
            format!("serve.offered={offered}"),
        ),
        Metric::new(
            "serve.catalog_s",
            s.best("serve.catalog_s"),
            "s",
            format!("serve.catalog_entries={}", slot_count()),
        ),
    ];
    let (fleet_s, replay_s) = (s.best("serve.fleet_s"), s.best("serve.replay_s"));
    for (name, secs) in [
        ("serve.fleet_s", fleet_s),
        ("serve.replay_s", replay_s),
        ("serve.loop_s", fleet_s - replay_s),
        ("trace.overhead_serve_heavy_s", fleet_s - s.best("untraced")),
    ] {
        out.push(Metric::new(name, secs, "s", &legs));
    }
    for (name, value) in [
        ("serve.offered", offered),
        ("serve.admitted", sum(&|r| r.counters.admitted)),
        ("serve.shed", sum(&|r| r.counters.shed)),
        ("serve.rejected", sum(&|r| r.counters.rejected)),
        ("serve.completed", completed),
        ("serve.batches", sum(&|r| r.shards.iter().map(|sh| sh.batches).sum())),
        ("serve.reconfigs", sum(&|r| r.shards.iter().map(|sh| sh.reconfigs).sum())),
    ] {
        out.push(Metric::count(name, value, "count"));
    }
    out.push(Metric::count("serve.sim_ops", ops, "ops"));
    let cache = last.iter().filter_map(|r| r.trace_cache).reduce(TraceCacheStats::merged);
    let hit_permille = cache.map_or(0, |tc| tc.hit_permille());
    out.push(Metric::count("serve.trace_cache_hit_permille", hit_permille, "permille"));
    let mut latencies: Vec<u64> =
        last.iter().flat_map(|r| r.latencies_sorted_ns.iter().copied()).collect();
    latencies.sort_unstable();
    out.push(Metric::count("serve.sim_p99_ns", percentile_ns(&latencies, 990), "sim_ns"));
    let makespan_s = sum(&|r| r.makespan_ns) as f64 / 1e9;
    out.push(Metric::new(
        "serve.sim_throughput_rps",
        completed as f64 / makespan_s,
        "req/sim_s",
        &legs,
    ));
    out
}
