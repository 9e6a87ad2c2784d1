//! `accel-exec`: one generated program per technique (k-NN, k-Means, DNN,
//! LR, SVM, NB, CT) run through the functional executor,
//! `Accelerator::run`, and costed by the analytic model,
//! `codegen::phases::program_stats`. DRAM operands are drawn from the
//! seed; set-up generates the programs, fills DRAM and computes the host
//! f32 reference every run's outputs are checked against. The traced
//! split also times the softfp conversion sweeps the datapath runs on.

use crate::measure::{repeat_for, setup, timed, Checks, Measured, Metric, Samples};
use pudiannao_accel::{Accelerator, ArchConfig, Dram, ExecStats, Program, RunReport};
use pudiannao_codegen::ct::{HeapTree, TreeWalkKernel, TreeWalkPlan};
use pudiannao_codegen::distance::{DistanceKernel, DistancePlan, DistancePost};
use pudiannao_codegen::dot::{BroadcastDot, BroadcastPlan};
use pudiannao_codegen::nb::{candidate_rows, NbTrainKernel, NbTrainPlan};
use pudiannao_codegen::phases::program_stats;
use pudiannao_codegen::pipelines::{MlpForward, MlpForwardPlan, SvmPredict, SvmPredictPlan};
use pudiannao_serve::SplitMix64;
use pudiannao_softfp::{batch as fp_batch, NonLinearFn, F16};
use std::hint::black_box;

/// One technique's program, its DRAM image and the check of its outputs.
struct Case {
    /// Per-layer row timing this case's `Accelerator::run`.
    row: &'static str,
    program: Program,
    dram: Dram,
    /// Walker states the program expects zeroed before every run.
    zeroed: Option<(u64, usize)>,
    /// Compares the outputs left in DRAM with the host f32 reference.
    verify: Box<dyn Fn(&Dram) -> bool>,
}

impl Case {
    /// Zeroes the walker states a tree-walk program expects.
    fn prepare(&mut self) {
        if let Some((addr, len)) = self.zeroed {
            self.dram.write_f32(addr, &vec![0.0; len]);
        }
    }
}

/// Hands out consecutive DRAM regions (f32 element addresses).
#[derive(Default)]
struct Layout(u64);

impl Layout {
    fn take(&mut self, elems: usize) -> u64 {
        let at = self.0;
        self.0 += elems as u64;
        at
    }
}

/// Case construction state: the seeded operand stream and the seconds
/// spent in `codegen` generators.
struct Builder {
    cfg: ArchConfig,
    rng: SplitMix64,
    generate_s: f64,
}

impl Builder {
    /// `n` uniform draws from `[lo, hi)`.
    fn draw(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n)
            .map(|_| lo + (hi - lo) * (self.rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
            .collect()
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }

    /// Runs one generator, timed into `generate_s`.
    fn generate<E: std::fmt::Debug>(
        &mut self,
        generator: impl FnOnce(&ArchConfig) -> Result<Program, E>,
    ) -> Program {
        let (program, secs) = timed(|| generator(&self.cfg));
        self.generate_s += secs;
        program.expect("program generates")
    }
}

/// `|got - want|` within `tol`, relative once `want` exceeds 1.
fn close(got: f32, want: f32, tol: f32) -> bool {
    (got - want).abs() <= tol * want.abs().max(1.0)
}

fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Tolerance of distance and dot products on the fp16 multiplier datapath
/// against the f32 reference, as in the accel-vs-software tests.
const FP16_TOL: f32 = 2e-2;

/// A distance program keeping the `k` nearest hot rows per cold row
/// (k-NN prediction, and k-Means assignment with `k = 1`). The check:
/// every reported pair's distance matches the reference distance of the
/// row it names, and no reported row is farther than the reference k-th
/// nearest — so near-ties may swap, but no wrong neighbour passes.
fn nearest(
    b: &mut Builder,
    row: &'static str,
    (features, hot_rows, cold_rows, k): (usize, usize, usize, usize),
) -> Case {
    let hot = b.draw(hot_rows * features, 0.0, 1.0);
    let cold = b.draw(cold_rows * features, 0.0, 1.0);
    let mut at = Layout::default();
    let plan = DistancePlan {
        hot_dram: at.take(hot.len()),
        cold_dram: at.take(cold.len()),
        out_dram: at.take(cold_rows * 2 * k),
    };
    let kernel = DistanceKernel {
        name: row,
        features,
        hot_rows,
        cold_rows,
        post: DistancePost::Sort { k: k as u32 },
    };
    let program = b.generate(|cfg| kernel.generate(cfg, &plan));
    let mut dram = Dram::new(at.0 as usize);
    dram.write_f32(plan.hot_dram, &hot);
    dram.write_f32(plan.cold_dram, &cold);
    let reference: Vec<Vec<f32>> = cold
        .chunks(features)
        .map(|q| hot.chunks(features).map(|h| squared_distance(q, h)).collect())
        .collect();
    let verify = move |dram: &Dram| {
        reference.iter().enumerate().all(|(q, dists)| {
            let mut sorted = dists.clone();
            sorted.sort_by(f32::total_cmp);
            let kth = sorted[k - 1];
            dram.read_f32(plan.out_dram + (q * 2 * k) as u64, 2 * k).chunks(2).all(|pair| {
                let idx = pair[1] as usize;
                pair[1] >= 0.0
                    && idx < dists.len()
                    && close(pair[0], dists[idx], FP16_TOL)
                    && dists[idx] <= kth + FP16_TOL * kth.max(1.0)
            })
        })
    };
    Case { row, program, dram, zeroed: None, verify: Box::new(verify) }
}

/// Sigmoid MLP feedforward over a batch (augmented weight and activation
/// rows, as `MlpForward` lays them out).
fn dnn(b: &mut Builder) -> Case {
    let widths = vec![64usize, 128, 64, 16];
    let batch = 256usize;
    let mut at = Layout::default();
    let mut layers = Vec::new();
    for l in 0..widths.len() - 1 {
        let scale = 1.0 / ((widths[l] + 1) as f32).sqrt();
        let w = b.draw(widths[l + 1] * (widths[l] + 1), -scale, scale);
        layers.push((at.take(w.len()), w));
    }
    let inputs = b.draw(batch * widths[0], 0.0, 1.0);
    let acts: Vec<u64> = widths.iter().map(|&w| at.take(batch * (w + 1))).collect();
    let plan = MlpForwardPlan {
        weights: layers.iter().map(|(a, _)| *a).collect(),
        activations: acts.clone(),
    };
    let net = MlpForward { widths: widths.clone(), batch, activation: NonLinearFn::Sigmoid };
    let program = b.generate(|cfg| net.generate(cfg, &plan));
    let mut dram = Dram::new(at.0 as usize);
    for (addr, w) in &layers {
        dram.write_f32(*addr, w);
    }
    for (l, &w) in widths.iter().enumerate() {
        for i in 0..batch {
            let mut row = vec![0.0f32; w + 1];
            row[0] = 1.0;
            if l == 0 {
                row[1..].copy_from_slice(&inputs[i * w..(i + 1) * w]);
            }
            dram.write_f32(acts[l] + (i * (w + 1)) as u64, &row);
        }
    }
    let reference: Vec<Vec<f32>> = inputs
        .chunks(widths[0])
        .map(|x| {
            layers.iter().fold(x.to_vec(), |act, (_, w)| {
                w.chunks(act.len() + 1)
                    .map(|row| {
                        let z = row[0] + row[1..].iter().zip(&act).map(|(a, b)| a * b).sum::<f32>();
                        1.0 / (1.0 + (-z).exp())
                    })
                    .collect()
            })
        })
        .collect();
    let out = *widths.last().expect("layers");
    let base = acts[widths.len() - 1];
    let verify = move |dram: &Dram| {
        reference.iter().enumerate().all(|(i, want)| {
            let got = dram.read_f32(base + (i * (out + 1)) as u64 + 1, out);
            got.iter().zip(want).all(|(&g, &w)| close(g, w, FP16_TOL))
        })
    };
    Case { row: "accel.run_dnn_s", program, dram, zeroed: None, verify: Box::new(verify) }
}

/// Linear-regression prediction: one broadcast dot product per instance.
fn lr(b: &mut Builder) -> Case {
    let (width, rows) = (512usize, 4096usize);
    let theta = b.draw(width, -1.0, 1.0);
    let x = b.draw(rows * width, -1.0, 1.0);
    let mut at = Layout::default();
    let plan = BroadcastPlan {
        hot_dram: at.take(width),
        cold_dram: at.take(x.len()),
        out_dram: at.take(rows),
    };
    let kernel = BroadcastDot { name: "lr", width, cold_rows: rows, activation: None };
    let program = b.generate(|cfg| kernel.generate(cfg, &plan));
    let mut dram = Dram::new(at.0 as usize);
    dram.write_f32(plan.hot_dram, &theta);
    dram.write_f32(plan.cold_dram, &x);
    let reference: Vec<f32> =
        x.chunks(width).map(|r| r.iter().zip(&theta).map(|(a, b)| a * b).sum()).collect();
    let verify = move |dram: &Dram| {
        let got = dram.read_f32(plan.out_dram, rows);
        got.iter().zip(&reference).all(|(&g, &w)| close(g, w, FP16_TOL))
    };
    Case { row: "accel.run_lr_s", program, dram, zeroed: None, verify: Box::new(verify) }
}

/// SVM prediction: RBF kernel values against the support vectors, then
/// their alpha-weighted sum.
fn svm(b: &mut Builder) -> Case {
    let (features, svs, queries) = (16usize, 128usize, 2048usize);
    let sv = b.draw(svs * features, 0.0, 0.5);
    let alphas = b.draw(svs, -1.0, 1.0);
    let q = b.draw(queries * features, 0.0, 0.5);
    let mut at = Layout::default();
    let plan = SvmPredictPlan {
        sv_dram: at.take(sv.len()),
        query_dram: at.take(q.len()),
        kernel_dram: at.take(queries * svs),
        alpha_dram: at.take(svs),
        out_dram: at.take(queries),
    };
    let pipeline = SvmPredict { features, support_vectors: svs, queries };
    let program = b.generate(|cfg| pipeline.generate(cfg, &plan));
    let mut dram = Dram::new(at.0 as usize);
    dram.write_f32(plan.sv_dram, &sv);
    dram.write_f32(plan.query_dram, &q);
    dram.write_f32(plan.alpha_dram, &alphas);
    let reference: Vec<f32> = q
        .chunks(features)
        .map(|x| {
            sv.chunks(features).zip(&alphas).map(|(s, a)| a * (-squared_distance(s, x)).exp()).sum()
        })
        .collect();
    let verify = move |dram: &Dram| {
        let got = dram.read_f32(plan.out_dram, queries);
        got.iter().zip(&reference).all(|(&g, &w)| close(g, w, 0.05))
    };
    Case { row: "accel.run_svm_s", program, dram, zeroed: None, verify: Box::new(verify) }
}

/// Naive-Bayes training: per-class value counters over class-grouped
/// instances. Counts are exact.
fn nb(b: &mut Builder) -> Case {
    let (features, values, classes, instances) = (16usize, 8usize, 4usize, 32768usize);
    // Flat buffers whose sizes do not depend on the draw, so neither does
    // the run's memory footprint.
    let labels: Vec<usize> = (0..instances).map(|_| b.below(classes)).collect();
    let rows: Vec<f32> = (0..instances * features).map(|_| b.below(values) as f32).collect();
    let mut order: Vec<usize> = (0..instances).collect();
    order.sort_by_key(|&i| labels[i]);
    let grouped: Vec<f32> = order
        .iter()
        .flat_map(|&i| rows[i * features..(i + 1) * features].iter().copied())
        .collect();
    let mut at = Layout::default();
    let plan = NbTrainPlan {
        instances_dram: at.take(instances * features),
        candidates_dram: at.take(values * features),
        counters_dram: at.take(classes * values * features),
    };
    let class_counts = (0..classes).map(|c| labels.iter().filter(|&&l| l == c).count()).collect();
    let kernel = NbTrainKernel { features, values, class_counts };
    let program = b.generate(|cfg| kernel.generate(cfg, &plan));
    let mut dram = Dram::new(at.0 as usize);
    dram.write_f32(plan.instances_dram, &grouped);
    dram.write_f32(plan.candidates_dram, &candidate_rows(values, features));
    let mut reference = vec![0.0f32; classes * values * features];
    for (row, &c) in rows.chunks(features).zip(&labels) {
        for (f, &v) in row.iter().enumerate() {
            reference[(c * values + v as usize) * features + f] += 1.0;
        }
    }
    let verify = move |dram: &Dram| dram.read_f32(plan.counters_dram, reference.len()) == reference;
    Case { row: "accel.run_nb_s", program, dram, zeroed: None, verify: Box::new(verify) }
}

/// Classification-tree prediction: a level-synchronous walk of a full
/// heap-ordered tree. Features are multiples of 1/32 and thresholds odd
/// multiples of 1/64, all exact in fp16, so no comparison ties and the
/// classes must match exactly.
fn ct(b: &mut Builder) -> Case {
    let (depth, features, instances, classes) = (12u32, 16usize, 16384usize, 8usize);
    let mut tree = HeapTree::new(depth);
    for i in 0..HeapTree::level_start(depth - 1) {
        let threshold = (2 * b.below(32) + 1) as f32 / 64.0;
        tree.set_split(i, b.below(features), threshold);
    }
    for i in HeapTree::level_start(depth - 1)..tree.nodes() {
        tree.set_leaf(i, b.below(classes));
    }
    let x: Vec<f32> = (0..instances * features).map(|_| b.below(32) as f32 / 32.0).collect();
    let mut at = Layout::default();
    let plan = TreeWalkPlan {
        tree_dram: at.take(tree.words().len()),
        instances_dram: at.take(x.len()),
        states_dram: at.take(instances),
    };
    let kernel = TreeWalkKernel { depth, features, instances };
    let program = b.generate(|cfg| kernel.generate(cfg, &plan));
    let mut dram = Dram::new(at.0 as usize);
    dram.write_f32(plan.tree_dram, tree.words());
    dram.write_f32(plan.instances_dram, &x);
    let reference: Vec<usize> = x.chunks(features).map(|r| tree.classify(r)).collect();
    let verify = move |dram: &Dram| {
        let states = dram.read_f32(plan.states_dram, instances);
        states.iter().zip(&reference).all(|(&s, &c)| TreeWalkKernel::decode_state(s) == Some(c))
    };
    Case {
        row: "accel.run_ct_s",
        program,
        dram,
        zeroed: Some((plan.states_dram, instances)),
        verify: Box::new(verify),
    }
}

/// Builds the seven cases from `seed`; also returns the seconds spent
/// in the `codegen` generators.
fn cases(seed: u64) -> (Vec<Case>, f64) {
    let mut b =
        Builder { cfg: ArchConfig::paper_default(), rng: SplitMix64::new(seed), generate_s: 0.0 };
    let cases = vec![
        nearest(&mut b, "accel.run_knn_s", (32, 512, 256, 8)),
        nearest(&mut b, "accel.run_kmeans_s", (16, 256, 1024, 1)),
        dnn(&mut b),
        lr(&mut b),
        svm(&mut b),
        nb(&mut b),
        ct(&mut b),
    ];
    (cases, b.generate_s)
}

/// Runs one case and costs its program; `Err` carries the executor error.
fn execute(
    accel: &mut Accelerator,
    cfg: &ArchConfig,
    case: &mut Case,
) -> Result<(RunReport, ExecStats), String> {
    case.prepare();
    let report = accel.run(&case.program, &mut case.dram).map_err(|e| e.to_string())?;
    Ok((report, program_stats(cfg, &case.program)))
}

/// Checks one execution: the run succeeded, its cycles, instructions and
/// DMA bytes equal the analytic model's, and its outputs match the host
/// reference. Returns the executed stats.
fn check_case(
    case: &Case,
    result: Result<(RunReport, ExecStats), String>,
    fingerprint: &str,
    checks: &mut Checks,
) -> ExecStats {
    let what = case.row;
    let (report, model) = match result {
        Ok(pair) => pair,
        Err(e) => {
            checks.check(&format!("{what}: Accelerator::run returns Ok ({e})"), false);
            return ExecStats::default();
        }
    };
    let s = &report.stats;
    checks.check(&format!("{what}: Accelerator::run returns Ok"), true);
    checks.check(
        &format!("{what}: executed cycles, instructions and DMA bytes equal program_stats"),
        (s.cycles, s.instructions, s.dma_bytes)
            == (model.cycles, model.instructions, model.dma_bytes),
    );
    checks
        .check(&format!("{what}: outputs match the host f32 reference"), (case.verify)(&case.dram));
    checks.check(
        &format!("{what}: run report carries the paper config fingerprint"),
        report.config_fingerprint == fingerprint,
    );
    report.stats
}

fn accelerator(cfg: &ArchConfig) -> Accelerator {
    Accelerator::new(cfg.clone()).expect("paper config is valid")
}

/// Untraced run: each pass builds the seven cases (set-up), then times
/// running and costing each program.
pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let cfg = ArchConfig::paper_default();
    let fingerprint = cfg.fingerprint();
    let mut accel = accelerator(&cfg);
    let mut m = Measured::new(("accel.mlu_ops+alu_ops", 0));
    repeat_for(seconds, || {
        let ((mut cases, _), setup_s) = setup(|| cases(seed));
        let mut parts = Vec::with_capacity(cases.len());
        let mut ops = 0;
        for case in &mut cases {
            let (result, secs) = timed(|| execute(&mut accel, &cfg, case));
            parts.push(secs);
            let stats = check_case(case, result, &fingerprint, checks);
            ops += stats.mlu_ops + stats.alu_ops;
        }
        m.push(setup_s, parts);
        m.work.1 = ops;
    });
    m
}

/// Traced run: program generation, executor and analytic-model spans per
/// technique, alternated with untraced passes for the tracing overhead.
pub fn trace(seed: u64, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let cfg = ArchConfig::paper_default();
    let fingerprint = cfg.fingerprint();
    let mut accel = accelerator(&cfg);
    // Warm-up: the executor's first run in a process is slower.
    let (mut warm, _) = cases(seed);
    for case in &mut warm {
        let result = execute(&mut accel, &cfg, case);
        check_case(case, result, &fingerprint, checks);
    }
    let rows: Vec<_> = warm.iter().map(|c| (c.row, c.program.len())).collect();
    drop(warm);
    let mut s = Samples::default();
    let mut totals = ExecStats::default();
    repeat_for(seconds, || {
        let (mut cases, generate_s) = cases(seed);
        s.add("codegen.generate_s", generate_s);
        let (results, untraced) =
            timed(|| cases.iter_mut().map(|c| execute(&mut accel, &cfg, c)).collect::<Vec<_>>());
        for (case, r) in cases.iter().zip(results) {
            check_case(case, r, &fingerprint, checks);
        }

        let (mut run_s, mut model_s) = (0.0, 0.0);
        totals = ExecStats::default();
        for case in &mut cases {
            case.prepare();
            let (report, secs) = timed(|| accel.run(&case.program, &mut case.dram));
            s.add(case.row, secs);
            run_s += secs;
            let (model, secs) = timed(|| program_stats(&cfg, &case.program));
            model_s += secs;
            let result = report.map(|r| (r, model)).map_err(|e| e.to_string());
            totals.merge(&check_case(case, result, &fingerprint, checks));
        }
        s.add("codegen.model_s", model_s);
        s.add("accel.run_s", run_s);
        s.add("traced", run_s + model_s);
        s.add("untraced", untraced);
        softfp_sweeps(&mut s);
    });

    let ops = totals.mlu_ops + totals.alu_ops;
    let instructions = format!("accel.instructions={}", totals.instructions);
    let mut out = vec![
        Metric::new("codegen.generate_s", s.best("codegen.generate_s"), "s", &instructions),
        Metric::new("codegen.model_s", s.best("codegen.model_s"), "s", &instructions),
    ];
    for (row, instructions) in rows {
        out.push(Metric::new(row, s.best(row), "s", format!("accel.instructions={instructions}")));
    }
    out.push(Metric::new(
        "accel.mlu_mops_per_s",
        ops as f64 / s.best("accel.run_s") / 1e6,
        "Mops/s",
        format!("accel.mlu_ops+alu_ops={ops}"),
    ));
    out.push(Metric::count("accel.instructions", totals.instructions, "count"));
    out.push(Metric::count("accel.mlu_ops", totals.mlu_ops, "ops"));
    out.push(Metric::count("accel.alu_ops", totals.alu_ops, "ops"));
    out.push(Metric::count("accel.cycles", totals.cycles, "cycles"));
    out.push(Metric::count("accel.dma_bytes", totals.dma_bytes, "bytes"));
    let conversions = format!("softfp.conversions={SOFTFP_CONVERSIONS}");
    for name in ["softfp.widen_ns", "softfp.narrow_ns", "softfp.quantize_ns"] {
        out.push(Metric::new(name, s.best(name), "ns", &conversions));
    }
    out.push(Metric::count("softfp.conversions", SOFTFP_CONVERSIONS, "count"));
    out.push(Metric::new(
        "trace.overhead_accel_exec_s",
        s.best("traced") - s.best("untraced"),
        "s",
        &instructions,
    ));
    out
}

/// Passes over each softfp sweep (65 536 conversions per pass).
const SOFTFP_ROUNDS: u32 = 50;
const SOFTFP_CONVERSIONS: u64 = SOFTFP_ROUNDS as u64 * 65_536;

/// The three softfp conversion sweeps `bench_hotpath` times, in ns per
/// conversion: every binary16 pattern widened, a dense f32 sweep
/// narrowed, and the fused batch round-trip the accelerator buffers use.
fn softfp_sweeps(s: &mut Samples) {
    let per_conversion = |secs: f64| secs * 1e9 / SOFTFP_CONVERSIONS as f64;

    let (sum, secs) = timed(|| {
        let mut sum = 0.0f32;
        for _ in 0..SOFTFP_ROUNDS {
            for bits in 0..=u16::MAX {
                sum += F16::from_bits(black_box(bits)).to_f32();
            }
        }
        sum
    });
    black_box(sum);
    s.add("softfp.widen_ns", per_conversion(secs));

    let inputs: Vec<f32> = (0..1u32 << 16).map(|i| (i as f32 - 32768.0) * 0.3717).collect();
    let (sum, secs) = timed(|| {
        let mut sum = 0u32;
        for _ in 0..SOFTFP_ROUNDS {
            for &x in black_box(&inputs) {
                sum = sum.wrapping_add(u32::from(F16::from_f32(x).to_bits()));
            }
        }
        sum
    });
    black_box(sum);
    s.add("softfp.narrow_ns", per_conversion(secs));

    let src: Vec<f32> = (0..1u32 << 16).map(|i| (i as f32 - 32768.0) * 0.011).collect();
    let mut dst = vec![0.0f32; src.len()];
    let ((), secs) = timed(|| {
        for _ in 0..SOFTFP_ROUNDS {
            fp_batch::quantize_f32_into(black_box(&src), &mut dst);
            black_box(&dst);
        }
    });
    s.add("softfp.quantize_ns", per_conversion(secs));
}
