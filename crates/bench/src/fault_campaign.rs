//! Seeded fault-injection campaign across the seven ML kernels.
//!
//! For every (hardening arm, kernel, fault rate) cell the campaign runs a
//! batch of trials, each on a fresh accelerator and a fresh copy of the
//! kernel's inputs, with a per-trial fault seed derived deterministically
//! from the campaign seed. Each trial is classified against a fault-free
//! golden run:
//!
//! - **masked** — outputs byte-identical, no correction fired (the upset
//!   hit dead data, was overwritten, or never struck);
//! - **corrected** — outputs byte-identical and SEC-DED repaired at least
//!   one word;
//! - **detected** — the run aborted with a typed detection error
//!   (uncorrectable ECC, instruction-stream checksum, lane fault,
//!   watchdog);
//! - **sdc** — the run completed but the outputs differ (silent data
//!   corruption);
//! - **crash** — the run aborted with a non-detection error (a corrupted
//!   instruction driving a bounds violation, say).
//!
//! A separate graceful-degradation scenario pins a stuck-at MLU lane on
//! the k-Means kernel with masking enabled and checks the machine
//! finishes with correct-within-tolerance outputs at a higher cycle
//! count.
//!
//! Every number in the resulting JSON is a pure function of the
//! campaign's seed, trial count and fault rates: trials are parallelised
//! with [`run_indexed`], whose results come back in job order, so the
//! file is byte-identical at any `REPRO_THREADS`.

use pudiannao_accel::json::Value;
use pudiannao_accel::{
    Accelerator, ArchConfig, Dram, ExecError, FaultConfig, FaultPlan, Hardening, Program,
};
use pudiannao_codegen::ct::{HeapTree, TreeWalkKernel, TreeWalkPlan};
use pudiannao_codegen::distance::{DistanceKernel, DistancePlan, DistancePost};
use pudiannao_codegen::dot::{BroadcastDot, BroadcastPlan};
use pudiannao_codegen::nb::{NbPredictKernel, NbPredictPlan};
use pudiannao_codegen::pipelines::{MlpForward, MlpForwardPlan, SvmPredict, SvmPredictPlan};
use pudiannao_serve::pool::run_indexed;
use pudiannao_softfp::NonLinearFn;

/// Master seed every per-trial fault seed derives from.
const SEED: u64 = 0x50_44_4e_01;

/// Trials per (arm, kernel, rate) cell of the full campaign.
const TRIALS: usize = 12;

/// Base fault rates of the full campaign (buffer-upset probability per
/// instruction; the other sites scale down from it).
const RATES: [f64; 3] = [0.02, 0.1, 0.4];

/// Outcome tallies of one campaign cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Outputs identical, nothing corrected.
    pub masked: u64,
    /// Outputs identical after at least one SEC-DED repair.
    pub corrected: u64,
    /// Typed detection error.
    pub detected: u64,
    /// Completed with wrong outputs.
    pub sdc: u64,
    /// Non-detection error.
    pub crash: u64,
}

impl OutcomeCounts {
    /// Accumulates another tally into this one.
    pub fn add(&mut self, other: &OutcomeCounts) {
        self.masked += other.masked;
        self.corrected += other.corrected;
        self.detected += other.detected;
        self.sdc += other.sdc;
        self.crash += other.crash;
    }

    /// JSON object with one key per outcome class.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("masked", self.masked)
            .with("corrected", self.corrected)
            .with("detected", self.detected)
            .with("sdc", self.sdc)
            .with("crash", self.crash)
    }
}

/// One kernel under test: its program, pristine inputs, and the DRAM
/// regions holding the outputs that define correctness.
struct KernelCase {
    name: &'static str,
    program: Program,
    dram: Dram,
    /// `(addr, elems)` output regions compared bit-for-bit.
    outputs: Vec<(u64, u64)>,
}

/// Deterministic input data: an LCG stream mapped into `[lo, hi)`.
fn lcg_fill(seed: u64, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let unit = ((state >> 40) as f32) / ((1u64 << 24) as f32);
            lo + unit * (hi - lo)
        })
        .collect()
}

/// SplitMix64: one well-mixed word from a composite index.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn trial_seed(campaign: u64, arm: usize, kernel: usize, rate: usize, trial: usize) -> u64 {
    mix(campaign
        ^ mix(arm as u64 ^ mix((kernel as u64) << 16 ^ mix((rate as u64) << 32 ^ trial as u64))))
}

/// Builds the seven paper kernels at campaign scale (small enough that a
/// full sweep stays fast, large enough that every instruction slot and
/// functional-unit path is exercised).
fn kernel_cases(cfg: &ArchConfig) -> Vec<KernelCase> {
    let mut cases = Vec::new();

    // k-Means assignment: distances to 4 centroids, keep the nearest.
    {
        let kernel = DistanceKernel {
            name: "kmeans",
            features: 8,
            hot_rows: 4,
            cold_rows: 32,
            post: DistancePost::Sort { k: 1 },
        };
        let plan = DistancePlan { hot_dram: 0, cold_dram: 1024, out_dram: 4096 };
        let mut dram = Dram::new(1 << 15);
        dram.write_f32(plan.hot_dram, &lcg_fill(101, 4 * 8, -1.0, 1.0));
        dram.write_f32(plan.cold_dram, &lcg_fill(102, 32 * 8, -1.0, 1.0));
        let program = kernel.generate(cfg, &plan).expect("kmeans generates");
        cases.push(KernelCase {
            name: "kmeans",
            program,
            dram,
            outputs: vec![(plan.out_dram, 32 * 2)],
        });
    }

    // k-NN: 3 nearest of 16 references for each of 16 queries.
    {
        let kernel = DistanceKernel {
            name: "knn",
            features: 8,
            hot_rows: 16,
            cold_rows: 16,
            post: DistancePost::Sort { k: 3 },
        };
        let plan = DistancePlan { hot_dram: 0, cold_dram: 1024, out_dram: 4096 };
        let mut dram = Dram::new(1 << 15);
        dram.write_f32(plan.hot_dram, &lcg_fill(201, 16 * 8, -1.0, 1.0));
        dram.write_f32(plan.cold_dram, &lcg_fill(202, 16 * 8, -1.0, 1.0));
        let program = kernel.generate(cfg, &plan).expect("knn generates");
        cases.push(KernelCase {
            name: "knn",
            program,
            dram,
            outputs: vec![(plan.out_dram, 16 * 6)],
        });
    }

    // SVM prediction: RBF kernel values against 8 support vectors, then
    // the alpha-weighted sum.
    {
        let kernel = SvmPredict { features: 8, support_vectors: 8, queries: 16 };
        let plan = SvmPredictPlan {
            sv_dram: 0,
            query_dram: 1024,
            kernel_dram: 2048,
            alpha_dram: 3072,
            out_dram: 4096,
        };
        let mut dram = Dram::new(1 << 15);
        // Small feature scale keeps exp(-d) in the interpolator's sweet
        // spot.
        dram.write_f32(plan.sv_dram, &lcg_fill(301, 8 * 8, 0.0, 0.5));
        dram.write_f32(plan.query_dram, &lcg_fill(302, 16 * 8, 0.0, 0.5));
        dram.write_f32(plan.alpha_dram, &lcg_fill(303, 8, -1.0, 1.0));
        let program = kernel.generate(cfg, &plan).expect("svm generates");
        cases.push(KernelCase { name: "svm", program, dram, outputs: vec![(plan.out_dram, 16)] });
    }

    // Linear/logistic regression prediction: theta . x through a sigmoid.
    {
        let kernel = BroadcastDot {
            name: "lr",
            width: 16,
            cold_rows: 32,
            activation: Some(NonLinearFn::Sigmoid),
        };
        let plan = BroadcastPlan { hot_dram: 0, cold_dram: 1024, out_dram: 4096 };
        let mut dram = Dram::new(1 << 15);
        dram.write_f32(plan.hot_dram, &lcg_fill(401, 16, -0.5, 0.5));
        dram.write_f32(plan.cold_dram, &lcg_fill(402, 32 * 16, -1.0, 1.0));
        let program = kernel.generate(cfg, &plan).expect("lr generates");
        cases.push(KernelCase { name: "lr", program, dram, outputs: vec![(plan.out_dram, 32)] });
    }

    // DNN forward pass: 8-8-4 MLP over a batch of 4.
    {
        let widths = vec![8usize, 8, 4];
        let batch = 4usize;
        let kernel = MlpForward { widths: widths.clone(), batch, activation: NonLinearFn::Sigmoid };
        let plan = MlpForwardPlan { weights: vec![0, 512], activations: vec![1024, 2048, 3072] };
        let mut dram = Dram::new(1 << 15);
        dram.write_f32(plan.weights[0], &lcg_fill(501, 8 * 9, -0.5, 0.5));
        dram.write_f32(plan.weights[1], &lcg_fill(502, 4 * 9, -0.5, 0.5));
        // Augmented activation rows: element 0 is the constant 1.0.
        for (l, &base) in plan.activations.iter().enumerate() {
            let aug = widths[l] + 1;
            for b in 0..batch {
                dram.write_f32(base + (b * aug) as u64, &[1.0]);
            }
        }
        let inputs = lcg_fill(503, batch * 8, -1.0, 1.0);
        for b in 0..batch {
            dram.write_f32(plan.activations[0] + (b * 9) as u64 + 1, &inputs[b * 8..(b + 1) * 8]);
        }
        let last = *plan.activations.last().unwrap();
        let program = kernel.generate(cfg, &plan).expect("dnn generates");
        cases.push(KernelCase {
            name: "dnn",
            program,
            dram,
            outputs: vec![(last, (batch * (widths[2] + 1)) as u64)],
        });
    }

    // Naive Bayes prediction: product-reduce the gathered likelihood
    // rows into posterior scores.
    {
        let kernel = NbPredictKernel { rows: 24, width: 9 };
        let plan = NbPredictPlan { rows_dram: 0, out_dram: 4096 };
        let mut dram = Dram::new(1 << 15);
        dram.write_f32(plan.rows_dram, &lcg_fill(601, 24 * 9, 0.3, 1.0));
        let program = kernel.generate(cfg, &plan).expect("nb generates");
        cases.push(KernelCase { name: "nb", program, dram, outputs: vec![(plan.out_dram, 24)] });
    }

    // Classification tree: a depth-4 walk over 16 instances.
    {
        let kernel = TreeWalkKernel { depth: 4, features: 6, instances: 16 };
        let plan = TreeWalkPlan { tree_dram: 0, instances_dram: 1024, states_dram: 4096 };
        let mut tree = HeapTree::new(4);
        for i in 0..HeapTree::level_start(3) {
            tree.set_split(i, i % 6, 0.3 + 0.1 * ((i % 4) as f32));
        }
        for (j, i) in (HeapTree::level_start(3)..HeapTree::level_start(3) + HeapTree::level_len(3))
            .enumerate()
        {
            tree.set_leaf(i, j % 4);
        }
        let mut dram = Dram::new(1 << 15);
        dram.write_f32(plan.tree_dram, tree.words());
        dram.write_f32(plan.instances_dram, &lcg_fill(701, 16 * 6, 0.0, 1.0));
        // States start zeroed (all walkers at the root): Dram is
        // zero-initialised.
        let program = kernel.generate(cfg, &plan).expect("ct generates");
        cases.push(KernelCase { name: "ct", program, dram, outputs: vec![(plan.states_dram, 16)] });
    }

    cases
}

/// The fault plan one trial runs with: buffer upsets at the base rate,
/// the other sites scaled down so a typical trial sees a handful of
/// events rather than a storm.
fn trial_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan {
        seed,
        buffer_upset_rate: rate,
        dma_corruption_rate: rate * 0.25,
        ifetch_corruption_rate: rate * 0.125,
        lane_fault_rate: rate * 0.25,
        lane_stuck_at: None,
        alu_fault_rate: rate * 0.25,
    }
}

/// Output regions of a finished run, as raw bits (`f32::to_bits`, so NaN
/// patterns compare exactly).
fn capture_outputs(dram: &Dram, outputs: &[(u64, u64)]) -> Vec<u32> {
    outputs
        .iter()
        .flat_map(|&(addr, elems)| {
            dram.read_f32(addr, elems as usize).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        })
        .collect()
}

fn run_clean(cfg: &ArchConfig, case: &KernelCase) -> (Vec<u32>, u64) {
    let mut dram = case.dram.clone();
    let mut accel = Accelerator::new(cfg.clone()).expect("paper config is valid");
    let report = accel.run(&case.program, &mut dram).expect("clean run succeeds");
    (capture_outputs(&dram, &case.outputs), report.stats.cycles)
}

fn classify(
    result: Result<pudiannao_accel::RunReport, ExecError>,
    dram: &Dram,
    case: &KernelCase,
    golden: &[u32],
) -> OutcomeCounts {
    let mut counts = OutcomeCounts::default();
    match result {
        Err(e) if e.is_fault_detection() => counts.detected += 1,
        Err(_) => counts.crash += 1,
        Ok(report) => {
            let fault = report.fault.expect("faults were enabled");
            if capture_outputs(dram, &case.outputs) == golden {
                if fault.corrected > 0 {
                    counts.corrected += 1;
                } else {
                    counts.masked += 1;
                }
            } else {
                counts.sdc += 1;
            }
        }
    }
    counts
}

/// The graceful-degradation scenario: a stuck-at lane 0 on the k-Means
/// kernel with detection + masking fitted must finish with
/// correct-within-tolerance outputs at a measurably higher cycle count.
fn degradation_json(cfg: &ArchConfig, seed: u64) -> Value {
    let case = &kernel_cases(cfg)[0];
    assert_eq!(case.name, "kmeans");
    let (golden_bits, baseline_cycles) = run_clean(cfg, case);
    let golden: Vec<f32> = golden_bits.iter().map(|&b| f32::from_bits(b)).collect();

    let mut accel = Accelerator::builder(cfg.clone())
        .faults(FaultConfig {
            plan: FaultPlan { lane_stuck_at: Some(0), ..FaultPlan::quiet(seed) },
            hardening: Hardening::secded(),
        })
        .build()
        .expect("paper config is valid");
    let mut dram = case.dram.clone();
    let report = accel.run(&case.program, &mut dram).expect("masked lane still completes");
    let fault = report.fault.expect("faults were enabled");
    let got: Vec<f32> =
        capture_outputs(&dram, &case.outputs).iter().map(|&b| f32::from_bits(b)).collect();
    let max_rel_err = got
        .iter()
        .zip(&golden)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0f32, f32::max);
    let ok =
        fault.lanes_masked == 1 && report.stats.cycles > baseline_cycles && max_rel_err <= 0.05;
    Value::object()
        .with("kernel", case.name)
        .with("lanes_masked", u64::from(fault.lanes_masked))
        .with("baseline_cycles", baseline_cycles)
        .with("degraded_cycles", report.stats.cycles)
        .with("fault_overhead_cycles", fault.overhead_cycles)
        .with("max_rel_err", f64::from(max_rel_err))
        .with("within_tolerance", ok)
}

/// Runs the full campaign (12 trials per cell at rates 0.02, 0.1 and 0.4)
/// and returns `(json, per-arm totals)`. The JSON is byte-identical at
/// any worker count.
#[must_use]
pub fn run_campaign() -> (Value, Vec<(&'static str, OutcomeCounts)>) {
    campaign(TRIALS, &RATES)
}

/// The campaign at `trials` per cell over `rates`, from the one seed.
fn campaign(trials: usize, rates: &[f64]) -> (Value, Vec<(&'static str, OutcomeCounts)>) {
    let cfg = ArchConfig::paper_default();
    let arms: [(&'static str, Hardening); 2] =
        [("unhardened", Hardening::default()), ("secded", Hardening::secded())];
    let cases = kernel_cases(&cfg);
    let goldens: Vec<Vec<u32>> = cases.iter().map(|c| run_clean(&cfg, c).0).collect();

    // One job per (arm, kernel, rate) cell; results come back in job
    // order, so serialisation below is scheduling-independent.
    struct Cell {
        arm: usize,
        kernel: usize,
        rate: usize,
    }
    let mut cells = Vec::new();
    for arm in 0..arms.len() {
        for kernel in 0..cases.len() {
            for rate in 0..rates.len() {
                cells.push(Cell { arm, kernel, rate });
            }
        }
    }
    let jobs: Vec<_> = cells
        .iter()
        .map(|cell| {
            let hardening = arms[cell.arm].1;
            let case = &cases[cell.kernel];
            let golden = &goldens[cell.kernel];
            let rate = rates[cell.rate];
            let cfg = &cfg;
            move || {
                let mut counts = OutcomeCounts::default();
                for trial in 0..trials {
                    let plan =
                        trial_plan(trial_seed(SEED, cell.arm, cell.kernel, cell.rate, trial), rate);
                    let mut accel = Accelerator::builder(cfg.clone())
                        .faults(FaultConfig { plan, hardening })
                        .build()
                        .expect("paper config is valid");
                    let mut dram = case.dram.clone();
                    let result = accel.run(&case.program, &mut dram);
                    counts.add(&classify(result, &dram, case, golden));
                }
                counts
            }
        })
        .collect();
    let results = run_indexed(jobs);

    let mut cell_json = Vec::new();
    let mut totals: Vec<(&'static str, OutcomeCounts)> =
        arms.iter().map(|&(name, _)| (name, OutcomeCounts::default())).collect();
    for (cell, counts) in cells.iter().zip(&results) {
        totals[cell.arm].1.add(counts);
        cell_json.push(
            Value::object()
                .with("arm", arms[cell.arm].0)
                .with("kernel", cases[cell.kernel].name)
                .with("rate", rates[cell.rate])
                .with("outcomes", counts.to_json()),
        );
    }

    let mut totals_json = Value::object();
    for (name, counts) in &totals {
        totals_json.set(*name, counts.to_json());
    }
    let json = Value::object()
        .with("seed", SEED)
        .with("trials_per_cell", trials)
        .with("rates", Value::array(rates.iter().map(|&r| Value::from(r)).collect()))
        .with("kernels", Value::array(cases.iter().map(|c| Value::from(c.name)).collect()))
        .with("cells", Value::array(cell_json))
        .with("totals", totals_json)
        .with("degradation", degradation_json(&cfg, SEED));
    (json, totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_well_spread() {
        let mut seen = std::collections::HashSet::new();
        for arm in 0..2 {
            for kernel in 0..7 {
                for rate in 0..3 {
                    for trial in 0..4 {
                        assert!(seen.insert(trial_seed(1, arm, kernel, rate, trial)));
                    }
                }
            }
        }
    }

    #[test]
    fn lcg_fill_is_deterministic_and_bounded() {
        let a = lcg_fill(7, 64, -1.0, 1.0);
        assert_eq!(a, lcg_fill(7, 64, -1.0, 1.0));
        assert_ne!(a, lcg_fill(8, 64, -1.0, 1.0));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn all_seven_kernels_run_clean() {
        let cfg = ArchConfig::paper_default();
        let cases = kernel_cases(&cfg);
        let names: Vec<_> = cases.iter().map(|c| c.name).collect();
        assert_eq!(names, ["kmeans", "knn", "svm", "lr", "dnn", "nb", "ct"]);
        for case in &cases {
            let (bits, cycles) = run_clean(&cfg, case);
            assert!(cycles > 0, "{}", case.name);
            assert!(!bits.is_empty(), "{}", case.name);
            // Clean runs are reproducible.
            assert_eq!(bits, run_clean(&cfg, case).0, "{}", case.name);
        }
    }

    #[test]
    fn ct_states_decode_to_reference_classes() {
        let cfg = ArchConfig::paper_default();
        let case = &kernel_cases(&cfg)[6];
        assert_eq!(case.name, "ct");
        let mut dram = case.dram.clone();
        let mut accel = Accelerator::new(cfg).unwrap();
        accel.run(&case.program, &mut dram).unwrap();
        let states = dram.read_f32(4096, 16);
        assert!(states.iter().all(|&s| TreeWalkKernel::decode_state(s).is_some()));
    }

    /// The full campaign never crashes (`fault_campaign.json` pins its
    /// tallies), so this smaller, hotter one pins the crash outcome: 4
    /// trials per cell at rate 0.25 reach all five classes.
    #[test]
    fn smoke_campaign_hits_every_interesting_outcome() {
        let (json, totals) = campaign(4, &[0.25]);
        let mut all = OutcomeCounts::default();
        for (_, c) in &totals {
            all.add(c);
        }
        assert_eq!(
            (all.masked, all.corrected, all.detected, all.sdc, all.crash),
            (19, 3, 12, 21, 1),
            "(masked, corrected, detected, sdc, crash) over 2 arms x 7 kernels x 4 trials"
        );
        let degradation = json.get("degradation").unwrap();
        assert_eq!(degradation.get("within_tolerance"), Some(&Value::Bool(true)));
        // Determinism: the whole report reproduces byte-for-byte.
        let (again, _) = campaign(4, &[0.25]);
        assert_eq!(json.to_string_pretty(), again.to_string_pretty());
    }
}
