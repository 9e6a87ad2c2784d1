//! `repro-all`: what the `repro_all` binary computes — its 18
//! experiments, called in its order through
//! `pudiannao_bench::{locality, evaluation}`, then the per-phase run
//! reports it writes to `phase_reports.json`. The inputs are the paper's
//! fixed shapes, so this workload has no seed.
//!
//! The traced split times each experiment call, then re-runs the
//! experiments' heaviest parts layer by layer from outside: fig09's
//! shapes through memsim generation, packing and the cache pass; table1's
//! `mlkit` fits per technique.

use crate::measure::{repeat_for, setup, timed, Checks, Measured, Metric, Samples};
use pudiannao_accel::json::{self, Value};
use pudiannao_bench::{evaluation, locality, ExperimentReport};
use pudiannao_datasets::{synth, train_test_split, Dataset, Matrix};
use pudiannao_memsim::kernels::{svm, TraceSink};
use pudiannao_memsim::{batch, Access, AccessBlock, BandwidthReport, Cache, CacheConfig, Workload};
use pudiannao_mlkit::metrics::{accuracy, cluster_purity, mse};
use pudiannao_mlkit::{dnn, kmeans, knn, linreg, svm as svm_fit, Precision};
use std::time::Instant;

/// The layer an experiment's wall-clock is attributed to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// A Section-2 memsim figure, reported on its own row.
    Memsim(&'static str),
    /// Table 1's `mlkit` training grid.
    Mlkit,
    /// Tables 3/5, Figures 13–16 and the Section-2 time shares (plus the
    /// phase reports): codegen analytic model and layout arithmetic.
    Codegen,
    /// The four design-choice ablations.
    Ablation,
}

type Experiment = (fn() -> ExperimentReport, Layer);

/// The `repro_all` job list, in its order (fig02 … section2-time).
const EXPERIMENTS: [Experiment; 18] = [
    (locality::fig02_knn_tiling, Layer::Memsim("memsim.fig02_s")),
    (locality::fig04_kmeans_tiling, Layer::Memsim("memsim.fig04_s")),
    (locality::fig05_dnn_tiling, Layer::Memsim("memsim.fig05_s")),
    (locality::fig08_lr_tiling, Layer::Memsim("memsim.fig08_s")),
    (locality::fig09_svm_tiling, Layer::Memsim("memsim.fig09_s")),
    (locality::fig10_reuse_distance, Layer::Memsim("memsim.fig10_s")),
    (evaluation::table1_precision, Layer::Mlkit),
    (evaluation::table3_codegen, Layer::Codegen),
    (evaluation::table5_layout, Layer::Codegen),
    (evaluation::fig14_floorplan, Layer::Codegen),
    (evaluation::fig13_gpu_vs_cpu, Layer::Codegen),
    (evaluation::fig15_speedup, Layer::Codegen),
    (evaluation::fig16_energy, Layer::Codegen),
    (evaluation::ablation_buffers, Layer::Ablation),
    (evaluation::ablation_sorter, Layer::Ablation),
    (evaluation::ablation_interp, Layer::Ablation),
    (evaluation::ablation_scaling, Layer::Ablation),
    (evaluation::time_fractions, Layer::Codegen),
];

/// The committed outputs this workload must reproduce byte for byte.
struct Pins {
    summary_text: String,
    summary: Value,
    phase_reports_text: String,
}

fn load_pins() -> Pins {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading committed {path}: {e}"))
    };
    let summary_text = read("repro_summary.json");
    let summary = json::parse(&summary_text).expect("repro_summary.json parses");
    Pins { summary_text, summary, phase_reports_text: read("phase_reports.json") }
}

/// The `measured` value of the check named `metric` in experiment `id`.
fn pinned(pins: &Pins, id: &str, metric: &str) -> Option<f64> {
    pins.summary
        .as_array()?
        .iter()
        .find(|e| e.get("id").and_then(Value::as_str) == Some(id))?
        .get("checks")?
        .as_array()?
        .iter()
        .find(|c| c.get("metric").and_then(Value::as_str) == Some(metric))?
        .get("measured")?
        .as_f64()
}

/// The summary file `repro_all` writes for these reports.
fn summary_text(reports: &[ExperimentReport]) -> String {
    Value::array(reports.iter().map(ExperimentReport::to_json).collect()).to_string_pretty()
}

/// The phase reports `repro_all` writes. Unlike Figures 13/15/16, which
/// share a table computed once per process, these are modelled afresh on
/// every call, so every pass pays the analytic model at paper scale.
fn phase_reports() -> String {
    evaluation::phase_reports_json().to_string_pretty()
}

/// One untraced pass: the 18 experiments and the phase reports.
fn run_all() -> (Vec<ExperimentReport>, String) {
    (EXPERIMENTS.iter().map(|(job, _)| job()).collect(), phase_reports())
}

fn check_outputs(
    pins: &Pins,
    (reports, phases): &(Vec<ExperimentReport>, String),
    checks: &mut Checks,
) {
    checks
        .check("repro_summary.json is byte-identical", summary_text(reports) == pins.summary_text);
    checks.check("phase_reports.json is byte-identical", *phases == pins.phase_reports_text);
}

/// Untraced run: each pass loads the pins (set-up), then times each of
/// its calls.
pub fn run(seconds: f64, checks: &mut Checks) -> Measured {
    let mut m = Measured::new(("repro.experiments", EXPERIMENTS.len() as u64));
    repeat_for(seconds, || {
        let (pins, setup_s) = setup(load_pins);
        let mut parts = Vec::with_capacity(EXPERIMENTS.len() + 1);
        let reports = EXPERIMENTS
            .iter()
            .map(|(job, _)| {
                let (report, secs) = timed(job);
                parts.push(secs);
                report
            })
            .collect();
        let (phases, secs) = timed(phase_reports);
        parts.push(secs);
        check_outputs(&pins, &(reports, phases), checks);
        m.push(setup_s, parts);
    });
    m
}

/// Traced run: per-experiment spans plus the fig09 and table1 splits,
/// alternated with passes timed whole for the tracing overhead.
pub fn trace(seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let pins = load_pins();
    // Warm-up: fills the per-process phase table Figures 13/15/16 share.
    check_outputs(&pins, &run_all(), checks);
    let mut s = Samples::default();
    let mut accesses = 0;
    repeat_for(seconds, || {
        let (outputs, untraced) = timed(run_all);
        check_outputs(&pins, &outputs, checks);
        s.add("untraced", untraced);

        let start = Instant::now();
        let (mut mlkit, mut codegen, mut ablations) = (0.0, 0.0, 0.0);
        let mut reports = Vec::with_capacity(EXPERIMENTS.len());
        for (job, layer) in EXPERIMENTS {
            let (report, secs) = timed(job);
            reports.push(report);
            match layer {
                Layer::Memsim(row) => s.add(row, secs),
                Layer::Mlkit => mlkit += secs,
                Layer::Codegen => codegen += secs,
                Layer::Ablation => ablations += secs,
            }
        }
        let (phases, secs) = timed(phase_reports);
        codegen += secs;
        s.add("traced", start.elapsed().as_secs_f64());
        check_outputs(&pins, &(reports, phases), checks);
        s.add("mlkit.table1_s", mlkit);
        s.add("codegen.figures_s", codegen);
        s.add("bench.ablations_s", ablations);

        accesses = fig09_split(&pins, checks, &mut s);
        table1_split(&pins, checks, &mut s);
    });

    let fig09 = format!("memsim.accesses={accesses}");
    let experiment = "repro.experiments=1";
    let rate = |name: &str, secs: &str| {
        Metric::new(name, accesses as f64 / s.best(secs) / 1e6, "Maccesses/s", &fig09)
    };
    let mut out = vec![
        rate("memsim.gen_maccesses_per_s", "memsim.gen_s"),
        rate("memsim.pack_maccesses_per_s", "memsim.pack_s"),
        rate("memsim.cache_maccesses_per_s", "memsim.cache_s"),
        Metric::count("memsim.accesses", accesses, "count"),
    ];
    for name in ["memsim.gen_s", "memsim.pack_s", "memsim.cache_s"] {
        out.push(Metric::new(name, s.best(name), "s", &fig09));
    }
    for (_, layer) in EXPERIMENTS {
        if let Layer::Memsim(row) = layer {
            out.push(Metric::new(row, s.best(row), "s", experiment));
        }
    }
    out.push(Metric::new("mlkit.table1_s", s.best("mlkit.table1_s"), "s", experiment));
    for name in ["mlkit.svm_s", "mlkit.knn_s", "mlkit.kmeans_s", "mlkit.linreg_s", "mlkit.dnn_s"] {
        out.push(Metric::new(name, s.best(name), "s", format!("mlkit.fits={}", PRECISIONS.len())));
    }
    out.push(Metric::count("mlkit.fits", 5 * PRECISIONS.len() as u64, "count"));
    let count = |layer: Layer| EXPERIMENTS.iter().filter(|e| e.1 == layer).count();
    out.push(Metric::new(
        "codegen.figures_s",
        s.best("codegen.figures_s"),
        "s",
        format!("repro.experiments={} repro.phase_reports=1", count(Layer::Codegen)),
    ));
    out.push(Metric::new(
        "bench.ablations_s",
        s.best("bench.ablations_s"),
        "s",
        format!("repro.experiments={}", count(Layer::Ablation)),
    ));
    out.push(Metric::new(
        "trace.overhead_repro_all_s",
        s.best("traced") - s.best("untraced"),
        "s",
        format!("repro.experiments={}", EXPERIMENTS.len()),
    ));
    out
}

/// Counts a trace's operand accesses and nothing else: generation alone.
#[derive(Default)]
struct CountSink {
    ops: u64,
    accesses: u64,
}

impl TraceSink for CountSink {
    fn op(&mut self, operands: &[Access]) {
        self.ops += 1;
        self.accesses += operands.len() as u64;
    }
}

/// Packs ops into a block cleared every `batch::FLUSH_ACCESSES` entries —
/// the chunking of the production `run_buffered` path — and streams each
/// full block through the cache pass, timing only that pass.
struct PackSink {
    block: AccessBlock,
    cache: Cache,
    cache_s: f64,
}

impl PackSink {
    fn flush(&mut self) {
        if !self.block.is_empty() {
            let t = Instant::now();
            self.cache.access_soa(&self.block);
            self.cache_s += t.elapsed().as_secs_f64();
            self.block.clear();
        }
    }
}

impl TraceSink for PackSink {
    fn op(&mut self, operands: &[Access]) {
        self.block.push_op(operands);
        if self.block.len() >= batch::FLUSH_ACCESSES {
            self.flush();
        }
    }
}

/// fig09's two shapes (SVM kernel matrix, 2048 x 32) split into
/// generation, packing and the cache pass. Generation is timed into a
/// counting sink; packing is the remainder of a pack-and-simulate pass
/// once generation and the cache pass are taken out. Returns the operand
/// accesses of both traces.
fn fig09_split(pins: &Pins, checks: &mut Checks, s: &mut Samples) -> u64 {
    let cfg = CacheConfig::paper_default();
    let shape = svm::KernelMatrixShape { train: 2048, features: 32 };
    let untiled = svm::Untiled { shape };
    let tiled = svm::Tiled { shape, ti: 32, tj: 32 };
    let (mut gen_s, mut pack_s, mut cache_s, mut accesses) = (0.0, 0.0, 0.0, 0);
    let mut reports = Vec::with_capacity(2);
    for w in [&untiled as &dyn Workload, &tiled] {
        let (counts, gen) = timed(|| {
            let mut sink = CountSink::default();
            w.trace(&mut sink);
            sink
        });
        let (sink, total) = timed(|| {
            let mut sink = PackSink {
                block: AccessBlock::with_capacity(cfg.line_bytes, batch::FLUSH_ACCESSES + 32),
                cache: Cache::new(cfg.clone()).expect("paper cache config is valid"),
                cache_s: 0.0,
            };
            w.trace(&mut sink);
            sink.flush();
            sink
        });
        gen_s += gen;
        cache_s += sink.cache_s;
        pack_s += total - gen - sink.cache_s;
        accesses += counts.accesses;
        let stats = sink.cache.stats();
        reports.push(BandwidthReport {
            cycles: counts.ops,
            ops: counts.ops,
            offchip_bytes: stats.offchip_bytes(),
            offchip_read_bytes: stats.offchip_read_bytes,
            offchip_write_bytes: stats.offchip_write_bytes,
        });
    }
    let reduction = reports[1].reduction_vs(&reports[0]);
    checks.check(
        "fig09 split reproduces the pinned bandwidth reduction",
        pinned(pins, "fig09", "bandwidth reduction from tiling (%)") == Some(reduction),
    );
    s.add("memsim.gen_s", gen_s);
    s.add("memsim.pack_s", pack_s);
    s.add("memsim.cache_s", cache_s);
    accesses
}

const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16All, Precision::Mixed];

/// Table 1's five technique cells (fit and score, per precision), with
/// `table1_precision`'s datasets and configs, each timed over the three
/// precisions. The normalised accuracies must equal the pinned table.
fn table1_split(pins: &Pins, checks: &mut Checks, s: &mut Samples) {
    let raw = synth::gaussian_blobs(&synth::BlobsConfig {
        instances: 250,
        features: 784,
        classes: 5,
        spread: 0.3,
        seed: 13,
    });
    let scaled: Vec<f32> = raw.features.as_slice().iter().map(|v| v * 50.0).collect();
    let raw = Dataset::new(Matrix::from_vec(scaled, raw.features.rows(), 784), raw.labels.clone());
    let raw_split = train_test_split(&raw, 0.3, 3);
    let data = synth::gaussian_blobs(&synth::BlobsConfig {
        instances: 300,
        features: 8,
        classes: 2,
        spread: 0.15,
        seed: 13,
    });
    let split = train_test_split(&data, 0.3, 3);
    let blob4 = synth::gaussian_blobs(&synth::BlobsConfig {
        instances: 400,
        features: 8,
        classes: 4,
        spread: 0.08,
        seed: 11,
    });
    let (reg, _) = synth::linear_teacher(300, 16, 0.0, 7);

    let svm_acc = |precision| {
        let cfg = svm_fit::SvmConfig {
            kernel: svm_fit::Kernel::Rbf { gamma: 4e-7 },
            precision,
            max_iters: 40,
            ..Default::default()
        };
        let m = svm_fit::SvmClassifier::fit(&raw_split.train, cfg).expect("svm fit");
        accuracy(&m.predict(&raw_split.test.features).expect("svm predict"), &raw_split.test.labels)
    };
    let knn_acc = |precision| {
        let cfg = knn::KnnConfig { k: 5, precision, ..Default::default() };
        let m = knn::KnnClassifier::fit(&split.train, cfg).expect("knn fit");
        accuracy(&m.predict(&split.test.features).expect("knn predict"), &split.test.labels)
    };
    let km_acc = |precision| {
        let cfg = kmeans::KMeansConfig {
            k: 4,
            seed: 2,
            precision,
            init: kmeans::KMeansInit::PlusPlus,
            ..Default::default()
        };
        let m = kmeans::KMeans::fit(&blob4.features, cfg).expect("kmeans fit");
        cluster_purity(m.assignments(), &blob4.labels)
    };
    let lr_quality = |precision| {
        let cfg = linreg::LinRegConfig {
            epochs: 500,
            learning_rate: 0.1,
            precision,
            ..Default::default()
        };
        let m = linreg::LinearRegression::fit(&reg, cfg).expect("lr fit");
        1.0 / (1.0 + mse(&m.predict(&reg.features).expect("lr predict"), &reg.labels) * 1e4)
    };
    let dnn_acc = |precision| {
        let cfg = dnn::MlpConfig { seed: 4, precision, epochs: 40, ..Default::default() };
        let mut m = dnn::Mlp::new(8, 2, &cfg).expect("mlp new");
        m.train(&split.train).expect("mlp train");
        accuracy(&m.predict(&split.test.features).expect("mlp predict"), &split.test.labels)
    };

    type Cell<'a> = (&'a str, &'static str, &'a dyn Fn(Precision) -> f64);
    let cells: [Cell<'_>; 5] = [
        ("SVM", "mlkit.svm_s", &svm_acc),
        ("k-NN", "mlkit.knn_s", &knn_acc),
        ("k-Means", "mlkit.kmeans_s", &km_acc),
        ("LR", "mlkit.linreg_s", &lr_quality),
        ("DNN", "mlkit.dnn_s", &dnn_acc),
    ];
    for (label, row, cell) in cells {
        let ([base, all16, mixed], secs) = timed(|| PRECISIONS.map(cell));
        s.add(row, secs);
        let n16 = 100.0 * all16 / base.max(1e-9);
        let nmx = 100.0 * mixed / base.max(1e-9);
        checks.check(
            &format!("table1 {label} cells reproduce the pinned accuracies"),
            pinned(pins, "table1", &format!("{label} all-16 accuracy (% of fp32)")) == Some(n16)
                && pinned(pins, "table1", &format!("{label} mixed accuracy (% of fp32)"))
                    == Some(nmx),
        );
    }
}
