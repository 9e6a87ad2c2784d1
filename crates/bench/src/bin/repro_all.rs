//! Runs every reproduction experiment and writes `repro_summary.json`
//! plus `phase_reports.json` (one machine-readable `RunReport` per
//! Figure-15 phase).
//!
//! Usage: `repro_all` (no arguments). Each experiment prints under its
//! `==== <id>: <title> ====` banner.
//!
//! The experiments are independent, so they run on the
//! `pudiannao_serve::pool` worker pool (capped by `REPRO_THREADS`;
//! set it to 1 for fully sequential console output). Results are
//! collected in experiment order, so both JSON files are byte-identical
//! whatever the worker count — only the interleaving of the progress
//! lines on stdout changes.

use pudiannao_accel::json::{self, Value};
use pudiannao_bench::{evaluation, locality, ExperimentReport};
use pudiannao_serve::pool::{run_indexed, worker_count};

type Job = Box<dyn FnOnce() -> ExperimentReport + Send>;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unexpected argument {arg:?} (usage: repro_all, no arguments)");
        std::process::exit(2);
    }
    let jobs: Vec<Job> = vec![
        Box::new(locality::fig02_knn_tiling),
        Box::new(locality::fig04_kmeans_tiling),
        Box::new(locality::fig05_dnn_tiling),
        Box::new(locality::fig08_lr_tiling),
        Box::new(locality::fig09_svm_tiling),
        Box::new(locality::fig10_reuse_distance),
        Box::new(evaluation::table1_precision),
        Box::new(evaluation::table3_codegen),
        Box::new(evaluation::table5_layout),
        Box::new(evaluation::fig14_floorplan),
        Box::new(evaluation::fig13_gpu_vs_cpu),
        Box::new(evaluation::fig15_speedup),
        Box::new(evaluation::fig16_energy),
        Box::new(evaluation::ablation_buffers),
        Box::new(evaluation::ablation_sorter),
        Box::new(evaluation::ablation_interp),
        Box::new(evaluation::ablation_scaling),
        Box::new(evaluation::time_fractions),
    ];
    let workers = worker_count(jobs.len());
    if workers > 1 {
        println!("running {} experiments on {workers} workers", jobs.len());
    }
    let reports = run_indexed(jobs);
    let summary = Value::array(reports.iter().map(ExperimentReport::to_json).collect());
    write_or_exit("repro_summary.json", &summary);
    println!("\nwrote repro_summary.json ({} experiments)", reports.len());

    write_or_exit("phase_reports.json", &evaluation::phase_reports_json());
    println!("wrote phase_reports.json (13 per-phase run reports)");
}

fn write_or_exit(path: &str, doc: &Value) {
    if let Err(e) = json::write_file(path, doc) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
