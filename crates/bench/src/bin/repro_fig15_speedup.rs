//! Regenerates the paper experiment; see `pudiannao_bench::evaluation`.
//! Also writes `phase_reports.json`: one machine-readable `RunReport` per
//! phase, with the per-stage busy-cycle and DMA descriptor breakdowns.
fn main() {
    let _ = pudiannao_bench::evaluation::fig15_speedup();
    let json = pudiannao_bench::evaluation::phase_reports_json();
    if let Err(e) = std::fs::write("phase_reports.json", json.to_string_pretty()) {
        eprintln!("error: cannot write phase_reports.json: {e}");
        std::process::exit(1);
    }
    println!("\nwrote phase_reports.json (13 per-phase run reports)");
}
