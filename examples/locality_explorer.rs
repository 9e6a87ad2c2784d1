//! Explore the Section-2 tiling space: how the k-NN bandwidth requirement
//! responds to tile size and cache capacity.
//!
//! Run with: `cargo run --release --example locality_explorer`

use pudiannao::memsim::kernels::{knn, run_fresh};
use pudiannao::memsim::CacheConfig;

fn main() {
    let shape = knn::DistanceShape { testing: 128, reference: 1024, features: 32 };
    let base = CacheConfig::paper_default();
    let untiled = run_fresh(&knn::Untiled { shape }, &base).report();
    println!(
        "k-NN distance kernel, {} testing x {} reference x {} features",
        shape.testing, shape.reference, shape.features
    );
    println!("untiled: {untiled}\n");

    println!("tile-size sweep (square tiles, 32 KB cache):");
    println!("  {:<8} {:>12} {:>12}", "tile", "GB/s", "reduction %");
    for tile in [4usize, 8, 16, 32, 64, 128] {
        let tiled = run_fresh(&knn::Tiled::bandwidth(shape, tile, tile), &base).report();
        println!("  {:<8} {:>12.3} {:>12.1}", tile, tiled.gb_per_s(), tiled.reduction_vs(&untiled));
    }

    println!("\ncache-capacity sweep (32x32 tiles):");
    println!("  {:<8} {:>12} {:>12}", "KiB", "GB/s", "reduction %");
    for kib in [8u32, 16, 32, 64, 128] {
        let cfg = CacheConfig { capacity_bytes: kib * 1024, ..base.clone() };
        let u = run_fresh(&knn::Untiled { shape }, &cfg).report();
        let t = run_fresh(&knn::Tiled::bandwidth(shape, 32, 32), &cfg).report();
        println!("  {:<8} {:>12.3} {:>12.1}", kib, t.gb_per_s(), t.reduction_vs(&u));
    }

    println!(
        "\nThe paper's choice — 32x32 tiles against a 32 KB cache — sits at the\n\
         knee: smaller tiles lose reuse to control overhead, larger tiles no\n\
         longer fit both operand blocks, and extra capacity buys little."
    );
}
