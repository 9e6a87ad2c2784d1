//! End-to-end pipelines on the accelerator vs the golden software: a full
//! multi-layer MLP feedforward pass and SVM prediction, composed from the
//! code generator's building blocks.

use pudiannao::accel::{Accelerator, ArchConfig, Dram};
use pudiannao::codegen::pipelines::{
    kmeans_update_program, MlpForward, MlpForwardPlan, SvmPredict, SvmPredictPlan,
};
use pudiannao::datasets::synth;
use pudiannao::mlkit::{dnn, svm, Precision};
use pudiannao::softfp::NonLinearFn;

mod common;

#[test]
fn mlp_forward_on_accelerator_matches_mlkit() {
    // Train a small sigmoid MLP in software, export its weights, and run
    // the whole feedforward pass on the accelerator.
    let data = synth::gaussian_blobs(&synth::BlobsConfig {
        instances: 120,
        features: 12,
        classes: 3,
        spread: 0.1,
        seed: 6,
    });
    let cfg_mlp = dnn::MlpConfig { hidden: vec![10, 7], epochs: 30, seed: 2, ..Default::default() };
    let mut mlp = dnn::Mlp::new(12, 3, &cfg_mlp).expect("builds");
    mlp.train(&data).expect("trains");

    let widths = mlp.widths(); // [12, 10, 7, 3]
    let batch = 16usize;
    let net = MlpForward { widths: widths.clone(), batch, activation: NonLinearFn::Sigmoid };

    // DRAM layout: augmented weights per layer, augmented activations per
    // layer.
    let mut dram = Dram::new(1 << 20);
    let mut at = 0u64;
    let mut weight_bases = Vec::new();
    for layer in mlp.layers() {
        weight_bases.push(at);
        for o in 0..layer.outputs() {
            let mut row = Vec::with_capacity(layer.inputs() + 1);
            row.push(layer.bias()[o]);
            row.extend_from_slice(layer.weights().row(o));
            dram.write_f32(at, &row);
            at += row.len() as u64;
        }
    }
    let mut act_bases = Vec::new();
    for (l, &w) in widths.iter().enumerate() {
        act_bases.push(at);
        for b in 0..batch {
            let mut row = vec![0.0f32; w + 1];
            row[0] = 1.0; // the augmented constant
            if l == 0 {
                row[1..].copy_from_slice(data.instance(b));
            }
            dram.write_f32(at, &row);
            at += row.len() as u64;
        }
    }

    let cfg = ArchConfig::paper_default();
    let plan = MlpForwardPlan { weights: weight_bases, activations: act_bases.clone() };
    let program = net.generate(&cfg, &plan).expect("generates");
    let report = Accelerator::new(cfg).unwrap().run(&program, &mut dram).expect("runs");
    assert!(report.stats.instructions >= (widths.len() as u64 - 1) * batch as u64);

    // Every instance's output layer must match the software forward pass
    // to fp16-datapath tolerance.
    for b in 0..batch {
        let out_base = act_bases[widths.len() - 1] + (b * (widths[3] + 1)) as u64 + 1;
        let got = dram.read_f32(out_base, widths[3]);
        let expect = mlp.forward(data.instance(b)).expect("software forward");
        for (j, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() < 2e-2,
                "instance {b} output {j}: accelerator {g} vs software {e}"
            );
        }
    }
    // Every hidden and output activation the program wrote.
    let written = (at - act_bases[1]) as usize;
    assert_eq!(
        common::fnv1a(dram.slice(act_bases[1], written)),
        0x9ab2_8be1_e500_aa8e,
        "MLP activation words moved"
    );
}

#[test]
fn svm_prediction_on_accelerator_matches_mlkit_decision() {
    let data = synth::gaussian_blobs(&synth::BlobsConfig {
        instances: 120,
        features: 16,
        classes: 2,
        spread: 0.15,
        seed: 8,
    });
    let y: Vec<f32> = data.labels.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
    // gamma = 1 so the Misc-stage exp(-d) table applies directly.
    let cfg_svm = svm::SvmConfig {
        kernel: svm::Kernel::Rbf { gamma: 1.0 },
        precision: Precision::Mixed,
        ..Default::default()
    };
    let model = svm::BinarySvm::fit(&data.features, &y, cfg_svm).expect("fits");
    let svs = model.support_vectors();
    assert!(svs > 0 && svs * 16 <= 2048, "SV set must fit the HotBuf half for this test");

    // The accelerator needs the raw support vectors and alpha_y values;
    // reconstruct them by re-running fit bookkeeping through the public
    // decision function is impossible, so drive the pipeline with a
    // synthetic model instead: random "support vectors" and alphas.
    let mut dram = Dram::new(1 << 20);
    let n_sv = 40usize;
    let n_q = 24usize;
    let mut sv_rows = Vec::new();
    for i in 0..n_sv {
        let row = data.instance(i).to_vec();
        dram.write_f32((i * 16) as u64, &row);
        sv_rows.push(row);
    }
    let alphas: Vec<f32> = (0..n_sv).map(|i| if i % 2 == 0 { 0.8 } else { -0.6 }).collect();
    dram.write_f32(50_000, &alphas);
    let mut queries = Vec::new();
    for q in 0..n_q {
        let row = data.instance(60 + q).to_vec();
        dram.write_f32(100_000 + (q * 16) as u64, &row);
        queries.push(row);
    }

    let pipeline = SvmPredict { features: 16, support_vectors: n_sv, queries: n_q };
    let plan = SvmPredictPlan {
        sv_dram: 0,
        query_dram: 100_000,
        kernel_dram: 200_000,
        alpha_dram: 50_000,
        out_dram: 400_000,
    };
    let cfg = ArchConfig::paper_default();
    let program = pipeline.generate(&cfg, &plan).expect("generates");
    Accelerator::new(cfg).unwrap().run(&program, &mut dram).expect("runs");

    for (q, query) in queries.iter().enumerate() {
        let got = dram.read_f32(400_000 + q as u64, 1)[0];
        let expect: f32 = sv_rows
            .iter()
            .zip(&alphas)
            .map(|(sv, &a)| {
                let d: f32 = sv.iter().zip(query).map(|(x, z)| (x - z) * (x - z)).sum();
                a * (-d).exp()
            })
            .sum();
        assert!((got - expect).abs() < 0.05, "query {q}: accelerator {got} vs software {expect}");
    }
    let mut words = dram.read_f32(200_000, n_q * n_sv);
    words.extend_from_slice(dram.slice(400_000, n_q));
    assert_eq!(common::fnv1a(&words), 0x5d9f_7e86_e968_ed7b, "SVM kernel and decision words moved");
}

#[test]
fn full_lloyd_iteration_on_accelerator() {
    use pudiannao::codegen::distance::{DistanceKernel, DistancePlan, DistancePost};
    let data = synth::gaussian_blobs(&synth::BlobsConfig {
        instances: 256,
        features: 8,
        classes: 4,
        spread: 0.05,
        seed: 12,
    });
    let cfg = ArchConfig::paper_default();
    let mut dram = Dram::new(1 << 20);
    // Initial centroids: the first instance of each class.
    let init: Vec<usize> = (0..4).collect();
    for (c, &i) in init.iter().enumerate() {
        dram.write_f32((c * 8) as u64, data.instance(i));
    }
    for (i, row) in data.features.iter_rows().enumerate() {
        dram.write_f32(10_000 + (i * 8) as u64, row);
    }

    // Assignment sweep on the accelerator.
    let assign = DistanceKernel {
        name: "k-means",
        features: 8,
        hot_rows: 4,
        cold_rows: 256,
        post: DistancePost::Sort { k: 1 },
    };
    let program = assign
        .generate(&cfg, &DistancePlan { hot_dram: 0, cold_dram: 10_000, out_dram: 50_000 })
        .expect("generates");
    let mut accel = Accelerator::new(cfg.clone()).unwrap();
    accel.run(&program, &mut dram).expect("assignment runs");

    // Host bookkeeping: gather per-cluster sums and counts.
    let mut sums = vec![0.0f32; 4 * 8];
    let mut counts = vec![0.0f32; 4 * 8];
    for i in 0..256 {
        let a = dram.read_f32(50_000 + (i * 2) as u64, 2)[1] as usize;
        for (j, &v) in data.instance(i).iter().enumerate() {
            sums[a * 8 + j] += v;
            counts[a * 8 + j] += 1.0;
        }
    }
    dram.write_f32(60_000, &sums);
    dram.write_f32(70_000, &counts);

    // Normalisation on the accelerator's ALUs.
    let update = kmeans_update_program(&cfg, 4, 8, 60_000, 70_000, 80_000).expect("generates");
    accel.run(&update, &mut dram).expect("update runs");

    // New centroids must equal the per-cluster means.
    for c in 0..4 {
        let got = dram.read_f32(80_000 + (c * 8) as u64, 8);
        for (j, &g) in got.iter().enumerate() {
            let expect = sums[c * 8 + j] / counts[c * 8 + j];
            assert!((g - expect).abs() < 1e-5, "centroid {c} coord {j}: {g} vs {expect}");
        }
    }
    let mut words = dram.read_f32(50_000, 256 * 2);
    words.extend_from_slice(dram.slice(80_000, 4 * 8));
    assert_eq!(
        common::fnv1a(&words),
        0x6045_f2f9_78a6_542c,
        "Lloyd assignment and centroid words moved"
    );
}
