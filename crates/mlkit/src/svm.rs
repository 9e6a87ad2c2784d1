//! Support vector machine (Section 2.5) trained with SMO.
//!
//! "A common training algorithm is Sequential Minimal Optimization (SMO).
//! The most time-consuming step in SMO is to compute the N x N kernel
//! matrix." Prediction evaluates `y = sum_i alpha_i y_i k(x, x_i) + b`
//! over the support vectors; the kernel function itself is what the Misc
//! stage's linear-interpolation unit accelerates.

use crate::precision::{Precision, RowBlocks, GROUP};
use crate::{Error, Result};
use pudiannao_datasets::{ClassDataset, Matrix};
use pudiannao_softfp::F16;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kernel functions supported by the SVM (the paper names the radial
/// basis function and tanh kernels as interpolation-unit clients).
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Kernel {
    /// `k(a, b) = a . b`.
    Linear,
    /// `k(a, b) = exp(-gamma * ||a - b||^2)`.
    Rbf {
        /// Width parameter.
        gamma: f32,
    },
    /// `k(a, b) = (a . b + coef)^degree`.
    Poly {
        /// Polynomial degree.
        degree: u32,
        /// Additive constant.
        coef: f32,
    },
    /// `k(a, b) = tanh(scale * a . b + offset)`.
    Sigmoid {
        /// Dot-product scale.
        scale: f32,
        /// Additive offset.
        offset: f32,
    },
}

impl Kernel {
    /// Evaluates the kernel on two instances in the given datapath: the
    /// dot product / distance uses the mode's arithmetic, the non-linear
    /// wrapper runs at 32 bits (it is Misc-stage work).
    ///
    /// This is the scalar reference; training and prediction evaluate
    /// whole kernel rows with the grouped reductions of [`RowBlocks`].
    #[must_use]
    pub fn eval(&self, precision: Precision, a: &[f32], b: &[f32]) -> f32 {
        let reduced = match self {
            Kernel::Rbf { .. } => precision.squared_distance(a, b),
            _ => precision.dot(a, b),
        };
        self.wrap(reduced)
    }

    /// The kernel's non-linear wrapper around its dot product or squared
    /// distance, at 32 bits.
    fn wrap(&self, reduced: f32) -> f32 {
        match *self {
            Kernel::Linear => reduced,
            Kernel::Rbf { gamma } => (-gamma * reduced).exp(),
            Kernel::Poly { degree, coef } => (reduced + coef).powi(degree as i32),
            Kernel::Sigmoid { scale, offset } => (scale * reduced + offset).tanh(),
        }
    }

    /// `self.eval(rows.precision(), x, row)` for the rows of every block
    /// of `rows` from the one holding row `from` on, laid out as
    /// [`RowBlocks::dots`] lays them out.
    fn eval_rows(&self, rows: &RowBlocks, x: &[f32], from: usize, out: &mut [f32]) {
        match self {
            Kernel::Rbf { .. } => rows.squared_distances(x, from, out),
            _ => rows.dots(x, from, out),
        }
        for v in &mut out[from / GROUP * GROUP..] {
            *v = self.wrap(*v);
        }
    }
}

/// The full `n x n` kernel matrix of the rows of `x` — "the most
/// time-consuming step in SMO". Label-independent, so one-vs-rest
/// training computes it once and shares it across the per-class machines.
/// Row `i` is evaluated against the blocks holding rows `i..n`; lanes
/// below `i` are dropped and the upper triangle mirrored.
fn kernel_matrix(kernel: Kernel, precision: Precision, x: &Matrix) -> Vec<f32> {
    let n = x.rows();
    let rows = RowBlocks::new(precision, x);
    let mut m = vec![0.0f32; n * n];
    let mut kvals = vec![0.0f32; n];
    for i in 0..n {
        kernel.eval_rows(&rows, x.row(i), i, &mut kvals);
        for (j, &v) in kvals.iter().enumerate().skip(i) {
            m[i * n + j] = v;
            m[j * n + i] = v;
        }
    }
    m
}

/// Input validation shared by the single-machine and one-vs-rest fits.
fn validate_config(x: &Matrix, config: &SvmConfig) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(Error::EmptyDataset);
    }
    // SMO updates multipliers in pairs of distinct instances.
    if x.rows() < 2 {
        return Err(Error::TooFewInstances { required: 2, actual: x.rows() });
    }
    if !(config.c > 0.0) {
        return Err(Error::InvalidConfig("C must be positive"));
    }
    Ok(())
}

/// [`validate_config`] plus the binary labels of one machine.
fn validate_fit(x: &Matrix, y: &[f32], config: &SvmConfig) -> Result<()> {
    validate_config(x, config)?;
    if y.len() != x.rows() {
        return Err(Error::DimensionMismatch { expected: x.rows(), actual: y.len() });
    }
    if y.iter().any(|&v| v != 1.0 && v != -1.0) {
        return Err(Error::InvalidConfig("binary labels must be -1 or +1"));
    }
    Ok(())
}

/// Configuration for SVM training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SvmConfig {
    /// Box constraint C (soft-margin strength).
    pub c: f32,
    /// KKT violation tolerance.
    pub tol: f32,
    /// Consecutive full passes without updates before SMO stops.
    pub max_passes: usize,
    /// Hard cap on total passes (guards non-convergence).
    pub max_iters: usize,
    /// Kernel function.
    pub kernel: Kernel,
    /// Arithmetic mode for kernel computations (Table 1).
    pub precision: Precision,
    /// RNG seed for SMO's second-multiplier choice.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> SvmConfig {
        SvmConfig {
            c: 1.0,
            tol: 1e-3,
            max_passes: 3,
            max_iters: 200,
            kernel: Kernel::Rbf { gamma: 0.5 },
            precision: Precision::F32,
            seed: 0,
        }
    }
}

/// A binary SVM with labels in {-1, +1}.
///
/// # Examples
///
/// ```
/// use pudiannao_datasets::synth;
/// use pudiannao_mlkit::svm::{BinarySvm, Kernel, SvmConfig};
///
/// let data = synth::linearly_separable(120, 6, 1.0, 3);
/// let y: Vec<f32> = data.labels.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
/// let cfg = SvmConfig { kernel: Kernel::Linear, ..Default::default() };
/// let model = BinarySvm::fit(&data.features, &y, cfg)?;
/// assert!(model.support_vectors() > 0);
/// let mut correct = 0;
/// for i in 0..data.len() {
///     if (model.decision(data.instance(i))? > 0.0) == (y[i] > 0.0) {
///         correct += 1;
///     }
/// }
/// assert!(correct as f64 / data.len() as f64 > 0.95);
/// # Ok::<(), pudiannao_mlkit::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct BinarySvm {
    /// Support vectors, transposed once at fit time for the grouped
    /// kernel row.
    support: RowBlocks,
    dual: Dual,
    kernel: Kernel,
}

impl BinarySvm {
    /// Trains with simplified SMO.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDataset`] for empty inputs,
    /// [`Error::TooFewInstances`] for a single instance,
    /// [`Error::DimensionMismatch`] if `y` and `x` disagree,
    /// [`Error::InvalidConfig`] for non-positive `c` or labels outside
    /// {-1, +1}.
    pub fn fit(x: &Matrix, y: &[f32], config: SvmConfig) -> Result<BinarySvm> {
        validate_fit(x, y, &config)?;
        let kmat = kernel_matrix(config.kernel, config.precision, x);
        let (dual, sv_idx) = BinarySvm::fit_prepared(y, &config, &kmat);
        let support = RowBlocks::new(config.precision, &x.select_rows(&sv_idx));
        Ok(BinarySvm { support, dual, kernel: config.kernel })
    }

    /// SMO over a precomputed `n x n` kernel matrix, for inputs
    /// [`validate_fit`] accepted. Returns the machine's dual coefficients
    /// and its support vectors' row indices, in the same order (so a
    /// one-vs-rest wrapper can map machines onto shared rows).
    fn fit_prepared(y: &[f32], config: &SvmConfig, kmat: &[f32]) -> (Dual, Vec<usize>) {
        let n = y.len();
        let p = config.precision;
        let k = |i: usize, j: usize| kmat[i * n + j];

        let mut alpha = vec![0.0f32; n];
        let mut b = 0.0f32;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // In the all-16-bit mode the optimiser state itself lives in
        // 16-bit storage and the decision sums accumulate at 16 bits. This
        // is not what wrecks all-16-bit SVM accuracy (Table 1: 37.7% in the
        // paper); the kernel values are. On `table1_precision`'s SVM,
        // all-16-bit kernels with this state and these sums at 32 bits
        // still score 17.3% of fp32, and mixed kernels with them at 16 bits
        // score 100.0%.
        let q = |v: f32| -> f32 {
            if p == crate::precision::Precision::F16All {
                pudiannao_softfp::F16::from_f32(v).to_f32()
            } else {
                v
            }
        };
        let f = |alpha: &[f32], b: f32, i: usize| -> f32 {
            if p == crate::precision::Precision::F16All {
                let mut s = pudiannao_softfp::F16::from_f32(b);
                for j in 0..n {
                    if alpha[j] != 0.0 {
                        let term = pudiannao_softfp::F16::from_f32(alpha[j] * y[j])
                            * pudiannao_softfp::F16::from_f32(k(j, i));
                        s += term;
                    }
                }
                return s.to_f32();
            }
            let mut s = b;
            for j in 0..n {
                if alpha[j] != 0.0 {
                    s += alpha[j] * y[j] * k(j, i);
                }
            }
            s
        };

        let mut passes = 0;
        let mut iters = 0;
        while passes < config.max_passes && iters < config.max_iters {
            iters += 1;
            let mut changed = 0;
            for i in 0..n {
                let e_i = f(&alpha, b, i) - y[i];
                let violates = (y[i] * e_i < -config.tol && alpha[i] < config.c)
                    || (y[i] * e_i > config.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let e_j = f(&alpha, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    ((aj_old - ai_old).max(0.0), (config.c + aj_old - ai_old).min(config.c))
                } else {
                    ((ai_old + aj_old - config.c).max(0.0), (ai_old + aj_old).min(config.c))
                };
                if lo >= hi {
                    continue;
                }
                let eta = 2.0 * k(i, j) - k(i, i) - k(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (e_i - e_j) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = q(ai);
                alpha[j] = q(aj);
                let b1 = b - e_i - y[i] * (ai - ai_old) * k(i, i) - y[j] * (aj - aj_old) * k(i, j);
                let b2 = b - e_j - y[i] * (ai - ai_old) * k(i, j) - y[j] * (aj - aj_old) * k(j, j);
                b = q(if ai > 0.0 && ai < config.c {
                    b1
                } else if aj > 0.0 && aj < config.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                });
                changed += 1;
            }
            passes = if changed == 0 { passes + 1 } else { 0 };
        }

        // Compact to support vectors only.
        let sv_idx: Vec<usize> = (0..n).filter(|&i| alpha[i] > 0.0).collect();
        let alpha_y = sv_idx.iter().map(|&i| alpha[i] * y[i]).collect();
        (Dual { alpha_y, bias: b }, sv_idx)
    }

    /// Number of support vectors retained.
    #[must_use]
    pub fn support_vectors(&self) -> usize {
        self.dual.alpha_y.len()
    }

    /// The decision value `sum_i alpha_i y_i k(x, sv_i) + b`; positive
    /// means class +1.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if the feature width differs.
    pub fn decision(&self, x: &[f32]) -> Result<f32> {
        let kvals = kernel_row(self.kernel, &self.support, x)?;
        Ok(self.dual.decision(self.support.precision(), kvals.into_iter()))
    }
}

/// One binary machine's dual coefficients: `alpha_i * y_i` per support
/// vector, and the bias.
#[derive(Clone, Debug)]
struct Dual {
    alpha_y: Vec<f32>,
    bias: f32,
}

impl Dual {
    /// The decision value `sum_i alpha_i y_i k_i + b` from the support
    /// vectors' kernel values `k_i`, in support-vector order. The sum is
    /// serial, and all-16-bit accumulates it at 16 bits.
    fn decision(&self, precision: Precision, kvals: impl Iterator<Item = f32>) -> f32 {
        if precision == Precision::F16All {
            let mut s = F16::from_f32(self.bias);
            for (&ay, k) in self.alpha_y.iter().zip(kvals) {
                s += F16::from_f32(ay) * F16::from_f32(k);
            }
            return s.to_f32();
        }
        let mut s = self.bias;
        for (&ay, k) in self.alpha_y.iter().zip(kvals) {
            s += ay * k;
        }
        s
    }
}

/// The query's kernel values against every row of `rows`.
fn kernel_row(kernel: Kernel, rows: &RowBlocks, x: &[f32]) -> Result<Vec<f32>> {
    if x.len() != rows.cols() {
        return Err(Error::DimensionMismatch { expected: rows.cols(), actual: x.len() });
    }
    let mut kvals = vec![0.0f32; rows.rows()];
    kernel.eval_rows(rows, x, 0, &mut kvals);
    Ok(kvals)
}

/// Multi-class SVM via one-vs-rest over binary machines.
///
/// The machines share one transposed copy of their support rows: the
/// union of every machine's support vectors. One kernel evaluation per
/// union row serves all machines when predicting — the per-class SV sets
/// overlap heavily.
#[derive(Clone, Debug)]
pub struct SvmClassifier {
    support: RowBlocks,
    kernel: Kernel,
    /// Per class: the machine's dual coefficients.
    machines: Vec<Dual>,
    /// Per class, parallel to its `alpha_y`: positions in `support`.
    maps: Vec<Vec<u32>>,
}

impl SvmClassifier {
    /// Trains one binary machine per class. The kernel matrix is
    /// label-independent, so it is computed once and shared by every
    /// machine (bit-identical to fitting each machine standalone).
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDataset`] when the dataset has no instances or no
    /// features, [`Error::TooFewInstances`] for a single instance,
    /// [`Error::InvalidConfig`] for non-positive `c`.
    pub fn fit(data: &ClassDataset, config: SvmConfig) -> Result<SvmClassifier> {
        let x = &data.features;
        validate_config(x, &config)?;
        let n = x.rows();
        let kmat = kernel_matrix(config.kernel, config.precision, x);
        let classes = data.classes();
        let mut machines = Vec::with_capacity(classes);
        let mut sv_indices = Vec::with_capacity(classes);
        for c in 0..classes {
            let y: Vec<f32> =
                data.labels.iter().map(|&l| if l == c { 1.0 } else { -1.0 }).collect();
            let (machine, sv_idx) = BinarySvm::fit_prepared(&y, &config, &kmat);
            machines.push(machine);
            sv_indices.push(sv_idx);
        }
        // Build the union of support rows and each machine's map into it.
        let mut union_pos = vec![u32::MAX; n];
        let mut union_idx = Vec::new();
        for idx in sv_indices.iter().flatten() {
            if union_pos[*idx] == u32::MAX {
                union_pos[*idx] = u32::try_from(union_idx.len()).expect("row count fits u32");
                union_idx.push(*idx);
            }
        }
        let support = RowBlocks::new(config.precision, &x.select_rows(&union_idx));
        let maps = sv_indices
            .into_iter()
            .map(|idx| idx.into_iter().map(|i| union_pos[i]).collect())
            .collect();
        Ok(SvmClassifier { support, kernel: config.kernel, machines, maps })
    }

    /// Every class's decision value for one query: one grouped kernel row
    /// over the union rows, summed per machine like
    /// [`BinarySvm::decision`].
    fn decisions(&self, x: &[f32]) -> Result<Vec<f32>> {
        let kvals = kernel_row(self.kernel, &self.support, x)?;
        let precision = self.support.precision();
        Ok(self
            .machines
            .iter()
            .zip(&self.maps)
            .map(|(m, map)| m.decision(precision, map.iter().map(|&r| kvals[r as usize])))
            .collect())
    }

    /// Predicts the class with the largest decision value.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if the feature width differs.
    pub fn predict_one(&self, x: &[f32]) -> Result<usize> {
        let mut best = (0usize, f32::NEG_INFINITY);
        for (c, d) in self.decisions(x)?.into_iter().enumerate() {
            if d > best.1 {
                best = (c, d);
            }
        }
        Ok(best.0)
    }

    /// Predicts every row of `queries`.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if the feature width differs.
    pub fn predict(&self, queries: &Matrix) -> Result<Vec<usize>> {
        (0..queries.rows()).map(|i| self.predict_one(queries.row(i))).collect()
    }

    /// Total support vectors across the per-class machines.
    #[must_use]
    pub fn support_vectors(&self) -> usize {
        self.machines.iter().map(|m| m.alpha_y.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use pudiannao_datasets::{synth, train_test_split};

    #[test]
    fn linear_kernel_separates_linear_data() {
        let data = synth::linearly_separable(200, 8, 1.0, 21);
        let split = train_test_split(&data, 0.3, 1);
        let cfg = SvmConfig { kernel: Kernel::Linear, ..Default::default() };
        let model = SvmClassifier::fit(&split.train, cfg).unwrap();
        let acc = accuracy(&model.predict(&split.test.features).unwrap(), &split.test.labels);
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn rbf_kernel_separates_blobs() {
        let data = synth::gaussian_blobs(&synth::BlobsConfig {
            instances: 300,
            features: 8,
            classes: 3,
            spread: 0.08,
            seed: 5,
        });
        let split = train_test_split(&data, 0.3, 2);
        let cfg = SvmConfig { kernel: Kernel::Rbf { gamma: 2.0 }, ..Default::default() };
        let model = SvmClassifier::fit(&split.train, cfg).unwrap();
        let acc = accuracy(&model.predict(&split.test.features).unwrap(), &split.test.labels);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn kernels_evaluate_sanely() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        let p = Precision::F32;
        assert_eq!(Kernel::Linear.eval(p, &a, &b), 0.0);
        assert_eq!(Kernel::Linear.eval(p, &a, &a), 1.0);
        assert!((Kernel::Rbf { gamma: 1.0 }.eval(p, &a, &a) - 1.0).abs() < 1e-6);
        assert!(Kernel::Rbf { gamma: 1.0 }.eval(p, &a, &b) < 1.0);
        assert_eq!(Kernel::Poly { degree: 2, coef: 1.0 }.eval(p, &a, &b), 1.0);
        let s = Kernel::Sigmoid { scale: 1.0, offset: 0.0 }.eval(p, &a, &a);
        assert!((s - 1.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn decision_sign_matches_binary_labels() {
        let data = synth::linearly_separable(150, 4, 1.5, 8);
        let y: Vec<f32> = data.labels.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
        let cfg = SvmConfig { kernel: Kernel::Linear, ..Default::default() };
        let m = BinarySvm::fit(&data.features, &y, cfg).unwrap();
        let correct = (0..data.len())
            .filter(|&i| (m.decision(data.instance(i)).unwrap() > 0.0) == (y[i] > 0.0))
            .count();
        assert!(correct >= 140, "{correct}/150");
        assert!(m.support_vectors() < data.len(), "not every point should be a SV");
    }

    const KERNELS: [Kernel; 4] = [
        Kernel::Linear,
        Kernel::Rbf { gamma: 0.7 },
        Kernel::Poly { degree: 3, coef: 0.5 },
        Kernel::Sigmoid { scale: 0.3, offset: -0.1 },
    ];
    const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16All, Precision::Mixed];

    /// `rows x cols` values whose magnitude class changes row by row:
    /// not binary16-exact, binary16-subnormal, and large enough that sums
    /// of squares overflow binary16.
    fn mixed_rows(rows: usize, cols: usize) -> Matrix {
        let value = |r: usize, c: usize| {
            let v = ((r * 37 + c * 53) % 101) as f32 / 50.0 - 1.0;
            match r % 3 {
                0 => v * 0.9,
                1 => v * 3e-6,
                _ => v * 300.0,
            }
        };
        Matrix::from_vec((0..rows * cols).map(|i| value(i / cols, i % cols)).collect(), rows, cols)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernel_matrix_matches_scalar_eval() {
        let x = mixed_rows(19, 37);
        for precision in PRECISIONS {
            for kernel in KERNELS {
                let got = kernel_matrix(kernel, precision, &x);
                let want: Vec<f32> = (0..19 * 19)
                    .map(|ij| kernel.eval(precision, x.row(ij / 19), x.row(ij % 19)))
                    .collect();
                assert_eq!(bits(&got), bits(&want), "{kernel:?} {precision:?}");
            }
        }
    }

    /// The decision value summed in an in-test loop over scalar
    /// [`Kernel::eval`] values.
    fn scalar_decision(
        kernel: Kernel,
        precision: Precision,
        x: &[f32],
        support: &[Vec<f32>],
        dual: &Dual,
    ) -> f32 {
        let kvals = support.iter().map(|sv| kernel.eval(precision, x, sv));
        if precision == Precision::F16All {
            let mut s = F16::from_f32(dual.bias);
            for (&ay, k) in dual.alpha_y.iter().zip(kvals) {
                s += F16::from_f32(ay) * F16::from_f32(k);
            }
            return s.to_f32();
        }
        let mut s = dual.bias;
        for (&ay, k) in dual.alpha_y.iter().zip(kvals) {
            s += ay * k;
        }
        s
    }

    #[test]
    fn decisions_match_scalar_kernel_rows() {
        let data = synth::gaussian_blobs(&synth::BlobsConfig {
            instances: 60,
            features: 21,
            classes: 3,
            spread: 0.3,
            seed: 4,
        });
        let queries = mixed_rows(11, 21);
        for precision in PRECISIONS {
            for kernel in KERNELS {
                let cfg = SvmConfig { kernel, precision, max_iters: 20, ..Default::default() };
                let y: Vec<f32> =
                    data.labels.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
                let binary = BinarySvm::fit(&data.features, &y, cfg).unwrap();
                let multi = SvmClassifier::fit(&data, cfg).unwrap();
                let binary_sv: Vec<Vec<f32>> =
                    (0..binary.support.rows()).map(|r| binary.support.row(r)).collect();
                for q in (0..11).map(|i| queries.row(i)).chain([data.features.row(5)]) {
                    let got = binary.decision(q).unwrap();
                    let want = scalar_decision(kernel, precision, q, &binary_sv, &binary.dual);
                    assert_eq!(got.to_bits(), want.to_bits(), "binary {kernel:?} {precision:?}");
                    let want: Vec<f32> = multi
                        .machines
                        .iter()
                        .zip(&multi.maps)
                        .map(|(m, map)| {
                            let sv: Vec<Vec<f32>> =
                                map.iter().map(|&r| multi.support.row(r as usize)).collect();
                            scalar_decision(kernel, precision, q, &sv, m)
                        })
                        .collect();
                    let got = multi.decisions(q).unwrap();
                    assert_eq!(bits(&got), bits(&want), "one-vs-rest {kernel:?} {precision:?}");
                }
            }
        }
    }

    #[test]
    fn one_instance_fits_are_rejected() {
        let data = synth::linearly_separable(1, 4, 1.0, 3);
        let too_few = Some(Error::TooFewInstances { required: 2, actual: 1 });
        assert_eq!(BinarySvm::fit(&data.features, &[1.0], SvmConfig::default()).err(), too_few);
        assert_eq!(SvmClassifier::fit(&data, SvmConfig::default()).err(), too_few);
        // Two instances are enough for SMO to pair them.
        let two = synth::linearly_separable(2, 4, 1.0, 3);
        assert!(BinarySvm::fit(&two.features, &[1.0, -1.0], SvmConfig::default()).is_ok());
        assert!(SvmClassifier::fit(&two, SvmConfig::default()).is_ok());
    }

    #[test]
    fn mixed_precision_tracks_f32() {
        let data = synth::gaussian_blobs(&synth::BlobsConfig {
            instances: 200,
            features: 8,
            classes: 2,
            spread: 0.1,
            seed: 13,
        });
        let split = train_test_split(&data, 0.3, 3);
        let acc_of = |precision| {
            let cfg =
                SvmConfig { kernel: Kernel::Rbf { gamma: 2.0 }, precision, ..Default::default() };
            let m = SvmClassifier::fit(&split.train, cfg).unwrap();
            accuracy(&m.predict(&split.test.features).unwrap(), &split.test.labels)
        };
        let a32 = acc_of(Precision::F32);
        let amx = acc_of(Precision::Mixed);
        assert!(amx > a32 - 0.05, "f32 {a32} vs mixed {amx}");
    }

    #[test]
    fn validation_errors() {
        let data = synth::linearly_separable(20, 4, 1.0, 1);
        let y: Vec<f32> = vec![0.5; 20];
        assert!(matches!(
            BinarySvm::fit(&data.features, &y, SvmConfig::default()),
            Err(Error::InvalidConfig(_))
        ));
        let y2: Vec<f32> = vec![1.0; 19];
        assert!(matches!(
            BinarySvm::fit(&data.features, &y2, SvmConfig::default()),
            Err(Error::DimensionMismatch { .. })
        ));
        let yok: Vec<f32> = vec![1.0; 20];
        assert!(matches!(
            BinarySvm::fit(&data.features, &yok, SvmConfig { c: 0.0, ..Default::default() }),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn decision_rejects_wrong_width() {
        let data = synth::linearly_separable(30, 4, 1.0, 2);
        let y: Vec<f32> = data.labels.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();
        let m = BinarySvm::fit(
            &data.features,
            &y,
            SvmConfig { kernel: Kernel::Linear, ..Default::default() },
        )
        .unwrap();
        assert!(matches!(
            m.decision(&[1.0]),
            Err(Error::DimensionMismatch { expected: 4, actual: 1 })
        ));
    }
}
