//! Linear regression (Section 2.4).
//!
//! Training minimises mean squared error by gradient descent — "gradient
//! descent starts with an initial values of theta ... and iteratively
//! updates theta along the negative gradient direction", with the
//! dominant cost being the `theta . x(i)` dot products. Prediction is the
//! vector-matrix product `Y = theta X` (Eq. 2).

use crate::precision::{Precision, RowBlocks};
use crate::{Error, Result};
use pudiannao_datasets::{Matrix, RegDataset};

/// Configuration for [`LinearRegression::fit`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinRegConfig {
    /// Gradient-descent step size.
    pub learning_rate: f32,
    /// Full-batch gradient-descent epochs.
    pub epochs: usize,
    /// L2 regularisation strength (0 disables).
    pub l2: f32,
    /// Arithmetic mode for the dot products and updates (Table 1).
    pub precision: Precision,
}

impl Default for LinRegConfig {
    fn default() -> LinRegConfig {
        LinRegConfig { learning_rate: 0.1, epochs: 200, l2: 0.0, precision: Precision::F32 }
    }
}

/// A linear model `y = theta_0 + sum_i theta_i * x_i`.
///
/// # Examples
///
/// ```
/// use pudiannao_datasets::synth;
/// use pudiannao_mlkit::linreg::{LinRegConfig, LinearRegression};
///
/// let (data, _teacher) = synth::linear_teacher(200, 4, 0.0, 1);
/// let model = LinearRegression::fit(&data, LinRegConfig::default())?;
/// let pred = model.predict(&data.features)?;
/// let mse = pudiannao_mlkit::metrics::mse(&pred, &data.labels);
/// assert!(mse < 1e-3);
/// # Ok::<(), pudiannao_mlkit::Error>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinearRegression {
    /// Coefficients with the intercept first (`theta_0`).
    theta: Vec<f32>,
    precision: Precision,
}

impl LinearRegression {
    /// Trains by full-batch gradient descent.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDataset`] for empty data; [`Error::InvalidConfig`]
    /// for non-positive learning rate or zero epochs.
    pub fn fit(data: &RegDataset, config: LinRegConfig) -> Result<LinearRegression> {
        let n = data.len();
        let d = data.features.cols();
        if n == 0 || d == 0 {
            return Err(Error::EmptyDataset);
        }
        if !(config.learning_rate > 0.0) {
            return Err(Error::InvalidConfig("learning rate must be positive"));
        }
        if config.epochs == 0 {
            return Err(Error::InvalidConfig("epochs must be > 0"));
        }
        let p = config.precision;
        // Transposed once: every epoch's predictions are independent dots
        // against the same `theta`, reduced side by side.
        let rows = RowBlocks::new(p, &data.features);
        let mut theta = vec![0.0f32; d + 1];
        let inv_n = 1.0 / n as f32;
        let mut grad = vec![0.0f32; d + 1];
        let mut dots = vec![0.0f32; n];
        for _ in 0..config.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            rows.dots(&theta[1..], 0, &mut dots);
            for (i, &dot) in dots.iter().enumerate() {
                let x = data.features.row(i);
                let pred = dot + theta[0];
                let err = pred - data.labels[i];
                grad[0] += err;
                // grad[j+1] += err * x[j], in the chosen datapath.
                for (g, &xj) in grad[1..].iter_mut().zip(x) {
                    *g += p.mul(err, xj);
                }
            }
            if config.l2 > 0.0 {
                for (g, &t) in grad[1..].iter_mut().zip(&theta[1..]) {
                    *g += config.l2 * t;
                }
            }
            let step = -config.learning_rate * inv_n;
            let grad_snapshot = grad.clone();
            p.axpy(step, &grad_snapshot, &mut theta);
        }
        Ok(LinearRegression { theta, precision: p })
    }

    /// Builds a model directly from known coefficients (intercept first)
    /// — used by the accelerator integration tests to compare against a
    /// fixed model.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyDataset`] if no coefficients are supplied.
    pub fn from_coefficients(theta: Vec<f32>, precision: Precision) -> Result<LinearRegression> {
        if theta.is_empty() {
            return Err(Error::EmptyDataset);
        }
        Ok(LinearRegression { theta, precision })
    }

    /// Coefficients, intercept first.
    #[must_use]
    pub fn coefficients(&self) -> &[f32] {
        &self.theta
    }

    /// Predicts one instance.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if the feature width differs.
    pub fn predict_one(&self, x: &[f32]) -> Result<f32> {
        if x.len() + 1 != self.theta.len() {
            return Err(Error::DimensionMismatch {
                expected: self.theta.len() - 1,
                actual: x.len(),
            });
        }
        Ok(self.precision.dot(&self.theta[1..], x) + self.theta[0])
    }

    /// Predicts every row of `queries` (Eq. 2).
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] if the feature width differs.
    pub fn predict(&self, queries: &Matrix) -> Result<Vec<f32>> {
        (0..queries.rows()).map(|i| self.predict_one(queries.row(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;
    use pudiannao_datasets::synth;

    #[test]
    fn recovers_noiseless_teacher() {
        let (data, teacher) = synth::linear_teacher(300, 6, 0.0, 4);
        let model = LinearRegression::fit(
            &data,
            LinRegConfig { epochs: 2000, learning_rate: 0.3, ..Default::default() },
        )
        .unwrap();
        for (learned, truth) in model.coefficients().iter().zip(&teacher) {
            assert!((learned - truth).abs() < 0.02, "{learned} vs {truth}");
        }
    }

    #[test]
    fn noisy_fit_generalises() {
        let (data, _) = synth::linear_teacher(500, 8, 0.05, 9);
        let model = LinearRegression::fit(&data, LinRegConfig::default()).unwrap();
        let pred = model.predict(&data.features).unwrap();
        let err = mse(&pred, &data.labels);
        // Residual should be near the noise floor (0.05^2 = 0.0025).
        assert!(err < 0.02, "mse {err}");
    }

    #[test]
    fn l2_shrinks_coefficients() {
        let (data, _) = synth::linear_teacher(200, 4, 0.0, 2);
        let free = LinearRegression::fit(&data, LinRegConfig::default()).unwrap();
        let ridge =
            LinearRegression::fit(&data, LinRegConfig { l2: 50.0, ..Default::default() }).unwrap();
        let norm = |m: &LinearRegression| m.coefficients()[1..].iter().map(|c| c * c).sum::<f32>();
        assert!(norm(&ridge) < norm(&free));
    }

    #[test]
    fn all16_training_is_visibly_worse() {
        // The Table-1 effect: binary16 gradients/parameters stall.
        let (data, _) = synth::linear_teacher(300, 16, 0.0, 7);
        let cfg = LinRegConfig { epochs: 500, learning_rate: 0.1, ..Default::default() };
        let f32m = LinearRegression::fit(&data, cfg).unwrap();
        let f16m =
            LinearRegression::fit(&data, LinRegConfig { precision: Precision::F16All, ..cfg })
                .unwrap();
        let mixed =
            LinearRegression::fit(&data, LinRegConfig { precision: Precision::Mixed, ..cfg })
                .unwrap();
        let err = |m: &LinearRegression| mse(&m.predict(&data.features).unwrap(), &data.labels);
        let (e32, e16, emx) = (err(&f32m), err(&f16m), err(&mixed));
        assert!(e16 > emx * 1.5, "all-16 {e16} should be worse than mixed {emx}");
        assert!(emx < e32 * 10.0 + 1e-4, "mixed {emx} close to f32 {e32}");
    }

    /// Training as a scalar loop: one serial `dot` per instance, with
    /// `mul` and `axpy` written with `F16` operators.
    fn scalar_fit(data: &RegDataset, config: LinRegConfig) -> Vec<f32> {
        use pudiannao_softfp::F16;
        let p = config.precision;
        let f16 = p != Precision::F32;
        let (n, d) = (data.len(), data.features.cols());
        let mut theta = vec![0.0f32; d + 1];
        let inv_n = 1.0 / n as f32;
        let mut grad = vec![0.0f32; d + 1];
        for _ in 0..config.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            for i in 0..n {
                let x = data.features.row(i);
                let pred = p.dot(&theta[1..], x) + theta[0];
                let err = pred - data.labels[i];
                grad[0] += err;
                for (g, &xj) in grad[1..].iter_mut().zip(x) {
                    *g += if f16 {
                        (F16::from_f32(err) * F16::from_f32(xj)).to_f32()
                    } else {
                        err * xj
                    };
                }
            }
            if config.l2 > 0.0 {
                for (g, &t) in grad[1..].iter_mut().zip(&theta[1..]) {
                    *g += config.l2 * t;
                }
            }
            let a = -config.learning_rate * inv_n;
            for (t, &g) in theta.iter_mut().zip(&grad) {
                let prod = F16::from_f32(a) * F16::from_f32(g);
                *t = match p {
                    Precision::F32 => *t + a * g,
                    Precision::F16All => (F16::from_f32(*t) + prod).to_f32(),
                    Precision::Mixed => *t + prod.to_f32(),
                };
            }
        }
        theta
    }

    #[test]
    fn grouped_fit_matches_scalar_loop() {
        let (data, _) = synth::linear_teacher(37, 19, 0.01, 5);
        for precision in [Precision::F32, Precision::F16All, Precision::Mixed] {
            for l2 in [0.0, 0.3] {
                let cfg = LinRegConfig { epochs: 60, learning_rate: 0.2, l2, precision };
                let got = LinearRegression::fit(&data, cfg).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let want = scalar_fit(&data, cfg);
                assert_eq!(bits(got.coefficients()), bits(&want), "{precision:?} l2 {l2}");
            }
        }
    }

    #[test]
    fn from_coefficients_predicts() {
        let m = LinearRegression::from_coefficients(vec![1.0, 2.0, -1.0], Precision::F32).unwrap();
        assert_eq!(m.predict_one(&[3.0, 4.0]).unwrap(), 1.0 + 6.0 - 4.0);
        assert!(LinearRegression::from_coefficients(vec![], Precision::F32).is_err());
    }

    #[test]
    fn config_and_dimension_errors() {
        let (data, _) = synth::linear_teacher(10, 2, 0.0, 1);
        assert!(LinearRegression::fit(
            &data,
            LinRegConfig { learning_rate: 0.0, ..Default::default() }
        )
        .is_err());
        assert!(
            LinearRegression::fit(&data, LinRegConfig { epochs: 0, ..Default::default() }).is_err()
        );
        let model = LinearRegression::fit(&data, LinRegConfig::default()).unwrap();
        assert!(matches!(
            model.predict_one(&[1.0]),
            Err(Error::DimensionMismatch { expected: 2, actual: 1 })
        ));
    }
}
