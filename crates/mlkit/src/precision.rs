//! Arithmetic-precision modes for the Table-1 study.
//!
//! PuDianNao's MLU uses 16-bit floating-point units in its Adder,
//! Multiplier and Adder-tree stages, but keeps the Counter, Acc and Misc
//! stages at 32 bits "to avoid potential overflow" (Section 3.1.1).
//! Table 1 quantifies that choice: training with *everything* at 16 bits
//! wrecks SVM (37.7%) and LR (78.2%) accuracy, while the mixed scheme
//! stays within a point of full fp32.
//!
//! [`Precision`] selects which scheme the ML kernels' inner loops use:
//!
//! - [`Precision::F32`] — reference fp32 everywhere;
//! - [`Precision::F16All`] — products *and* accumulation rounded to
//!   binary16 (the "all 16bits" column);
//! - [`Precision::Mixed`] — products in binary16, accumulation in fp32
//!   (the hardware's "32bits&16bits" column).
//!
//! [`Precision::dot`] and [`Precision::squared_distance`] reduce one pair
//! as a serial chain, each rounding feeding the next. Where many pairs
//! share a query, as in the SVM kernel rows and LR's per-epoch
//! predictions, [`RowBlocks`] reduces the query against [`GROUP`] rows
//! side by side, with the same bits as the chains.

use pudiannao_datasets::Matrix;
use pudiannao_softfp::{quantize, F16};

/// Rows reduced side by side in one grouped step, as many as the
/// executor's grouped adder trees reduce at once.
pub const GROUP: usize = 8;

/// One accumulator per row of a group; lane `l` belongs to row `l`.
type Lanes = [f32; GROUP];

/// The NaN every reduction returns for a NaN result: binary16's canonical
/// quiet NaN widened, the NaN [`quantize`] and the `F16` operators give.
///
/// Rust leaves the sign and payload of a NaN produced by `f32` arithmetic
/// unspecified, and they do differ in practice: x86 makes `inf - inf` a
/// negative NaN, and which NaN an addition of two NaNs keeps depends on
/// the operand order the compiler picked, which the vectorised reduction
/// and the scalar chain need not share. Whether a result is NaN does not
/// depend on that order, so returning this one NaN makes the two agree to
/// the bit.
const CANONICAL_NAN: f32 = f32::from_bits(0x7FC0_0000);

#[inline]
fn canonical(x: f32) -> f32 {
    if x.is_nan() {
        CANONICAL_NAN
    } else {
        x
    }
}

/// Arithmetic mode used by the precision-aware kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full 32-bit floating point (reference).
    #[default]
    F32,
    /// Everything at binary16, including accumulators.
    F16All,
    /// PuDianNao's scheme: binary16 multiplies/adds feeding a 32-bit
    /// accumulator.
    Mixed,
}

impl Precision {
    /// Rounds a scalar through the mode's storage format.
    #[inline]
    #[must_use]
    pub fn quantize(self, x: f32) -> f32 {
        match self {
            Precision::F32 => x,
            Precision::F16All | Precision::Mixed => quantize(x),
        }
    }

    /// One multiply in the mode's datapath (inputs are quantised first,
    /// matching operands read from a 16-bit buffer).
    #[inline]
    #[must_use]
    pub fn mul(self, a: f32, b: f32) -> f32 {
        match self {
            Precision::F32 => a * b,
            Precision::F16All | Precision::Mixed => quantize(quantize(a) * quantize(b)),
        }
    }

    /// Dot product of two slices in the mode's datapath.
    ///
    /// - `F32`: fp32 multiply-accumulate.
    /// - `F16All`: binary16 products accumulated in binary16.
    /// - `Mixed`: binary16 products accumulated in fp32 (the Acc stage).
    ///
    /// A NaN result is always the same quiet NaN, `0x7FC0_0000`. This is
    /// the scalar reference: [`RowBlocks::dots`] reduces many rows side by
    /// side and gives the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn dot(self, xs: &[f32], ys: &[f32]) -> f32 {
        assert_eq!(xs.len(), ys.len(), "dot product needs equal lengths");
        match self {
            Precision::F32 => canonical(xs.iter().zip(ys).map(|(a, b)| a * b).sum()),
            Precision::F16All => {
                let mut acc = F16::ZERO;
                for (&a, &b) in xs.iter().zip(ys) {
                    acc += F16::from_f32(a) * F16::from_f32(b);
                }
                acc.to_f32()
            }
            Precision::Mixed => {
                let mut acc = 0.0f32;
                for (&a, &b) in xs.iter().zip(ys) {
                    acc += (F16::from_f32(a) * F16::from_f32(b)).to_f32();
                }
                canonical(acc)
            }
        }
    }

    /// Squared Euclidean distance in the mode's datapath: differences and
    /// squares at the mode's width, accumulation per the mode.
    ///
    /// A NaN result is always the same quiet NaN, as in
    /// [`Precision::dot`]. This is the scalar reference for
    /// [`RowBlocks::squared_distances`].
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[must_use]
    pub fn squared_distance(self, xs: &[f32], ys: &[f32]) -> f32 {
        assert_eq!(xs.len(), ys.len(), "distance needs equal lengths");
        match self {
            Precision::F32 => canonical(xs.iter().zip(ys).map(|(a, b)| (a - b) * (a - b)).sum()),
            Precision::F16All => {
                let mut acc = F16::ZERO;
                for (&a, &b) in xs.iter().zip(ys) {
                    let d = F16::from_f32(a) - F16::from_f32(b);
                    acc += d * d;
                }
                acc.to_f32()
            }
            Precision::Mixed => {
                let mut acc = 0.0f32;
                for (&a, &b) in xs.iter().zip(ys) {
                    let d = F16::from_f32(a) - F16::from_f32(b);
                    acc += (d * d).to_f32();
                }
                canonical(acc)
            }
        }
    }

    /// `y += alpha * x` elementwise in the mode's datapath (used by the
    /// gradient-descent updates). The update product is computed at the
    /// mode's width; the stored parameter is quantised afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn axpy(self, alpha: f32, xs: &[f32], ys: &mut [f32]) {
        assert_eq!(xs.len(), ys.len(), "axpy needs equal lengths");
        match self {
            Precision::F32 => {
                for (y, &x) in ys.iter_mut().zip(xs) {
                    *y += alpha * x;
                }
            }
            Precision::F16All => {
                let a = quantize(alpha);
                for (y, &x) in ys.iter_mut().zip(xs) {
                    *y = quantize(quantize(*y) + quantize(a * quantize(x)));
                }
            }
            Precision::Mixed => {
                let a = quantize(alpha);
                for (y, &x) in ys.iter_mut().zip(xs) {
                    // 16-bit product, 32-bit accumulate-and-store: the
                    // accumulating side lives in the 32-bit Acc stage /
                    // OutputBuf, which is exactly why the paper's mixed
                    // scheme trains well while all-16-bit stalls.
                    *y += quantize(a * quantize(x));
                }
            }
        }
    }
}

/// A matrix's rows rounded through a [`Precision`]'s storage format and
/// transposed into blocks of [`GROUP`] rows, so that one step of a
/// grouped reduction loads column `k` of `GROUP` rows as one vector.
/// Lanes past the last row are zero.
///
/// [`RowBlocks::dots`] and [`RowBlocks::squared_distances`] reduce a
/// query against every row, `GROUP` rows side by side: lane `l` of every
/// step runs exactly row `l`'s scalar [`Precision::dot`] /
/// [`Precision::squared_distance`] sequence, so each result has the
/// scalar reference's bits.
///
/// ```
/// use pudiannao_datasets::Matrix;
/// use pudiannao_mlkit::precision::{Precision, RowBlocks};
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.1, -3.0], &[5.0, 0.5]]);
/// let blocks = RowBlocks::new(Precision::Mixed, &m);
/// let query = [0.3, 0.7];
/// let mut out = [0.0; 3];
/// blocks.dots(&query, 0, &mut out);
/// for (r, &v) in out.iter().enumerate() {
///     assert_eq!(v.to_bits(), Precision::Mixed.dot(&query, m.row(r)).to_bits());
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct RowBlocks {
    precision: Precision,
    rows: usize,
    cols: usize,
    /// Block `b`'s column `k` at `b * cols + k`; lane `l` is row
    /// `b * GROUP + l`.
    lanes: Vec<Lanes>,
}

impl RowBlocks {
    /// Rounds `m` through `precision` and transposes its rows.
    #[must_use]
    pub fn new(precision: Precision, m: &Matrix) -> RowBlocks {
        let (rows, cols) = (m.rows(), m.cols());
        let mut lanes = vec![[0.0f32; GROUP]; rows.div_ceil(GROUP) * cols];
        for (r, row) in m.iter_rows().enumerate() {
            let block = &mut lanes[r / GROUP * cols..][..cols];
            for (column, &v) in block.iter_mut().zip(row) {
                column[r % GROUP] = precision.quantize(v);
            }
        }
        RowBlocks { precision, rows, cols, lanes }
    }

    /// The mode the rows were rounded through and are reduced in.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r`, gathered back out of its block.
    #[cfg(test)]
    pub(crate) fn row(&self, r: usize) -> Vec<f32> {
        let block = &self.lanes[r / GROUP * self.cols..][..self.cols];
        block.iter().map(|column| column[r % GROUP]).collect()
    }

    /// `precision.dot(x, row)` for the rows of every block from the one
    /// holding row `from` on: row `j`'s result lands in `out[j]`, from
    /// `j = from / GROUP * GROUP`; earlier entries are left as they are.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not [`RowBlocks::cols`] long or `out` not
    /// [`RowBlocks::rows`] long.
    pub fn dots(&self, x: &[f32], from: usize, out: &mut [f32]) {
        match self.precision {
            Precision::F32 => self.reduce(x, from, out, -0.0, |acc, a, b| acc + a * b),
            Precision::F16All => {
                self.reduce(x, from, out, 0.0, |acc, a, b| quantize(acc + quantize(a * b)));
            }
            Precision::Mixed => self.reduce(x, from, out, 0.0, |acc, a, b| acc + quantize(a * b)),
        }
    }

    /// `precision.squared_distance(x, row)` for the rows of every block
    /// from the one holding row `from` on, laid out as in
    /// [`RowBlocks::dots`].
    ///
    /// # Panics
    ///
    /// Panics if `x` is not [`RowBlocks::cols`] long or `out` not
    /// [`RowBlocks::rows`] long.
    pub fn squared_distances(&self, x: &[f32], from: usize, out: &mut [f32]) {
        let leaf = |a: f32, b: f32| {
            let d = quantize(a - b);
            quantize(d * d)
        };
        match self.precision {
            Precision::F32 => self.reduce(x, from, out, -0.0, |acc, a, b| acc + (a - b) * (a - b)),
            Precision::F16All => {
                self.reduce(x, from, out, 0.0, |acc, a, b| quantize(acc + leaf(a, b)))
            }
            Precision::Mixed => self.reduce(x, from, out, 0.0, |acc, a, b| acc + leaf(a, b)),
        }
    }

    /// Runs `step(acc, x[k], row[k])` over `k` for every row of the blocks
    /// from the one holding row `from` on, starting each accumulator at
    /// `init`, one block of [`GROUP`] rows at a time.
    fn reduce(
        &self,
        x: &[f32],
        from: usize,
        out: &mut [f32],
        init: f32,
        step: impl Fn(f32, f32, f32) -> f32 + Copy,
    ) {
        assert_eq!(x.len(), self.cols, "grouped reduction needs a row-wide query");
        assert_eq!(out.len(), self.rows, "grouped reduction writes one result per row");
        let x: Vec<f32> = x.iter().map(|&v| self.precision.quantize(v)).collect();
        for first in (from / GROUP * GROUP..self.rows).step_by(GROUP) {
            let block = &self.lanes[first / GROUP * self.cols..][..self.cols];
            let mut acc = [init; GROUP];
            for (&a, column) in x.iter().zip(block) {
                for (s, &b) in acc.iter_mut().zip(column) {
                    *s = step(*s, a, b);
                }
            }
            let count = GROUP.min(self.rows - first);
            for (o, &v) in out[first..first + count].iter_mut().zip(&acc) {
                *o = canonical(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_mode_is_exact_reference() {
        let xs = [1.5f32, 2.5, -3.0];
        let ys = [0.5f32, 4.0, 2.0];
        assert_eq!(Precision::F32.dot(&xs, &ys), 1.5 * 0.5 + 2.5 * 4.0 - 3.0 * 2.0);
        assert_eq!(Precision::F32.quantize(0.1), 0.1);
    }

    #[test]
    fn f16_quantization_rounds() {
        let q = Precision::Mixed.quantize(0.1);
        assert_ne!(q, 0.1);
        assert!((q - 0.1).abs() < 1e-4);
    }

    #[test]
    fn mixed_accumulates_better_than_all16() {
        // Summing many small products: binary16 accumulation stalls once
        // the accumulator's ulp exceeds the addend (the classic Table-1
        // failure), while the mixed mode keeps absorbing them.
        let n = 4096;
        let xs = vec![0.5f32; n];
        let ys = vec![0.5f32; n];
        let exact = 0.25 * n as f32; // 1024
        let all16 = Precision::F16All.dot(&xs, &ys);
        let mixed = Precision::Mixed.dot(&xs, &ys);
        assert!((mixed - exact).abs() / exact < 1e-3, "mixed={mixed}");
        assert!((all16 - exact).abs() / exact > 0.2, "all16={all16} should stall");
    }

    #[test]
    fn distances_agree_at_fp32_scale() {
        let xs = [0.1f32, 0.9, 0.3];
        let ys = [0.2f32, 0.1, 0.4];
        let d32 = Precision::F32.squared_distance(&xs, &ys);
        let dmx = Precision::Mixed.squared_distance(&xs, &ys);
        assert!((d32 - dmx).abs() < 1e-2);
    }

    #[test]
    fn axpy_modes() {
        let xs = [1.0f32, 2.0];
        let mut y32 = [0.0f32, 0.0];
        Precision::F32.axpy(0.5, &xs, &mut y32);
        assert_eq!(y32, [0.5, 1.0]);
        let mut y16 = [0.0f32, 0.0];
        Precision::F16All.axpy(0.5, &xs, &mut y16);
        assert_eq!(y16, [0.5, 1.0]); // exactly representable
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_dot_panics() {
        let _ = Precision::F32.dot(&[1.0], &[1.0, 2.0]);
    }

    /// Deterministic value mix covering normals, subnormal-range,
    /// large-magnitude (binary16 overflow), negatives, and exact zeros.
    fn stress_values(seed: u64, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let u = (state >> 33) as u32;
                let frac = (u & 0xFFFF) as f32 / 65536.0 - 0.5;
                match u % 7 {
                    0 => frac * 1e-6, // near/below binary16 subnormal range
                    1 => frac * 2e5,  // overflows binary16 to infinity
                    2 => 0.0,
                    3 => frac,
                    4 => frac * 100.0,
                    5 => -frac * 3.0,
                    _ => frac * 0.01,
                }
            })
            .collect()
    }

    /// The `F16`-operator forms `mul` and `axpy` had before they moved to
    /// `quantize`.
    fn f16_mul(a: f32, b: f32) -> f32 {
        (F16::from_f32(a) * F16::from_f32(b)).to_f32()
    }

    fn f16_axpy(precision: Precision, alpha: f32, xs: &[f32], ys: &mut [f32]) {
        let a = F16::from_f32(alpha);
        for (y, &x) in ys.iter_mut().zip(xs) {
            let prod = a * F16::from_f32(x);
            *y = match precision {
                Precision::F16All => (F16::from_f32(*y) + prod).to_f32(),
                _ => *y + prod.to_f32(),
            };
        }
    }

    #[test]
    fn elementwise_ops_match_f16_operators() {
        for precision in [Precision::F16All, Precision::Mixed] {
            for seed in 0..8u64 {
                let xs = stress_values(seed, 257);
                let ys = stress_values(seed + 100, 257);
                for (&a, &b) in xs.iter().zip(&ys) {
                    let want = F16::from_f32(a).to_f32();
                    assert_eq!(precision.quantize(a).to_bits(), want.to_bits());
                    assert_eq!(precision.mul(a, b).to_bits(), f16_mul(a, b).to_bits(), "{a} * {b}");
                }
                for alpha in [xs[3], -0.37, 1e-6, 7e4] {
                    let (mut got, mut want) = (ys.clone(), ys.clone());
                    precision.axpy(alpha, &xs, &mut got);
                    f16_axpy(precision, alpha, &xs, &mut want);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{precision:?} alpha {alpha}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row-wide query")]
    fn grouped_reduction_rejects_a_short_query() {
        let blocks = RowBlocks::new(Precision::F32, &Matrix::zeros(3, 4));
        blocks.dots(&[1.0; 3], 0, &mut [0.0; 3]);
    }

    #[test]
    fn quantize_is_idempotent() {
        for precision in [Precision::F16All, Precision::Mixed] {
            for &v in &stress_values(7, 512) {
                let q = precision.quantize(v);
                assert_eq!(q.to_bits(), precision.quantize(q).to_bits());
            }
        }
    }
}
