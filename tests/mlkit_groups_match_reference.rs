//! Differential test of mlkit's grouped reductions: `RowBlocks::dots` and
//! `RowBlocks::squared_distances`, which reduce `GROUP` rows side by side
//! for the SVM kernel rows and LR's predictions, must return, bit for
//! bit, what the scalar `Precision::dot` / `Precision::squared_distance`
//! chains return row by row, in every precision.
//!
//! The shapes put 1, 7, 8, 9 and 17 rows in the blocks, so groups are
//! full, partial, or both, at widths around the group size. The operand
//! class cycles with the row, so every group mixes NaNs and infinities,
//! values beyond binary16's range, binary16 subnormals, signed zeros and
//! an all-zero row. A special value that leaked from one row's lane into
//! another would change that row's result. An all-negative query against
//! the all-zero row sums negative zeros, which only an `f32` accumulator
//! starting at `-0.0` (as `Iterator::sum` does) keeps negative.

use pudiannao::datasets::Matrix;
use pudiannao::mlkit::precision::{RowBlocks, GROUP};
use pudiannao::mlkit::Precision;

const ROWS: [usize; 5] = [1, 7, 8, 9, 17];
const WIDTHS: [usize; 5] = [1, 15, 16, 17, 129];
const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16All, Precision::Mixed];

/// Element `pos` of operand row `row`; the class cycles with the row.
fn operand(row: usize, pos: usize) -> f32 {
    let sign = if pos.is_multiple_of(2) { 1.0 } else { -1.0 };
    match row % 5 {
        // NaN and both infinities among ordinary values.
        0 => match pos % 7 {
            2 => f32::NAN,
            4 => f32::INFINITY,
            6 => f32::NEG_INFINITY,
            _ => 0.3 + pos as f32 * 0.01,
        },
        // |x| >= 65520: binary16 rounds these to infinity, f32 keeps them.
        1 => sign * (65520.0 + ((pos + row) % 3) as f32 * 1000.0),
        // Binary16 subnormals and values that round to zero.
        2 => ((pos * 3 + row) % 9) as f32 * 1.3e-6 - 5e-6,
        // Signed zeros.
        3 => sign * 0.0,
        // An all-zero row.
        _ => 0.0,
    }
}

/// Queries of `width`: ordinary values of both signs, an all-negative
/// one, one whose products and squares overflow binary16, one whose
/// squares overflow `f32`, a subnormal one, and the NaN/infinity row.
fn queries(width: usize) -> Vec<Vec<f32>> {
    let make = |f: &dyn Fn(usize) -> f32| (0..width).map(f).collect();
    vec![
        make(&|p| 1.1 - (p % 7) as f32 * 0.37),
        make(&|p| -(0.5 + (p % 5) as f32 * 0.25)),
        make(&|p| 300.0 - (p % 4) as f32 * 41.3),
        make(&|p| 3e38 - (p % 3) as f32 * 1e37),
        make(&|p| (p % 6) as f32 * 2.1e-6 - 4e-6),
        make(&|p| operand(0, p)),
    ]
}

/// What the special cases of one precision's results reached.
#[derive(Default)]
struct Reached {
    negative_zero: bool,
    nan: bool,
    infinity: bool,
}

impl Reached {
    fn note(&mut self, v: f32) {
        self.negative_zero |= v.to_bits() == (-0.0f32).to_bits();
        self.nan |= v.is_nan();
        self.infinity |= v.is_infinite();
    }
}

/// Checks one grouped reduction against its scalar reference for every
/// starting row `from`: rows of the blocks from the one holding `from` on
/// must carry the reference's bits, and earlier entries stay untouched.
fn check(
    what: &str,
    m: &Matrix,
    query: &[f32],
    grouped: impl Fn(&[f32], usize, &mut [f32]),
    scalar: impl Fn(&[f32], &[f32]) -> f32,
    reached: &mut Reached,
) {
    let rows = m.rows();
    let want: Vec<u32> = (0..rows).map(|r| scalar(query, m.row(r)).to_bits()).collect();
    for from in 0..rows {
        let start = from / GROUP * GROUP;
        let mut out = vec![f32::MAX; rows];
        grouped(query, from, &mut out);
        for (r, &v) in out.iter().enumerate() {
            if r < start {
                assert_eq!(v, f32::MAX, "{what}: from {from} wrote row {r} before its block");
            } else {
                assert_eq!(
                    v.to_bits(),
                    want[r],
                    "{what}: row {r} from {from}: grouped {v:?}, scalar {:?}",
                    f32::from_bits(want[r])
                );
                reached.note(v);
            }
        }
    }
}

#[test]
fn grouped_dots_and_distances_match_scalar_chains() {
    let mut reached: Vec<Reached> = PRECISIONS.iter().map(|_| Reached::default()).collect();
    for rows in ROWS {
        for width in WIDTHS {
            let data = (0..rows * width).map(|i| operand(i / width, i % width)).collect();
            let m = Matrix::from_vec(data, rows, width);
            for (precision, reached) in PRECISIONS.into_iter().zip(&mut reached) {
                let blocks = RowBlocks::new(precision, &m);
                assert_eq!((blocks.rows(), blocks.cols()), (rows, width));
                for (q, query) in queries(width).iter().enumerate() {
                    let what = format!("{precision:?} {rows}x{width} query {q}");
                    check(
                        &format!("dot {what}"),
                        &m,
                        query,
                        |x, from, out| blocks.dots(x, from, out),
                        |x, row| precision.dot(x, row),
                        reached,
                    );
                    check(
                        &format!("distance {what}"),
                        &m,
                        query,
                        |x, from, out| blocks.squared_distances(x, from, out),
                        |x, row| precision.squared_distance(x, row),
                        reached,
                    );
                }
            }
        }
    }
    for (precision, reached) in PRECISIONS.iter().zip(&reached) {
        assert!(reached.nan, "{precision:?}: no result was NaN");
        assert!(reached.infinity, "{precision:?}: no result was infinite");
    }
    assert!(reached[0].negative_zero, "no F32 dot summed to -0.0");
}

#[test]
fn row_blocks_round_rows_through_their_precision() {
    // A binary16 mode reduces the rows it stored rounded, and its queries
    // rounded too, so pre-rounding either side changes nothing.
    let raw: Vec<f32> = (0..3 * 5).map(|i| 0.1 + i as f32 * 0.37).collect();
    let rounded: Vec<f32> = raw.iter().map(|&v| Precision::Mixed.quantize(v)).collect();
    let query: Vec<f32> = (0..5).map(|i| 1.0 / (i as f32 + 3.0)).collect();
    let rounded_query: Vec<f32> = query.iter().map(|&v| Precision::Mixed.quantize(v)).collect();
    let from_raw = RowBlocks::new(Precision::Mixed, &Matrix::from_vec(raw, 3, 5));
    let from_rounded = RowBlocks::new(Precision::Mixed, &Matrix::from_vec(rounded, 3, 5));
    assert_eq!(from_raw, from_rounded);
    let (mut a, mut b) = ([0.0f32; 3], [0.0f32; 3]);
    from_raw.dots(&query, 0, &mut a);
    from_raw.dots(&rounded_query, 0, &mut b);
    assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits));
}
