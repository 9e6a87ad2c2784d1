//! Differential test of the executor's MLU reductions: single distance,
//! dot and counting instructions run through `Accelerator::run` must
//! reproduce, word for word, a per-pair reference written with public
//! `softfp::F16` arithmetic.
//!
//! The executor reduces the adder trees of one instruction several rows
//! at a time. The shapes below put 1, 7, 8, 9 and 17 rows on each side,
//! so groups are full, partial, or both, and every group mixes operand
//! classes row by row: values binary16 cannot represent exactly,
//! binary16 subnormals, values whose squares and products overflow (one
//! beyond the binary16 range outright) and NaNs. A NaN or infinity that
//! leaked from one row's lane into another would change that row's word.

use pudiannao::accel::isa::{
    BufferRead, CounterOp, FuOps, Instruction, MiscOp, OutputSlot, Program, ReadOp, WriteOp,
};
use pudiannao::accel::{Accelerator, ArchConfig, Dram, KSorter};
use pudiannao::softfp::{InterpTable, NonLinearFn, F16};

const ROWS: [usize; 5] = [1, 7, 8, 9, 17];
const WIDTHS: [usize; 6] = [1, 15, 16, 17, 65, 129];
const LANES: [u32; 5] = [1, 15, 16, 17, 32];

const HOT_DRAM: u64 = 0;
const COLD_DRAM: u64 = 10_000;
const SEED_DRAM: u64 = 20_000;
const OUT_DRAM: u64 = 30_000;
/// Tag of hot row 0 in sorter outputs.
const HOT_ROW_BASE: u64 = 100;
/// Neighbours the sorter keeps.
const K: usize = 3;

/// Element `pos` of operand row `row`. The class cycles with the row over
/// five classes, so across the groups of a 17-row operand each lane
/// position meets several classes.
fn operand(row: usize, pos: usize) -> f32 {
    match row % 5 {
        // Not binary16-exact.
        0 => ((pos + row / 5) % 5) as f32 * 0.1 + 0.013 * (pos % 3) as f32,
        // Binary16 subnormals, so differences and products underflow.
        1 => ((pos * 3 + row) % 7) as f32 * 1.1e-6 - 3.3e-6,
        // Squares and products overflow; 7e4 is past binary16's range.
        2 if pos % 11 == 5 => 7e4,
        2 => {
            (250.0 + ((pos + row) % 9) as f32 * 13.7)
                * if pos.is_multiple_of(2) { 1.0 } else { -1.0 }
        }
        // NaNs among small values, with -0.0 among them.
        3 if pos % 5 == 2 => f32::NAN,
        3 => -(((pos + row) % 5) as f32) * 0.1,
        // Not binary16-exact, of both signs.
        _ => 1.1 - (pos % 7) as f32 * 0.37,
    }
}

/// `rows` operand rows of `width`, starting at class `first`.
fn operands(rows: usize, width: usize, first: usize) -> Vec<Vec<f32>> {
    (0..rows).map(|r| (0..width).map(|p| operand(first + r, p)).collect()).collect()
}

/// Seeded OutputBuf words, -0.0 among them.
fn seeds(n: usize) -> Vec<f32> {
    (0..n).map(|i| if i.is_multiple_of(2) { -0.0 } else { (i % 7) as f32 * 0.75 - 1.5 }).collect()
}

/// The F16 adder tree over one lane chunk, split at `ceil(n / 2)`.
fn tree(a: &[f32], b: &[f32], leaf: fn(F16, F16) -> F16) -> F16 {
    match a.len() {
        0 => F16::ZERO,
        1 => leaf(F16::from_f32(a[0]), F16::from_f32(b[0])),
        n => {
            let mid = n.div_ceil(2);
            tree(&a[..mid], &b[..mid], leaf) + tree(&a[mid..], &b[mid..], leaf)
        }
    }
}

/// The MLU on one row pair: `lanes`-wide chunks, each summed by the F16
/// adder tree, accumulated in f32 from +0.0 (the Acc stage).
fn mlu(a: &[f32], b: &[f32], lanes: u32, leaf: fn(F16, F16) -> F16) -> f32 {
    let lanes = lanes as usize;
    a.chunks(lanes).zip(b.chunks(lanes)).fold(0.0, |acc, (x, y)| acc + tree(x, y, leaf).to_f32())
}

fn squared_difference(a: F16, b: F16) -> F16 {
    let d = a - b;
    d * d
}

fn product(a: F16, b: F16) -> F16 {
    a * b
}

/// A seeded output slot: partials loaded from `SEED_DRAM`, results
/// stored to `OUT_DRAM`.
fn seeded(stride: usize, iter: usize) -> OutputSlot {
    OutputSlot {
        read_op: ReadOp::Load,
        read_dram_addr: SEED_DRAM,
        addr: 0,
        stride: stride as u32,
        iter: iter as u32,
        write_op: WriteOp::Store,
        write_dram_addr: OUT_DRAM,
    }
}

/// One operand shape: the lane count, the row width, and the hot and
/// cold operand rows.
struct Shape {
    config: ArchConfig,
    width: usize,
    hot: Vec<Vec<f32>>,
    cold: Vec<Vec<f32>>,
}

impl Shape {
    fn lanes(&self) -> u32 {
        self.config.lanes
    }

    /// Runs `fu` over this shape's rows with output slot `out`, seeding
    /// DRAM with `seed`, and returns the `out.elems()` words it stored;
    /// `None` when the output does not fit the OutputBuf.
    fn run(&self, fu: FuOps, out: OutputSlot, seed: &[f32]) -> Option<Vec<f32>> {
        let n_out = out.elems() as usize;
        if n_out > self.config.outputbuf_elems() as usize {
            return None;
        }
        let w = self.width as u32;
        let inst = Instruction {
            name: "grouped".into(),
            hot: BufferRead::load(HOT_DRAM, 0, w, self.hot.len() as u32),
            cold: BufferRead::load(COLD_DRAM, 0, w, self.cold.len() as u32),
            out,
            fu,
            hot_row_base: HOT_ROW_BASE,
        };
        let mut dram = Dram::new(OUT_DRAM as usize + n_out);
        dram.write_f32(HOT_DRAM, &self.hot.concat());
        dram.write_f32(COLD_DRAM, &self.cold.concat());
        dram.write_f32(SEED_DRAM, seed);
        let mut accel = Accelerator::new(self.config.clone()).expect("valid config");
        accel.run(&Program::new(vec![inst]).expect("one instruction"), &mut dram).expect("runs");
        Some(dram.read_f32(OUT_DRAM, n_out))
    }

    fn interp(&self, f: NonLinearFn) -> InterpTable {
        InterpTable::for_function(f, self.config.interp_segments).expect("segments > 0")
    }
}

/// Calls `check` on every lane count, width and pair of row counts,
/// with the cold rows' classes offset from the hot rows'.
fn for_each_shape(mut check: impl FnMut(&Shape)) {
    for lanes in LANES {
        let config = ArchConfig { lanes, ..ArchConfig::paper_default() };
        for width in WIDTHS {
            for hot_rows in ROWS {
                for cold_rows in ROWS {
                    check(&Shape {
                        config: config.clone(),
                        width,
                        hot: operands(hot_rows, width, 0),
                        cold: operands(cold_rows, width, 1),
                    });
                }
            }
        }
    }
}

/// Asserts `got` equals `want` bit for bit.
fn assert_words(got: &[f32], want: &[f32], what: &str, shape: &Shape) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: word {i} is {g} (want {w}); lanes {} width {} hot {} cold {}",
            shape.lanes(),
            shape.width,
            shape.hot.len(),
            shape.cold.len()
        );
    }
}

#[test]
fn distance_with_sorter_matches_reference() {
    let mut nan_offered = false;
    for_each_shape(|shape| {
        let n_cold = shape.cold.len();
        let out = OutputSlot::store(OUT_DRAM, 2 * K as u32, n_cold as u32);
        let got = shape.run(FuOps::distance(Some(K as u32)), out, &[]).expect("fits");
        let mut want = Vec::new();
        for c in &shape.cold {
            let mut sorter = KSorter::new(K);
            for (h, row) in shape.hot.iter().enumerate() {
                let d = mlu(row, c, shape.lanes(), squared_difference);
                nan_offered |= d.is_nan();
                sorter.offer(d, HOT_ROW_BASE + h as u64);
            }
            sorter.write_output_into(&mut want);
        }
        assert_words(&got, &want, "distance + sort", shape);
    });
    assert!(nan_offered, "no shape offered the sorter a NaN distance");
}

#[test]
fn plain_distance_with_exp_neg_matches_reference() {
    let (mut infinite, mut finite) = (false, false);
    for_each_shape(|shape| {
        let n_hot = shape.hot.len();
        let mut fu = FuOps::distance(None);
        fu.misc = MiscOp::Interp(NonLinearFn::ExpNeg);
        let out = OutputSlot::store(OUT_DRAM, n_hot as u32, shape.cold.len() as u32);
        let got = shape.run(fu, out, &[]).expect("fits");
        let table = shape.interp(NonLinearFn::ExpNeg);
        let mut want = Vec::new();
        for c in &shape.cold {
            for row in &shape.hot {
                let d = mlu(row, c, shape.lanes(), squared_difference);
                infinite |= d.is_infinite();
                finite |= d.is_finite() && d > 0.0;
                want.push(table.eval(d));
            }
        }
        assert_words(&got, &want, "distance + exp(-x)", shape);
    });
    assert!(infinite && finite, "the operands must reach both overflowing and finite distances");
}

#[test]
fn pairwise_dot_with_seeded_outputs_matches_reference() {
    let mut subnormal = false;
    for_each_shape(|shape| {
        // One hot row decodes as a broadcast dot, which fills the same
        // words: out[c][0] += dot(hot[0], cold[c]).
        let n_hot = shape.hot.len();
        let n_out = n_hot * shape.cold.len();
        let seed = seeds(n_out);
        let got = shape.run(FuOps::dot_broadcast(None), seeded(n_hot, shape.cold.len()), &seed);
        let got = got.expect("fits");
        let mut want = seed.clone();
        for (c, cold) in shape.cold.iter().enumerate() {
            for (h, hot) in shape.hot.iter().enumerate() {
                let d = mlu(hot, cold, shape.lanes(), product);
                subnormal |= d != 0.0 && d.abs() < 6.1e-5;
                want[c * n_hot + h] += d;
            }
        }
        assert_words(&got, &want, "pairwise dot", shape);
    });
    assert!(subnormal, "no dot product reached the binary16 subnormal range");
}

#[test]
fn broadcast_dot_with_sigmoid_matches_reference() {
    for_each_shape(|shape| {
        // One hot row: the cold rows are the adder trees.
        let [hot] = &shape.hot[..] else { return };
        let n_cold = shape.cold.len();
        let seed = seeds(n_cold);
        let fu = FuOps::dot_broadcast(Some(NonLinearFn::Sigmoid));
        let got = shape.run(fu, seeded(1, n_cold), &seed).expect("fits");
        let table = shape.interp(NonLinearFn::Sigmoid);
        let want: Vec<f32> = (shape.cold.iter().zip(&seed))
            .map(|(cold, s)| table.eval(s + mlu(hot, cold, shape.lanes(), product)))
            .collect();
        assert_words(&got, &want, "broadcast dot + sigmoid", shape);
    });
}

#[test]
fn counting_with_seeded_counters_matches_reference() {
    let (mut skipped, mut negative_zero_kept) = (0, false);
    for op in [CounterOp::CountEq, CounterOp::CountGt] {
        for_each_shape(|shape| {
            let (n_hot, width) = (shape.hot.len(), shape.width);
            let seed = seeds(n_hot * width);
            let Some(got) = shape.run(FuOps::count(op), seeded(width, n_hot), &seed) else {
                skipped += 1;
                return;
            };
            let mut want = seed.clone();
            for cold in &shape.cold {
                for (h, cand) in shape.hot.iter().enumerate() {
                    for (pos, (&x, &cd)) in cold.iter().zip(cand).enumerate() {
                        // The fill rounds both operands to binary16; the
                        // comparison is IEEE's, so -0.0 == 0.0 and NaN
                        // never hits.
                        let (x, cd) = (F16::from_f32(x).to_f32(), F16::from_f32(cd).to_f32());
                        let hit = match op {
                            CounterOp::CountEq => x == cd,
                            _ => x > cd,
                        };
                        if hit {
                            want[h * width + pos] += 1.0;
                        }
                    }
                }
            }
            negative_zero_kept |= got.iter().any(|v| v.to_bits() == (-0.0f32).to_bits());
            assert_words(&got, &want, &format!("{op:?}"), shape);
        });
    }
    // Only 17 candidate rows of 129 counters overflow OutputBuf's 2048
    // words, at every lane count, for both operations.
    assert_eq!(skipped, 2 * LANES.len() * ROWS.len());
    assert!(negative_zero_kept, "no -0.0 counter survived a miss");
}
