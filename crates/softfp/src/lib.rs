//! Software floating-point support for the PuDianNao reproduction.
//!
//! PuDianNao's MLU implements its Adder, Multiplier and Adder-tree stages
//! with **16-bit floating-point units** to save area (the paper reports a
//! 16-bit multiplier at 20.07% the area of the 32-bit one), while the
//! Counter, Acc and Misc stages stay at 32 bits to avoid overflow. Its
//! per-FU ALU carries fp32<->fp16 converters, and the Misc stage computes
//! non-linear functions by **piecewise-linear interpolation**; the ALU
//! computes `log` via a **Taylor expansion of `log(1-x)`**.
//!
//! This crate provides all of those building blocks in software, bit-
//! accurately, so the simulated datapath rounds exactly like the hardware
//! would:
//!
//! - [`F16`] — IEEE-754 binary16 with round-to-nearest-even conversions and
//!   arithmetic. Arithmetic is correctly rounded: because binary32 has
//!   `p2 = 24 >= 2 * p1 + 2 = 24` significand bits, computing in `f32` and
//!   rounding once to binary16 yields the correctly rounded binary16 result
//!   for `+`, `-`, `*`, `/` and `sqrt`. A pure integer implementation of
//!   add/mul ([`int_path`]) cross-checks this claim under proptest.
//!   Conversions are built for speed: `to_f32` is one load from a
//!   compile-time 64 Ki-entry table, `from_f32` takes a single branch for
//!   every normal result, and [`batch`] fuses whole-slice conversions —
//!   all bit-identical to the scalar reference paths (`from_f32_scalar`,
//!   `to_f32_scalar`), proven by exhaustive tests. [`quantize`] rounds an
//!   `f32` onto the binary16 grid without a table or a branch, for loops
//!   that process many lanes at once.
//! - [`InterpTable`] — the Misc stage's linear-interpolation unit, with
//!   ready-made tables for sigmoid, tanh, exp, and the Gaussian kernel.
//! - [`taylor_log1m`] / [`taylor_ln`] — the ALU's Taylor-series logarithm.
//!
//! # Examples
//!
//! ```
//! use pudiannao_softfp::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.25);
//! assert_eq!((a + b).to_f32(), 3.75);
//! // Precision is 11 bits: 1/3 rounds.
//! let third = F16::from_f32(1.0 / 3.0);
//! assert!((third.to_f32() - 1.0 / 3.0).abs() < 2e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// ^ `!(x > 0.0)` is used deliberately in validation: unlike `x <= 0.0`
// it also rejects NaN, which is exactly what config checks want.

pub mod batch;
mod f16;
pub mod int_path;
mod interp;
mod taylor;

pub use f16::{quantize, F16};
pub use interp::{InterpError, InterpTable, NonLinearFn};
pub use taylor::{taylor_ln, taylor_log1m, taylor_log2};
