//! # kfds-kernels — kernel functions and fast kernel summation
//!
//! The paper's algorithms reduce to multiplying kernel sub-matrices with
//! vectors ("kernel summation", §II-D). This crate provides:
//!
//! * [`function`] — Gaussian, Laplacian, Matérn-3/2 and polynomial kernels
//!   behind the [`Kernel`] trait, all evaluable from `(x·y, ‖x‖², ‖y‖²)`;
//! * [`eval`] — materialized kernel blocks (the "stored GEMV" mode);
//! * [`mod@reference`] — the two-pass `GEMM → kernel → GEMV` pipeline (the
//!   paper's "MKL+VML" baseline, Table I);
//! * [`gsks`] — the fused, matrix-free summation (GSKS, \[24\]): the kernel
//!   transform and the reduction happen inside the GEMM register tile, so
//!   the `m x n` block is never stored;
//! * [`flops`] — flop/memory-operation accounting used by the benchmark
//!   harnesses to report GFLOP/s the way the paper does.

#![forbid(unsafe_code)]

pub mod eval;
pub mod flops;
pub mod function;
pub mod gsks;
pub mod reference;

pub use eval::{
    eval_block, eval_block_range, eval_symmetric, gemm_eval_active, set_gemm_eval_enabled,
};
pub use function::{Gaussian, Kernel, Laplacian, Matern32, Polynomial};
pub use gsks::{sum_fused, sum_fused_multi};
pub use reference::{gather_coords, kernel_block_gemm, sum_reference, sum_reference_multi};
