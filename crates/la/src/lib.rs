//! # kfds-la — dense linear algebra kernels for `kernel-fds`
//!
//! A self-contained, dependency-light dense linear algebra layer providing
//! the LAPACK/BLAS functionality the fast direct solver needs:
//!
//! * [`Mat`]/[`MatRef`]/[`MatMut`] — column-major matrices and strided views;
//! * BLAS level 1–3: [`blas1`], [`blas2`] (GEMV/GER), blocked parallel
//!   [`fn@gemm`] with packing and a register-tile microkernel;
//! * [`Lu`] — partial-pivoted LU (`GETRF`/`GETRS` analogue) with the pivot
//!   stability monitor used by the solver's §III diagnostics;
//! * [`ColPivQr`] — Householder column-pivoted rank-revealing QR with the
//!   paper's `sigma_{s+1}/sigma_1 < tau` truncation rule;
//! * [`interp_decomp`] — the interpolative decomposition (ID) primitive of
//!   ASKIT's skeletonization (Algorithm II.1);
//! * triangular solves ([`tri`]) and power iteration ([`sigma_max`]).
//!
//! Everything here is written from scratch (the Rust crate ecosystem is thin
//! for pivoted QR/ID, which is the paper's key dense kernel) and tested
//! against naive reference implementations and algebraic invariants.

#![warn(unreachable_pub, unnameable_types)]

pub mod blas1;
pub mod blas2;
pub mod cpqr;
pub mod error;
pub mod gemm;
pub mod id;
pub mod lu;
pub mod mat;
pub mod power;
pub mod simd;
pub mod tri;
pub mod workspace;

pub use cpqr::ColPivQr;
pub use error::LaError;
pub use gemm::{gemm, matmul, matmul_op, Trans};
pub use id::{interp_decomp, InterpDecomp};
pub use lu::Lu;
pub use mat::{Mat, MatMut, MatRef};
pub use power::sigma_max;
