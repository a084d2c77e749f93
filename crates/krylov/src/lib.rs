//! # kfds-krylov — Krylov iterative solvers
//!
//! Restarted GMRES with modified Gram–Schmidt and CGS-style refinement
//! (the PETSc configuration used in the paper's experiments, §IV),
//! recording residual-vs-wall-clock convergence traces — the raw data
//! behind Figure 5.

#![forbid(unsafe_code)]
#![warn(unreachable_pub, unnameable_types)]

pub mod gmres;
pub mod operator;
pub mod precond;

pub use gmres::{gmres, GmresOptions, SolveResult, TraceEntry};
pub use operator::{DenseOp, FnOp, LinOp};
pub use precond::{gmres_right_preconditioned, FnPrecond, Preconditioner};
