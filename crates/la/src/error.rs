//! Error types for the dense linear algebra kernels.

use std::fmt;

/// Failure modes of the dense factorizations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaError {
    /// An exactly-zero pivot was encountered at elimination step `step`.
    Singular {
        /// Elimination step at which the zero pivot appeared.
        step: usize,
    },
    /// A NaN or an infinity reached the LU pivot column at elimination
    /// step `step`. The pivot-ratio monitor cannot see one (`max` and
    /// `min` drop NaN), so it is an error.
    NonFinite {
        /// Elimination step at which the non-finite value appeared.
        step: usize,
    },
}

impl fmt::Display for LaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaError::Singular { step } => {
                write!(f, "matrix is singular (zero pivot at elimination step {step})")
            }
            LaError::NonFinite { step } => {
                write!(f, "matrix holds a NaN or an infinity (elimination step {step})")
            }
        }
    }
}

impl std::error::Error for LaError {}
