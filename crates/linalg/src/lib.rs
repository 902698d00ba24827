//! # ds-linalg
//!
//! Dense numerical linear algebra substrate for the descriptor-system passivity
//! suite.  Everything is implemented from scratch in Rust on top of a single
//! row-major [`Matrix`] type: no BLAS/LAPACK bindings are used.  The one
//! `unsafe` block is [`simd::wide`]'s call into its AVX2 instance, made after
//! the CPU has reported the feature.
//!
//! The crate provides exactly the kernels the DAC 2006 passivity test needs:
//!
//! * factorizations: [`decomp::lu`], [`decomp::ldlt`] (Bunch–Kaufman),
//!   [`decomp::qr`], [`decomp::hessenberg`], [`decomp::schur`] (Francis
//!   double-shift real Schur), [`decomp::svd`] (one-sided Jacobi),
//!   [`decomp::symmetric`] (cyclic Jacobi),
//! * eigenvalues of general and symmetric matrices ([`eigen`]),
//! * SVD-based subspace arithmetic — null spaces, ranges, complements,
//!   subtraction ([`subspace`]),
//! * the matrix sign function, general and Hamiltonian ([`sign`]),
//! * Moore–Penrose pseudo-inverse ([`pinv`]),
//! * reusable per-dimension scratch buffers for the eigen/sign hot path
//!   ([`workspace`]): the `_in` kernel variants run with zero heap allocation
//!   in steady state, and the classic entry points route their scratch
//!   through a per-thread [`workspace::WorkspacePool`] automatically,
//! * one runtime dispatch of the dense kernels to an AVX2 instance that
//!   returns the same bits ([`simd`]).
//!
//! # Example
//!
//! ```
//! # use ds_linalg::prelude::*;
//! # fn main() -> Result<(), ds_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
//! let eig = ds_linalg::eigen::eigenvalues(&a)?;
//! assert_eq!(eig.len(), 2);
//! let x = ds_linalg::decomp::lu::solve(&a, &Matrix::identity(2))?;
//! assert!((&(&a * &x) - &Matrix::identity(2)).norm_fro() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod decomp;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod pinv;
pub mod scalar;
pub mod sign;
pub mod simd;
pub mod sparse;
pub mod subspace;
pub mod workspace;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use scalar::Complex;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::error::LinalgError;
    pub use crate::matrix::Matrix;
    pub use crate::scalar::Complex;
}

/// Default relative tolerance used across the crate when none is supplied.
///
/// Rank decisions, convergence thresholds and structural checks scale this by
/// the relevant matrix norm and dimension.
pub const DEFAULT_RELATIVE_TOLERANCE: f64 = 1e-10;

/// Machine epsilon for `f64`, re-exported for convenience.
pub const EPS: f64 = f64::EPSILON;
