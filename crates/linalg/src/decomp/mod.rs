//! Matrix factorizations.
//!
//! Each submodule provides one decomposition together with the solver-style
//! helpers built on top of it:
//!
//! * [`lu`] — LU with partial pivoting, linear solves, determinant, inverse.
//! * [`ldlt`] — Bunch–Kaufman `LDLᵀ` of symmetric indefinite matrices and
//!   their exactly symmetric inverse.
//! * [`qr`] — Householder QR (thin and full), column orthonormalization.
//! * [`hessenberg`] — orthogonal reduction to upper Hessenberg form.
//! * [`schur`] — real Schur form via Francis double-shift QR iteration.
//! * [`svd`] — singular value decomposition via one-sided Jacobi.
//! * [`symmetric`] — symmetric eigendecomposition via cyclic Jacobi.

pub mod hessenberg;
pub mod ldlt;
pub mod lu;
pub mod qr;
pub mod schur;
pub mod svd;
pub mod symmetric;
