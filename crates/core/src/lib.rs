//! # ds-passivity
//!
//! A fast passivity test for descriptor systems via structure-preserving
//! transformations of skew-Hamiltonian/Hamiltonian matrix pencils — a full
//! reimplementation of Wong & Chu, DAC 2006.
//!
//! ## What this crate provides
//!
//! * [`fast`] — the paper's O(n³) passivity test ([`fast::check_passivity`]):
//!   build `Φ(s) = G(s) + G~(s)` as an SHH pencil, cancel the impulsive modes,
//!   extract `M₁` and the stable proper part, and test positive realness with
//!   the Hamiltonian-eigenvalue test.
//! * [`reduction`] — the structure-preserving reductions of paper
//!   eqs. (11)–(20) as reusable building blocks.
//! * [`proper`] — the proper-part extraction of eqs. (21)–(23)
//!   (the paper's "sidetrack" deliverable).
//! * [`residue`] — `M₁` extraction from grade-1/grade-2 generalized
//!   eigenvector chains (eqs. (24)–(25)).
//! * [`weierstrass_test`] — the Weierstrass-decomposition baseline the paper
//!   compares against.
//! * [`lmi_test`] — the extended-LMI baseline (Freund–Jarre, paper eq. (4)).
//! * [`report`] — verdicts and per-stage diagnostics shared by all three
//!   tests.  The proposed test times its stages with `ds-obs` spans.
//!
//! ## Quick start
//!
//! ```
//! use ds_linalg::Matrix;
//! use ds_descriptor::DescriptorSystem;
//! use ds_passivity::fast::{check_passivity, FastTestOptions};
//!
//! # fn main() -> Result<(), ds_passivity::PassivityError> {
//! // Impedance of a series RL branch: G(s) = 2 + 0.8 s  (passive, impulsive).
//! let e = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
//! let a = Matrix::identity(2);
//! let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
//! let c = Matrix::from_rows(&[&[-0.8, 0.0]]);
//! let d = Matrix::filled(1, 1, 2.0);
//! let sys = DescriptorSystem::new(e, a, b, c, d)?;
//!
//! let report = check_passivity(&sys, &FastTestOptions::default())?;
//! assert!(report.verdict.is_passive());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enforce;
pub mod error;
pub mod fast;
pub mod lmi_test;
pub mod proper;
pub mod reduction;
pub mod report;
pub mod residue;
pub mod weierstrass_test;

pub use error::PassivityError;
pub use report::{NonPassivityReason, PassivityReport, PassivityVerdict};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::error::PassivityError;
    pub use crate::fast::{check_passivity, FastTestOptions};
    pub use crate::report::{NonPassivityReason, PassivityReport, PassivityVerdict};
}
