//! # ds-lmi
//!
//! LMI positive-realness substrate for descriptor systems.
//!
//! This crate provides the "conventional" baseline the DAC 2006 paper
//! compares against: [`positive_real_lmi`], the extended positive-real LMI for
//! descriptor systems (paper eq. (4), after Freund & Jarre) together with a
//! first-order feasibility solver (projected gradient on the cone-violation
//! objective).  A general-purpose interior-point SDP solver would reproduce
//! the paper's O(n⁵)–O(n⁶) complexity even more faithfully, but even this
//! deliberately simple solver is orders of magnitude slower than the
//! structured O(n³) test, which is the comparison the paper makes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod positive_real_lmi;

pub use error::LmiError;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::error::LmiError;
    pub use crate::positive_real_lmi::{LmiOptions, LmiOutcome};
}
