//! # ds-descriptor
//!
//! Descriptor-system (singular state-space) substrate for the DAC 2006
//! passivity-test reproduction.
//!
//! A linear time-invariant continuous-time descriptor system (DS) is
//!
//! ```text
//! E x'(t) = A x(t) + B u(t)
//!   y(t)  = C x(t) + D u(t)
//! ```
//!
//! with `E` possibly singular, transfer function `G(s) = D + C (sE − A)⁻¹ B`.
//! This crate provides:
//!
//! * the [`DescriptorSystem`] and [`StateSpace`] types ([`system`]),
//! * transfer-function evaluation on the imaginary axis and elsewhere
//!   ([`transfer`]),
//! * restricted-system-equivalence / strong-equivalence transforms and the SVD
//!   coordinate form ([`transform`]),
//! * the impulse-freeness / impulse-observability / impulse-controllability
//!   tests of Section 2.5 of the paper ([`impulse`]),
//! * the Weierstrass-style additive decomposition into a proper part and Markov
//!   parameters ([`weierstrass`]), and
//! * finite-pole and stability analysis ([`poles`]).
//!
//! # Example
//!
//! ```
//! use ds_descriptor::system::DescriptorSystem;
//! use ds_linalg::Matrix;
//!
//! # fn main() -> Result<(), ds_descriptor::DescriptorError> {
//! // A 1-port RC shunt in index-1 descriptor form.
//! let e = Matrix::diag(&[1.0, 0.0]);
//! let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
//! let b = Matrix::from_rows(&[&[1.0], &[1.0]]);
//! let c = Matrix::from_rows(&[&[1.0, 1.0]]);
//! let d = Matrix::zeros(1, 1);
//! let sys = DescriptorSystem::new(e, a, b, c, d)?;
//! assert!(sys.is_regular(1e-9)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod impulse;
pub mod poles;
pub mod system;
pub mod transfer;
pub mod transform;
pub mod weierstrass;

pub use error::DescriptorError;
pub use system::{DescriptorSystem, StateSpace};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::error::DescriptorError;
    pub use crate::system::{DescriptorSystem, StateSpace};
}
