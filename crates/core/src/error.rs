//! Error type for the passivity tests.

use ds_descriptor::DescriptorError;
use ds_linalg::LinalgError;
use ds_lmi::LmiError;
use ds_shh::ShhError;
use std::fmt;

/// Error returned by the passivity tests.
///
/// Errors are reserved for *structural* problems (wrong dimensions, singular
/// pencils, numerical breakdowns).  "The system is not passive" is never an
/// error — it is reported through
/// [`PassivityVerdict`](crate::report::PassivityVerdict).
#[derive(Debug, Clone, PartialEq)]
pub enum PassivityError {
    /// The system has a different number of inputs and outputs.
    NotSquareSystem {
        /// Number of inputs.
        inputs: usize,
        /// Number of outputs.
        outputs: usize,
    },
    /// The pencil `(E, A)` is singular, so the transfer function is not
    /// defined.
    SingularPencil,
    /// The reduction produced an inconsistent intermediate system (typically a
    /// symptom of extreme ill-conditioning); the diagnostic string says which
    /// stage failed.
    ReductionBreakdown {
        /// Which stage broke down and why.
        details: String,
    },
    /// A numerical kernel failed underneath.
    Numerical(LinalgError),
    /// A descriptor-system operation failed underneath.
    Descriptor(DescriptorError),
    /// An SHH-pencil operation failed underneath.
    Shh(ShhError),
    /// An LMI / ARE operation failed underneath.
    Lmi(LmiError),
}

impl fmt::Display for PassivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassivityError::NotSquareSystem { inputs, outputs } => write!(
                f,
                "passivity is defined for square systems only; got {inputs} inputs and {outputs} outputs"
            ),
            PassivityError::SingularPencil => {
                write!(f, "the matrix pencil (E, A) is singular")
            }
            PassivityError::ReductionBreakdown { details } => {
                write!(f, "reduction breakdown: {details}")
            }
            PassivityError::Numerical(e) => write!(f, "numerical kernel failed: {e}"),
            PassivityError::Descriptor(e) => write!(f, "descriptor operation failed: {e}"),
            PassivityError::Shh(e) => write!(f, "SHH-pencil operation failed: {e}"),
            PassivityError::Lmi(e) => write!(f, "LMI/ARE operation failed: {e}"),
        }
    }
}

impl std::error::Error for PassivityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PassivityError::Numerical(e) => Some(e),
            PassivityError::Descriptor(e) => Some(e),
            PassivityError::Shh(e) => Some(e),
            PassivityError::Lmi(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for PassivityError {
    fn from(e: LinalgError) -> Self {
        PassivityError::Numerical(e)
    }
}

impl From<DescriptorError> for PassivityError {
    fn from(e: DescriptorError) -> Self {
        match e {
            DescriptorError::SingularPencil => PassivityError::SingularPencil,
            other => PassivityError::Descriptor(other),
        }
    }
}

impl From<ShhError> for PassivityError {
    fn from(e: ShhError) -> Self {
        PassivityError::Shh(e)
    }
}

impl From<LmiError> for PassivityError {
    fn from(e: LmiError) -> Self {
        PassivityError::Lmi(e)
    }
}

impl PassivityError {
    /// Convenience constructor for [`PassivityError::ReductionBreakdown`].
    pub fn breakdown(details: impl Into<String>) -> Self {
        PassivityError::ReductionBreakdown {
            details: details.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PassivityError::SingularPencil
            .to_string()
            .contains("singular"));
        assert!(PassivityError::breakdown("stage 2 failed")
            .to_string()
            .contains("stage 2"));
        assert!(PassivityError::NotSquareSystem {
            inputs: 1,
            outputs: 2
        }
        .to_string()
        .contains("square"));
    }

    #[test]
    fn singular_pencil_mapped_from_descriptor_error() {
        let e: PassivityError = DescriptorError::SingularPencil.into();
        assert_eq!(e, PassivityError::SingularPencil);
    }

    #[test]
    fn sources_preserved() {
        let e: PassivityError = LinalgError::Singular { operation: "lu" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let s: PassivityError = ShhError::ImaginaryAxisEigenvalues.into();
        assert!(std::error::Error::source(&s).is_some());
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<PassivityError>();
    }
}
