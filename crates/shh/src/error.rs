//! Error type for SHH-pencil operations.

use ds_descriptor::DescriptorError;
use ds_linalg::LinalgError;
use std::fmt;

/// Error returned by the SHH-pencil routines.
#[derive(Debug, Clone, PartialEq)]
pub enum ShhError {
    /// The input does not have the required (skew-)Hamiltonian structure.
    StructureViolation {
        /// Which structure was expected and how badly it is violated.
        details: String,
    },
    /// The input has an odd dimension or otherwise cannot be interpreted as a
    /// `2n x 2n` structured matrix.
    BadDimension {
        /// Actual shape received.
        shape: (usize, usize),
    },
    /// The requested operation needs a square (equal inputs/outputs) system.
    NotSquareSystem {
        /// Number of inputs.
        inputs: usize,
        /// Number of outputs.
        outputs: usize,
    },
    /// A spectral splitting failed because eigenvalues sit (numerically) on the
    /// imaginary axis.
    ImaginaryAxisEigenvalues,
    /// A numerical kernel failed underneath.
    Numerical(LinalgError),
    /// A descriptor-system operation failed underneath.
    Descriptor(DescriptorError),
    /// Generic invalid input.
    InvalidInput {
        /// Explanation of the violated precondition.
        message: String,
    },
}

impl fmt::Display for ShhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShhError::StructureViolation { details } => {
                write!(f, "structure violation: {details}")
            }
            ShhError::BadDimension { shape } => write!(
                f,
                "expected an even-dimensional square matrix, got {}x{}",
                shape.0, shape.1
            ),
            ShhError::NotSquareSystem { inputs, outputs } => write!(
                f,
                "operation requires a square system, got {inputs} inputs and {outputs} outputs"
            ),
            ShhError::ImaginaryAxisEigenvalues => write!(
                f,
                "spectral splitting failed: eigenvalues on the imaginary axis"
            ),
            ShhError::Numerical(e) => write!(f, "numerical kernel failed: {e}"),
            ShhError::Descriptor(e) => write!(f, "descriptor operation failed: {e}"),
            ShhError::InvalidInput { message } => write!(f, "invalid input: {message}"),
        }
    }
}

impl std::error::Error for ShhError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShhError::Numerical(e) => Some(e),
            ShhError::Descriptor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ShhError {
    fn from(e: LinalgError) -> Self {
        ShhError::Numerical(e)
    }
}

impl From<DescriptorError> for ShhError {
    fn from(e: DescriptorError) -> Self {
        ShhError::Descriptor(e)
    }
}

impl ShhError {
    /// Convenience constructor for [`ShhError::InvalidInput`].
    pub fn invalid_input(message: impl Into<String>) -> Self {
        ShhError::InvalidInput {
            message: message.into(),
        }
    }

    /// Convenience constructor for [`ShhError::StructureViolation`].
    pub fn structure(details: impl Into<String>) -> Self {
        ShhError::StructureViolation {
            details: details.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ShhError::BadDimension { shape: (3, 3) }
            .to_string()
            .contains("3x3"));
        assert!(ShhError::structure("not Hamiltonian")
            .to_string()
            .contains("not Hamiltonian"));
        assert!(ShhError::ImaginaryAxisEigenvalues
            .to_string()
            .contains("imaginary axis"));
    }

    #[test]
    fn conversions_keep_source() {
        let e: ShhError = LinalgError::Singular { operation: "lu" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let d: ShhError = DescriptorError::SingularPencil.into();
        assert!(std::error::Error::source(&d).is_some());
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ShhError>();
    }
}
