//! Error type for the LMI routines.

use ds_descriptor::DescriptorError;
use ds_linalg::LinalgError;
use std::fmt;

/// Error returned by the LMI solver.
#[derive(Debug, Clone, PartialEq)]
pub enum LmiError {
    /// The requested operation needs a square (equal inputs/outputs) system.
    NotSquareSystem {
        /// Number of inputs.
        inputs: usize,
        /// Number of outputs.
        outputs: usize,
    },
    /// A numerical kernel failed underneath.
    Numerical(LinalgError),
    /// A descriptor-system operation failed underneath.
    Descriptor(DescriptorError),
}

impl fmt::Display for LmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LmiError::NotSquareSystem { inputs, outputs } => write!(
                f,
                "operation requires a square system, got {inputs} inputs and {outputs} outputs"
            ),
            LmiError::Numerical(e) => write!(f, "numerical kernel failed: {e}"),
            LmiError::Descriptor(e) => write!(f, "descriptor operation failed: {e}"),
        }
    }
}

impl std::error::Error for LmiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LmiError::Numerical(e) => Some(e),
            LmiError::Descriptor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for LmiError {
    fn from(e: LinalgError) -> Self {
        LmiError::Numerical(e)
    }
}

impl From<DescriptorError> for LmiError {
    fn from(e: DescriptorError) -> Self {
        LmiError::Descriptor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(LmiError::NotSquareSystem {
            inputs: 1,
            outputs: 2
        }
        .to_string()
        .contains("2 outputs"));
        assert!(LmiError::from(LinalgError::Singular { operation: "lu" })
            .to_string()
            .contains("singular"));
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<LmiError>();
    }
}
