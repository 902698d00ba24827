//! Error type shared by every fallible routine in the crate.

use std::fmt;

/// Error returned by the linear-algebra routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Description of the operation that failed.
        operation: &'static str,
        /// Shape of the left / first operand.
        left: (usize, usize),
        /// Shape of the right / second operand.
        right: (usize, usize),
    },
    /// The operation requires a square matrix but received a rectangular one.
    NotSquare {
        /// Description of the operation that failed.
        operation: &'static str,
        /// Actual shape received.
        shape: (usize, usize),
    },
    /// The matrix is singular (or numerically singular) and cannot be factored
    /// or inverted.
    Singular {
        /// Description of the operation that failed.
        operation: &'static str,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    ConvergenceFailure {
        /// Description of the algorithm that failed.
        operation: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input violates a precondition that is not a simple shape constraint.
    InvalidInput {
        /// Explanation of the violated precondition.
        message: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "shape mismatch in {operation}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { operation, shape } => write!(
                f,
                "{operation} requires a square matrix, got {}x{}",
                shape.0, shape.1
            ),
            LinalgError::Singular { operation } => {
                write!(f, "matrix is singular in {operation}")
            }
            LinalgError::ConvergenceFailure {
                operation,
                iterations,
            } => write!(
                f,
                "{operation} failed to converge after {iterations} iterations"
            ),
            LinalgError::InvalidInput { message } => write!(f, "invalid input: {message}"),
        }
    }
}

impl std::error::Error for LinalgError {}

impl LinalgError {
    /// Convenience constructor for [`LinalgError::InvalidInput`].
    pub fn invalid_input(message: impl Into<String>) -> Self {
        LinalgError::InvalidInput {
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = LinalgError::ShapeMismatch {
            operation: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let text = err.to_string();
        assert!(text.contains("matmul"));
        assert!(text.contains("2x3"));
        assert!(text.contains("4x5"));
    }

    #[test]
    fn display_not_square() {
        let err = LinalgError::NotSquare {
            operation: "lu",
            shape: (2, 3),
        };
        assert!(err.to_string().contains("square"));
    }

    #[test]
    fn display_singular() {
        let err = LinalgError::Singular { operation: "solve" };
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn display_convergence() {
        let err = LinalgError::ConvergenceFailure {
            operation: "schur",
            iterations: 30,
        };
        assert!(err.to_string().contains("30"));
    }

    #[test]
    fn display_invalid_input() {
        let err = LinalgError::invalid_input("bad tolerance");
        assert!(err.to_string().contains("bad tolerance"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<LinalgError>();
    }
}
