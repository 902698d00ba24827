//! The suite-wide error type.
//!
//! Before the unified pipeline API every consumer glued the per-crate error
//! types together stringly (`map_err(|e| e.to_string())` at every layer
//! boundary).  [`SuiteError`] replaces that glue: one enum with `From` impls
//! from every crate's error type, so `?` works end-to-end and structured
//! diagnostics — in particular the parser's line/column positions — survive
//! all the way to the consumer (the `ds-serve` daemon puts them in its 400
//! responses).

use ds_circuits::CircuitError;
use ds_descriptor::DescriptorError;
use ds_harness::BuildError;
use ds_linalg::LinalgError;
use ds_lmi::LmiError;
use ds_netlist::ParseError;
use ds_passivity::PassivityError;
use ds_shh::ShhError;
use std::fmt;

/// Any failure the passivity-check pipeline can produce, from deck text to
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// The deck text failed to parse; carries the exact line/column.
    Parse(ParseError),
    /// Netlist validation or MNA stamping failed.
    Circuit(CircuitError),
    /// A passivity test failed structurally.
    Passivity(PassivityError),
    /// A descriptor-system operation failed.
    Descriptor(DescriptorError),
    /// A dense linear-algebra kernel failed.
    Linalg(LinalgError),
    /// The request itself is malformed (empty deck, unknown method name, …).
    InvalidRequest(String),
    /// The request is well-formed but outside the supported envelope
    /// (e.g. the LMI baseline above its practical order limit).
    Unsupported(String),
    /// An I/O failure, with the path or operation baked into the message.
    Io(String),
    /// A harness-layer failure (result store, artifact validation) reported
    /// as text by `ds-harness`.
    Harness(String),
}

impl SuiteError {
    /// The `(line, column)` of a parse failure, when this error carries one —
    /// the daemon surfaces these as structured fields of its 400 responses.
    pub fn parse_location(&self) -> Option<(usize, usize)> {
        match self {
            SuiteError::Parse(e) => Some((e.line, e.col)),
            _ => None,
        }
    }

    /// Stable machine-readable category slug (used by the daemon's error
    /// responses and useful for metrics).
    pub fn kind(&self) -> &'static str {
        match self {
            SuiteError::Parse(_) => "parse",
            SuiteError::Circuit(_) => "circuit",
            SuiteError::Passivity(_) => "passivity",
            SuiteError::Descriptor(_) => "descriptor",
            SuiteError::Linalg(_) => "linalg",
            SuiteError::InvalidRequest(_) => "invalid_request",
            SuiteError::Unsupported(_) => "unsupported",
            SuiteError::Io(_) => "io",
            SuiteError::Harness(_) => "harness",
        }
    }
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Parse(e) => write!(f, "deck parse error: {e}"),
            SuiteError::Circuit(e) => write!(f, "circuit error: {e}"),
            SuiteError::Passivity(e) => write!(f, "passivity test error: {e}"),
            SuiteError::Descriptor(e) => write!(f, "descriptor error: {e}"),
            SuiteError::Linalg(e) => write!(f, "linear-algebra error: {e}"),
            SuiteError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            SuiteError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
            SuiteError::Io(msg) => write!(f, "I/O error: {msg}"),
            SuiteError::Harness(msg) => write!(f, "harness error: {msg}"),
        }
    }
}

impl std::error::Error for SuiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuiteError::Parse(e) => Some(e),
            SuiteError::Circuit(e) => Some(e),
            SuiteError::Passivity(e) => Some(e),
            SuiteError::Descriptor(e) => Some(e),
            SuiteError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for SuiteError {
    fn from(e: ParseError) -> Self {
        SuiteError::Parse(e)
    }
}

impl From<CircuitError> for SuiteError {
    fn from(e: CircuitError) -> Self {
        SuiteError::Circuit(e)
    }
}

impl From<PassivityError> for SuiteError {
    fn from(e: PassivityError) -> Self {
        SuiteError::Passivity(e)
    }
}

impl From<DescriptorError> for SuiteError {
    fn from(e: DescriptorError) -> Self {
        SuiteError::Descriptor(e)
    }
}

impl From<LinalgError> for SuiteError {
    fn from(e: LinalgError) -> Self {
        SuiteError::Linalg(e)
    }
}

impl From<ShhError> for SuiteError {
    fn from(e: ShhError) -> Self {
        SuiteError::Passivity(PassivityError::from(e))
    }
}

impl From<LmiError> for SuiteError {
    fn from(e: LmiError) -> Self {
        SuiteError::Passivity(PassivityError::from(e))
    }
}

impl From<BuildError> for SuiteError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Circuit(e) => e.into(),
            BuildError::Reduction(e) => e.into(),
        }
    }
}

impl From<std::io::Error> for SuiteError {
    fn from(e: std::io::Error) -> Self {
        SuiteError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_keep_their_position() {
        let err = SuiteError::from(ParseError::new(4, 9, "bad token"));
        assert_eq!(err.parse_location(), Some((4, 9)));
        assert_eq!(err.kind(), "parse");
        assert!(err.to_string().contains("line 4, column 9"));
    }

    #[test]
    fn from_impls_cover_the_crate_stack() {
        let circuit: SuiteError = CircuitError::NoPorts.into();
        assert_eq!(circuit.kind(), "circuit");
        assert_eq!(circuit.parse_location(), None);
        let passivity: SuiteError = PassivityError::SingularPencil.into();
        assert_eq!(passivity.kind(), "passivity");
        let io: SuiteError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
    }

    #[test]
    fn error_bounds() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<SuiteError>();
    }
}
