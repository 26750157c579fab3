//! Error type shared by the assembler, encoder, and validators.

use std::fmt;

/// Errors produced by the SASS toolchain.
#[derive(Debug, Clone, PartialEq)]
pub enum SassError {
    /// A register index does not fit the 6-bit encoding field.
    RegisterOutOfRange {
        /// The offending index.
        index: u8,
    },
    /// A predicate index does not fit the 3-bit encoding field.
    PredicateOutOfRange {
        /// The offending index.
        index: u8,
    },
    /// Parse error in assembly text.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An undefined label was referenced.
    UndefinedLabel {
        /// The label name.
        name: String,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// The label name.
        name: String,
    },
    /// Binary decoding failed.
    Decode {
        /// Byte offset of the failure.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// Structural validation failed (alignment, register budget, ...).
    Validate {
        /// Instruction index within the kernel, if applicable.
        index: Option<usize>,
        /// Description of the violated constraint.
        message: String,
    },
    /// The module container bytes are malformed.
    Container {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for SassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SassError::RegisterOutOfRange { index } => {
                write!(f, "register index {index} exceeds the 6-bit field (max 63)")
            }
            SassError::PredicateOutOfRange { index } => {
                write!(f, "predicate index {index} exceeds the 3-bit field (max 7)")
            }
            SassError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SassError::UndefinedLabel { name } => write!(f, "undefined label `{name}`"),
            SassError::DuplicateLabel { name } => write!(f, "duplicate label `{name}`"),
            SassError::Decode { offset, message } => {
                write!(f, "decode error at byte {offset}: {message}")
            }
            SassError::Validate { index, message } => match index {
                Some(i) => write!(f, "instruction {i}: {message}"),
                None => f.write_str(message),
            },
            SassError::Container { message } => write!(f, "malformed module: {message}"),
        }
    }
}

impl std::error::Error for SassError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = SassError::RegisterOutOfRange { index: 70 };
        assert!(e.to_string().contains("70"));
        let e = SassError::Parse {
            line: 3,
            message: "expected register".into(),
        };
        assert_eq!(e.to_string(), "line 3: expected register");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<SassError>();
    }
}
