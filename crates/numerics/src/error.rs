//! Error type shared by the numeric substrate.

use std::fmt;

/// Errors produced by numeric conversions and statistics routines.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A value could not be represented in the requested fixed-point format.
    FixedOverflow {
        /// The value that overflowed.
        value: f64,
        /// The format it was being converted into.
        format: crate::fixed::QFormat,
    },
    /// Two fixed-point operands had incompatible Q formats.
    QFormatMismatch {
        /// Format of the left operand.
        lhs: crate::fixed::QFormat,
        /// Format of the right operand.
        rhs: crate::fixed::QFormat,
    },
    /// A statistics routine was asked to operate on an empty slice.
    EmptyInput,
    /// The inverse square root of a non-positive value was requested.
    NonPositive(f64),
    /// A batched kernel was handed buffers of inconsistent lengths.
    LengthMismatch {
        /// Which buffer was inconsistent.
        what: &'static str,
        /// The length the kernel expected.
        expected: usize,
        /// The length it received.
        actual: usize,
    },
    /// A quantizer was constructed with a non-finite or non-positive scale.
    InvalidScale(f32),
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::FixedOverflow { value, format } => {
                write!(
                    f,
                    "value {value} does not fit in fixed-point format {format}"
                )
            }
            NumericError::QFormatMismatch { lhs, rhs } => {
                write!(f, "fixed-point format mismatch: {lhs} vs {rhs}")
            }
            NumericError::EmptyInput => write!(f, "input slice is empty"),
            NumericError::NonPositive(v) => {
                write!(f, "inverse square root requires a positive input, got {v}")
            }
            NumericError::LengthMismatch {
                what,
                expected,
                actual,
            } => write!(
                f,
                "length mismatch: {what} has {actual} elements, expected {expected}"
            ),
            NumericError::InvalidScale(s) => write!(f, "invalid quantization scale {s}"),
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::QFormat;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = NumericError::FixedOverflow {
            value: 1.0e9,
            format: QFormat::new(16, 16),
        };
        let msg = err.to_string();
        assert!(msg.contains("1000000000"));
        assert!(msg.starts_with("value"));

        assert_eq!(NumericError::EmptyInput.to_string(), "input slice is empty");
        assert!(NumericError::NonPositive(-1.0).to_string().contains("-1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
