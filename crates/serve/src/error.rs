//! Error type of the serving layer.

use std::fmt;

/// Errors surfaced by the serving engine and its decode groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request was malformed (empty or out-of-vocabulary prompt, mismatched
    /// pool, a stream that cannot migrate).
    InvalidRequest(String),
    /// The admission controller refused the stream: the K/V pool is above its
    /// shed watermark (or the stream could never fit). Nothing was allocated;
    /// retry after roughly the carried hint.
    Shed {
        /// Suggested client backoff before re-offering, microseconds.
        retry_after_us: u64,
    },
    /// The stream was handed back through `retire`: its slot (or session
    /// record) may already serve another stream, so the handle addresses
    /// nothing.
    Retired,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
            ServeError::Shed { retry_after_us } => write!(
                f,
                "stream shed by admission control; retry after ~{retry_after_us} us"
            ),
            ServeError::Retired => write!(f, "stream already retired"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let invalid = ServeError::InvalidRequest("cols = 0".to_string());
        assert!(invalid.to_string().contains("cols = 0"));
        let shed = ServeError::Shed {
            retry_after_us: 750,
        };
        assert!(shed.to_string().contains("750"));
    }
}
