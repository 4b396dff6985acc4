//! Error type shared across the storage layer.

use std::fmt;

/// Anything that can go wrong opening, reading, or writing stored
/// artifacts.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The bytes are well-formed I/O but not a valid artifact: bad magic,
    /// unsupported version, inconsistent shape/offsets, or misuse (row out
    /// of range).
    Format(String),
    /// The structure parsed but a checksum or length proves the content
    /// was altered or truncated.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corruption detected: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// A record that does not decode is altered or truncated content.
impl From<v2v_base::bytes::Error> for StoreError {
    fn from(e: v2v_base::bytes::Error) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}
