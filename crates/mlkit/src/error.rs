//! Crate error type.

use core::fmt;

/// Errors from training or prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A dataset with zero instances (or zero features) was supplied where
    /// data is required.
    EmptyDataset,
    /// Feature dimensionality differed between fit and predict, or between
    /// two inputs that must agree.
    DimensionMismatch {
        /// Dimension the model expects.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// The dataset has fewer instances than the technique needs.
    TooFewInstances {
        /// Instances the technique needs at least.
        required: usize,
        /// Instances actually supplied.
        actual: usize,
    },
    /// A hyper-parameter was out of its valid range.
    InvalidConfig(&'static str),
    /// The model has not been trained yet.
    NotFitted,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyDataset => f.write_str("dataset has no instances or no features"),
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::TooFewInstances { required, actual } => {
                write!(f, "too few instances: need at least {required}, got {actual}")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::NotFitted => f.write_str("model has not been fitted"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(Error::EmptyDataset.to_string(), "dataset has no instances or no features");
        assert_eq!(
            Error::DimensionMismatch { expected: 3, actual: 5 }.to_string(),
            "dimension mismatch: expected 3, got 5"
        );
        assert_eq!(
            Error::TooFewInstances { required: 2, actual: 1 }.to_string(),
            "too few instances: need at least 2, got 1"
        );
        assert_eq!(
            Error::InvalidConfig("k must be > 0").to_string(),
            "invalid configuration: k must be > 0"
        );
        assert_eq!(Error::NotFitted.to_string(), "model has not been fitted");
    }
}
