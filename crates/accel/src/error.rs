//! The crate-level error type.

use crate::config::ConfigError;
use crate::exec::ExecError;
use crate::isa::ProgramError;
use crate::timing::DecodeError;
use core::fmt;

/// Unified error for everything the accelerator crate can fail at:
/// configuration validation, program construction and execution. All
/// the narrower error types convert into it, so
/// `?` composes across the whole API surface:
///
/// ```
/// use pudiannao_accel::{isa, Accelerator, ArchConfig, Dram, Error};
///
/// fn smallest_run() -> Result<u64, Error> {
///     let program = isa::Program::builder()
///         .instruction(
///             isa::Instruction::builder("dot")
///                 .hot_load(0, 0, 16, 1)
///                 .cold_load(16, 0, 16, 1)
///                 .out_store(64, 1, 1)
///                 .fu(isa::FuOps::dot_broadcast(None)),
///         )
///         .build()?; // ProgramError -> Error
///     let mut accel = Accelerator::new(ArchConfig::paper_default())?; // ExecError -> Error
///     let report = accel.run(&program, &mut Dram::new(1024))?;
///     Ok(report.stats.cycles)
/// }
/// assert!(smallest_run().unwrap() > 0);
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Execution failed (includes decode and bounds violations).
    Exec(ExecError),
    /// A program failed validation.
    Program(ProgramError),
    /// The architecture configuration is invalid.
    Config(ConfigError),
}

impl Error {
    /// The underlying [`ExecError`], when execution is what failed —
    /// the campaign-style caller's hook for classifying run outcomes
    /// (e.g. [`ExecError::is_fault_detection`]) without matching on the
    /// non-exhaustive enum.
    #[must_use]
    pub fn as_exec(&self) -> Option<&ExecError> {
        match self {
            Error::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Exec(e) => write!(f, "execution: {e}"),
            Error::Program(e) => write!(f, "program: {e}"),
            Error::Config(e) => write!(f, "configuration: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec(e) => Some(e),
            Error::Program(e) => Some(e),
            Error::Config(e) => Some(e),
        }
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Error {
        Error::Exec(e)
    }
}

impl From<ProgramError> for Error {
    fn from(e: ProgramError) -> Error {
        Error::Program(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Error {
        Error::Config(e)
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Error {
        Error::Exec(ExecError::Decode(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = ProgramError::Empty.into();
        assert!(matches!(e, Error::Program(_)));
        assert!(e.to_string().contains("at least one instruction"));

        let e: Error = ConfigError::ZeroCompute.into();
        assert!(e.to_string().starts_with("configuration:"));

        let e: Error = ExecError::Malformed("broken").into();
        assert!(e.to_string().contains("broken"));
        assert!(e.as_exec().is_some());
        assert!(Error::from(ProgramError::Empty).as_exec().is_none());

        let e: Error = DecodeError::UnsupportedCombination.into();
        assert!(matches!(e, Error::Exec(ExecError::Decode(_))));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e: Error = ProgramError::Empty.into();
        assert!(e.source().is_some());
    }
}
