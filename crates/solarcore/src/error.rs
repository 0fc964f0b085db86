//! Error types for the `solarcore` crate.

use std::error::Error;
use std::fmt;

use archsim::ArchError;
use powertrain::PowerError;
use telemetry::SinkError;

/// Errors produced by the SolarCore controller, tuner and engine.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The controller configuration failed validation.
    InvalidConfig {
        /// Which constraint was violated.
        reason: &'static str,
    },
    /// A chip operation was rejected by the architecture substrate.
    Arch(ArchError),
    /// A power-delivery component rejected its configuration.
    Power(PowerError),
    /// A scheduler or TPR table promised a V/F step that does not exist —
    /// an internal consistency failure between table and chip state.
    LevelExhausted {
        /// Core whose level could not move.
        core: usize,
    },
    /// The telemetry sink rejected a record. Instrumented runs propagate
    /// this instead of silently dropping observability data.
    Telemetry(SinkError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => {
                write!(f, "invalid controller configuration: {reason}")
            }
            CoreError::Arch(e) => write!(f, "chip operation failed: {e}"),
            CoreError::Power(e) => write!(f, "power-train operation failed: {e}"),
            CoreError::LevelExhausted { core } => {
                write!(f, "core {core} has no V/F level in the requested direction")
            }
            CoreError::Telemetry(e) => write!(f, "telemetry emission failed: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Arch(e) => Some(e),
            CoreError::Power(e) => Some(e),
            CoreError::Telemetry(e) => Some(e),
            CoreError::InvalidConfig { .. } | CoreError::LevelExhausted { .. } => None,
        }
    }
}

impl From<ArchError> for CoreError {
    fn from(e: ArchError) -> Self {
        CoreError::Arch(e)
    }
}

impl From<PowerError> for CoreError {
    fn from(e: PowerError) -> Self {
        CoreError::Power(e)
    }
}

impl From<SinkError> for CoreError {
    fn from(e: SinkError) -> Self {
        CoreError::Telemetry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_meaningful() {
        let e = CoreError::InvalidConfig {
            reason: "max_rounds must be positive",
        };
        assert!(e.to_string().contains("max_rounds"));
        let e = CoreError::LevelExhausted { core: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn wraps_component_errors_with_sources() {
        let arch = ArchError::InvalidCore { index: 9, cores: 8 };
        let e: CoreError = arch.into();
        assert_eq!(e, CoreError::Arch(arch));
        assert!(Error::source(&e).is_some());
    }
}
