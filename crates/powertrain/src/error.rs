//! Error types for the `powertrain` crate.

use std::error::Error;
use std::fmt;

use pv::error::PvError;

/// Errors produced by power-delivery components.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PowerError {
    /// A converter parameter was out of range.
    InvalidConverter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// A transfer-ratio request fell outside the converter's range.
    RatioOutOfRange {
        /// The requested ratio.
        requested: f64,
        /// Minimum supported ratio.
        min: f64,
        /// Maximum supported ratio.
        max: f64,
    },
    /// An ATS parameter was out of range.
    InvalidSwitch {
        /// What was wrong.
        reason: &'static str,
    },
    /// The PV generator failed to evaluate a probe of the operating-point
    /// solve.
    Pv(PvError),
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerError::InvalidConverter {
                name,
                value,
                constraint,
            } => write!(
                f,
                "invalid converter parameter `{name}` = {value}: {constraint}"
            ),
            PowerError::RatioOutOfRange {
                requested,
                min,
                max,
            } => write!(f, "transfer ratio {requested} outside [{min}, {max}]"),
            PowerError::InvalidSwitch { reason } => write!(f, "invalid transfer switch: {reason}"),
            PowerError::Pv(e) => write!(f, "operating-point solve failed: {e}"),
        }
    }
}

impl Error for PowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PowerError::Pv(e) => Some(e),
            PowerError::InvalidConverter { .. }
            | PowerError::RatioOutOfRange { .. }
            | PowerError::InvalidSwitch { .. } => None,
        }
    }
}

impl From<PvError> for PowerError {
    fn from(e: PvError) -> Self {
        PowerError::Pv(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_meaningful() {
        let e = PowerError::RatioOutOfRange {
            requested: 9.0,
            min: 0.5,
            max: 8.0,
        };
        assert!(e.to_string().contains('9'));
        let e = PowerError::InvalidSwitch { reason: "bad" };
        assert!(e.to_string().contains("bad"));
    }
}
