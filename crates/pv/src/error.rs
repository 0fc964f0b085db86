//! Error types for the `pv` crate.

use std::error::Error;
use std::fmt;

/// Errors produced by PV model construction and solving.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PvError {
    /// A model parameter was outside its physically meaningful range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint, e.g. `"must be > 0"`.
        constraint: &'static str,
    },
    /// The numerical solver failed to converge.
    NoConvergence {
        /// What was being solved, e.g. `"module current at voltage"`.
        context: &'static str,
        /// Iterations performed before giving up.
        iterations: u32,
    },
    /// Datasheet fitting could not reproduce the requested operating points.
    FitFailed {
        /// Residual error of the best candidate found.
        residual: f64,
    },
}

impl fmt::Display for PvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PvError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter `{name}` = {value}: {constraint}"),
            PvError::NoConvergence {
                context,
                iterations,
            } => write!(
                f,
                "solver did not converge ({context}, {iterations} iterations)"
            ),
            PvError::FitFailed { residual } => {
                write!(f, "datasheet fit failed (best residual {residual:.3e})")
            }
        }
    }
}

impl Error for PvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = PvError::InvalidParameter {
            name: "series_resistance",
            value: -1.0,
            constraint: "must be >= 0",
        };
        let msg = e.to_string();
        assert!(msg.starts_with("invalid parameter"));
        assert!(!msg.ends_with('.'));

        let e = PvError::NoConvergence {
            context: "mpp search",
            iterations: 200,
        };
        assert!(e.to_string().contains("200"));

        let e = PvError::FitFailed { residual: 0.5 };
        assert!(e.to_string().contains("fit failed"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PvError>();
    }
}
