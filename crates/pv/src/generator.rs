//! The [`PvGenerator`] abstraction: anything with a photovoltaic I-V
//! characteristic (a module, an array, a mock in tests).

use crate::cell::CellEnv;
use crate::error::PvError;
use crate::mpp::MppPoint;
use crate::units::{Amps, Volts, Watts};

/// A photovoltaic source with an I-V characteristic parameterized by the
/// environment.
///
/// Implementors provide one evaluation method,
/// [`current_at_counted`](Self::current_at_counted), which returns the
/// current together with the inner solver iterations it cost.
/// [`current_at`](Self::current_at) and [`power_at`](Self::power_at) are
/// derived from it, so the plain and counted paths cannot drift apart.
/// Pass-through wrappers (the memo, the telemetry counter) observe each
/// evaluation by wrapping that one method.
///
/// The trait is object-safe so power-delivery code can hold a
/// `Box<dyn PvGenerator>`.
pub trait PvGenerator {
    /// Open-circuit voltage under `env` (zero in darkness).
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts;

    /// Output current at terminal voltage `voltage`, plus the number of
    /// inner solver iterations the evaluation cost — the telemetry
    /// subsystem's per-evaluation cost signal. Closed-form or mocked
    /// sources report zero iterations, and so does a memo hit.
    ///
    /// # Errors
    ///
    /// Implementations return an error for non-finite voltages or solver
    /// failure.
    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError>;

    /// The true maximum power point under `env` (the oracle the tracking
    /// efficiency is measured against).
    fn mpp(&self, env: CellEnv) -> MppPoint;

    /// Output current at terminal voltage `voltage`:
    /// [`Self::current_at_counted`] without the iteration count.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::current_at_counted`].
    fn current_at(&self, env: CellEnv, voltage: Volts) -> Result<Amps, PvError> {
        Ok(self.current_at_counted(env, voltage)?.0)
    }

    /// Output power at terminal voltage `voltage`.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::current_at`] errors.
    fn power_at(&self, env: CellEnv, voltage: Volts) -> Result<Watts, PvError> {
        Ok(voltage * self.current_at(env, voltage)?)
    }
}

impl PvGenerator for crate::module::PvModule {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        crate::module::PvModule::open_circuit_voltage(self, env)
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        self.solver(env).current_at_counted(voltage)
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        crate::module::PvModule::mpp(self, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::PvModule;

    #[test]
    fn trait_is_object_safe_and_usable() {
        let boxed: Box<dyn PvGenerator> = Box::new(PvModule::bp3180n());
        let env = CellEnv::stc();
        let voc = boxed.open_circuit_voltage(env);
        assert!(voc.get() > 40.0);
        let p = boxed.power_at(env, Volts::new(36.0)).unwrap();
        assert!(p.get() > 150.0);
        assert!(boxed.mpp(env).power.get() > 170.0);
    }
}
