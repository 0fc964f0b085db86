//! PV array: series/parallel composition of identical modules.
//!
//! The paper sizes the array to the multi-core load it studies (an 8-core
//! chip drawing up to ≈150 W); [`PvArray::solarcore_default`] provides that
//! configuration.

// Conversion-heavy numeric kernel: every `as` cast here must be lossless.
// `cast_possible_truncation` is denied workspace-wide; these two close
// the remaining silent-conversion holes.
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::cell::CellEnv;
use crate::error::PvError;
use crate::generator::PvGenerator;
use crate::module::PvModule;
use crate::mpp::{self, MppPoint};
use crate::units::{Amps, Volts};

/// An array of identical PV modules: `modules_series` in series per string,
/// `strings_parallel` strings in parallel, all under uniform conditions.
///
/// # Examples
///
/// ```
/// use pv::{PvArray, PvModule, CellEnv};
/// use pv::generator::PvGenerator;
///
/// let array = PvArray::new(PvModule::bp3180n(), 1, 1)?;
/// assert!(array.mpp(CellEnv::stc()).power.get() > 170.0);
/// # Ok::<(), pv::PvError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PvArray {
    module: PvModule,
    modules_series: u32,
    strings_parallel: u32,
}

impl PvArray {
    /// Builds an array from a module prototype and a layout.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if either count is zero.
    pub fn new(
        module: PvModule,
        modules_series: u32,
        strings_parallel: u32,
    ) -> Result<Self, PvError> {
        if modules_series == 0 {
            return Err(PvError::InvalidParameter {
                name: "modules_series",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        if strings_parallel == 0 {
            return Err(PvError::InvalidParameter {
                name: "strings_parallel",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(Self {
            module,
            modules_series,
            strings_parallel,
        })
    }

    /// The array configuration used throughout the SolarCore experiments:
    /// a single BP3180N module (180 W nameplate), matching the ≈75–150 W
    /// power range of the simulated 8-core processor (Figures 13–14 plot
    /// budgets up to ~100 W and ~150 W).
    #[expect(
        clippy::expect_used,
        reason = "compile-time-constant paper layout, pinned by a unit test"
    )]
    pub fn solarcore_default() -> Self {
        Self::new(PvModule::bp3180n(), 1, 1).expect("static layout is valid")
    }

    /// The module prototype.
    pub fn module(&self) -> &PvModule {
        &self.module
    }

    /// Modules in series per string.
    pub fn modules_series(&self) -> u32 {
        self.modules_series
    }

    /// Parallel strings.
    pub fn strings_parallel(&self) -> u32 {
        self.strings_parallel
    }
}

impl PvGenerator for PvArray {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        self.module.open_circuit_voltage(env) * self.modules_series as f64
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        let per_module = voltage / self.modules_series as f64;
        let (current, iters) = self.module.current_at_counted(env, per_module)?;
        Ok((current * self.strings_parallel as f64, iters))
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        let module_mpp = mpp::find_mpp(&self.module, env);
        MppPoint {
            voltage: module_mpp.voltage * self.modules_series as f64,
            current: module_mpp.current * self.strings_parallel as f64,
            power: module_mpp.power * (self.modules_series * self.strings_parallel) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;

    #[test]
    fn rejects_zero_layout() {
        assert!(PvArray::new(PvModule::bp3180n(), 0, 1).is_err());
        assert!(PvArray::new(PvModule::bp3180n(), 1, 0).is_err());
    }

    #[test]
    fn two_by_three_array_scales_mpp() {
        let single = PvArray::new(PvModule::bp3180n(), 1, 1).unwrap();
        let array = PvArray::new(PvModule::bp3180n(), 2, 3).unwrap();
        let env = CellEnv::stc();
        let s = single.mpp(env);
        let a = array.mpp(env);
        assert!((a.voltage.get() - 2.0 * s.voltage.get()).abs() < 1e-6);
        assert!((a.current.get() - 3.0 * s.current.get()).abs() < 1e-6);
        assert!((a.power.get() - 6.0 * s.power.get()).abs() < 1e-6);
    }

    #[test]
    fn array_current_consistent_with_module() {
        let array = PvArray::new(PvModule::bp3180n(), 2, 2).unwrap();
        let env = CellEnv::stc();
        let v = Volts::new(72.0); // 36 V per module
        let i = array.current_at(env, v).unwrap();
        let i_module = array.module().current_at(env, Volts::new(36.0)).unwrap();
        assert!((i.get() - 2.0 * i_module.get()).abs() < 1e-9);
    }

    #[test]
    fn default_array_covers_multicore_budget() {
        let array = PvArray::solarcore_default();
        let p: Watts = array.mpp(CellEnv::stc()).power;
        assert!(p.get() > 150.0, "array must cover the 8-core peak: {p}");
    }
}
