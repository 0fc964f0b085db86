//! PV module: series/parallel composition of identical cells, with robust
//! terminal I-V solving (Section 3 of the paper).
//!
//! A module is `Ns` cells in series forming a string, and `Np` identical
//! strings in parallel. Under uniform irradiance and temperature the module
//! equation reduces to the cell equation with `v_cell = V / Ns` and
//! `i_cell = I / Np`.

// Conversion-heavy numeric kernel: every `as` cast here must be lossless.
// `cast_possible_truncation` is denied workspace-wide; these two close
// the remaining silent-conversion holes.
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::cell::{CellEnv, CellParams};
use crate::datasheet::Datasheet;
use crate::error::PvError;
use crate::mpp::{self, MppPoint};
use crate::solve::ModuleSolver;
use crate::units::{Amps, Volts, Watts};

/// A photovoltaic module (or, with `strings_parallel > 1`, a small array of
/// identical series strings) under uniform conditions.
///
/// # Examples
///
/// ```
/// use pv::{PvModule, CellEnv};
/// use pv::units::Volts;
///
/// let module = PvModule::bp3180n();
/// let env = CellEnv::stc();
/// let i = module.current_at(env, Volts::new(36.0))?;
/// assert!(i.get() > 4.5 && i.get() < 5.5);
/// # Ok::<(), pv::PvError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PvModule {
    name: String,
    cell: CellParams,
    cells_series: u32,
    strings_parallel: u32,
}

impl PvModule {
    /// Builds a module from cell parameters and a series/parallel layout.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if either count is zero.
    pub fn new(
        name: impl Into<String>,
        cell: CellParams,
        cells_series: u32,
        strings_parallel: u32,
    ) -> Result<Self, PvError> {
        if cells_series == 0 {
            return Err(PvError::InvalidParameter {
                name: "cells_series",
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
            name: name.into(),
            cell,
            cells_series,
            strings_parallel,
        })
    }

    /// The BP3180N 180 W polycrystalline module studied in the paper:
    /// 72 series cells, `Pmax = 180 W`, `Vmp = 36.1 V`, `Imp = 4.98 A`,
    /// `Voc = 44.8 V`, `Isc = 5.4 A`. Parameters are extracted from the
    /// datasheet via [`Datasheet::fit`].
    #[expect(
        clippy::expect_used,
        reason = "compile-time-constant datasheet, pinned by a unit test"
    )]
    pub fn bp3180n() -> Self {
        Datasheet::bp3180n()
            .fit()
            .expect("BP3180N datasheet parameters are known-good")
    }

    /// Human-readable module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying cell model.
    pub fn cell(&self) -> &CellParams {
        &self.cell
    }

    /// Number of series-connected cells per string.
    pub fn cells_series(&self) -> u32 {
        self.cells_series
    }

    /// Number of parallel strings.
    pub fn strings_parallel(&self) -> u32 {
        self.strings_parallel
    }

    /// Open-circuit voltage `Voc` under the given environment (closed form,
    /// since no current flows through the series resistance).
    ///
    /// Returns zero volts in darkness.
    pub fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        self.solver(env).open_circuit_voltage()
    }

    /// Resolves a per-environment [`ModuleSolver`]: the `(G, T)`-dependent
    /// coefficients are computed once and shared by every solve made
    /// through the returned handle. Results are bitwise identical to the
    /// corresponding [`PvModule`] methods, which all delegate here.
    pub fn solver(&self, env: CellEnv) -> ModuleSolver<'_> {
        ModuleSolver::new(self, env)
    }

    /// Short-circuit current `Isc` under the given environment.
    #[expect(
        clippy::expect_used,
        reason = "V=0 root is bracketed by construction (residual invariant test)"
    )]
    pub fn short_circuit_current(&self, env: CellEnv) -> Amps {
        self.current_at(env, Volts::ZERO)
            .expect("short-circuit solve is always bracketed")
    }

    /// Terminal voltage at a prescribed per-module current (closed form):
    /// `V = Ns·(n·Vt·ln((Iph − i)/I0 + 1) − i·Rs)` with `i = I / Np`.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if the requested current exceeds
    /// the photocurrent (the module cannot source it at positive voltage).
    pub fn voltage_at(&self, env: CellEnv, current: Amps) -> Result<Volts, PvError> {
        let i_cell = current.get() / self.strings_parallel as f64;
        let iph = self.cell.photocurrent(env).get();
        let i0 = self.cell.saturation_current(env.temperature).get();
        if i_cell >= iph {
            return Err(PvError::InvalidParameter {
                name: "current",
                value: current.get(),
                constraint: "must be below the photocurrent",
            });
        }
        let nvt = self.cell.n_vt(env.temperature);
        let v_cell =
            nvt * ((iph - i_cell) / i0 + 1.0).ln() - i_cell * self.cell.series_resistance.get();
        Ok(Volts::new(v_cell * self.cells_series as f64))
    }

    /// Module output current at a prescribed terminal voltage, solved with a
    /// bracketed Newton/bisection hybrid on the implicit cell equation.
    ///
    /// Valid for any finite non-negative voltage; beyond `Voc` the returned
    /// current is negative (the diode conducts), mirroring the physics.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::NoConvergence`] if the solver exhausts its
    /// iteration budget (not expected for physical inputs) and
    /// [`PvError::InvalidParameter`] for non-finite voltage.
    pub fn current_at(&self, env: CellEnv, voltage: Volts) -> Result<Amps, PvError> {
        self.solver(env).current_at(voltage)
    }

    /// [`Self::current_at`] plus the solver-iteration count, for telemetry;
    /// see [`ModuleSolver::current_at_counted`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::current_at`].
    pub fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        self.solver(env).current_at_counted(voltage)
    }

    /// Output power at a prescribed terminal voltage.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Self::current_at`].
    pub fn power_at(&self, env: CellEnv, voltage: Volts) -> Result<Watts, PvError> {
        Ok(voltage * self.current_at(env, voltage)?)
    }

    /// Locates the maximum power point under the given environment.
    ///
    /// Delegates to [`mpp::find_mpp`]; see that function for the algorithm.
    pub fn mpp(&self, env: CellEnv) -> MppPoint {
        mpp::find_mpp(self, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Celsius, Irradiance};

    fn stc() -> CellEnv {
        CellEnv::stc()
    }

    #[test]
    fn rejects_zero_layout() {
        let cell = PvModule::bp3180n().cell;
        assert!(PvModule::new("m", cell, 0, 1).is_err());
        assert!(PvModule::new("m", cell, 72, 0).is_err());
    }

    #[test]
    fn bp3180n_matches_datasheet_at_stc() {
        let m = PvModule::bp3180n();
        let isc = m.short_circuit_current(stc());
        let voc = m.open_circuit_voltage(stc());
        assert!((isc.get() - 5.4).abs() < 0.1, "Isc = {isc}");
        assert!((voc.get() - 44.8).abs() < 0.5, "Voc = {voc}");
        let mpp = m.mpp(stc());
        assert!(
            (mpp.power.get() - 180.0).abs() < 5.0,
            "Pmax = {}",
            mpp.power
        );
        assert!(
            (mpp.voltage.get() - 36.1).abs() < 1.5,
            "Vmp = {}",
            mpp.voltage
        );
        assert!(
            (mpp.current.get() - 4.98).abs() < 0.25,
            "Imp = {}",
            mpp.current
        );
    }

    #[test]
    fn current_is_monotone_decreasing_in_voltage() {
        let m = PvModule::bp3180n();
        let mut prev = f64::INFINITY;
        for step in 0..=45 {
            let v = Volts::new(step as f64);
            let i = m.current_at(stc(), v).unwrap().get();
            assert!(i < prev + 1e-9, "I-V must be non-increasing");
            prev = i;
        }
    }

    #[test]
    fn current_beyond_voc_is_negative() {
        let m = PvModule::bp3180n();
        let voc = m.open_circuit_voltage(stc());
        let i = m.current_at(stc(), voc + Volts::new(1.0)).unwrap();
        assert!(i.get() < 0.0);
    }

    #[test]
    fn voltage_at_is_inverse_of_current_at() {
        let m = PvModule::bp3180n();
        for amps in [0.5, 2.0, 4.0, 5.0] {
            let v = m.voltage_at(stc(), Amps::new(amps)).unwrap();
            let i = m.current_at(stc(), v).unwrap();
            assert!((i.get() - amps).abs() < 1e-6, "roundtrip at {amps} A");
        }
    }

    #[test]
    fn voltage_at_rejects_current_above_photocurrent() {
        let m = PvModule::bp3180n();
        assert!(m.voltage_at(stc(), Amps::new(10.0)).is_err());
    }

    #[test]
    fn higher_irradiance_raises_isc_and_mpp() {
        let m = PvModule::bp3180n();
        let half = CellEnv::new(Irradiance::new(500.0), Celsius::new(25.0));
        let isc_half = m.short_circuit_current(half);
        let isc_full = m.short_circuit_current(stc());
        assert!((isc_half.get() * 2.0 - isc_full.get()).abs() < 0.05);
        assert!(m.mpp(half).power < m.mpp(stc()).power);
    }

    #[test]
    fn higher_temperature_lowers_voc_and_power() {
        // Figure 7 of the paper: Voc drops and Pmax falls as T rises.
        let m = PvModule::bp3180n();
        let hot = CellEnv::new(Irradiance::new(1000.0), Celsius::new(75.0));
        assert!(m.open_circuit_voltage(hot) < m.open_circuit_voltage(stc()));
        assert!(m.mpp(hot).power < m.mpp(stc()).power);
        // And Isc increases slightly with temperature.
        assert!(m.short_circuit_current(hot) > m.short_circuit_current(stc()));
    }

    #[test]
    fn darkness_produces_no_power() {
        let m = PvModule::bp3180n();
        let dark = CellEnv::dark(Celsius::new(25.0));
        assert_eq!(m.open_circuit_voltage(dark), Volts::ZERO);
        let i = m.current_at(dark, Volts::new(5.0)).unwrap();
        assert!(i.get() <= 0.0, "dark current flows backwards");
    }

    #[test]
    fn parallel_strings_scale_current_not_voltage() {
        let single = PvModule::bp3180n();
        let double = PvModule::new("2p", *single.cell(), single.cells_series(), 2).unwrap();
        let env = stc();
        assert_eq!(
            single.open_circuit_voltage(env),
            double.open_circuit_voltage(env)
        );
        let i1 = single.short_circuit_current(env);
        let i2 = double.short_circuit_current(env);
        assert!((i2.get() - 2.0 * i1.get()).abs() < 1e-6);
    }

    #[test]
    fn rejects_non_finite_voltage() {
        let m = PvModule::bp3180n();
        assert!(m.current_at(stc(), Volts::new(f64::NAN)).is_err());
        assert!(m.current_at(stc(), Volts::new(f64::INFINITY)).is_err());
    }
}
