//! Single-diode solar-cell model (Section 2.1 of the paper).
//!
//! The cell is a current source `Iph` in parallel with a diode, plus a
//! series resistance `Rs`. Shunt resistance is neglected (as in the paper).
//! Both the photocurrent and the diode saturation current carry the standard
//! irradiance/temperature dependence:
//!
//! * `Iph(G, T) = (G / G_ref) · (Iph_ref + Ki · (T − T_ref))`
//! * `I0(T) = I0_ref · (T/T_ref)³ · exp(q·Eg/(n·k) · (1/T_ref − 1/T))`

use crate::constants::{
    thermal_voltage, BOLTZMANN, ELEMENTARY_CHARGE, SILICON_BANDGAP_EV, STC_IRRADIANCE,
    STC_TEMPERATURE,
};
use crate::error::PvError;
use crate::units::{Amps, Celsius, Irradiance, Ohms, Volts};

/// Ambient conditions seen by a cell: plane-of-array irradiance and cell
/// temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellEnv {
    /// Plane-of-array irradiance.
    pub irradiance: Irradiance,
    /// Cell (junction) temperature.
    pub temperature: Celsius,
}

impl CellEnv {
    /// Creates a new environment.
    pub const fn new(irradiance: Irradiance, temperature: Celsius) -> Self {
        Self {
            irradiance,
            temperature,
        }
    }

    /// Standard test conditions: 1000 W/m², 25 °C.
    pub const fn stc() -> Self {
        Self::new(STC_IRRADIANCE, STC_TEMPERATURE)
    }

    /// Night/darkness: zero irradiance at the given temperature.
    pub const fn dark(temperature: Celsius) -> Self {
        Self::new(Irradiance::ZERO, temperature)
    }
}

impl Default for CellEnv {
    fn default() -> Self {
        Self::stc()
    }
}

/// Electrical parameters of a single PV cell, referenced to standard test
/// conditions (STC: 1000 W/m², 25 °C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Photocurrent at STC, ≈ the short-circuit current of a good cell.
    pub photocurrent_stc: Amps,
    /// Diode reverse-saturation current at STC.
    pub saturation_current_stc: Amps,
    /// Diode ideality factor `n` (1.0–2.0 for silicon).
    pub ideality: f64,
    /// Lumped series resistance per cell.
    pub series_resistance: Ohms,
    /// Short-circuit current temperature coefficient `Ki` in A/°C.
    pub isc_temp_coeff: f64,
}

impl CellParams {
    /// Validates and constructs cell parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if any value is outside its
    /// physical range (currents must be positive, ideality in `[0.5, 3]`,
    /// series resistance non-negative).
    pub fn new(
        photocurrent_stc: Amps,
        saturation_current_stc: Amps,
        ideality: f64,
        series_resistance: Ohms,
        isc_temp_coeff: f64,
    ) -> Result<Self, PvError> {
        if photocurrent_stc.get() <= 0.0 || photocurrent_stc.get().is_nan() {
            return Err(PvError::InvalidParameter {
                name: "photocurrent_stc",
                value: photocurrent_stc.get(),
                constraint: "must be > 0",
            });
        }
        if saturation_current_stc.get() <= 0.0 || saturation_current_stc.get().is_nan() {
            return Err(PvError::InvalidParameter {
                name: "saturation_current_stc",
                value: saturation_current_stc.get(),
                constraint: "must be > 0",
            });
        }
        if !(0.5..=3.0).contains(&ideality) {
            return Err(PvError::InvalidParameter {
                name: "ideality",
                value: ideality,
                constraint: "must be in [0.5, 3.0]",
            });
        }
        if !(series_resistance.get() >= 0.0 && series_resistance.get().is_finite()) {
            return Err(PvError::InvalidParameter {
                name: "series_resistance",
                value: series_resistance.get(),
                constraint: "must be >= 0 and finite",
            });
        }
        if !isc_temp_coeff.is_finite() {
            return Err(PvError::InvalidParameter {
                name: "isc_temp_coeff",
                value: isc_temp_coeff,
                constraint: "must be finite",
            });
        }
        Ok(Self {
            photocurrent_stc,
            saturation_current_stc,
            ideality,
            series_resistance,
            isc_temp_coeff,
        })
    }

    /// Photocurrent under the given environment:
    /// `Iph = (G/G_ref) · (Iph_ref + Ki·(T − T_ref))`.
    ///
    /// Irradiance below zero is treated as darkness (zero photocurrent).
    pub fn photocurrent(&self, env: CellEnv) -> Amps {
        let g_ratio = (env.irradiance.get() / STC_IRRADIANCE.get()).max(0.0);
        let dt = env.temperature.get() - STC_TEMPERATURE.get();
        let iph = g_ratio * (self.photocurrent_stc.get() + self.isc_temp_coeff * dt);
        Amps::new(iph.max(0.0))
    }

    /// Diode reverse-saturation current at the given temperature, using the
    /// standard cubic × band-gap Arrhenius scaling.
    pub fn saturation_current(&self, temperature: Celsius) -> Amps {
        let t = temperature.to_kelvin();
        let t_ref = STC_TEMPERATURE.to_kelvin();
        let cubic = (t / t_ref).powi(3);
        let arg = ELEMENTARY_CHARGE * SILICON_BANDGAP_EV / (self.ideality * BOLTZMANN)
            * (1.0 / t_ref - 1.0 / t);
        Amps::new(self.saturation_current_stc.get() * cubic * arg.exp())
    }

    /// The product `n · Vt` (ideality times thermal voltage) at temperature
    /// `T`; the natural slope scale of the diode exponential.
    pub fn n_vt(&self, temperature: Celsius) -> f64 {
        self.ideality * thermal_voltage(temperature).get()
    }

    /// Evaluates the implicit cell equation residual
    /// `f(I) = Iph − I0·(exp((V + I·Rs)/(n·Vt)) − 1) − I`
    /// at the given terminal voltage and trial current.
    ///
    /// The root of `f` in `I` is the cell's operating current at voltage `V`.
    /// `f` is strictly decreasing in `I`, which the solvers rely on.
    pub fn current_residual(&self, env: CellEnv, voltage: Volts, current: Amps) -> Amps {
        CellCoeffs::resolve(self, env).residual(voltage, current)
    }

    /// Derivative of [`Self::current_residual`] with respect to `I` (always
    /// negative), used by the Newton step in the module solver.
    // A raw `f64` on purpose: dF/dI is dimensionless (amps per amp), so no
    // unit newtype fits.
    pub fn current_residual_di(&self, env: CellEnv, voltage: Volts, current: Amps) -> f64 {
        CellCoeffs::resolve(self, env).residual_di(voltage, current)
    }
}

/// Environment-resolved coefficients of the implicit cell equation:
/// everything in `f(I) = Iph − I0·(exp((V + I·Rs)/(n·Vt)) − 1) − I` that
/// depends only on `(G, T)`, hoisted out of the per-iteration hot path.
///
/// The Newton/bisection solver evaluates the residual and its derivative
/// dozens of times per terminal-voltage solve; recomputing `Iph`, `I0` and
/// `n·Vt` (two transcendental-heavy functions) on every evaluation roughly
/// doubles the cost of the loop. Resolving them once per `(G, T)` is a pure
/// hoist: [`CellCoeffs::residual`] and [`CellCoeffs::residual_di`] evaluate
/// the exact expressions [`CellParams::current_residual`] and
/// [`CellParams::current_residual_di`] always evaluated (those methods now
/// delegate here), with identical operation order — so a solver holding
/// resolved coefficients is *bitwise identical* to one recomputing them each
/// iteration. The differential tests in `crates/pv/tests/` pin this down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCoeffs {
    /// Photocurrent `Iph(G, T)`, amps.
    iph: f64,
    /// Diode reverse-saturation current `I0(T)`, amps.
    i0: f64,
    /// Diode slope scale `n·Vt(T)`, volts.
    nvt: f64,
    /// Lumped series resistance, ohms.
    rs: f64,
}

impl CellCoeffs {
    /// Resolves the `(G, T)`-dependent coefficients for one environment.
    pub fn resolve(cell: &CellParams, env: CellEnv) -> Self {
        Self {
            iph: cell.photocurrent(env).get(),
            i0: cell.saturation_current(env.temperature).get(),
            nvt: cell.n_vt(env.temperature),
            rs: cell.series_resistance.get(),
        }
    }

    /// The resolved photocurrent `Iph(G, T)`.
    pub fn photocurrent(&self) -> Amps {
        Amps::new(self.iph)
    }

    /// The cell equation residual at a trial `(V, I)`; see
    /// [`CellParams::current_residual`].
    pub fn residual(&self, voltage: Volts, current: Amps) -> Amps {
        let arg = (voltage.get() + current.get() * self.rs) / self.nvt;
        // exp_m1 keeps precision near V ≈ 0 and avoids overflow surprises for
        // physical operating ranges (arg stays modest below ~1.5 V/cell).
        Amps::new(self.iph - self.i0 * arg.exp_m1() - current.get())
    }

    /// Derivative of [`Self::residual`] with respect to `I` (always
    /// negative); see [`CellParams::current_residual_di`].
    pub fn residual_di(&self, voltage: Volts, current: Amps) -> f64 {
        let arg = (voltage.get() + current.get() * self.rs) / self.nvt;
        -self.i0 * arg.exp() * self.rs / self.nvt - 1.0
    }

    /// Closed-form open-circuit voltage of a single cell under the resolved
    /// environment (`Voc,cell = n·Vt · ln(Iph/I0 + 1)`), zero in darkness.
    pub fn open_circuit_cell_voltage(&self) -> Volts {
        if self.iph <= 0.0 {
            return Volts::ZERO;
        }
        Volts::new(self.nvt * (self.iph / self.i0 + 1.0).ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellParams {
        // A plausible polycrystalline cell: Isc ≈ 5.4 A, I0 ≈ 5 nA.
        CellParams::new(
            Amps::new(5.4),
            Amps::new(5.0e-9),
            1.3,
            Ohms::new(0.006),
            0.003,
        )
        .unwrap()
    }

    #[test]
    fn rejects_nonpositive_photocurrent() {
        let err = CellParams::new(Amps::ZERO, Amps::new(1e-9), 1.3, Ohms::ZERO, 0.0).unwrap_err();
        assert!(matches!(
            err,
            PvError::InvalidParameter {
                name: "photocurrent_stc",
                ..
            }
        ));
    }

    #[test]
    fn rejects_bad_ideality_and_resistance() {
        assert!(CellParams::new(Amps::new(5.0), Amps::new(1e-9), 0.1, Ohms::ZERO, 0.0).is_err());
        assert!(
            CellParams::new(Amps::new(5.0), Amps::new(1e-9), 1.3, Ohms::new(-0.1), 0.0).is_err()
        );
        assert!(CellParams::new(
            Amps::new(5.0),
            Amps::new(1e-9),
            1.3,
            Ohms::new(f64::NAN),
            0.0
        )
        .is_err());
    }

    #[test]
    fn photocurrent_scales_linearly_with_irradiance() {
        let cell = sample_cell();
        let full = cell.photocurrent(CellEnv::stc());
        let half = cell.photocurrent(CellEnv::new(Irradiance::new(500.0), STC_TEMPERATURE));
        assert!((half.get() * 2.0 - full.get()).abs() < 1e-12);
    }

    #[test]
    fn photocurrent_rises_slightly_with_temperature() {
        let cell = sample_cell();
        let hot = cell.photocurrent(CellEnv::new(STC_IRRADIANCE, Celsius::new(75.0)));
        let cold = cell.photocurrent(CellEnv::new(STC_IRRADIANCE, Celsius::new(0.0)));
        assert!(hot > cold);
        // Ki = 3 mA/°C → 75 °C span is 225 mA.
        assert!((hot.get() - cold.get() - 0.003 * 75.0).abs() < 1e-9);
    }

    #[test]
    fn darkness_means_zero_photocurrent() {
        let cell = sample_cell();
        assert_eq!(
            cell.photocurrent(CellEnv::dark(Celsius::new(25.0))),
            Amps::ZERO
        );
    }

    #[test]
    fn saturation_current_grows_steeply_with_temperature() {
        let cell = sample_cell();
        let i0_25 = cell.saturation_current(Celsius::new(25.0));
        let i0_75 = cell.saturation_current(Celsius::new(75.0));
        // The Arrhenius factor gives orders of magnitude over 50 °C.
        assert!(i0_75.get() / i0_25.get() > 50.0);
        let i0_0 = cell.saturation_current(Celsius::new(0.0));
        assert!(i0_0 < i0_25);
    }

    #[test]
    fn residual_is_monotonically_decreasing_in_current() {
        let cell = sample_cell();
        let env = CellEnv::stc();
        let v = Volts::new(0.5);
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let cur = Amps::new(i as f64 * 0.3);
            let r = cell.current_residual(env, v, cur).get();
            assert!(r < prev, "residual must decrease");
            prev = r;
        }
    }

    #[test]
    fn residual_derivative_is_negative() {
        let cell = sample_cell();
        let env = CellEnv::stc();
        for vi in 0..=12 {
            let v = Volts::new(vi as f64 * 0.05);
            for ii in 0..=5 {
                let i = Amps::new(ii as f64);
                assert!(cell.current_residual_di(env, v, i) < 0.0);
            }
        }
    }

    #[test]
    fn short_circuit_current_close_to_photocurrent() {
        // At V = 0 and I = Iph, the residual is small compared to Iph:
        // Isc ≈ Iph for a good cell (Section 2.2 of the paper).
        let cell = sample_cell();
        let env = CellEnv::stc();
        let iph = cell.photocurrent(env);
        let r = cell.current_residual(env, Volts::ZERO, iph).get();
        assert!(r.abs() < 0.05 * iph.get(), "residual {r}");
    }
}
