//! Tunable DC/DC converter (the "power-conservative matching network").
//!
//! Modeled as the paper does (Section 2.3): an ideal PWM transformer with
//! transfer ratio `k`, `V_out = V_in / k` and `I_out = k · I_in`, extended
//! with an optional conversion efficiency `η` applied to the output power.
//! The MPPT controller tunes `k` in steps of `Δk` (paper Section 4.2).

use pv::units::{Amps, Ohms, Volts};

use crate::error::PowerError;

/// The tunable DC/DC converter between panel and load bus.
#[derive(Debug, Clone, PartialEq)]
pub struct DcDcConverter {
    ratio: f64,
    min_ratio: f64,
    max_ratio: f64,
    ratio_step: f64,
    efficiency: f64,
    /// Actuator-lag fault seam: when > 0, nudge commands are queued and
    /// land this many commands late. `0` (the default) is the original
    /// direct-drive path, bit-identical to a converter without the seam.
    lag: u32,
    pending: Vec<i32>,
}

impl DcDcConverter {
    /// Builds a converter.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidConverter`] unless
    /// `0 < min ≤ initial ≤ max`, `step > 0` and `0 < efficiency ≤ 1`.
    pub fn new(
        initial_ratio: f64,
        min_ratio: f64,
        max_ratio: f64,
        ratio_step: f64,
        efficiency: f64,
    ) -> Result<Self, PowerError> {
        if !(min_ratio > 0.0 && min_ratio.is_finite()) {
            return Err(PowerError::InvalidConverter {
                name: "min_ratio",
                value: min_ratio,
                constraint: "must be > 0",
            });
        }
        if !(max_ratio >= min_ratio && max_ratio.is_finite()) {
            return Err(PowerError::InvalidConverter {
                name: "max_ratio",
                value: max_ratio,
                constraint: "must be >= min_ratio",
            });
        }
        if !(initial_ratio >= min_ratio && initial_ratio <= max_ratio) {
            return Err(PowerError::InvalidConverter {
                name: "initial_ratio",
                value: initial_ratio,
                constraint: "must lie in [min_ratio, max_ratio]",
            });
        }
        if !(ratio_step > 0.0 && ratio_step.is_finite()) {
            return Err(PowerError::InvalidConverter {
                name: "ratio_step",
                value: ratio_step,
                constraint: "must be > 0",
            });
        }
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(PowerError::InvalidConverter {
                name: "efficiency",
                value: efficiency,
                constraint: "must be in (0, 1]",
            });
        }
        Ok(Self {
            ratio: initial_ratio,
            min_ratio,
            max_ratio,
            ratio_step,
            efficiency,
            lag: 0,
            pending: Vec::new(),
        })
    }

    /// The configuration used throughout the SolarCore experiments: a 36 V
    /// panel matched to a 12 V processor bus (`k = 3`), `k ∈ [0.8, 8]`,
    /// `Δk = 0.05`, and 95 % conversion efficiency — the same converter
    /// class the battery baselines' MPPT controllers assume (Table 3), so
    /// the comparison is apples-to-apples. (The paper's analysis assumes
    /// `P_in = P_out`; use [`DcDcConverter::new`] with `efficiency = 1.0`
    /// for that idealization.)
    #[expect(
        clippy::expect_used,
        reason = "compile-time-constant paper configuration, pinned by a unit test"
    )]
    pub fn solarcore_default() -> Self {
        Self::new(3.0, 0.8, 8.0, 0.05, 0.95).expect("static configuration is valid")
    }

    /// The current transfer ratio `k`.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The tuning step `Δk`.
    pub fn ratio_step(&self) -> f64 {
        self.ratio_step
    }

    /// Conversion efficiency `η ∈ (0, 1]`.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Supported ratio range `(min, max)`.
    pub fn ratio_range(&self) -> (f64, f64) {
        (self.min_ratio, self.max_ratio)
    }

    /// Sets the transfer ratio exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::RatioOutOfRange`] outside the supported range.
    pub fn set_ratio(&mut self, ratio: f64) -> Result<(), PowerError> {
        if !(ratio >= self.min_ratio && ratio <= self.max_ratio) {
            return Err(PowerError::RatioOutOfRange {
                requested: ratio,
                min: self.min_ratio,
                max: self.max_ratio,
            });
        }
        self.ratio = ratio;
        Ok(())
    }

    /// Nudges the ratio by `steps` increments of `Δk` (negative = down),
    /// saturating at the range limits. Returns the actually applied delta.
    ///
    /// With an actuator lag armed ([`set_actuator_lag`](Self::set_actuator_lag)),
    /// the command is queued instead and the command issued `lag` calls ago
    /// lands now; until the queue fills, the applied delta is `0.0`.
    pub fn nudge_ratio(&mut self, steps: i32) -> f64 {
        if self.lag == 0 {
            let before = self.ratio;
            let target = self.ratio + steps as f64 * self.ratio_step;
            self.ratio = target.clamp(self.min_ratio, self.max_ratio);
            return self.ratio - before;
        }
        self.pending.push(steps);
        if self.pending.len() > self.lag as usize {
            let delayed = self.pending.remove(0);
            let before = self.ratio;
            let target = self.ratio + f64::from(delayed) * self.ratio_step;
            self.ratio = target.clamp(self.min_ratio, self.max_ratio);
            self.ratio - before
        } else {
            0.0
        }
    }

    /// Arms (or disarms, with `steps == 0`) the Δk-step actuator-lag fault
    /// seam. Reducing the lag drains the now-excess queued commands in
    /// issue order — a recovering actuator applies what was already
    /// commanded rather than forgetting it.
    pub fn set_actuator_lag(&mut self, steps: u32) {
        self.lag = steps;
        while self.pending.len() > self.lag as usize {
            let delayed = self.pending.remove(0);
            let target = self.ratio + f64::from(delayed) * self.ratio_step;
            self.ratio = target.clamp(self.min_ratio, self.max_ratio);
        }
    }

    /// The armed actuator-lag queue depth (`0` = direct drive).
    pub fn actuator_lag(&self) -> u32 {
        self.lag
    }

    /// Output (load bus) voltage for a given panel voltage.
    pub fn output_voltage(&self, panel_voltage: Volts) -> Volts {
        panel_voltage / self.ratio
    }

    /// Output (load bus) current for a given panel current, including the
    /// efficiency derating.
    pub fn output_current(&self, panel_current: Amps) -> Amps {
        panel_current * self.ratio * self.efficiency
    }

    /// The resistance the *panel* sees when a resistance `r_load` hangs on
    /// the output bus: `R_panel = η · k² · R_load`.
    ///
    /// (From `V_out = V_p/k`, `I_out = η·k·I_p` and `V_out = I_out·R`.)
    pub fn reflected_resistance(&self, r_load: Ohms) -> Ohms {
        r_load * (self.efficiency * self.ratio * self.ratio)
    }
}

impl Default for DcDcConverter {
    fn default() -> Self {
        Self::solarcore_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_nonsense() {
        assert!(DcDcConverter::new(3.0, 0.0, 8.0, 0.05, 1.0).is_err());
        assert!(DcDcConverter::new(3.0, 2.0, 1.0, 0.05, 1.0).is_err());
        assert!(DcDcConverter::new(9.0, 1.0, 8.0, 0.05, 1.0).is_err());
        assert!(DcDcConverter::new(3.0, 1.0, 8.0, 0.0, 1.0).is_err());
        assert!(DcDcConverter::new(3.0, 1.0, 8.0, 0.05, 0.0).is_err());
        assert!(DcDcConverter::new(3.0, 1.0, 8.0, 0.05, 1.1).is_err());
    }

    #[test]
    fn ideal_transformer_conserves_power() {
        let c = DcDcConverter::new(3.0, 0.8, 8.0, 0.05, 1.0).unwrap();
        let vp = Volts::new(36.0);
        let ip = Amps::new(5.0);
        let vo = c.output_voltage(vp);
        let io = c.output_current(ip);
        assert!((vo.get() - 12.0).abs() < 1e-12);
        assert!((io.get() - 15.0).abs() < 1e-12);
        assert!(((vo * io).get() - (vp * ip).get()).abs() < 1e-9);
    }

    #[test]
    fn efficiency_derates_output_power() {
        let c = DcDcConverter::new(3.0, 1.0, 8.0, 0.05, 0.9).unwrap();
        let vp = Volts::new(36.0);
        let ip = Amps::new(5.0);
        let p_out = (c.output_voltage(vp) * c.output_current(ip)).get();
        assert!((p_out - 0.9 * 180.0).abs() < 1e-9);
    }

    #[test]
    fn nudge_saturates_at_limits() {
        let mut c = DcDcConverter::new(7.95, 0.8, 8.0, 0.05, 1.0).unwrap();
        let applied = c.nudge_ratio(3); // wants +0.15, only +0.05 available
        assert!((applied - 0.05).abs() < 1e-12);
        assert!((c.ratio() - 8.0).abs() < 1e-12);
        let applied = c.nudge_ratio(-2);
        assert!((applied + 0.10).abs() < 1e-12);
    }

    #[test]
    fn actuator_lag_delays_commands_by_queue_depth() {
        let mut c = DcDcConverter::new(3.0, 0.8, 8.0, 0.05, 1.0).unwrap();
        c.set_actuator_lag(2);
        // First two commands only fill the queue.
        assert_eq!(c.nudge_ratio(1), 0.0);
        assert_eq!(c.nudge_ratio(1), 0.0);
        assert_eq!(c.ratio(), 3.0);
        // Third command lands the first one.
        let applied = c.nudge_ratio(-1);
        assert!((applied - 0.05).abs() < 1e-12);
        assert!((c.ratio() - 3.05).abs() < 1e-12);
    }

    #[test]
    fn clearing_lag_drains_queued_commands() {
        let mut c = DcDcConverter::new(3.0, 0.8, 8.0, 0.05, 1.0).unwrap();
        c.set_actuator_lag(3);
        c.nudge_ratio(1);
        c.nudge_ratio(1);
        assert_eq!(c.ratio(), 3.0);
        c.set_actuator_lag(0);
        assert!((c.ratio() - 3.10).abs() < 1e-12);
        assert_eq!(c.actuator_lag(), 0);
        // Back on the direct path.
        let applied = c.nudge_ratio(-1);
        assert!((applied + 0.05).abs() < 1e-12);
    }

    #[test]
    fn set_ratio_validates_range() {
        let mut c = DcDcConverter::solarcore_default();
        assert!(c.set_ratio(0.5).is_err());
        assert!(c.set_ratio(4.0).is_ok());
        assert_eq!(c.ratio(), 4.0);
    }

    #[test]
    fn reflected_resistance_grows_with_k_squared() {
        let mut c = DcDcConverter::solarcore_default();
        c.set_ratio(2.0).unwrap();
        let r2 = c.reflected_resistance(Ohms::new(1.2));
        c.set_ratio(4.0).unwrap();
        let r4 = c.reflected_resistance(Ohms::new(1.2));
        assert!((r4.get() / r2.get() - 4.0).abs() < 1e-12);
    }
}
