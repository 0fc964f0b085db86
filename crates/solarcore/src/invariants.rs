//! Runtime physics sanitizer: cheap conservation-law checks wired into the
//! simulation hot paths.
//!
//! Three invariant layers guard this workspace (see `DESIGN.md`):
//! compile-time unit newtypes, clippy (the root `clippy.toml` plus the
//! crate lint attributes), and — this module — runtime checks for
//! properties only a running simulation can witness. Every check states
//! a law of the modelled physics:
//!
//! * **power sanity** — powers are finite and non-negative;
//! * **budget conservation** — power drawn from the array never exceeds
//!   the MPP oracle budget (nothing harvests more than the sun offers);
//! * **conversion losses** — the DC/DC converter delivers
//!   `P_out = η · P_in` with `η ≤ 1` (no free energy);
//! * **bus sanity** — the load-bus voltage stays inside its physically
//!   reachable range `[0, Voc / k_min]`.
//!
//! Checks are active in debug builds (`debug_assertions`) and in release
//! builds compiled with the `sanitize` feature, which also enables the
//! operating-point solver checks inside `powertrain`. In plain release
//! builds every function compiles to nothing.

use pv::units::{Volts, Watts};

/// `true` when the sanitizer checks are compiled in.
pub const fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "sanitize"))
}

/// Absolute slack (watts) tolerated on power-conservation comparisons —
/// covers bisection resolution and discrete-step quantization, orders of
/// magnitude below the ~0.05 W tuning granularity that matters.
pub const POWER_SLACK_W: f64 = 0.5;

/// The numeric ranges of the SolarCore platform, exported as plain
/// constants so tooling can consume them without linking the simulation.
///
/// These are the authoritative seed values for the `cargo xtask flow`
/// interval analysis: the range pass learns them from this file (token
/// level, no compilation) and cross-checks the V/F entries against the
/// `VF_POINTS` ladder in `archsim::dvfs` at analysis time, so the two
/// can never drift silently. The unit tests below pin every constant to
/// the runtime structure it summarizes — edit those structures and the
/// tests (then the analyzer) point here.
pub mod bounds {
    /// Lowest VID-ladder core voltage, volts (`VfLevel` index 0).
    pub const VDD_MIN_V: f64 = 0.95;
    /// Highest VID-ladder core voltage, volts (`VfLevel` index 5).
    pub const VDD_MAX_V: f64 = 1.45;
    /// Lowest ladder clock frequency, GHz.
    pub const FREQ_MIN_GHZ: f64 = 1.0;
    /// Highest ladder clock frequency, GHz.
    pub const FREQ_MAX_GHZ: f64 = 2.5;
    /// Lowest reachable DC/DC transfer ratio of the SolarCore converter.
    pub const RATIO_K_MIN: f64 = 0.8;
    /// Highest reachable DC/DC transfer ratio of the SolarCore converter.
    pub const RATIO_K_MAX: f64 = 8.0;
    /// Transfer-ratio step granularity Δk.
    pub const RATIO_K_STEP: f64 = 0.05;
    /// Converter efficiency ceiling: η ∈ (0, `EFFICIENCY_MAX`].
    pub const EFFICIENCY_MAX: f64 = 1.0;
}

/// Asserts a power is finite and non-negative.
///
/// # Panics
///
/// Panics (when [`enabled`]) if `power` is NaN, infinite or negative.
#[track_caller]
pub fn assert_power(stage: &str, power: Watts) {
    if enabled() {
        let p = power.get();
        assert!(
            p.is_finite() && p >= 0.0,
            "physics invariant violated at {stage}: power {power} is not a \
             finite non-negative quantity"
        );
    }
}

/// Asserts budget conservation: `drawn ≤ budget + slack`.
///
/// # Panics
///
/// Panics (when [`enabled`]) if more power is drawn than the oracle budget
/// offers — the simulated chip would be running on energy that the array
/// never produced.
#[track_caller]
pub fn assert_budget(stage: &str, drawn: Watts, budget: Watts) {
    if enabled() {
        assert_power(stage, drawn);
        assert_power(stage, budget);
        assert!(
            drawn.get() <= budget.get() + POWER_SLACK_W,
            "physics invariant violated at {stage}: drew {drawn} against a \
             budget of {budget} (conservation of energy)"
        );
    }
}

/// Asserts the converter relation `P_out = η · P_in` within slack, with
/// `0 < η ≤ 1`.
///
/// # Panics
///
/// Panics (when [`enabled`]) if the output side carries more power than
/// the derated input — the converter would be creating energy.
#[track_caller]
pub fn assert_conversion(stage: &str, input: Watts, output: Watts, efficiency: f64) {
    if enabled() {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "physics invariant violated at {stage}: conversion efficiency \
             {efficiency} outside (0, 1]"
        );
        assert_power(stage, input);
        assert_power(stage, output);
        assert!(
            (output.get() - efficiency * input.get()).abs() <= POWER_SLACK_W,
            "physics invariant violated at {stage}: output {output} is not \
             η·input = {:.3} W (η = {efficiency})",
            efficiency * input.get(),
        );
    }
}

/// Asserts the load-bus voltage sits in its physically reachable range
/// `[0, ceiling]` (the ceiling is `Voc / k_min` for a converter-coupled
/// panel).
///
/// # Panics
///
/// Panics (when [`enabled`]) if the voltage is non-finite, negative, or
/// above the ceiling — all signatures of a diverged operating-point solve.
#[track_caller]
pub fn assert_bus_voltage(stage: &str, voltage: Volts, ceiling: Volts) {
    if enabled() {
        let v = voltage.get();
        assert!(
            // 1e-9 is an absolute nanovolt tolerance on a volt compare.
            v.is_finite() && v >= 0.0 && v <= ceiling.get() + 1e-9,
            "physics invariant violated at {stage}: bus voltage {voltage} \
             outside the reachable range [0 V, {ceiling}]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Debug test builds always have the checks on.
    #[test]
    fn checks_are_enabled_in_debug_builds() {
        assert!(enabled());
    }

    #[test]
    fn valid_quantities_pass_silently() {
        assert_power("test", Watts::new(42.0));
        assert_power("test", Watts::ZERO);
        assert_budget("test", Watts::new(99.9), Watts::new(100.0));
        assert_budget("test", Watts::new(100.2), Watts::new(100.0)); // slack
        assert_conversion("test", Watts::new(100.0), Watts::new(95.0), 0.95);
        assert_bus_voltage("test", Volts::new(12.0), Volts::new(56.0));
    }

    #[test]
    #[should_panic(expected = "conservation of energy")]
    fn corrupted_budget_trips_the_sanitizer() {
        assert_budget("test", Watts::new(120.0), Watts::new(100.0));
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_power_trips_the_sanitizer() {
        assert_power("test", Watts::new(-1.0));
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn nan_power_trips_the_sanitizer() {
        assert_power("test", Watts::new(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "is not η·input")]
    fn over_unity_converter_trips_the_sanitizer() {
        // 100 W in, 99 W out at η = 0.95 — 4 W appear from nowhere.
        assert_conversion("test", Watts::new(100.0), Watts::new(99.0), 0.95);
    }

    #[test]
    #[should_panic(expected = "reachable range")]
    fn runaway_bus_voltage_trips_the_sanitizer() {
        assert_bus_voltage("test", Volts::new(80.0), Volts::new(56.0));
    }

    /// `bounds` must mirror the V/F ladder exactly: `cargo xtask flow`
    /// seeds its interval analysis from these constants, so drift would
    /// make the static proofs vacuous.
    #[test]
    fn bounds_pin_the_vf_ladder() {
        use archsim::VfLevel;
        let volts: Vec<f64> = VfLevel::all().map(|l| l.voltage().get()).collect();
        let freqs: Vec<f64> = VfLevel::all().map(|l| l.frequency().to_ghz()).collect();
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(bounds::VDD_MIN_V, min(&volts));
        assert_eq!(bounds::VDD_MAX_V, max(&volts));
        assert_eq!(bounds::FREQ_MIN_GHZ, min(&freqs));
        assert_eq!(bounds::FREQ_MAX_GHZ, max(&freqs));
    }

    /// `bounds` must mirror the SolarCore converter configuration.
    #[test]
    fn bounds_pin_the_converter_range() {
        use powertrain::DcDcConverter;
        let c = DcDcConverter::solarcore_default();
        let (k_min, k_max) = c.ratio_range();
        assert_eq!(bounds::RATIO_K_MIN, k_min);
        assert_eq!(bounds::RATIO_K_MAX, k_max);
        assert_eq!(bounds::RATIO_K_STEP, c.ratio_step());
        assert!(c.efficiency() > 0.0 && c.efficiency() <= bounds::EFFICIENCY_MAX);
    }
}
