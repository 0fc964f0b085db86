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
}
