//! Electrical operating-point solver: PV curve ∩ reflected load line.
//!
//! "The actual operating point of the PV system occurs at the intersection
//! of the electrical characteristics of the solar panel and the load"
//! (paper Section 2.3). The intersection is unique for resistive loads
//! because the PV current is non-increasing in voltage while the load line
//! is strictly increasing; solved by bisection on `[0, Voc]`. This is the
//! workspace's one load-line solver: Figure 1's fixed resistor is the
//! resistive case behind a unity converter.
//!
//! The solver does not count its own work. Each probe is one
//! [`PvGenerator::current_at`] call, so a caller that wants evaluation and
//! iteration counts passes a counting generator (the engine's
//! `solarcore::PvHandle`) and reads them there. The solver is generic over
//! the generator, so a concrete one is dispatched statically on every
//! probe.

use pv::cell::CellEnv;
use pv::error::PvError;
use pv::generator::PvGenerator;
use pv::units::{Amps, Ohms, Volts, Watts};

use crate::converter::DcDcConverter;
use crate::error::PowerError;

/// Bisection iterations for the operating-point solve (~1e-12 V resolution
/// over a 50 V bracket).
const BISECT_ITERS: u32 = 96;

/// `true` when the solver sanitizer checks are compiled in: always in debug
/// builds, and in release builds with the `sanitize` feature (forwarded from
/// `solarcore/sanitize`).
const SANITIZE: bool = cfg!(any(debug_assertions, feature = "sanitize"));

/// What hangs on the converter's output bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadModel {
    /// An effective resistance — how the multi-core processor at a fixed
    /// DVFS configuration presents to the bus (`R = V_bus² / P_chip`).
    Resistance(Ohms),
    /// A constant-power sink (used for battery-charger style comparisons).
    /// The solver picks the *stable* intersection on the voltage-source side
    /// (right of the MPP); if the panel cannot supply the power the result
    /// collapses to the origin (brown-out).
    ConstantPower(Watts),
    /// Open circuit (load disconnected by the ATS).
    Open,
}

/// A solved electrical operating point on both sides of the converter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatingPoint {
    /// Panel-side terminal voltage.
    pub panel_voltage: Volts,
    /// Panel-side output current.
    pub panel_current: Amps,
    /// Load-bus voltage (`V_panel / k`).
    pub output_voltage: Volts,
    /// Load-bus current (`η · k · I_panel`).
    pub output_current: Amps,
}

impl OperatingPoint {
    /// Power extracted from the panel.
    pub fn panel_power(&self) -> Watts {
        self.panel_voltage * self.panel_current
    }

    /// Power delivered to the load bus.
    pub fn output_power(&self) -> Watts {
        self.output_voltage * self.output_current
    }
}

/// Solves the operating point of `generator` + `converter` + `load` under
/// environment `env`.
///
/// # Errors
///
/// Returns [`PowerError::Pv`] when the generator fails to evaluate any
/// probe of the solve.
pub fn solve_operating_point<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    converter: &DcDcConverter,
    load: &LoadModel,
) -> Result<OperatingPoint, PowerError> {
    let voc = generator.open_circuit_voltage(env);
    if voc <= Volts::ZERO {
        return Ok(OperatingPoint::default());
    }
    match load {
        LoadModel::Open => Ok(OperatingPoint {
            panel_voltage: voc,
            panel_current: Amps::ZERO,
            output_voltage: converter.output_voltage(voc),
            output_current: Amps::ZERO,
        }),
        LoadModel::Resistance(r) => {
            if r.get() <= 0.0 {
                return Ok(OperatingPoint::default());
            }
            let r_panel = converter.reflected_resistance(*r).get();
            let v = bisect_voltage_range(generator, env, 0.0, voc.get(), |v, i| v / r_panel - i)?;
            finish(generator, env, converter, v)
        }
        LoadModel::ConstantPower(p) => {
            if p.get() <= 0.0 {
                return Ok(OperatingPoint {
                    panel_voltage: voc,
                    panel_current: Amps::ZERO,
                    output_voltage: converter.output_voltage(voc),
                    output_current: Amps::ZERO,
                });
            }
            let p_panel = p.get() / converter.efficiency();
            let mpp = generator.mpp(env);
            if p_panel > mpp.power.get() {
                // Demand exceeds supply: direct-coupled bus collapses.
                return Ok(OperatingPoint::default());
            }
            // On [Vmpp, Voc], P(V) falls monotonically from Pmax to 0, so
            // p_panel − P(V) is increasing there; bisect for its root.
            let v = bisect_voltage_range(generator, env, mpp.voltage.get(), voc.get(), |v, i| {
                p_panel - v * i
            })?;
            finish(generator, env, converter, v)
        }
    }
}

/// Bisects on `[lo, hi]` for the root of `f(V, I_pv(V))`, where `f` is
/// increasing in `V` along the PV curve.
fn bisect_voltage_range<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    mut lo: f64,
    mut hi: f64,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Volts, PvError> {
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        let i = generator.current_at(env, Volts::new(mid))?.get();
        if f(mid, i) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Volts::new(0.5 * (lo + hi)))
}

fn finish<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    converter: &DcDcConverter,
    panel_voltage: Volts,
) -> Result<OperatingPoint, PowerError> {
    let panel_current = generator.current_at(env, panel_voltage)?.max(Amps::ZERO);
    let op = OperatingPoint {
        panel_voltage,
        panel_current,
        output_voltage: converter.output_voltage(panel_voltage),
        output_current: converter.output_current(panel_current),
    };
    assert_point_sane(generator, env, converter, &op);
    Ok(op)
}

/// Solver-side physics sanitizer: a solved point must lie on the panel's
/// reachable curve and satisfy the converter's transformer relations
/// exactly. A violation means the bisection diverged or the converter
/// state was corrupted mid-solve — conditions no caller can recover from
/// meaningfully, so they fail fast.
fn assert_point_sane<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    converter: &DcDcConverter,
    op: &OperatingPoint,
) {
    if !SANITIZE {
        return;
    }
    let voc = generator.open_circuit_voltage(env).get();
    let v = op.panel_voltage.get();
    assert!(
        // 1e-9 is an absolute nanovolt tolerance on a volt compare.
        v.is_finite() && v >= 0.0 && v <= voc + 1e-9,
        "operating-point invariant violated: panel voltage {v} V outside [0, Voc = {voc} V]"
    );
    let i = op.panel_current.get();
    assert!(
        i.is_finite() && i >= 0.0,
        "operating-point invariant violated: panel current {i} A is not finite non-negative"
    );
    assert!(
        (op.output_voltage.get() - v / converter.ratio()).abs() <= 1e-9,
        "operating-point invariant violated: V_out = {} V but V_panel/k = {} V",
        op.output_voltage.get(),
        v / converter.ratio()
    );
    assert!(
        (op.output_current.get() - converter.efficiency() * converter.ratio() * i).abs() <= 1e-9,
        "operating-point invariant violated: I_out = {} A but eta*k*I_panel = {} A",
        op.output_current.get(),
        converter.efficiency() * converter.ratio() * i
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv::mpp::MppPoint;
    use pv::units::Celsius;
    use pv::{PvArray, PvModule};

    fn rig() -> (PvArray, DcDcConverter, CellEnv) {
        (
            PvArray::solarcore_default(),
            DcDcConverter::solarcore_default(),
            CellEnv::stc(),
        )
    }

    #[test]
    fn resistive_point_lies_on_both_curves() {
        let (array, dcdc, env) = rig();
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(1.2)))
            .unwrap();
        // On the PV curve:
        let i_pv = array.current_at(env, op.panel_voltage).unwrap();
        assert!((i_pv.get() - op.panel_current.get()).abs() < 1e-6);
        // On the reflected load line:
        let r_panel = dcdc.reflected_resistance(Ohms::new(1.2));
        assert!((op.panel_current.get() - op.panel_voltage.get() / r_panel.get()).abs() < 1e-6);
        // Transformer relations hold:
        assert!((op.output_voltage.get() - op.panel_voltage.get() / dcdc.ratio()).abs() < 1e-9);
        assert!(
            (op.output_power().get() - dcdc.efficiency() * op.panel_power().get()).abs() < 1e-6
        );
    }

    #[test]
    fn raising_k_raises_panel_voltage() {
        // Table 1 / Figure 5: tuning k moves the operating point along the
        // I-V curve; higher k ⇒ higher panel-side resistance ⇒ higher V.
        let (array, mut dcdc, env) = rig();
        let load = LoadModel::Resistance(Ohms::new(1.2));
        dcdc.set_ratio(2.0).unwrap();
        let v_low_k = solve_operating_point(&array, env, &dcdc, &load)
            .unwrap()
            .panel_voltage;
        dcdc.set_ratio(4.0).unwrap();
        let v_high_k = solve_operating_point(&array, env, &dcdc, &load)
            .unwrap()
            .panel_voltage;
        assert!(v_high_k > v_low_k);
    }

    #[test]
    fn heavier_load_pulls_voltage_down() {
        let (array, dcdc, env) = rig();
        let v_light =
            solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(3.0)))
                .unwrap()
                .panel_voltage;
        let v_heavy =
            solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(0.8)))
                .unwrap()
                .panel_voltage;
        assert!(v_heavy < v_light);
    }

    #[test]
    fn open_circuit_and_darkness() {
        let (array, dcdc, env) = rig();
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::Open).unwrap();
        assert_eq!(op.panel_current, Amps::ZERO);
        assert!(op.panel_voltage.get() > 40.0);

        let dark = CellEnv::dark(Celsius::new(25.0));
        let op = solve_operating_point(&array, dark, &dcdc, &LoadModel::Resistance(Ohms::new(1.0)))
            .unwrap();
        assert_eq!(op, OperatingPoint::default());
    }

    #[test]
    fn constant_power_tracks_demand_on_stable_branch() {
        let (array, dcdc, env) = rig();
        let op = solve_operating_point(
            &array,
            env,
            &dcdc,
            &LoadModel::ConstantPower(Watts::new(100.0)),
        )
        .unwrap();
        // The panel must supply the demand plus the conversion loss.
        assert!((op.panel_power().get() - 100.0 / dcdc.efficiency()).abs() < 0.1);
        // Stable branch: at or right of the MPP voltage.
        assert!(op.panel_voltage.get() >= array.mpp(env).voltage.get() - 0.01);
    }

    #[test]
    fn constant_power_overload_browns_out() {
        let (array, dcdc, env) = rig();
        let op = solve_operating_point(
            &array,
            env,
            &dcdc,
            &LoadModel::ConstantPower(Watts::new(500.0)),
        )
        .unwrap();
        assert_eq!(op, OperatingPoint::default());
    }

    #[test]
    fn zero_and_negative_loads_are_safe() {
        let (array, dcdc, env) = rig();
        let dark = CellEnv::dark(Celsius::new(25.0));
        for (env, r) in [(env, 0.0), (env, -1.0), (dark, 10.0)] {
            let op =
                solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(r)))
                    .unwrap();
            assert_eq!(op, OperatingPoint::default());
        }
        // Figure 1's bare module on a fixed resistor (a unity converter).
        let module = PvModule::bp3180n();
        let unity = DcDcConverter::new(1.0, 1.0, 1.0, 0.05, 1.0).unwrap();
        for (env, r) in [(CellEnv::stc(), 0.0), (dark, 10.0)] {
            let op =
                solve_operating_point(&module, env, &unity, &LoadModel::Resistance(Ohms::new(r)))
                    .unwrap();
            assert_eq!(op, OperatingPoint::default());
        }
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::ConstantPower(Watts::ZERO))
            .unwrap();
        assert_eq!(op.panel_current, Amps::ZERO);
    }

    /// A generator whose I-V evaluation fails above `fails_above`.
    struct FailingArray {
        array: PvArray,
        fails_above: Volts,
    }

    impl PvGenerator for FailingArray {
        fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
            self.array.open_circuit_voltage(env)
        }

        fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
            if voltage > self.fails_above {
                return Err(PvError::NoConvergence {
                    context: "module current at voltage",
                    iterations: 128,
                });
            }
            self.array.current_at_counted(env, voltage)
        }

        fn mpp(&self, env: CellEnv) -> MppPoint {
            self.array.mpp(env)
        }
    }

    #[test]
    fn generator_errors_inside_the_bracket_propagate() {
        let (array, dcdc, env) = rig();
        let failing = FailingArray {
            array,
            fails_above: Volts::new(30.0),
        };
        let want = Err(PowerError::Pv(PvError::NoConvergence {
            context: "module current at voltage",
            iterations: 128,
        }));
        for load in [
            LoadModel::Resistance(Ohms::new(1.2)),
            LoadModel::ConstantPower(Watts::new(100.0)),
        ] {
            assert_eq!(solve_operating_point(&failing, env, &dcdc, &load), want);
        }
        // Loads whose probes all stay below the failing voltages still solve.
        let heavy = LoadModel::Resistance(Ohms::new(0.3));
        assert!(solve_operating_point(&failing, env, &dcdc, &heavy).is_ok());
    }

    #[test]
    fn there_exists_a_k_that_reaches_near_mpp() {
        // Sweep k: the best extracted power must come within 1 % of MPP.
        let (array, mut dcdc, env) = rig();
        let load = LoadModel::Resistance(Ohms::new(1.2));
        let mpp = array.mpp(env).power.get();
        let mut best = 0.0_f64;
        let mut k = 1.0;
        while k <= 6.0 {
            dcdc.set_ratio(k).unwrap();
            let p = solve_operating_point(&array, env, &dcdc, &load)
                .unwrap()
                .panel_power()
                .get();
            best = best.max(p);
            k += 0.02;
        }
        assert!(best > 0.99 * mpp, "best {best:.1} W vs MPP {mpp:.1} W");
    }
}
