//! Electrical operating-point solver: PV curve ∩ reflected load line.
//!
//! "The actual operating point of the PV system occurs at the intersection
//! of the electrical characteristics of the solar panel and the load"
//! (paper Section 2.3). The intersection is unique for resistive loads
//! because the PV current is non-increasing in voltage while the load line
//! is strictly increasing; solved by bisection on `[0, Voc]`.

use pv::cell::CellEnv;
use pv::error::PvError;
use pv::generator::PvGenerator;
use pv::mpp::MppPoint;
use pv::units::{Amps, Ohms, Volts, Watts};

use crate::converter::DcDcConverter;

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

/// Interior-mutable work counters for the operating-point solver, shared
/// with the telemetry subsystem (`Cell`-based so they can be bumped behind
/// the `&self` methods of [`PvGenerator`]).
///
/// Counting is observationally free: the traced solver wraps the generator
/// in a pass-through adapter whose arithmetic path is identical to the
/// untraced one, so every solved bit matches `solve_operating_point`.
#[derive(Debug, Default)]
pub struct SolveStats {
    solves: core::cell::Cell<u64>,
    pv_evals: core::cell::Cell<u64>,
    newton_iters: core::cell::Cell<u64>,
}

impl SolveStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operating-point solves performed.
    pub fn solves(&self) -> u64 {
        self.solves.get()
    }

    /// Number of PV I-V curve evaluations across all solves (~96 bisection
    /// probes + 1 finish per solve).
    pub fn pv_evals(&self) -> u64 {
        self.pv_evals.get()
    }

    /// Total inner Newton/bisection iterations across all PV evaluations
    /// (zero for memo hits on a [`pv::CachedArray`]).
    pub fn newton_iters(&self) -> u64 {
        self.newton_iters.get()
    }
}

/// Pass-through [`PvGenerator`] adapter that tallies evaluation work into a
/// [`SolveStats`]. Every call delegates to the counted inner path, which is
/// bit-identical to the plain one by the `pv` crate's contract.
struct CountingGenerator<'a, G: PvGenerator + ?Sized> {
    inner: &'a G,
    stats: &'a SolveStats,
}

impl<G: PvGenerator + ?Sized> PvGenerator for CountingGenerator<'_, G> {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        self.inner.open_circuit_voltage(env)
    }

    fn current_at(&self, env: CellEnv, voltage: Volts) -> Result<Amps, PvError> {
        Ok(self.current_at_counted(env, voltage)?.0)
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        self.inner.mpp(env)
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        let (current, iters) = self.inner.current_at_counted(env, voltage)?;
        self.stats
            .pv_evals
            .set(self.stats.pv_evals.get().saturating_add(1));
        self.stats.newton_iters.set(
            self.stats
                .newton_iters
                .get()
                .saturating_add(u64::from(iters)),
        );
        Ok((current, iters))
    }
}

/// [`solve_operating_point`] with work counters: identical output bits,
/// plus `stats` accumulates the solve/evaluation/iteration tallies the
/// telemetry subsystem reports (DESIGN.md §14).
#[must_use = "a dropped operating point is a wasted solve"]
pub fn solve_operating_point_traced<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    converter: &DcDcConverter,
    load: &LoadModel,
    stats: &SolveStats,
) -> OperatingPoint {
    stats.solves.set(stats.solves.get().saturating_add(1));
    let counting = CountingGenerator {
        inner: generator,
        stats,
    };
    solve_operating_point(&counting, env, converter, load)
}

/// Solves the operating point of `generator` + `converter` + `load` under
/// environment `env`.
#[must_use = "a dropped operating point is a wasted solve"]
pub fn solve_operating_point<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    converter: &DcDcConverter,
    load: &LoadModel,
) -> OperatingPoint {
    let voc = generator.open_circuit_voltage(env);
    if voc <= Volts::ZERO {
        return OperatingPoint::default();
    }
    match load {
        LoadModel::Open => OperatingPoint {
            panel_voltage: voc,
            panel_current: Amps::ZERO,
            output_voltage: converter.output_voltage(voc),
            output_current: Amps::ZERO,
        },
        LoadModel::Resistance(r) => {
            if r.get() <= 0.0 {
                return OperatingPoint::default();
            }
            let r_panel = converter.reflected_resistance(*r).get();
            let v = bisect_panel_voltage(generator, env, voc, |v, i| v / r_panel - i);
            finish(generator, env, converter, v)
        }
        LoadModel::ConstantPower(p) => {
            if p.get() <= 0.0 {
                return OperatingPoint {
                    panel_voltage: voc,
                    panel_current: Amps::ZERO,
                    output_voltage: converter.output_voltage(voc),
                    output_current: Amps::ZERO,
                };
            }
            let p_panel = p.get() / converter.efficiency();
            let mpp = generator.mpp(env);
            if p_panel > mpp.power.get() {
                // Demand exceeds supply: direct-coupled bus collapses.
                return OperatingPoint::default();
            }
            // On [Vmpp, Voc], P(V) falls monotonically from Pmax to 0, so
            // p_panel − P(V) is increasing there; bisect for its root.
            let v = bisect_voltage_range(generator, env, mpp.voltage.get(), voc.get(), |v, i| {
                p_panel - v * i
            });
            finish(generator, env, converter, v)
        }
    }
}

/// Bisects on `[0, Voc]` for the root of `f(V, I_pv(V))`, where `f` is
/// increasing in `V` along the PV curve.
fn bisect_panel_voltage<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    voc: Volts,
    f: impl Fn(f64, f64) -> f64,
) -> Volts {
    bisect_voltage_range(generator, env, 0.0, voc.get(), f)
}

fn bisect_voltage_range<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    mut lo: f64,
    mut hi: f64,
    f: impl Fn(f64, f64) -> f64,
) -> Volts {
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        let i = generator
            .current_at(env, Volts::new(mid))
            .map(Amps::get)
            .unwrap_or(0.0);
        if f(mid, i) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Volts::new(0.5 * (lo + hi))
}

fn finish<G: PvGenerator + ?Sized>(
    generator: &G,
    env: CellEnv,
    converter: &DcDcConverter,
    panel_voltage: Volts,
) -> OperatingPoint {
    let panel_current = generator
        .current_at(env, panel_voltage)
        .unwrap_or(Amps::ZERO);
    let panel_current = panel_current.max(Amps::ZERO);
    let op = OperatingPoint {
        panel_voltage,
        panel_current,
        output_voltage: converter.output_voltage(panel_voltage),
        output_current: converter.output_current(panel_current),
    };
    assert_point_sane(generator, env, converter, &op);
    op
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
        // lint:allow(dim): 1e-9 is an absolute nanovolt tolerance on a volt compare
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
    use pv::units::Celsius;
    use pv::PvArray;

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
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(1.2)));
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
        let v_low_k = solve_operating_point(&array, env, &dcdc, &load).panel_voltage;
        dcdc.set_ratio(4.0).unwrap();
        let v_high_k = solve_operating_point(&array, env, &dcdc, &load).panel_voltage;
        assert!(v_high_k > v_low_k);
    }

    #[test]
    fn heavier_load_pulls_voltage_down() {
        let (array, dcdc, env) = rig();
        let v_light =
            solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(3.0)))
                .panel_voltage;
        let v_heavy =
            solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::new(0.8)))
                .panel_voltage;
        assert!(v_heavy < v_light);
    }

    #[test]
    fn open_circuit_and_darkness() {
        let (array, dcdc, env) = rig();
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::Open);
        assert_eq!(op.panel_current, Amps::ZERO);
        assert!(op.panel_voltage.get() > 40.0);

        let dark = CellEnv::dark(Celsius::new(25.0));
        let op = solve_operating_point(&array, dark, &dcdc, &LoadModel::Resistance(Ohms::new(1.0)));
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
        );
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
        );
        assert_eq!(op, OperatingPoint::default());
    }

    #[test]
    fn zero_and_negative_loads_are_safe() {
        let (array, dcdc, env) = rig();
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::Resistance(Ohms::ZERO));
        assert_eq!(op, OperatingPoint::default());
        let op = solve_operating_point(&array, env, &dcdc, &LoadModel::ConstantPower(Watts::ZERO));
        assert_eq!(op.panel_current, Amps::ZERO);
    }

    #[test]
    fn traced_solve_is_bit_identical_and_counts_work() {
        let (array, dcdc, env) = rig();
        let load = LoadModel::Resistance(Ohms::new(1.2));
        let plain = solve_operating_point(&array, env, &dcdc, &load);
        let stats = SolveStats::new();
        let traced = solve_operating_point_traced(&array, env, &dcdc, &load, &stats);
        assert_eq!(
            plain.panel_voltage.get().to_bits(),
            traced.panel_voltage.get().to_bits()
        );
        assert_eq!(
            plain.output_current.get().to_bits(),
            traced.output_current.get().to_bits()
        );
        assert_eq!(stats.solves(), 1);
        // 96 bisection probes + 1 finish evaluation.
        assert_eq!(stats.pv_evals(), 97);
        assert!(stats.newton_iters() >= stats.pv_evals());
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
                .panel_power()
                .get();
            best = best.max(p);
            k += 0.02;
        }
        assert!(best > 0.99 * mpp, "best {best:.1} W vs MPP {mpp:.1} W");
    }
}
