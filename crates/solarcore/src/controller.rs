//! The SolarCore MPPT controller: three-step tracking with coordinated
//! converter-ratio and load tuning (Section 4.2, Figure 9).
//!
//! Each tracking invocation:
//!
//! 1. **Restore `Vdd`** — bring the load-bus voltage back into the nominal
//!    band by per-core load tuning (supply drift since the last invocation
//!    has pushed it off).
//! 2. **Probe the ratio** — nudge the DC/DC transfer ratio by `+Δk` and
//!    watch the output current: if it *rose*, the operating point is left of
//!    the MPP and the direction is right; if it *fell*, undo twice (net
//!    `−Δk`), resuming the correct direction.
//! 3. **Load match** — increase the multi-core load until the bus voltage
//!    returns to `Vdd`, absorbing the extra power the probe exposed.
//!
//! Steps 2–3 repeat until output power stops improving (the inflection point
//! of Figure 11); a final load-decrease step leaves the power margin the
//! paper uses for robustness.

use archsim::MultiCoreChip;
use powertrain::{
    solve_operating_point, DcDcConverter, FaultedIvSensor, IvSensor, LoadModel, OperatingPoint,
};
use pv::cell::CellEnv;
use pv::generator::PvGenerator;
use pv::units::{Amps, Ohms, Volts};
use pv::MppPoint;

use crate::adapter::LoadTuner;
use crate::config::ControllerConfig;
use crate::degrade::{DegradeConfig, FaultDetector, ProbeFault};
use crate::error::CoreError;
use crate::invariants;

/// Power-improvement threshold (watts) below which a tuning round counts as
/// stalled.
const IMPROVEMENT_EPS_W: f64 = 0.05;

/// Consecutive stalled rounds before tracking stops (the inflection test).
const STALL_LIMIT: u32 = 2;

/// Iteration cap for each voltage-restoration loop.
const RESTORE_CAP: u32 = 128;

/// Everything one tracking invocation needs to touch.
pub struct TrackingRig<'a> {
    /// The PV source.
    pub array: &'a dyn PvGenerator,
    /// Atmospheric conditions during this invocation.
    pub env: CellEnv,
    /// The true maximum power point under `env` (the budget oracle), whose
    /// power the tracked point may never beat. The engine passes the
    /// minute's entry of its precomputed MPP column.
    pub mpp: MppPoint,
    /// The tunable DC/DC converter.
    pub converter: &'a mut DcDcConverter,
    /// The multi-core load.
    pub chip: &'a mut MultiCoreChip,
    /// The per-core load adapter.
    pub tuner: &'a mut LoadTuner,
}

/// Diagnostics from one tracking invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrackReport {
    /// k/load tuning rounds executed.
    pub rounds: u32,
    /// Total tuning actions (VID writes + ratio nudges), a proxy for the
    /// controller's real-time cost (the paper reports < 5 ms per tracking).
    pub actions: u32,
    /// Perturbation-direction reversals: probe rounds whose `+Δk` nudge
    /// *lowered* the output current and was undone with a net `−Δk`. High
    /// counts mean the tracker is oscillating around the MPP knee.
    pub reversals: u32,
    /// Output power at the end of tracking, watts.
    pub final_output_power: f64,
    /// Transfer ratio at the end of tracking.
    pub final_ratio: f64,
}

/// The SolarCore MPPT + load-tuning controller.
#[derive(Debug, Clone)]
pub struct SolarCoreController {
    config: ControllerConfig,
    sensor: FaultedIvSensor,
    /// When present, every reading the controller acts on is screened
    /// against the model-based plausibility window (reject / re-sample /
    /// hold-last-good). `None` keeps `observe` on the original unscreened
    /// path, bit-identical to a detector-free controller.
    detector: Option<FaultDetector>,
    /// Operating-point solves performed so far (see [`Self::solves`]).
    solves: u64,
}

impl SolarCoreController {
    /// Builds a controller with ideal (noiseless) I/V sensing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration fails
    /// [`ControllerConfig::validate`].
    pub fn new(config: ControllerConfig) -> Result<Self, CoreError> {
        Self::with_sensor(config, IvSensor::ideal())
    }

    /// Builds a controller whose tuning decisions go through the given
    /// (possibly noisy) I/V sensor pair — the robustness knob for the
    /// sensor-error ablation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration fails
    /// [`ControllerConfig::validate`].
    pub fn with_sensor(config: ControllerConfig, sensor: IvSensor) -> Result<Self, CoreError> {
        Self::with_faulted_sensor(config, FaultedIvSensor::transparent(sensor))
    }

    /// Builds a controller on a [`FaultedIvSensor`] — a sensor wrapped with
    /// an (optionally armed) chaos-scenario fault injector. With a
    /// transparent wrapper this is exactly [`with_sensor`](Self::with_sensor).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration fails
    /// [`ControllerConfig::validate`].
    pub fn with_faulted_sensor(
        config: ControllerConfig,
        sensor: FaultedIvSensor,
    ) -> Result<Self, CoreError> {
        config
            .validate()
            .map_err(|reason| CoreError::InvalidConfig { reason })?;
        Ok(Self {
            config,
            sensor,
            detector: None,
            solves: 0,
        })
    }

    /// Arms plausibility-window fault detection: from now on every reading
    /// `observe` forwards is screened (reject / bounded re-sample /
    /// hold-last-good) and [`health_probe`](Self::health_probe) becomes
    /// meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `config` fails
    /// [`DegradeConfig::validate`].
    pub fn enable_detection(&mut self, config: DegradeConfig) -> Result<(), CoreError> {
        self.detector = Some(FaultDetector::new(config)?);
        Ok(())
    }

    /// The armed fault detector, if [`enable_detection`](Self::enable_detection)
    /// was called (for reject/retry counters).
    pub fn detector(&self) -> Option<&FaultDetector> {
        self.detector.as_ref()
    }

    /// Advances the sensor wrapper's fault-injection clock (no-op for a
    /// transparent wrapper).
    pub fn set_sensor_minute(&mut self, minute: u32) {
        self.sensor.set_minute(minute);
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Operating-point solves this controller has performed: one per
    /// [`solve`](Self::solve), including those inside tracking and armed
    /// health probes, failed ones too. The PV evaluations inside them are
    /// counted by whatever generator the caller passes (the engine's
    /// [`CountingArray`](crate::CountingArray)).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Solves the electrical operating point and passes the output-side
    /// readings through the I/V sensor — what the controller actually
    /// "sees" when making tuning decisions.
    fn observe(
        &mut self,
        array: &dyn PvGenerator,
        env: CellEnv,
        converter: &DcDcConverter,
        chip: &MultiCoreChip,
    ) -> Result<OperatingPoint, CoreError> {
        let mut op = self.solve(array, env, converter, chip)?;
        let expected = (op.output_voltage.get(), op.output_current.get());
        let (v, i) = self.sensor.measure(op.output_voltage, op.output_current);
        match self.detector.as_mut() {
            None => {
                op.output_voltage = v;
                op.output_current = i;
            }
            Some(detector) => {
                // Disjoint field borrow: the re-sample closure needs the
                // sensor while the detector screens.
                let sensor = &mut self.sensor;
                let (sv, si) = detector.screen((v.get(), i.get()), expected, || {
                    let (rv, ri) = sensor.measure(Volts::new(expected.0), Amps::new(expected.1));
                    (rv.get(), ri.get())
                });
                op.output_voltage = Volts::new(sv);
                op.output_current = Amps::new(si);
            }
        }
        Ok(op)
    }

    /// One per-minute sensing health probe: solves the modeled operating
    /// point, takes a single sensor reading and asks the detector whether
    /// it is faulty (and why). Returns `None` both for clean readings and
    /// when detection is not armed. The probed reading is evaluated, not
    /// forwarded.
    ///
    /// # Errors
    ///
    /// Propagates a failed operating-point solve as [`CoreError::Power`].
    pub fn health_probe(
        &mut self,
        array: &dyn PvGenerator,
        env: CellEnv,
        converter: &DcDcConverter,
        chip: &MultiCoreChip,
    ) -> Result<Option<ProbeFault>, CoreError> {
        if self.detector.is_none() {
            return Ok(None);
        }
        let op = self.solve(array, env, converter, chip)?;
        let expected = (op.output_voltage.get(), op.output_current.get());
        let (v, i) = self.sensor.measure(op.output_voltage, op.output_current);
        Ok(self
            .detector
            .as_mut()
            .and_then(|detector| detector.probe((v.get(), i.get()), expected)))
    }

    /// Solves the present electrical operating point: the chip (at its
    /// current DVFS settings and phases) presents `R = Vdd²/P_demand` to
    /// the bus.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Power`] when the PV generator fails to evaluate
    /// a probe of the solve.
    pub fn solve(
        &mut self,
        array: &dyn PvGenerator,
        env: CellEnv,
        converter: &DcDcConverter,
        chip: &MultiCoreChip,
    ) -> Result<OperatingPoint, CoreError> {
        let demand = chip.total_power().get();
        let load = if demand <= 0.0 {
            LoadModel::Open
        } else {
            let vdd = self.config.nominal_bus_voltage.get();
            LoadModel::Resistance(Ohms::new(vdd * vdd / demand))
        };
        self.solves = self.solves.saturating_add(1);
        Ok(solve_operating_point(array, env, converter, &load)?)
    }

    /// `true` if the bus voltage is outside the event-retrack band and the
    /// controller should run before the next periodic trigger.
    pub fn needs_retrack(&self, op: &OperatingPoint) -> bool {
        let vdd = self.config.nominal_bus_voltage.get();
        (op.output_voltage.get() - vdd).abs() > self.config.retrack_voltage_band * vdd
    }

    /// Runs one full tracking invocation (Figure 9) on the rig.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from the load tuner (scheduler/chip
    /// inconsistencies) and from failed operating-point solves; physically
    /// impossible operating points trip the [`invariants`] sanitizer
    /// instead.
    pub fn track(&mut self, rig: &mut TrackingRig<'_>) -> Result<TrackReport, CoreError> {
        let mut report = TrackReport::default();

        // Step 1: restore the nominal operating voltage.
        report.actions += self.restore_vdd(rig)?;

        let mut stalls = 0;
        for _ in 0..self.config.max_rounds {
            report.rounds += 1;
            let before = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;

            // Bootstrap: a fully shed load (e.g. everything gated during a
            // lull) draws no current, so neither probe signal works. If the
            // bus is healthy, take load back on first.
            if before.output_current.get() <= 0.0
                && before.output_voltage.get()
                    >= self.config.nominal_bus_voltage.get() * (1.0 - self.config.voltage_tolerance)
                && rig.tuner.increase(rig.chip)?
            {
                report.actions += 1;
                continue;
            }

            // Step 2: probe the transfer ratio.
            let applied = rig.converter.nudge_ratio(1);
            if applied != 0.0 {
                report.actions += 1;
            }
            let probed = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;
            if probed.output_current < before.output_current {
                // Wrong direction: net −Δk.
                rig.converter.nudge_ratio(-2);
                report.actions += 1;
                report.reversals += 1;
            }

            // Step 3: load-match the output voltage back down to Vdd.
            report.actions += self.match_down_to_vdd(rig)?;

            let after = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;
            if after.output_power().get() <= before.output_power().get() + IMPROVEMENT_EPS_W {
                stalls += 1;
                if stalls >= STALL_LIMIT {
                    break;
                }
            } else {
                stalls = 0;
            }
        }

        // Leave the robustness power margin, then make sure the bus is not
        // sagging below nominal.
        for _ in 0..self.config.margin_steps {
            if rig.tuner.decrease(rig.chip)? {
                report.actions += 1;
            }
        }
        report.actions += self.lift_sagging_bus(rig)?;

        let final_op = self.solve(rig.array, rig.env, rig.converter, rig.chip)?;
        if invariants::enabled() {
            // The tracked point can never beat the MPP oracle, and the
            // converter must show its configured losses.
            invariants::assert_budget("controller track", final_op.panel_power(), rig.mpp.power);
            invariants::assert_conversion(
                "controller track",
                final_op.panel_power(),
                final_op.output_power(),
                rig.converter.efficiency(),
            );
        }
        report.final_output_power = final_op.output_power().get();
        report.final_ratio = rig.converter.ratio();
        Ok(report)
    }

    /// Step 1: tune load (and, when the load is not the culprit, the
    /// transfer ratio) in whichever direction brings the bus voltage into
    /// the nominal band. Returns tuning actions performed.
    ///
    /// A sagging bus has two distinct causes the controller must tell
    /// apart with only its I/V sensors:
    ///
    /// * **overload** — the operating point was dragged left of the knee;
    ///   shedding load restores the voltage;
    /// * **mis-ratioed converter** — the panel idles near `Voc` but
    ///   `Voc/k < Vdd`; only lowering `k` can lift the bus.
    ///
    /// We discriminate perturb-and-observe style: try `−Δk`; if the bus
    /// voltage improves, keep walking `k` down, otherwise undo and shed
    /// load.
    fn restore_vdd(&mut self, rig: &mut TrackingRig<'_>) -> Result<u32, CoreError> {
        let vdd = self.config.nominal_bus_voltage.get();
        let tol = self.config.voltage_tolerance;
        let mut actions = 0;
        // Discrete load steps can be coarser than the band; a direction
        // reversal means the band is straddled and we are done (limit-cycle
        // guard).
        let mut last_dir = 0i8;
        for _ in 0..RESTORE_CAP {
            let op = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;
            let v = op.output_voltage.get();
            if v < vdd * (1.0 - tol) {
                let applied = rig.converter.nudge_ratio(-1);
                let probed = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;
                if applied != 0.0 && probed.output_voltage.get() > v + 1e-9 {
                    // Right of the knee with k too high: keep lowering k.
                    actions += 1;
                    continue;
                }
                if applied != 0.0 {
                    rig.converter.nudge_ratio(1);
                }
                if last_dir == 1 {
                    break;
                }
                // Genuine overload: shed load.
                if !rig.tuner.decrease(rig.chip)? {
                    break;
                }
                last_dir = -1;
            } else if v > vdd * (1.0 + tol) {
                if last_dir == -1 {
                    break;
                }
                // Underloaded: headroom available.
                if !rig.tuner.increase(rig.chip)? {
                    break;
                }
                last_dir = 1;
            } else {
                break;
            }
            actions += 1;
        }
        Ok(actions)
    }

    /// Step 3: increase load until the bus voltage falls back to Vdd.
    fn match_down_to_vdd(&mut self, rig: &mut TrackingRig<'_>) -> Result<u32, CoreError> {
        let vdd = self.config.nominal_bus_voltage.get();
        let tol = self.config.voltage_tolerance;
        let mut actions = 0;
        for _ in 0..RESTORE_CAP {
            let op = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;
            if op.output_voltage.get() > vdd * (1.0 + tol) {
                if !rig.tuner.increase(rig.chip)? {
                    break;
                }
                actions += 1;
            } else {
                break;
            }
        }
        Ok(actions)
    }

    /// Post-margin safety: never leave the bus below nominal.
    fn lift_sagging_bus(&mut self, rig: &mut TrackingRig<'_>) -> Result<u32, CoreError> {
        let vdd = self.config.nominal_bus_voltage.get();
        let tol = self.config.voltage_tolerance;
        let mut actions = 0;
        for _ in 0..RESTORE_CAP {
            let op = self.observe(rig.array, rig.env, rig.converter, rig.chip)?;
            if op.output_voltage.get() < vdd * (1.0 - tol) {
                if !rig.tuner.decrease(rig.chip)? {
                    break;
                }
                actions += 1;
            } else {
                break;
            }
        }
        Ok(actions)
    }
}

impl Default for SolarCoreController {
    #[expect(
        clippy::expect_used,
        reason = "the paper defaults are validated by a unit test"
    )]
    fn default() -> Self {
        Self::new(ControllerConfig::paper_defaults()).expect("paper defaults are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use archsim::VfLevel;
    use pv::units::{Celsius, Irradiance};
    use pv::PvArray;
    use workloads::Mix;

    fn rig_parts(mix: Mix) -> (PvArray, DcDcConverter, MultiCoreChip, LoadTuner) {
        let array = PvArray::solarcore_default();
        let converter = DcDcConverter::solarcore_default();
        let mut chip = MultiCoreChip::new(&mix);
        chip.set_all_levels(VfLevel::lowest());
        let tuner = LoadTuner::new(Policy::MpptOpt);
        (array, converter, chip, tuner)
    }

    fn env(g: f64) -> CellEnv {
        CellEnv::new(Irradiance::new(g), Celsius::new(40.0))
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.max_rounds = 0;
        let err = SolarCoreController::new(cfg).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        assert!(err.to_string().contains("invalid controller configuration"));
    }

    #[test]
    fn tracking_converges_near_the_mpp() {
        let mut controller = SolarCoreController::default();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::h1());
        let env = env(800.0);
        let mpp = array.mpp(env).power.get();
        let report = controller
            .track(&mut TrackingRig {
                array: &array,
                env,
                mpp: array.mpp(env),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        // Within ~12 % of the true MPP (margin + discrete V/F steps).
        assert!(
            report.final_output_power > 0.85 * mpp,
            "tracked {:.1} W of {mpp:.1} W",
            report.final_output_power
        );
        assert!(report.final_output_power <= mpp + 0.5);
        assert!(report.rounds >= 1);

        // Every solve is tallied once: tracking's own, a direct solve, and
        // a health probe only once detection is armed.
        let tracked = controller.solves();
        assert!(tracked >= u64::from(report.rounds));
        controller.solve(&array, env, &converter, &chip).unwrap();
        assert_eq!(controller.solves(), tracked + 1);
        assert_eq!(
            controller.health_probe(&array, env, &converter, &chip),
            Ok(None)
        );
        assert_eq!(controller.solves(), tracked + 1);
        controller
            .enable_detection(DegradeConfig::paper_defaults())
            .unwrap();
        controller
            .health_probe(&array, env, &converter, &chip)
            .unwrap();
        assert_eq!(controller.solves(), tracked + 2);
    }

    #[test]
    fn tracking_follows_supply_down_and_up() {
        let mut controller = SolarCoreController::default();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::hm2());

        let sunny = env(900.0);
        controller
            .track(&mut TrackingRig {
                array: &array,
                env: sunny,
                mpp: array.mpp(sunny),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        let p_sunny = controller
            .solve(&array, sunny, &converter, &chip)
            .unwrap()
            .panel_power()
            .get();

        let cloudy = env(350.0);
        controller
            .track(&mut TrackingRig {
                array: &array,
                env: cloudy,
                mpp: array.mpp(cloudy),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        let op_cloudy = controller.solve(&array, cloudy, &converter, &chip).unwrap();
        let mpp_cloudy = array.mpp(cloudy).power.get();
        assert!(op_cloudy.panel_power().get() < p_sunny);
        assert!(op_cloudy.panel_power().get() > 0.8 * mpp_cloudy);
        // Bus voltage must not be left sagging.
        assert!(op_cloudy.output_voltage.get() > 12.0 * 0.97);

        // Back up.
        controller
            .track(&mut TrackingRig {
                array: &array,
                env: sunny,
                mpp: array.mpp(sunny),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        let p_again = controller
            .solve(&array, sunny, &converter, &chip)
            .unwrap()
            .panel_power()
            .get();
        assert!(p_again > 0.85 * array.mpp(sunny).power.get());
    }

    #[test]
    fn margin_keeps_consumption_below_budget() {
        let mut controller = SolarCoreController::default();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::l1());
        let env = env(500.0); // leaves the chip DVFS headroom around the MPP
        controller
            .track(&mut TrackingRig {
                array: &array,
                env,
                mpp: array.mpp(env),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        let op = controller.solve(&array, env, &converter, &chip).unwrap();
        let mpp = array.mpp(env).power.get();
        assert!(
            op.panel_power().get() <= mpp + 1e-6,
            "cannot exceed the physics"
        );
        // A margin exists: the chip's regulated demand sits strictly below
        // the MPP (the extracted power may ride the flat top of the P-V
        // curve, but the load does not commit to all of it).
        let useful = op.panel_power().get().min(chip.total_power().get());
        assert!(useful < 0.995 * mpp, "useful {useful:.1} vs mpp {mpp:.1}");
    }

    #[test]
    fn dark_panel_tracks_to_zero_without_panicking() {
        let mut controller = SolarCoreController::default();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::m1());
        let dark = CellEnv::dark(Celsius::new(20.0));
        let report = controller
            .track(&mut TrackingRig {
                array: &array,
                env: dark,
                mpp: array.mpp(dark),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        assert_eq!(report.final_output_power, 0.0);
    }

    /// A PV source whose every I-V evaluation fails.
    struct BrokenArray(PvArray);

    impl PvGenerator for BrokenArray {
        fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
            self.0.open_circuit_voltage(env)
        }

        fn current_at_counted(
            &self,
            _env: CellEnv,
            _voltage: Volts,
        ) -> Result<(Amps, u32), pv::PvError> {
            Err(pv::PvError::NoConvergence {
                context: "module current at voltage",
                iterations: 128,
            })
        }

        fn mpp(&self, env: CellEnv) -> pv::MppPoint {
            self.0.mpp(env)
        }
    }

    #[test]
    fn solver_errors_surface_as_core_errors() {
        let mut controller = SolarCoreController::default();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::hm2());
        let broken = BrokenArray(array);
        let env = env(800.0);
        let err = controller
            .solve(&broken, env, &converter, &chip)
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Power(powertrain::PowerError::Pv(_))
        ));
        let tracked = controller.track(&mut TrackingRig {
            array: &broken,
            env,
            mpp: broken.mpp(env),
            converter: &mut converter,
            chip: &mut chip,
            tuner: &mut tuner,
        });
        assert_eq!(tracked.unwrap_err(), err);
    }

    #[test]
    fn tracking_survives_sensor_noise() {
        // A 2 % I/V sensor error must not break convergence (robustness
        // ablation; the paper's margin exists for exactly this reason).
        let cfg = ControllerConfig::paper_defaults();
        let mut controller =
            SolarCoreController::with_sensor(cfg, powertrain::IvSensor::noisy(0.02, 99)).unwrap();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::hm2());
        let env = env(750.0);
        let report = controller
            .track(&mut TrackingRig {
                array: &array,
                env,
                mpp: array.mpp(env),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        let mpp = array.mpp(env).power.get();
        assert!(
            report.final_output_power > 0.75 * mpp,
            "noisy tracking reached {:.1} of {mpp:.1} W",
            report.final_output_power
        );
    }

    #[test]
    fn chip_wide_tracking_also_converges() {
        let mut controller = SolarCoreController::default();
        let array = PvArray::solarcore_default();
        let mut converter = DcDcConverter::solarcore_default();
        let mut chip = MultiCoreChip::new(&Mix::hm2());
        chip.set_all_levels(VfLevel::lowest());
        let mut tuner = LoadTuner::new(Policy::MpptChipWide);
        let env = env(700.0);
        let report = controller
            .track(&mut TrackingRig {
                array: &array,
                env,
                mpp: array.mpp(env),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        let mpp = array.mpp(env).power.get();
        // Coarser steps: looser bound than per-core tracking.
        assert!(report.final_output_power > 0.6 * mpp);
    }

    #[test]
    fn needs_retrack_detects_voltage_excursions() {
        let controller = SolarCoreController::default();
        let mut op = OperatingPoint {
            output_voltage: pv::units::Volts::new(12.0),
            ..OperatingPoint::default()
        };
        assert!(!controller.needs_retrack(&op));
        op.output_voltage = pv::units::Volts::new(13.5); // +12.5 %
        assert!(controller.needs_retrack(&op));
        op.output_voltage = pv::units::Volts::new(10.5);
        assert!(controller.needs_retrack(&op));
    }

    #[test]
    fn saturated_chip_leaves_surplus_unharvested() {
        // Tiny load (everything gated except one core at lowest) cannot
        // absorb a full sun; tracking must not crash and must report less
        // than the MPP.
        let mut controller = SolarCoreController::default();
        let (array, mut converter, mut chip, mut tuner) = rig_parts(Mix::l1());
        let env = env(1000.0);
        // Gate 7 cores.
        for id in 1..8 {
            chip.gate(archsim::CoreId(id), true).unwrap();
        }
        let report = controller
            .track(&mut TrackingRig {
                array: &array,
                env,
                mpp: array.mpp(env),
                converter: &mut converter,
                chip: &mut chip,
                tuner: &mut tuner,
            })
            .unwrap();
        // The tuner is allowed to ungate its *own* gated cores only; these
        // were gated externally, so the load ceiling is low. (The engine
        // never does this; the test pins the no-panic behaviour.)
        assert!(report.final_output_power < array.mpp(env).power.get());
    }
}
