//! Whole-day closed-loop simulation: weather → PV → power train →
//! SolarCore controller → multi-core chip.
//!
//! This is the experimental rig behind every figure and table of the
//! paper's evaluation (Section 6): it advances minute by minute through an
//! environment trace, lets the ATS choose between solar and utility, runs
//! the configured power-management policy, and records per-minute budget
//! vs. actual power, bus voltage and committed instructions.

use archsim::{AvailabilityMask, CoreId, MultiCoreChip, VfLevel};
use faults::{AtsOverride, CoreConstraint, FaultPlan, SensorInjector};
use powertrain::{AutomaticTransferSwitch, DcDcConverter, FaultedIvSensor, IvSensor, PowerSource};
use pv::generator::PvGenerator;
use pv::units::{Volts, WattHours, Watts};
use solarenv::{EnvTrace, Season, Site};
use telemetry::{field, Profiler, Telemetry};
use workloads::{Mix, PhaseTrace};

use crate::adapter::LoadTuner;
use crate::config::ControllerConfig;
use crate::controller::{SolarCoreController, TrackingRig};
use crate::degrade::{DegradationFsm, DegradeConfig, FsmTransition};
use crate::error::CoreError;
use crate::invariants;
use crate::metrics;
use crate::policy::Policy;
use crate::telemetry::{schema, DayInstruments, PvHandle};
use crate::tpr;

/// Seed-mixing constant so phase traces differ from weather traces.
const PHASE_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The workload phase-trace seed used for a `(site, season, day)` run.
/// Exposed so baselines (e.g. the battery systems) can replay exactly the
/// same program phases as the SolarCore engine.
pub fn phase_seed(site: &Site, season: Season, day: u32) -> u64 {
    site.trace_seed(season, day) ^ PHASE_SEED_SALT
}

/// Minimum budget (watts) below which relative tracking error is not
/// accumulated (avoids division noise at dawn/dusk).
const ERROR_FLOOR_W: f64 = 5.0;

/// One minute of simulation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinuteRecord {
    /// Minute of day (absolute, e.g. 450 = 07:30).
    pub minute: u32,
    /// The oracle maximum power available from the array.
    pub budget: Watts,
    /// Power actually extracted from the array (zero on utility).
    pub drawn: Watts,
    /// Load-bus voltage.
    pub bus_voltage: Volts,
    /// Active power source.
    pub source: PowerSource,
    /// Chip power demand during the minute.
    pub chip_power: Watts,
    /// Chip power *capacity* during the minute (all cores at top V/F) —
    /// the most the load adaptation could have absorbed.
    pub chip_capacity: Watts,
    /// Instructions committed during the minute.
    pub instructions: f64,
    /// Canonical digest of the per-core V/F state at the end of the
    /// minute ([`MultiCoreChip::vf_digest`]) — lets the determinism
    /// harness compare per-core operating points across runs.
    pub vf_digest: u64,
}

/// Configures and runs one simulated day.
///
/// # Examples
///
/// ```
/// use solarcore::{DaySimulation, Policy};
/// use solarenv::{Site, Season};
/// use workloads::Mix;
///
/// let result = DaySimulation::builder()
///     .site(Site::golden_co())
///     .season(Season::Oct)
///     .day(1)
///     .mix(Mix::l2())
///     .policy(Policy::MpptRr)
///     .build()
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(result.records().len(), 601);
/// ```
#[derive(Debug, Clone)]
pub struct DaySimulation {
    site: Site,
    season: Season,
    day: u32,
    mix: Mix,
    policy: Policy,
    config: ControllerConfig,
    array: pv::PvArray,
    converter: DcDcConverter,
    ats_threshold: Watts,
    ats_hysteresis: Watts,
    sensor: IvSensor,
    solver_cache: bool,
    telemetry: Telemetry,
    profiler: Profiler,
    fault_plan: Option<FaultPlan>,
    degrade: Option<DegradeConfig>,
}

/// Builder for [`DaySimulation`].
#[derive(Debug, Clone)]
pub struct DaySimulationBuilder {
    site: Site,
    season: Season,
    day: u32,
    mix: Mix,
    policy: Policy,
    config: ControllerConfig,
    array: pv::PvArray,
    converter: DcDcConverter,
    ats_threshold: Option<Watts>,
    ats_hysteresis: Watts,
    sensor: IvSensor,
    solver_cache: bool,
    telemetry: Telemetry,
    profiler: Profiler,
    fault_plan: Option<FaultPlan>,
    degrade: Option<DegradeConfig>,
}

/// Reusable per-`(site, season, day, mix)` state of a day simulation: the
/// decoded weather trace, the workload phase traces, each minute's maximum
/// power point (the budget oracle), and the PV solver memo
/// ([`pv::ArrayCache`]).
///
/// [`DaySimulation::run`] builds one of these internally on every call;
/// [`DaySimulation::prepare`] + [`DaySimulation::run_prepared`] let callers
/// amortize it across repeated runs (the cold-vs-warm comparison the
/// benchmark suite measures). Because the trace is a pure function of
/// `(site, season, day, mix)` and the fault plan, the MPP column a pure
/// function of the trace and the array, and the cache bitwise-transparent,
/// a prepared run is bit-identical to a fresh one;
/// `crates/bench/tests/determinism.rs` asserts exactly that.
#[derive(Debug)]
pub struct SimSetup {
    site_code: &'static str,
    season: Season,
    day: u32,
    mix_name: &'static str,
    /// Digest of the fault plan the trace was prepared under
    /// ([`FaultPlan::digest`]; `0` when disarmed) — irradiance faults are
    /// baked into the trace at prepare time, so a setup must not be
    /// replayed under a different plan.
    faults_digest: u64,
    trace: EnvTrace,
    phases: Vec<PhaseTrace>,
    /// The array the MPP column was computed for.
    array: pv::PvArray,
    /// `array.mpp` of every trace sample, one entry per minute.
    mpp: Vec<pv::MppPoint>,
    cache: pv::ArrayCache,
}

impl SimSetup {
    /// The decoded environment trace (also the battery baselines' input,
    /// so grid sweeps need not regenerate it per policy).
    pub fn trace(&self) -> &EnvTrace {
        &self.trace
    }

    /// Hit/miss counters of the shared PV solver memo.
    pub fn cache_stats(&self) -> pv::CacheStats {
        self.cache.stats()
    }

    /// Consumes the setup and releases its PV solver memo, so a multi-day
    /// caller can thread one warm cache through consecutive days via
    /// [`DaySimulation::prepare_with_cache`]. The memo keys on exact
    /// `(G, T, V)` bits and is bitwise-transparent, so reuse never changes
    /// results — it only converts repeated solves into hits.
    pub fn into_cache(self) -> pv::ArrayCache {
        self.cache
    }
}

impl DaySimulation {
    /// Starts a builder with the paper's defaults (Phoenix AZ, January,
    /// mix HM2, MPPT&Opt, BP3180N array).
    pub fn builder() -> DaySimulationBuilder {
        DaySimulationBuilder {
            site: Site::phoenix_az(),
            season: Season::Jan,
            day: 0,
            mix: Mix::hm2(),
            policy: Policy::MpptOpt,
            config: ControllerConfig::paper_defaults(),
            array: pv::PvArray::solarcore_default(),
            converter: DcDcConverter::solarcore_default(),
            ats_threshold: None,
            ats_hysteresis: Watts::new(3.0),
            sensor: IvSensor::ideal(),
            solver_cache: true,
            telemetry: Telemetry::disabled(),
            profiler: Profiler::disabled(),
            fault_plan: None,
            degrade: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Runs the day and collects the result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on internal inconsistencies surfaced by the
    /// chip model, the load tuner or the power train (e.g. a phase trace
    /// sized to a different chip). Physics violations — budget
    /// over-draws, runaway bus voltages — trip the [`invariants`]
    /// sanitizer instead of returning.
    pub fn run(&self) -> Result<DayResult, CoreError> {
        self.run_prepared(&self.prepare())
    }

    /// Decodes the per-`(site, season, day, mix)` inputs — weather trace and
    /// workload phases — computes every minute's maximum power point, and
    /// allocates a fresh PV solver memo, for reuse across
    /// [`Self::run_prepared`] calls.
    pub fn prepare(&self) -> SimSetup {
        self.prepare_with_cache(pv::ArrayCache::new())
    }

    /// Like [`Self::prepare`], but seeds the setup with an existing PV
    /// solver memo instead of a cold one. This is the multi-day reuse hook:
    /// a campaign shard simulating consecutive days of one array threads
    /// the cache forward ([`SimSetup::into_cache`] → `prepare_with_cache`)
    /// so operating points recur across days as warm hits. The memo is
    /// keyed on exact input bits and every miss delegates to the plain
    /// solver, so a warm-started day is bit-identical to a cold one; the
    /// cache is only meaningful for the same [`pv::PvArray`] the entries
    /// were solved against, which is the caller's responsibility.
    ///
    /// The day's budget oracle is computed here, once, after any irradiance
    /// fault is baked into the trace: [`pv::PvArray::mpp_column`] searches
    /// every sample's MPP, split across the available CPUs with the same
    /// bits at any thread count. Every policy run on the setup reads it.
    pub fn prepare_with_cache(&self, cache: pv::ArrayCache) -> SimSetup {
        let _prof = self.profiler.scope(schema::PROF_PREPARE);
        let mut trace = EnvTrace::generate(&self.site, self.season, self.day);
        if let Some(plan) = &self.fault_plan {
            if plan.has_irradiance_faults() {
                // Environmental transients are a property of the day, not
                // of the control loop: bake them into the trace once so
                // every run prepared on this setup sees the same clouded sky.
                trace.scale_irradiance(|minute| plan.irradiance_factor_at(minute));
            }
        }
        let minutes = trace.samples().len();
        let seed = phase_seed(&self.site, self.season, self.day);
        let phases = PhaseTrace::for_mix(&self.mix, seed, minutes);
        let envs: Vec<pv::CellEnv> = trace.samples().iter().map(|s| s.cell_env()).collect();
        let mpp = self.array.mpp_column(&envs);
        SimSetup {
            site_code: self.site.code(),
            season: self.season,
            day: self.day,
            mix_name: self.mix.name(),
            faults_digest: self.faults_digest(),
            trace,
            phases,
            array: self.array.clone(),
            mpp,
            cache,
        }
    }

    /// Digest of the armed fault plan (`0` when disarmed), the tag that
    /// binds a [`SimSetup`] to the plan it was prepared under.
    fn faults_digest(&self) -> u64 {
        self.fault_plan.as_ref().map_or(0, FaultPlan::digest)
    }

    /// Runs the day against a previously [`Self::prepare`]d setup, skipping
    /// trace regeneration and the MPP searches and reusing the setup's PV
    /// solver memo.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `setup` was prepared for a
    /// different `(site, season, day, mix)`, fault plan or PV array, plus
    /// everything [`Self::run`] can return.
    pub fn run_prepared(&self, setup: &SimSetup) -> Result<DayResult, CoreError> {
        if setup.site_code != self.site.code()
            || setup.season != self.season
            || setup.day != self.day
            || setup.mix_name != self.mix.name()
        {
            return Err(CoreError::InvalidConfig {
                reason: "SimSetup was prepared for a different (site, season, day, mix)",
            });
        }
        if setup.faults_digest != self.faults_digest() {
            return Err(CoreError::InvalidConfig {
                reason: "SimSetup was prepared under a different fault plan",
            });
        }
        if setup.array != self.array {
            return Err(CoreError::InvalidConfig {
                reason: "SimSetup was prepared for a different PV array",
            });
        }
        // Wall-clock profiling of the day (fenced: measurements never
        // touch simulated state; a disabled handle costs one branch).
        let prof = &self.profiler;
        let _prof_day = prof.scope(schema::PROF_RUN_DAY);

        let trace = &setup.trace;
        let phases = &setup.phases;

        // All PV solves go through one concrete handle. With the solver
        // cache enabled it memoizes exact-key solves (bitwise transparent:
        // every miss runs the plain array's code). With a telemetry stream
        // attached it tallies every evaluation, the one tally of PV work
        // (the controller counts its own solves); the disabled and the
        // instrumented path compute identical results (asserted by the
        // determinism harness). The minute's budget oracle comes from the
        // setup's MPP column.
        let tel = &self.telemetry;
        let instruments = DayInstruments::new();
        let array = PvHandle::new(
            &self.array,
            self.solver_cache.then_some(&setup.cache),
            tel.is_enabled().then_some(&instruments),
        );

        // Chaos seams. An armed fault plan routes the controller's sensing
        // through an injecting wrapper and (like an explicit `degrade`
        // override) arms plausibility-window detection plus the
        // MPPT ⇄ fallback state machine. All seams keep an exact disarmed
        // fast path, so a run without a plan is bit-identical to the
        // pre-seam engine (the determinism harness pins that hash).
        let plan = self.fault_plan.as_ref();
        let mut controller = match plan {
            Some(plan) if plan.has_sensor_faults() => SolarCoreController::with_faulted_sensor(
                self.config.clone(),
                FaultedIvSensor::armed(self.sensor.clone(), SensorInjector::new(plan)),
            )?,
            _ => SolarCoreController::with_sensor(self.config.clone(), self.sensor.clone())?,
        };
        let degrade_config = self
            .degrade
            .or_else(|| plan.map(|_| DegradeConfig::paper_defaults()));
        let mut fsm = match degrade_config {
            Some(config) => {
                controller.enable_detection(config)?;
                Some(DegradationFsm::new(config)?)
            }
            None => None,
        };
        let mut degrade_entered_minute: u32 = 0;
        let base_efficiency = self.converter.efficiency();
        let mut current_derate = 1.0_f64;
        if tel.is_enabled() {
            tel.set_minute(setup.trace.samples().first().map_or(0, |s| s.minute_of_day));
            tel.event(
                schema::EVENT_DAY_START,
                vec![
                    field(schema::SITE, self.site.code()),
                    field(schema::SEASON, self.season.to_string()),
                    field(schema::DAY, self.day),
                    field(schema::MIX, self.mix.name()),
                    field(schema::POLICY, self.policy.label()),
                ],
            )?;
        }
        let vdd = self.config.nominal_bus_voltage;
        let mut chip = MultiCoreChip::new(&self.mix); // utility boot: full speed
        let mut converter = self.converter.clone();
        let mut tuner = LoadTuner::new(self.policy);
        let mut ats = AutomaticTransferSwitch::new(self.ats_threshold, self.ats_hysteresis)?;
        // The lowest reachable transfer ratio bounds the bus voltage the
        // converter can ever present: V_out = V_panel / k ≤ Voc / k_min.
        let k_min = self.converter.ratio_range().0;
        let mut prev_source = PowerSource::Utility;
        let mut force_track = false;

        let mut vf_residency = vec![[0u64; VfLevel::COUNT]; chip.core_count()];
        let mut gated_minutes = vec![0u64; chip.core_count()];

        let mut records = Vec::with_capacity(trace.samples().len());
        for (t, (sample, mpp)) in trace.samples().iter().zip(&setup.mpp).enumerate() {
            tel.set_minute(sample.minute_of_day);
            let minute = sample.minute_of_day;
            if let Some(plan) = plan {
                controller.set_sensor_minute(minute);
                if plan.has_core_faults() {
                    // Gate lost cores and clamp throttled ones before the
                    // minute executes; later budget allocations re-apply
                    // the mask (it only ever gates or slows, so a masked
                    // chip never exceeds an allocated budget).
                    enforce_plan_mask(plan, minute, &mut chip)?;
                }
                let derate = plan.converter_derate_at(minute);
                #[allow(clippy::float_cmp)] // exact 1.0/derate comparison is the disarmed fast path
                if derate != current_derate {
                    // Rebuild at the same ratio with the derated conversion
                    // efficiency; any queued lag commands are dropped (the
                    // degraded regulator restarts its command pipeline).
                    converter = DcDcConverter::new(
                        converter.ratio(),
                        self.converter.ratio_range().0,
                        self.converter.ratio_range().1,
                        self.converter.ratio_step(),
                        base_efficiency * derate,
                    )?;
                    current_derate = derate;
                }
                converter.set_actuator_lag(plan.actuator_lag_at(minute));
            }
            let env = sample.cell_env();
            // One oracle query per minute, answered by the column.
            let budget = mpp.power;
            instruments.mpp_queries.incr();
            let source = match plan.and_then(|p| p.ats_override_at(minute)) {
                Some(AtsOverride::ForceUtility) => ats.force(PowerSource::Utility),
                Some(AtsOverride::ForceSolar) => ats.force(PowerSource::Solar),
                None => ats.update(budget),
            };

            if source != prev_source {
                match source {
                    PowerSource::Solar => {
                        // Come up from a minimal, safe load; the first
                        // tracking invocation ramps it to the MPP.
                        tuner.ungate_all(&mut chip)?;
                        chip.set_all_levels(VfLevel::lowest());
                        force_track = true;
                    }
                    PowerSource::Utility => {
                        // Conventional CMP on grid power.
                        tuner.ungate_all(&mut chip)?;
                        chip.set_all_levels(VfLevel::highest());
                    }
                }
                prev_source = source;
            }

            let instr_before = chip.total_instructions();
            let mults: Vec<f64> = phases.iter().map(|p| p.at(t)).collect();
            chip.step(&mults, 60.0)?;
            let instructions = chip.total_instructions() - instr_before;
            let chip_power = chip.total_power();
            let chip_capacity = chip.power_capacity();

            let (drawn, bus_voltage) = match source {
                PowerSource::Utility => (Watts::ZERO, vdd),
                PowerSource::Solar => match self.policy {
                    Policy::FixedPower(budget_cap) => {
                        if force_track || t % self.config.tracking_interval_minutes as usize == 0 {
                            let moves = {
                                let _prof_tpr = prof.scope(schema::PROF_TPR_ALLOC);
                                allocate_budget(&mut chip, budget_cap)?
                            };
                            if let Some(plan) = plan.filter(|p| p.has_core_faults()) {
                                // The fill ungates everything; re-impose
                                // the availability mask (monotone: only
                                // gates or slows, so the budget holds).
                                enforce_plan_mask(plan, minute, &mut chip)?;
                            }
                            force_track = false;
                            if tel.is_enabled() {
                                instruments.tpr_moves.record(u64::from(moves));
                                tel.event(
                                    schema::EVENT_TPR_ALLOC,
                                    vec![
                                        field(schema::BUDGET_W, budget_cap.get()),
                                        field(schema::MOVES, u64::from(moves)),
                                    ],
                                )?;
                            }
                        }
                        (chip.total_power().min(budget_cap), vdd)
                    }
                    Policy::MpptIc | Policy::MpptRr | Policy::MpptOpt | Policy::MpptChipWide => {
                        // Sensing health probe + degradation state machine
                        // (armed runs only; `fsm` is `None` otherwise).
                        let mut probe_clean = false;
                        let mut degraded = false;
                        if let Some(fsm) = fsm.as_mut() {
                            let fault = controller.health_probe(&array, env, &converter, &chip)?;
                            probe_clean = fault.is_none();
                            if let Some(fault) = fault {
                                if tel.is_enabled() {
                                    let (rejects, retries) = detector_counts(&controller);
                                    tel.event(
                                        schema::EVENT_FAULT_REJECT,
                                        vec![
                                            field(schema::REASON, fault.label()),
                                            field(schema::REJECTS, rejects),
                                            field(schema::RETRIES, retries),
                                        ],
                                    )?;
                                }
                            }
                            match fsm.step(minute, !probe_clean) {
                                FsmTransition::Entered => {
                                    degrade_entered_minute = minute;
                                    if tel.is_enabled() {
                                        let (rejects, _) = detector_counts(&controller);
                                        tel.event(
                                            schema::EVENT_DEGRADE_ENTER,
                                            vec![
                                                field(
                                                    schema::FALLBACK_BUDGET_W,
                                                    fsm.fallback_budget(budget).get(),
                                                ),
                                                field(schema::REJECTS, rejects),
                                            ],
                                        )?;
                                    }
                                }
                                FsmTransition::Exited => {
                                    // Re-enter MPPT from a forced retrack.
                                    force_track = true;
                                    if tel.is_enabled() {
                                        let (rejects, _) = detector_counts(&controller);
                                        tel.event(
                                            schema::EVENT_DEGRADE_EXIT,
                                            vec![
                                                field(
                                                    schema::DWELL_MINUTES,
                                                    u64::from(
                                                        minute
                                                            .saturating_sub(degrade_entered_minute),
                                                    ),
                                                ),
                                                field(schema::REJECTS, rejects),
                                            ],
                                        )?;
                                    }
                                }
                                FsmTransition::None => {}
                            }
                            degraded = fsm.is_degraded();
                        }
                        if degraded {
                            // Conservative fallback: stop trusting the
                            // sensors, run a Fixed-Power-style fill at a
                            // fraction of the last known-good power, on
                            // the nominal bus.
                            let fallback = match fsm.as_ref() {
                                Some(f) => f.fallback_budget(budget),
                                None => Watts::ZERO,
                            };
                            {
                                let _prof_tpr = prof.scope(schema::PROF_TPR_ALLOC);
                                allocate_budget(&mut chip, fallback)?;
                            }
                            if let Some(plan) = plan.filter(|p| p.has_core_faults()) {
                                enforce_plan_mask(plan, minute, &mut chip)?;
                            }
                            (chip.total_power().min(fallback), vdd)
                        } else {
                            let forced = force_track;
                            let op = controller.solve(&array, env, &converter, &chip)?;
                            if force_track
                                || t % self.config.tracking_interval_minutes as usize == 0
                                || controller.needs_retrack(&op)
                            {
                                let report = {
                                    let _prof_track = prof.scope(schema::PROF_MPPT_TRACK);
                                    controller.track(&mut TrackingRig {
                                        array: &array,
                                        env,
                                        mpp: *mpp,
                                        converter: &mut converter,
                                        chip: &mut chip,
                                        tuner: &mut tuner,
                                    })?
                                };
                                force_track = false;
                                if tel.is_enabled() {
                                    instruments.track_rounds.record(u64::from(report.rounds));
                                    instruments.track_actions.record(u64::from(report.actions));
                                    instruments
                                        .track_reversals
                                        .record(u64::from(report.reversals));
                                    tel.span(
                                        schema::SPAN_TRACK,
                                        sample.minute_of_day,
                                        vec![
                                            field(schema::ROUNDS, report.rounds),
                                            field(schema::ACTIONS, report.actions),
                                            field(schema::REVERSALS, report.reversals),
                                            field(schema::FINAL_POWER_W, report.final_output_power),
                                            field(schema::RATIO_K, report.final_ratio),
                                            field(schema::FORCED, forced),
                                        ],
                                    )?;
                                }
                            }
                            if invariants::enabled() {
                                invariants::assert_bus_voltage(
                                    "engine minute",
                                    op.output_voltage,
                                    Volts::new(array.open_circuit_voltage(env).get() / k_min),
                                );
                            }
                            if probe_clean {
                                if let Some(fsm) = fsm.as_mut() {
                                    // Anchor the fallback budget to the latest
                                    // power the screened loop steered to.
                                    fsm.note_good_power(op.panel_power());
                                }
                            }
                            // The chip's useful draw is capped at its DVFS
                            // demand (the on-chip VRMs regulate); when the bus
                            // sags below nominal the impedance model caps it at
                            // what the panel delivers. The gap to the budget is
                            // the paper's power margin.
                            (op.panel_power().min(chip_power), op.output_voltage)
                        }
                    }
                },
            };

            if invariants::enabled() {
                // Nothing may be harvested beyond what the sun offered this
                // minute — the core conservation law of the whole model.
                invariants::assert_power("engine minute", chip_power);
                invariants::assert_budget("engine minute", drawn, budget);
            }

            if tel.is_enabled() {
                instruments
                    .ratio_k_centi
                    .record(ratio_centisteps(converter.ratio()));
                for (idx, core) in chip.cores().iter().enumerate() {
                    if core.is_gated() {
                        gated_minutes[idx] += 1;
                    } else {
                        vf_residency[idx][core.level().index()] += 1;
                    }
                }
                tel.event(
                    schema::EVENT_MINUTE,
                    vec![
                        field(schema::BUDGET_W, budget.get()),
                        field(schema::DRAWN_W, drawn.get()),
                        field(schema::BUS_V, bus_voltage.get()),
                        field(schema::SOURCE, source_label(source)),
                        field(schema::CHIP_POWER_W, chip_power.get()),
                        field(schema::CHIP_CAPACITY_W, chip_capacity.get()),
                        field(schema::RATIO_K, converter.ratio()),
                        field(schema::INSTRUCTIONS, instructions),
                    ],
                )?;
            }

            records.push(MinuteRecord {
                minute: sample.minute_of_day,
                budget,
                drawn,
                bus_voltage,
                source,
                chip_power,
                chip_capacity,
                instructions,
                vf_digest: chip.vf_digest(),
            });
        }

        let result = DayResult {
            site_code: self.site.code(),
            season: self.season,
            day: self.day,
            mix_name: self.mix.name(),
            policy: self.policy,
            records,
        };

        if tel.is_enabled() {
            instruments.fold_zero_evals();
            for (core, levels) in vf_residency.iter().enumerate() {
                let mut fields = vec![
                    field(schema::CORE, core),
                    field(schema::GATED_MINUTES, gated_minutes[core]),
                ];
                for (level, minutes) in levels.iter().enumerate() {
                    fields.push(field(schema::RESIDENCY_LEVELS[level], *minutes));
                }
                tel.event(schema::EVENT_VF_RESIDENCY, fields)?;
            }
            tel.histogram(&instruments.newton_iters)?;
            tel.histogram(&instruments.track_rounds)?;
            tel.histogram(&instruments.track_actions)?;
            tel.histogram(&instruments.track_reversals)?;
            tel.histogram(&instruments.tpr_moves)?;
            tel.histogram(&instruments.ratio_k_centi)?;
            tel.counter(&instruments.mpp_queries)?;
            tel.counter(&instruments.pv_evals())?;
            let cache = setup.cache_stats();
            tel.event(
                schema::EVENT_DAY_SUMMARY,
                vec![
                    field(schema::TRACKING_ERROR, result.mean_tracking_error()),
                    field(schema::ENERGY_DRAWN_WH, result.energy_drawn().get()),
                    field(schema::ENERGY_AVAILABLE_WH, result.energy_available().get()),
                    field(schema::UTILIZATION, result.utilization()),
                    field(schema::INSTRUCTIONS, result.total_instructions()),
                    field(schema::CACHE_HITS, cache.hits),
                    field(schema::CACHE_MISSES, cache.misses),
                    field(schema::SOLVES, controller.solves()),
                    field(schema::PV_EVALS, instruments.newton_iters.count()),
                    field(schema::NEWTON_ITERS_TOTAL, instruments.newton_iters.sum()),
                ],
            )?;
            tel.flush()?;
        }

        Ok(result)
    }
}

impl DaySimulationBuilder {
    /// Sets the geographic site.
    pub fn site(mut self, site: Site) -> Self {
        self.site = site;
        self
    }

    /// Sets the season.
    pub fn season(mut self, season: Season) -> Self {
        self.season = season;
        self
    }

    /// Sets the weather-realization day index.
    pub fn day(mut self, day: u32) -> Self {
        self.day = day;
        self
    }

    /// Sets the workload mix.
    pub fn mix(mut self, mix: Mix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the power-management policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the controller configuration.
    pub fn config(mut self, config: ControllerConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the PV array.
    pub fn array(mut self, array: pv::PvArray) -> Self {
        self.array = array;
        self
    }

    /// Overrides the DC/DC converter.
    pub fn converter(mut self, converter: DcDcConverter) -> Self {
        self.converter = converter;
        self
    }

    /// Overrides the ATS power-transfer threshold (defaults to 25 W, or to
    /// the budget for `Fixed-Power` policies).
    pub fn ats_threshold(mut self, threshold: Watts) -> Self {
        self.ats_threshold = Some(threshold);
        self
    }

    /// Routes the controller's tuning decisions through a (possibly noisy)
    /// I/V sensor — the sensor-error robustness knob.
    pub fn sensor(mut self, sensor: IvSensor) -> Self {
        self.sensor = sensor;
        self
    }

    /// Enables or disables the bitwise-transparent PV solver memo
    /// (default: enabled). Disabling forces every I-V solve cold — the
    /// baseline the cold-vs-warm benchmarks and differential tests compare
    /// against.
    pub fn solver_cache(mut self, enabled: bool) -> Self {
        self.solver_cache = enabled;
        self
    }

    /// Attaches a telemetry stream (default: disabled). An enabled handle
    /// makes every run emit the records documented in
    /// [`crate::telemetry::schema`]; instrumentation is bitwise transparent
    /// — results are identical with the handle attached or not. Handing
    /// clones of one handle to several simulations makes one sink receive
    /// all their streams in run order.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a wall-clock profiler (default: disabled). An armed handle
    /// measures the prepare/run/TPR/MPPT phases into its span tree
    /// ([`telemetry::prof`]). Profiling is strictly fenced from simulated
    /// state: nothing it measures feeds any result, record or digest, so a
    /// profiled run is bit-identical to an unprofiled one
    /// (`bench/tests/determinism.rs` pins exactly that).
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Arms a chaos-scenario fault plan (default: disarmed). An armed plan
    /// drives every injection seam — sensor disturbances, converter
    /// derating and actuator lag, ATS overrides, core throttles/losses and
    /// irradiance transients — on the simulated-minute axis, and implies
    /// fault detection with [`DegradeConfig::paper_defaults`] unless
    /// [`degrade`](Self::degrade) overrides it. Disarmed runs take the
    /// exact pre-seam code paths and are bit-identical to an engine
    /// without the chaos subsystem.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the graceful-degradation configuration and arms fault
    /// detection even without a fault plan (e.g. to screen a noisy sensor
    /// configured via [`sensor`](Self::sensor)).
    pub fn degrade(mut self, config: DegradeConfig) -> Self {
        self.degrade = Some(config);
        self
    }

    /// Finalizes the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the controller configuration
    /// fails [`ControllerConfig::validate`], or if a
    /// [`Policy::FixedPower`] budget is not a finite, non-negative power.
    pub fn build(self) -> Result<DaySimulation, CoreError> {
        self.config
            .validate()
            .map_err(|reason| CoreError::InvalidConfig { reason })?;
        // Uphold the `Policy::FixedPower` payload contract here, at the
        // single entry point every simulation passes through: downstream
        // the budget feeds the TPR fill and the drawn-power accounting
        // unchecked.
        if let Policy::FixedPower(budget) = self.policy {
            if !budget.get().is_finite() || budget.get() < 0.0 {
                return Err(CoreError::InvalidConfig {
                    reason: "a Fixed-Power budget must be a finite, non-negative power",
                });
            }
        }
        let ats_threshold = self.ats_threshold.unwrap_or(match self.policy {
            // Fixed-power systems transfer at their budget threshold
            // (Section 6.2).
            Policy::FixedPower(budget) => budget,
            Policy::MpptIc | Policy::MpptRr | Policy::MpptOpt | Policy::MpptChipWide => {
                Watts::new(25.0)
            }
        });
        Ok(DaySimulation {
            site: self.site,
            season: self.season,
            day: self.day,
            mix: self.mix,
            policy: self.policy,
            config: self.config,
            array: self.array,
            converter: self.converter,
            ats_threshold,
            ats_hysteresis: self.ats_hysteresis,
            sensor: self.sensor,
            solver_cache: self.solver_cache,
            telemetry: self.telemetry,
            profiler: self.profiler,
            fault_plan: self.fault_plan,
            degrade: self.degrade,
        })
    }
}

/// Greedy TPR budget fill for the `Fixed-Power` scheme: start every core at
/// the floor and hand V/F steps to the best throughput-power ratio while the
/// what-if power stays under the budget. For this separable concave problem
/// the greedy fill matches the paper's linear-programming optimum.
///
/// Returns the number of reallocation moves applied — power-gatings plus
/// granted V/F steps, excluding the uniform reset to the floor — which the
/// telemetry stream records as [`schema::EVENT_TPR_ALLOC`] /
/// [`schema::HIST_TPR_MOVES`].
///
/// # Errors
///
/// Returns [`CoreError`] if the chip rejects a core id or level transition —
/// an internal inconsistency between the TPR table and the chip state.
pub fn allocate_budget(chip: &mut MultiCoreChip, budget: Watts) -> Result<u32, CoreError> {
    let mut moves: u32 = 0;
    for id in 0..chip.core_count() {
        chip.gate(CoreId(id), false)?;
    }
    chip.set_all_levels(VfLevel::lowest());

    // If even the floor exceeds the budget, gate cores (highest id first).
    let mut victim = chip.core_count();
    while chip.total_power() > budget && victim > 0 {
        victim -= 1;
        chip.gate(CoreId(victim), true)?;
        moves += 1;
    }

    let mut blocked = vec![false; chip.core_count()];
    while let Some(core) = tpr::best_increase_among(chip, |id| !blocked[id.0]) {
        let next = chip
            .core(core)?
            .level()
            .faster()
            .ok_or(CoreError::LevelExhausted { core: core.0 })?;
        if chip.power_if(core, next)? <= budget {
            chip.set_level(core, next)?;
            moves += 1;
        } else {
            blocked[core.0] = true;
        }
    }
    if invariants::enabled() {
        // The fill must respect the cap it was given.
        invariants::assert_budget("budget allocation", chip.total_power(), budget);
    }
    Ok(moves)
}

/// Builds the minute's [`AvailabilityMask`] from the plan's core
/// constraints and applies it to the chip. Monotone: the mask only gates
/// or slows cores, so applying it after a budget allocation can never push
/// the chip over that budget.
fn enforce_plan_mask(
    plan: &FaultPlan,
    minute: u32,
    chip: &mut MultiCoreChip,
) -> Result<u32, CoreError> {
    let mut mask = AvailabilityMask::none(chip.core_count());
    for constraint in plan.core_constraints_at(minute) {
        match constraint {
            CoreConstraint::Throttle {
                core,
                max_level_index,
            } => mask.throttle(core, max_level_index),
            CoreConstraint::Loss { core } => mask.lose(core),
        }
    }
    if mask.is_unconstrained() {
        Ok(0)
    } else {
        Ok(mask.enforce(chip)?)
    }
}

/// The detector's cumulative reject/retry counters (zeros when detection
/// is not armed), for the `fault_*`/`degrade_*` telemetry events.
fn detector_counts(controller: &SolarCoreController) -> (u64, u64) {
    controller
        .detector()
        .map_or((0, 0), |d| (d.reject_count(), d.retry_count()))
}

/// The converter transfer ratio in centisteps (`round(k · 100)`) for the
/// [`schema::HIST_RATIO_K_CENTI`] trajectory histogram.
fn ratio_centisteps(ratio: f64) -> u64 {
    if !ratio.is_finite() {
        return 0;
    }
    // Ratios are physically bounded well under 10^4; the clamp only makes
    // the cast provably lossless.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        (ratio * 100.0).round().clamp(0.0, 1_000_000.0) as u64
    }
}

/// Schema label for the active power source.
fn source_label(source: PowerSource) -> &'static str {
    match source {
        PowerSource::Solar => "solar",
        PowerSource::Utility => "utility",
    }
}

/// Aggregated outcome of one simulated day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayResult {
    site_code: &'static str,
    season: Season,
    day: u32,
    mix_name: &'static str,
    policy: Policy,
    records: Vec<MinuteRecord>,
}

impl DayResult {
    /// Site code the day was simulated at.
    pub fn site_code(&self) -> &'static str {
        self.site_code
    }

    /// Season of the simulated day.
    pub fn season(&self) -> Season {
        self.season
    }

    /// Weather-realization index.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Workload mix name (Table 5).
    pub fn mix_name(&self) -> &'static str {
        self.mix_name
    }

    /// Policy that produced this result.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Per-minute records.
    pub fn records(&self) -> &[MinuteRecord] {
        &self.records
    }

    /// Total solar energy extracted over the day.
    pub fn energy_drawn(&self) -> WattHours {
        WattHours::new(self.records.iter().map(|r| r.drawn.get() / 60.0).sum())
    }

    /// Theoretical maximum solar energy (perfect MPP harvesting all day).
    pub fn energy_available(&self) -> WattHours {
        WattHours::new(self.records.iter().map(|r| r.budget.get() / 60.0).sum())
    }

    /// Green energy utilization: drawn / available (Section 6.3).
    pub fn utilization(&self) -> f64 {
        let avail = self.energy_available().get();
        if avail <= 0.0 {
            0.0
        } else {
            self.energy_drawn().get() / avail
        }
    }

    /// Minutes the chip ran on solar power.
    pub fn effective_minutes(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.source == PowerSource::Solar)
            .count()
    }

    /// Effective operation duration as a fraction of the daytime window.
    pub fn effective_fraction(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.effective_minutes() as f64 / self.records.len() as f64
        }
    }

    /// Instructions committed while solar-powered — the performance-time
    /// product (PTP) the paper optimizes.
    pub fn solar_instructions(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.source == PowerSource::Solar)
            .map(|r| r.instructions)
            .sum()
    }

    /// All instructions committed during the day (solar + utility).
    pub fn total_instructions(&self) -> f64 {
        self.records.iter().map(|r| r.instructions).sum()
    }

    /// Mean relative tracking error over solar-powered minutes:
    /// `|P_budget − P_actual| / P_budget` (Section 6.1), where the budget is
    /// capped at the chip's own power capacity — when the sun offers more
    /// than every core at full speed can absorb, the surplus is headroom,
    /// not a tracking failure (the paper's low-EPI workloads would
    /// otherwise be unfairly penalized).
    pub fn mean_tracking_error(&self) -> f64 {
        let errors: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.source == PowerSource::Solar && r.budget.get() > ERROR_FLOOR_W)
            .map(|r| {
                let achievable = r.budget.min(r.chip_capacity).get().max(ERROR_FLOOR_W);
                (achievable - r.drawn.get()).abs() / achievable
            })
            .collect();
        metrics::mean(&errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn quick(policy: Policy) -> DayResult {
        DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jan)
            .mix(Mix::hm2())
            .policy(policy)
            .build()
            .unwrap()
            .run()
            .unwrap()
    }

    /// Every entry of a setup's MPP column is the bits of a direct search.
    fn assert_column_is_the_oracle(sim: &DaySimulation) -> SimSetup {
        let setup = sim.prepare();
        assert_eq!(setup.mpp.len(), setup.trace.samples().len());
        for (sample, point) in setup.trace.samples().iter().zip(&setup.mpp) {
            let want = sim.array.mpp(sample.cell_env());
            for (got, want) in [
                (point.voltage.get(), want.voltage.get()),
                (point.current.get(), want.current.get()),
                (point.power.get(), want.power.get()),
            ] {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "minute {}",
                    sample.minute_of_day
                );
            }
        }
        setup
    }

    #[test]
    fn prepared_mpp_column_is_the_oracle_on_clean_and_clouded_days() {
        let clean = DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .build()
            .unwrap();
        let clean_setup = assert_column_is_the_oracle(&clean);
        let plan = faults::parse_scenario(
            "[scenario]\nname = \"cliff\"\nseed = 13\n\n[[fault]]\n\
             kind = \"irradiance_cliff\"\nfactor = 0.25\nramp_minutes = 10\n\
             start = 780\nend = 900\n",
        )
        .unwrap();
        assert!(plan.has_irradiance_faults());
        let armed = DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .fault_plan(plan)
            .build()
            .unwrap();
        let armed_setup = assert_column_is_the_oracle(&armed);
        // The cliff is baked into the trace before the column is computed.
        let clouded = clean_setup
            .mpp
            .iter()
            .zip(&armed_setup.mpp)
            .filter(|(c, a)| a.power < c.power)
            .count();
        assert!(clouded > 60, "{clouded} clouded minutes");
    }

    #[test]
    fn a_setup_runs_only_on_the_array_it_was_prepared_for() {
        let sim = DaySimulation::builder().build().unwrap();
        let other = DaySimulation::builder()
            .array(pv::PvArray::new(pv::PvModule::bp3180n(), 1, 2).unwrap())
            .build()
            .unwrap();
        let err = other.run_prepared(&sim.prepare()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn invalid_config_fails_the_build() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.voltage_tolerance = -0.5;
        let err = DaySimulation::builder().config(cfg).build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    /// The `Policy::FixedPower` payload contract: only finite, non-negative
    /// budgets get past the builder.
    #[test]
    fn bad_fixed_power_budgets_fail_the_build() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = DaySimulation::builder()
                .policy(Policy::FixedPower(Watts::new(bad)))
                .build()
                .unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig { .. }), "{bad}");
        }
        DaySimulation::builder()
            .policy(Policy::FixedPower(Watts::new(20.0)))
            .build()
            .unwrap();
    }

    #[test]
    fn day_has_601_records() {
        let r = quick(Policy::MpptOpt);
        assert_eq!(r.records().len(), 601);
        assert_eq!(r.records()[0].minute, 450);
    }

    #[test]
    fn sunny_winter_phoenix_mostly_solar_with_high_utilization() {
        let r = quick(Policy::MpptOpt);
        assert!(
            r.effective_fraction() > 0.7,
            "effective {:.2}",
            r.effective_fraction()
        );
        assert!(r.utilization() > 0.6, "utilization {:.2}", r.utilization());
        assert!(r.utilization() <= 1.0);
        assert!(r.solar_instructions() > 0.0);
    }

    #[test]
    fn drawn_power_never_exceeds_budget_materially() {
        let r = quick(Policy::MpptOpt);
        for rec in r.records() {
            assert!(
                rec.drawn.get() <= rec.budget.get() + 0.5,
                "minute {}: drew {} of {}",
                rec.minute,
                rec.drawn,
                rec.budget
            );
        }
    }

    #[test]
    fn utility_minutes_draw_no_solar() {
        let r = quick(Policy::MpptOpt);
        for rec in r.records() {
            if rec.source == PowerSource::Utility {
                assert_eq!(rec.drawn, Watts::ZERO);
            }
        }
    }

    #[test]
    fn determinism_same_inputs_same_result() {
        let a = quick(Policy::MpptRr);
        let b = quick(Policy::MpptRr);
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_power_caps_draw_at_budget() {
        let budget = Watts::new(75.0);
        let r = quick(Policy::FixedPower(budget));
        for rec in r.records() {
            assert!(rec.drawn <= budget + Watts::new(1e-9));
        }
        // The cap must bite: utilization clearly below the MPPT policies'.
        let mppt = quick(Policy::MpptOpt);
        assert!(r.utilization() < mppt.utilization());
    }

    #[test]
    fn allocate_budget_respects_the_cap_and_uses_it() {
        let mut chip = MultiCoreChip::new(&Mix::hm2());
        let budget = Watts::new(60.0);
        allocate_budget(&mut chip, budget).unwrap();
        let p = chip.total_power();
        assert!(p <= budget, "allocated {p} over {budget}");
        assert!(
            p.get() > 0.75 * budget.get(),
            "left too much on the table: {p}"
        );
    }

    #[test]
    fn allocate_budget_gates_cores_when_budget_is_tiny() {
        let mut chip = MultiCoreChip::new(&Mix::h1());
        allocate_budget(&mut chip, Watts::new(10.0)).unwrap();
        assert!(chip.total_power() <= Watts::new(10.0));
        assert!(chip.cores().iter().any(|c| c.is_gated()));
    }

    #[test]
    fn opt_beats_ic_on_heterogeneous_mixes() {
        let opt = quick(Policy::MpptOpt);
        let ic = quick(Policy::MpptIc);
        assert!(
            opt.solar_instructions() > ic.solar_instructions(),
            "opt {:.3e} vs ic {:.3e}",
            opt.solar_instructions(),
            ic.solar_instructions()
        );
    }

    #[test]
    fn telemetry_instrumentation_is_bit_transparent() {
        use std::cell::RefCell;
        use telemetry::JsonlSink;

        let plain = quick(Policy::MpptOpt);
        let sink = Rc::new(RefCell::new(JsonlSink::new()));
        let traced = DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jan)
            .mix(Mix::hm2())
            .policy(Policy::MpptOpt)
            .telemetry(Telemetry::attached(sink.clone()))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(plain, traced, "instrumentation changed the simulation");

        let stream = sink.borrow().buffer().to_string();
        assert!(stream.contains("\"day_start\""));
        assert!(stream.contains("\"track\""));
        assert!(stream.contains("\"vf_residency\""));
        assert!(stream.contains("\"day_summary\""));
        // day_start + one minute event per record + spans/snapshots.
        assert!(stream.lines().count() > traced.records().len());
    }

    #[test]
    fn fixed_power_telemetry_reports_tpr_moves() {
        use std::cell::RefCell;
        use telemetry::JsonlSink;

        let sink = Rc::new(RefCell::new(JsonlSink::new()));
        DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jan)
            .mix(Mix::hm2())
            .policy(Policy::FixedPower(Watts::new(75.0)))
            .telemetry(Telemetry::attached(sink.clone()))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let stream = sink.borrow().buffer().to_string();
        assert!(stream.contains("\"tpr_alloc\""));
        assert!(stream.contains("\"tpr_moves\""));
    }

    #[test]
    fn ratio_centisteps_rounds_and_saturates() {
        assert_eq!(ratio_centisteps(1.0), 100);
        assert_eq!(ratio_centisteps(3.456), 346);
        assert_eq!(ratio_centisteps(-1.0), 0);
        assert_eq!(ratio_centisteps(f64::NAN), 0);
    }

    #[test]
    fn tracking_error_is_single_digit_on_regular_weather() {
        let r = quick(Policy::MpptOpt);
        let err = r.mean_tracking_error();
        assert!(err < 0.25, "tracking error {err:.3}");
        assert!(err > 0.0);
    }
}
