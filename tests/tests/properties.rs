//! Property-based invariants spanning pv + powertrain + archsim + solarcore.

use proptest::prelude::*;

use archsim::{MultiCoreChip, VfLevel};
use powertrain::{solve_operating_point, DcDcConverter, LoadModel};
use pv::units::{Celsius, Irradiance, Ohms, Volts, Watts};
use pv::{CellEnv, PvArray, PvGenerator, PvModule};
use solarcore::engine::allocate_budget;
use solarcore::{ControllerConfig, LoadTuner, Policy, SolarCoreController, TrackingRig};
use workloads::Mix;

fn arb_env() -> impl Strategy<Value = CellEnv> {
    (100.0..1100.0_f64, -5.0..75.0_f64)
        .prop_map(|(g, t)| CellEnv::new(Irradiance::new(g), Celsius::new(t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The module's I-V curve is non-increasing and the MPP dominates a
    /// sampled sweep under any physical environment.
    #[test]
    fn iv_curve_monotone_and_mpp_dominant(env in arb_env()) {
        let module = PvModule::bp3180n();
        let voc = module.open_circuit_voltage(env).get();
        prop_assume!(voc > 1.0);
        let mpp = module.mpp(env);
        let mut prev = f64::INFINITY;
        for step in 0..=40 {
            let v = Volts::new(voc * step as f64 / 40.0);
            let i = module.current_at(env, v).unwrap().get();
            prop_assert!(i <= prev + 1e-9);
            prev = i;
            let p = v.get() * i;
            prop_assert!(p <= mpp.power.get() + 1e-6);
        }
    }

    /// The operating-point solver lands on both the PV curve and the load
    /// line for any reasonable (k, R) combination.
    #[test]
    fn operating_point_is_consistent(
        env in arb_env(),
        k in 1.0..6.0_f64,
        r_load in 0.5..20.0_f64,
    ) {
        let array = PvArray::solarcore_default();
        let mut converter = DcDcConverter::solarcore_default();
        converter.set_ratio(k).unwrap();
        let op = solve_operating_point(&array, env, &converter, &LoadModel::Resistance(Ohms::new(r_load))).unwrap();
        let i_pv = array.current_at(env, op.panel_voltage).unwrap().get();
        prop_assert!((i_pv - op.panel_current.get()).abs() < 1e-4);
        let r_panel = converter.reflected_resistance(Ohms::new(r_load)).get();
        prop_assert!((op.panel_current.get() - op.panel_voltage.get() / r_panel).abs() < 1e-4);
        // Power never exceeds the MPP oracle.
        prop_assert!(op.panel_power().get() <= array.mpp(env).power.get() + 1e-6);
    }

    /// One full tracking invocation converges close to the MPP from any
    /// starting ratio, for any mix, under any daylight environment.
    #[test]
    fn tracking_converges_from_any_start(
        env in arb_env(),
        start_ratio in 1.5..6.0_f64,
        mix_idx in 0usize..10,
    ) {
        let array = PvArray::solarcore_default();
        let mpp = array.mpp(env).power.get();
        prop_assume!(mpp > 30.0); // enough to power the floor configuration
        let mix = Mix::all().swap_remove(mix_idx);
        let mut chip = MultiCoreChip::new(&mix);
        chip.set_all_levels(VfLevel::lowest());
        let mut converter = DcDcConverter::solarcore_default();
        converter.set_ratio(start_ratio).unwrap();
        let mut tuner = LoadTuner::new(Policy::MpptOpt);
        let mut controller = SolarCoreController::new(ControllerConfig::paper_defaults()).unwrap();
        let report = controller.track(&mut TrackingRig {
            array: &array,
            env,
            converter: &mut converter,
            chip: &mut chip,
            tuner: &mut tuner,
        }).unwrap();
        // Within 20 % of the MPP unless the chip itself saturates below it.
        let chip_max = {
            let mut probe = MultiCoreChip::new(&mix);
            probe.set_all_levels(VfLevel::highest());
            probe.total_power().get()
        };
        let target = mpp.min(chip_max * 1.05);
        prop_assert!(
            report.final_output_power > 0.75 * target * converter.efficiency(),
            "tracked {:.1} W of target {target:.1} W (mpp {mpp:.1}, chip max {chip_max:.1})",
            report.final_output_power
        );
        prop_assert!(report.final_output_power <= mpp + 1e-6);
    }

    /// The fixed-budget greedy fill never exceeds its budget and never
    /// leaves a whole V/F step of headroom unused.
    #[test]
    fn budget_allocation_is_tight(budget in 10.0..160.0_f64, mix_idx in 0usize..10) {
        let mix = Mix::all().swap_remove(mix_idx);
        let mut chip = MultiCoreChip::new(&mix);
        allocate_budget(&mut chip, Watts::new(budget)).unwrap();
        let used = chip.total_power().get();
        prop_assert!(used <= budget + 1e-9, "used {used:.1} of {budget:.1}");
        // Tightness: no single remaining upgrade fits.
        for core in chip.cores() {
            if core.is_gated() {
                continue;
            }
            if let Some(next) = core.level().faster() {
                let would_be = chip.power_if(core.id(), next).unwrap().get();
                prop_assert!(
                    would_be > budget,
                    "core {} could still step up ({would_be:.1} <= {budget:.1})",
                    core.id()
                );
            }
        }
    }

    /// The runtime sanitizer stays silent on valid traces: a full simulated
    /// day at any site/season/mix keeps every record inside the budget
    /// invariant, so re-asserting it after the fact never trips.
    #[test]
    fn budget_conservation_never_trips_on_valid_days(
        site_idx in 0usize..4,
        season_idx in 0usize..4,
        mix_idx in 0usize..10,
    ) {
        use solarcore::{invariants, DaySimulation};
        use solarenv::{Season, Site};
        let site = Site::all().swap_remove(site_idx);
        let season = Season::ALL[season_idx];
        let mix = Mix::all().swap_remove(mix_idx);
        let result = DaySimulation::builder()
            .site(site)
            .season(season)
            .mix(mix)
            .policy(Policy::MpptOpt)
            .build()
            .unwrap()
            .run()
            .unwrap();
        for record in result.records() {
            invariants::assert_power("property replay", record.budget);
            invariants::assert_budget("property replay", record.drawn, record.budget);
        }
    }

    /// Battery-system harvest scales exactly with the derating factor.
    #[test]
    fn battery_harvest_scales_with_derating(d1 in 0.3..0.9_f64) {
        use solarcore::BatterySystem;
        use solarenv::{EnvTrace, Season, Site};
        let array = PvArray::solarcore_default();
        let trace = EnvTrace::generate(&Site::golden_co(), Season::Apr, 0);
        let a = BatterySystem::with_derating(d1).simulate_day(&array, &trace, &Mix::l1(), 1).unwrap();
        let b = BatterySystem::with_derating(d1 / 2.0).simulate_day(&array, &trace, &Mix::l1(), 1).unwrap();
        prop_assert!((a.stored.get() / b.stored.get() - 2.0).abs() < 1e-9);
        prop_assert!(a.instructions >= b.instructions);
    }
}
