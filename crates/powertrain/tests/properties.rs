//! Property-based tests of the power-delivery chain.

use proptest::prelude::*;

use powertrain::{
    solve_operating_point, AutomaticTransferSwitch, DcDcConverter, LoadModel, PowerSource,
};
use pv::units::{Celsius, Irradiance, Ohms, Watts};
use pv::{CellEnv, PvArray};

fn arb_env() -> impl Strategy<Value = CellEnv> {
    (50.0..1150.0_f64, -10.0..75.0_f64)
        .prop_map(|(g, t)| CellEnv::new(Irradiance::new(g), Celsius::new(t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transformer relations hold at every solved operating point, and
    /// output power is exactly η × panel power.
    #[test]
    fn transformer_relations_hold(
        env in arb_env(),
        k in 1.0..7.0_f64,
        r in 0.3..30.0_f64,
        eta in 0.85..1.0_f64,
    ) {
        let array = PvArray::solarcore_default();
        let converter = DcDcConverter::new(k, 0.8, 8.0, 0.05, eta).unwrap();
        let op = solve_operating_point(&array, env, &converter, &LoadModel::Resistance(Ohms::new(r))).unwrap();
        prop_assert!((op.output_voltage.get() - op.panel_voltage.get() / k).abs() < 1e-9);
        prop_assert!((op.output_current.get() - eta * k * op.panel_current.get()).abs() < 1e-9);
        prop_assert!(
            (op.output_power().get() - eta * op.panel_power().get()).abs() < 1e-6
        );
    }

    /// A heavier load never raises the panel voltage (the load-line
    /// rotation of Figure 5).
    #[test]
    fn load_monotonicity(env in arb_env(), r in 1.0..20.0_f64) {
        let array = PvArray::solarcore_default();
        let converter = DcDcConverter::solarcore_default();
        let light = solve_operating_point(&array, env, &converter, &LoadModel::Resistance(Ohms::new(r * 1.5))).unwrap();
        let heavy = solve_operating_point(&array, env, &converter, &LoadModel::Resistance(Ohms::new(r))).unwrap();
        prop_assert!(heavy.panel_voltage <= light.panel_voltage);
        prop_assert!(heavy.panel_current >= light.panel_current);
    }

    /// The ATS never chatters: over any power sequence, consecutive
    /// transfers require crossing the full hysteresis band.
    #[test]
    fn ats_transfers_respect_hysteresis(
        powers in proptest::collection::vec(0.0..60.0_f64, 1..200),
        threshold in 10.0..40.0_f64,
        hysteresis in 1.0..8.0_f64,
    ) {
        let mut ats = AutomaticTransferSwitch::new(
            Watts::new(threshold),
            Watts::new(hysteresis),
        ).unwrap();
        let mut last_source = ats.source();
        for &p in &powers {
            let source = ats.update(Watts::new(p));
            match (last_source, source) {
                (PowerSource::Utility, PowerSource::Solar) => {
                    prop_assert!(p >= threshold + hysteresis);
                }
                (PowerSource::Solar, PowerSource::Utility) => {
                    prop_assert!(p < threshold);
                }
                _ => {}
            }
            last_source = source;
        }
    }

    /// Ratio nudges saturate exactly at the configured range.
    #[test]
    fn nudges_stay_in_range(steps in proptest::collection::vec(-4i32..=4, 1..100)) {
        let mut converter = DcDcConverter::solarcore_default();
        let (lo, hi) = converter.ratio_range();
        for &s in &steps {
            converter.nudge_ratio(s);
            prop_assert!(converter.ratio() >= lo - 1e-12);
            prop_assert!(converter.ratio() <= hi + 1e-12);
        }
    }
}
