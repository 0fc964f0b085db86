//! The paper's qualitative evaluation results, checked on single days:
//! fixed-budget inferiority, tracking error under irregular weather, and
//! power ripple by workload. Policy ordering, battery bracketing,
//! utilization scale and the Table 7 error range are checked on the quick
//! policy grid in `bench`'s `grid` tests, which compute that grid once.

use pv::units::Watts;
use solarcore::metrics::mean;
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

#[test]
fn solarcore_dominates_every_fixed_budget() {
    // Section 6.2: even the best fixed budget stays well below SolarCore
    // (the paper reports ≤ 70 % ⇒ a ≥ 43 % win).
    let site = Site::phoenix_az();
    let season = Season::Apr;
    let mix = Mix::hm2();
    let opt = DaySimulation::builder()
        .site(site.clone())
        .season(season)
        .mix(mix.clone())
        .policy(Policy::MpptOpt)
        .build()
        .unwrap()
        .run()
        .unwrap();
    for budget in [25.0, 50.0, 75.0, 100.0, 125.0] {
        let fixed = DaySimulation::builder()
            .site(site.clone())
            .season(season)
            .mix(mix.clone())
            .policy(Policy::FixedPower(Watts::new(budget)))
            .build()
            .unwrap()
            .run()
            .unwrap();
        let energy_ratio = fixed.energy_drawn().get() / opt.energy_drawn().get();
        let ptp_ratio = fixed.solar_instructions() / opt.solar_instructions();
        assert!(
            energy_ratio < 0.9,
            "{budget} W budget recovered {energy_ratio:.2} of SolarCore energy"
        );
        assert!(
            ptp_ratio < 0.9,
            "{budget} W budget recovered {ptp_ratio:.2} of SolarCore PTP"
        );
    }
}

#[test]
fn irregular_weather_degrades_tracking_accuracy() {
    // Figures 13 vs 14: the July monsoon pattern tracks worse than January.
    let site = Site::phoenix_az();
    let error = |season: Season| {
        DaySimulation::builder()
            .site(site.clone())
            .season(season)
            .mix(Mix::h1())
            .policy(Policy::MpptOpt)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .mean_tracking_error()
    };
    assert!(error(Season::Jul) > error(Season::Jan) * 0.9);
}

#[test]
fn homogeneous_high_epi_has_the_largest_power_ripple() {
    // Section 6.1: H1 shows large ripples; low-EPI and heterogeneous mixes
    // are smooth.
    let ripple = |mix: Mix| {
        let r = DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jan)
            .mix(mix)
            .policy(Policy::MpptOpt)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let gaps: Vec<f64> = r
            .records()
            .iter()
            .filter(|m| m.drawn.get() > 0.0)
            .map(|m| m.chip_power.get())
            .collect();
        let mu = mean(&gaps);
        (gaps.iter().map(|g| (g - mu).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt()
    };
    let h1 = ripple(Mix::h1());
    let l1 = ripple(Mix::l1());
    assert!(h1 > l1, "H1 ripple {h1:.2} vs L1 {l1:.2}");
}
