//! The paper's qualitative evaluation results, checked on a reduced grid
//! (2 sites × 2 seasons × 3 mixes): policy ordering, battery bracketing,
//! fixed-budget inferiority, utilization scale, and tracking error ranges.

use bench::grid::{GridConfig, PolicyGrid};
use pv::units::Watts;
use solarcore::metrics::mean;
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

#[test]
fn policy_ordering_battery_bracketing_and_utilization() {
    // The quick grid: AZ/TN × Jan/Jul × H1/HM2/L1, day 0, no faults. PTPs
    // are normalized to Battery-L, so Battery-L itself averages 1.
    let grid = PolicyGrid::compute(&GridConfig::quick());
    let ic = grid.mean_normalized_ptp(Policy::MpptIc);
    let rr = grid.mean_normalized_ptp(Policy::MpptRr);
    let opt = grid.mean_normalized_ptp(Policy::MpptOpt);
    let bu = grid.mean_normalized_battery_upper();
    let bl = 1.0;

    // Section 6.4's ordering: IC < RR ≤ Opt, Battery-U ≈ Opt, everything
    // above Battery-L.
    assert!(ic < rr, "IC {ic:.3} < RR {rr:.3}");
    assert!(rr <= opt + 1e-9, "RR {rr:.3} <= Opt {opt:.3}");
    assert!(opt > bl, "Opt {opt:.3} must beat Battery-L");
    assert!(
        (opt - bu).abs() / bu < 0.10,
        "Opt {opt:.3} within 10 % of Battery-U {bu:.3} (paper: <1 %)"
    );
    assert!(
        (bu - 1.136).abs() < 0.02,
        "Battery-U/L ratio fixed by Table 3"
    );

    // Section 6.3: average utilization at the ~82 % scale.
    let util = grid.mean_utilization(Policy::MpptOpt);
    assert!(
        (0.72..=0.95).contains(&util),
        "mean utilization {util:.3} out of the paper's band"
    );

    // Table 7: tracking errors are single-digit to low-double-digit percent.
    for s in grid.for_policy(Policy::MpptOpt) {
        assert!(
            (0.005..0.30).contains(&s.tracking_error),
            "tracking error {:.3} outside Table 7 range",
            s.tracking_error
        );
    }
}

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
