//! Policy comparison: run the same day under every power-management scheme
//! of the paper's Table 6 plus the battery bounds, and print the scoreboard.
//!
//! ```text
//! cargo run -p examples --bin policy_comparison -- CO Apr ML2
//! ```

use std::env;
use std::process::ExitCode;

use pv::units::Watts;
use pv::PvArray;
use solarcore::engine::phase_seed;
use solarcore::{BatterySystem, CoreError, DaySimulation, Policy};
use solarenv::{EnvTrace, Season, Site};
use workloads::Mix;

fn main() -> Result<ExitCode, CoreError> {
    let mut args = env::args().skip(1);
    let site_code = args.next().unwrap_or_else(|| "AZ".into());
    let season_name = args.next().unwrap_or_else(|| "Jan".into());
    let mix_name = args.next().unwrap_or_else(|| "HM2".into());

    let (Some(site), Some(season), Some(mix)) = (
        Site::all().into_iter().find(|s| s.code() == site_code),
        Season::ALL
            .iter()
            .copied()
            .find(|s| s.to_string() == season_name),
        Mix::by_name(&mix_name),
    ) else {
        eprintln!("usage: policy_comparison [site] [season] [mix]");
        return Ok(ExitCode::FAILURE);
    };

    println!(
        "Policy comparison — {} / {season} / {} (normalized to Battery-L)",
        site.name(),
        mix.name()
    );

    // Battery baselines (Table 3 bounds) on the same trace and phases.
    let trace = EnvTrace::generate(&site, season, 0);
    let envs: Vec<_> = trace.samples().iter().map(|s| s.cell_env()).collect();
    let mpp = PvArray::solarcore_default().mpp_column(&envs);
    let seed = phase_seed(&site, season, 0);
    let lower = BatterySystem::lower_bound().simulate_day(&mpp, &mix, seed)?;
    let upper = BatterySystem::upper_bound().simulate_day(&mpp, &mix, seed)?;

    let policies = [
        Policy::FixedPower(Watts::new(75.0)),
        Policy::MpptIc,
        Policy::MpptRr,
        Policy::MpptOpt,
    ];
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>10}",
        "policy", "energy (Wh)", "util (%)", "PTP (norm)", "error (%)"
    );
    for policy in policies {
        let r = DaySimulation::builder()
            .site(site.clone())
            .season(season)
            .mix(mix.clone())
            .policy(policy)
            .build()?
            .run()?;
        println!(
            "{:<16} {:>12.1} {:>12.1} {:>12.2} {:>10.1}",
            policy.to_string(),
            r.energy_drawn().get(),
            100.0 * r.utilization(),
            r.solar_instructions() / lower.instructions,
            100.0 * r.mean_tracking_error()
        );
    }
    println!(
        "{:<16} {:>12.1} {:>12.1} {:>12.2} {:>10}",
        "Battery-L",
        lower.stored.get(),
        100.0 * lower.utilization(),
        1.0,
        "-"
    );
    println!(
        "{:<16} {:>12.1} {:>12.1} {:>12.2} {:>10}",
        "Battery-U",
        upper.stored.get(),
        100.0 * upper.utilization(),
        upper.instructions / lower.instructions,
        "-"
    );
    Ok(ExitCode::SUCCESS)
}
