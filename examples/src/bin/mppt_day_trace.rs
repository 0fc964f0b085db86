//! Day-trace viewer: replay one SolarCore day and sketch the maximal power
//! budget vs the actual power drawn (the paper's Figures 13/14) in the
//! terminal.
//!
//! ```text
//! cargo run -p examples --bin mppt_day_trace -- AZ Jul H1
//! ```

use std::env;
use std::process::ExitCode;

use powertrain::PowerSource;
use solarcore::{CoreError, DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

#[allow(clippy::cast_possible_truncation)] // bar lengths are clamped to the 60-col chart
fn main() -> Result<ExitCode, CoreError> {
    let mut args = env::args().skip(1);
    let site = args.next().unwrap_or_else(|| "AZ".into());
    let season = args.next().unwrap_or_else(|| "Jan".into());
    let mix = args.next().unwrap_or_else(|| "H1".into());

    let (Some(site), Some(season), Some(mix)) = (
        Site::from_code(&site),
        Season::from_name(&season),
        Mix::by_name(&mix),
    ) else {
        eprintln!("usage: mppt_day_trace [AZ|CO|NC|TN] [Jan|Apr|Jul|Oct] [H1|H2|M1|M2|L1|L2|HM1|HM2|ML1|ML2]");
        return Ok(ExitCode::FAILURE);
    };

    let result = DaySimulation::builder()
        .site(site.clone())
        .season(season)
        .mix(mix.clone())
        .policy(Policy::MpptOpt)
        .build()?
        .run()?;

    println!(
        "MPP tracking, {} @ {} running {} (· budget, * actual, u = on utility)",
        season,
        site.code(),
        mix.name()
    );
    let peak = result
        .records()
        .iter()
        .map(|r| r.budget.get())
        .fold(1.0, f64::max);
    // One output row per 10 simulated minutes.
    for chunk in result.records().chunks(10) {
        let minute = chunk[0].minute;
        let budget = chunk.iter().map(|r| r.budget.get()).sum::<f64>() / chunk.len() as f64;
        let drawn = chunk.iter().map(|r| r.drawn.get()).sum::<f64>() / chunk.len() as f64;
        let on_utility = chunk.iter().all(|r| r.source == PowerSource::Utility);
        let width = 60usize;
        let b = ((budget / peak) * width as f64).round() as usize;
        let d = ((drawn / peak) * width as f64).round() as usize;
        let mut line = vec![' '; width + 1];
        if b < line.len() {
            line[b] = '·';
        }
        if on_utility {
            line[0] = 'u';
        } else if d < line.len() {
            line[d] = '*';
        }
        println!(
            "{:02}:{:02} {:>5.1}W |{}",
            minute / 60,
            minute % 60,
            drawn,
            line.into_iter().collect::<String>()
        );
    }
    println!(
        "day: utilization {:.1} %, tracking error {:.1} %, effective duration {:.1} %",
        100.0 * result.utilization(),
        100.0 * result.mean_tracking_error(),
        100.0 * result.effective_fraction()
    );
    Ok(ExitCode::SUCCESS)
}
