//! Figure 19: effective operation duration (% daytime on solar) per
//! site-season weather pattern.

use std::path::Path;

use solarcore::metrics::mean;
use solarcore::Policy;

use crate::grid::PolicyGrid;
use crate::output::{write_json, Json, TextTable};

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct DurationBar {
    /// Site code.
    pub site: String,
    /// Season label.
    pub season: String,
    /// Fraction of daytime powered by solar (MPPT&Opt, mix-averaged).
    pub solar_fraction: f64,
}

impl DurationBar {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::str(&self.site)),
            ("season", Json::str(&self.season)),
            ("solar_fraction", Json::Num(self.solar_fraction)),
        ])
    }
}

/// The computed figure.
#[derive(Debug, Clone)]
pub struct Fig19 {
    /// One bar per site-season.
    pub bars: Vec<DurationBar>,
}

impl Fig19 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "bars",
            Json::Arr(self.bars.iter().map(DurationBar::to_json).collect()),
        )])
    }
}

/// Computes the figure from a policy grid.
pub fn compute(grid: &PolicyGrid) -> Fig19 {
    let mut keys: Vec<(String, String)> = Vec::new();
    for s in grid.for_policy(Policy::MpptOpt) {
        let key = (s.site.clone(), s.month.clone());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let bars = keys
        .into_iter()
        .map(|(site, season)| {
            let vals: Vec<f64> = grid
                .for_policy(Policy::MpptOpt)
                .filter(|s| s.site == site && s.month == season)
                .map(|s| s.effective_fraction)
                .collect();
            DurationBar {
                site,
                season,
                solar_fraction: mean(&vals),
            }
        })
        .collect();
    Fig19 { bars }
}

/// Runs the experiment.
pub fn run(grid: &PolicyGrid, out_dir: &Path) -> Fig19 {
    let fig = compute(grid);
    println!("Figure 19 — effective operation duration (% daytime on solar)");
    let mut table = TextTable::new(["site", "season", "solar", "utility"]);
    for b in &fig.bars {
        table.row([
            b.site.clone(),
            b.season.clone(),
            format!("{:.0} %", 100.0 * b.solar_fraction),
            format!("{:.0} %", 100.0 * (1.0 - b.solar_fraction)),
        ]);
    }
    println!("{table}");
    write_json(out_dir, "fig19_effective_duration", &fig.to_json())
        .expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PolicyGrid;

    #[test]
    fn durations_land_in_the_papers_band() {
        let grid = PolicyGrid::quick();
        let fig = compute(grid);
        assert_eq!(fig.bars.len(), 4);
        for b in &fig.bars {
            // Paper: 60–90 % of daytime, give or take the sunniest cells.
            assert!(
                (0.45..=1.0).contains(&b.solar_fraction),
                "{} {}: {:.2}",
                b.site,
                b.season,
                b.solar_fraction
            );
        }
        // Phoenix January beats Oak Ridge January.
        let frac = |site: &str, season: &str| {
            fig.bars
                .iter()
                .find(|b| b.site == site && b.season == season)
                .unwrap()
                .solar_fraction
        };
        assert!(frac("AZ", "Jan") > frac("TN", "Jan"));
    }
}
