//! Figure 18: average solar energy utilization per site, per load-adaptation
//! method, against the battery-system efficiency tiers.

use std::path::Path;

use solarcore::metrics::mean;
use solarcore::{BatteryTier, Policy};

use crate::grid::{PolicyGrid, GRID_POLICIES};
use crate::output::{write_json, Json, TextTable};

/// One site's bars.
#[derive(Debug, Clone)]
pub struct SiteUtilization {
    /// Site code.
    pub site: String,
    /// Mean utilization per policy (IC, RR, Opt), averaged over seasons and
    /// mixes.
    pub by_policy: Vec<(String, f64)>,
}

impl SiteUtilization {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::str(&self.site)),
            ("by_policy", Json::pairs(&self.by_policy)),
        ])
    }
}

/// The computed figure.
#[derive(Debug, Clone)]
pub struct Fig18 {
    /// One entry per site.
    pub sites: Vec<SiteUtilization>,
    /// Battery tier reference lines (High/Typical/Low derating).
    pub battery_tiers: Vec<(String, f64)>,
    /// Grand mean utilization of MPPT&Opt.
    pub opt_average: f64,
}

impl Fig18 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "sites",
                Json::Arr(self.sites.iter().map(SiteUtilization::to_json).collect()),
            ),
            ("battery_tiers", Json::pairs(&self.battery_tiers)),
            ("opt_average", Json::Num(self.opt_average)),
        ])
    }
}

/// Computes the figure from a policy grid.
pub fn compute(grid: &PolicyGrid) -> Fig18 {
    let mut site_codes: Vec<String> = Vec::new();
    for s in &grid.rows {
        if !site_codes.contains(&s.site) {
            site_codes.push(s.site.clone());
        }
    }
    let sites = site_codes
        .iter()
        .map(|site| {
            let by_policy = GRID_POLICIES
                .iter()
                .map(|&p| {
                    let vals: Vec<f64> = grid
                        .for_policy(p)
                        .filter(|s| s.site == *site)
                        .map(|s| s.utilization)
                        .collect();
                    (p.label().to_string(), mean(&vals))
                })
                .collect();
            SiteUtilization {
                site: site.clone(),
                by_policy,
            }
        })
        .collect();
    Fig18 {
        sites,
        battery_tiers: vec![
            (
                "High efficiency battery".to_string(),
                BatteryTier::High.derating(),
            ),
            (
                "Average efficiency battery".to_string(),
                BatteryTier::Typical.derating(),
            ),
            (
                "Low efficiency battery".to_string(),
                BatteryTier::Low.derating(),
            ),
        ],
        opt_average: grid.mean_utilization(Policy::MpptOpt),
    }
}

/// Runs the experiment.
pub fn run(grid: &PolicyGrid, out_dir: &Path) -> Fig18 {
    let fig = compute(grid);
    println!("Figure 18 — average energy utilization per site and policy");
    let mut table = TextTable::new(["site", "MPPT&IC", "MPPT&RR", "MPPT&Opt"]);
    for s in &fig.sites {
        let mut row = vec![s.site.clone()];
        row.extend(
            s.by_policy
                .iter()
                .map(|(_, u)| format!("{:.1} %", 100.0 * u)),
        );
        table.row(row);
    }
    println!("{table}");
    for (label, v) in &fig.battery_tiers {
        println!("  reference: {label}: {:.0} %", 100.0 * v);
    }
    println!(
        "  MPPT&Opt grand average: {:.1} % (paper: 82 %)",
        100.0 * fig.opt_average
    );
    write_json(out_dir, "fig18_energy_util", &fig.to_json()).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_high_and_ordered_by_site_potential() {
        let grid = PolicyGrid::quick();
        let fig = compute(grid);
        assert_eq!(fig.sites.len(), 2); // AZ, TN in the quick grid
                                        // Headline scale: average solar utilization in the 70–95 % band.
        assert!(
            (0.70..=0.95).contains(&fig.opt_average),
            "opt average {:.2}",
            fig.opt_average
        );
        // Battery reference lines present.
        assert_eq!(fig.battery_tiers.len(), 3);
        assert!((fig.battery_tiers[1].1 - 0.81).abs() < 0.01);
    }
}
