//! Figure 21: normalized performance-time product (PTP) per
//! site × season × mix for the three MPPT scheduling methods, against the
//! Battery-U/L bounds. Everything is normalized to Battery-L, as in the
//! paper.

use std::path::Path;

use crate::grid::{PolicyGrid, GRID_POLICIES};
use crate::output::{write_json, Json, TextTable};

/// One site-season-mix group of bars.
#[derive(Debug, Clone)]
pub struct PtpGroup {
    /// Site code.
    pub site: String,
    /// Season label.
    pub season: String,
    /// Mix name.
    pub mix: String,
    /// Normalized PTP per policy (IC, RR, Opt).
    pub by_policy: Vec<(String, f64)>,
    /// Battery-U normalized PTP.
    pub battery_upper: f64,
}

impl PtpGroup {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::str(&self.site)),
            ("season", Json::str(&self.season)),
            ("mix", Json::str(&self.mix)),
            ("by_policy", Json::pairs(&self.by_policy)),
            ("battery_upper", Json::Num(self.battery_upper)),
        ])
    }
}

/// The computed figure.
#[derive(Debug, Clone)]
pub struct Fig21 {
    /// All bar groups.
    pub groups: Vec<PtpGroup>,
    /// Grand means per policy plus Battery-U (the paper's 0.82 / 1.02 /
    /// 1.13 / 1.14 line).
    pub means: Vec<(String, f64)>,
}

impl Fig21 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "groups",
                Json::Arr(self.groups.iter().map(PtpGroup::to_json).collect()),
            ),
            ("means", Json::pairs(&self.means)),
        ])
    }
}

/// Computes the figure from a policy grid.
pub fn compute(grid: &PolicyGrid) -> Fig21 {
    let mut groups: Vec<PtpGroup> = Vec::new();
    for b in &grid.battery {
        if b.lower_ptp <= 0.0 {
            continue;
        }
        let by_policy = GRID_POLICIES
            .iter()
            .map(|&p| {
                let vals: Vec<f64> = grid
                    .for_policy(p)
                    .filter(|s| s.site == b.site && s.month == b.season && s.mix == b.mix)
                    .map(|s| s.ptp / b.lower_ptp)
                    .collect();
                (p.label().to_string(), solarcore::metrics::mean(&vals))
            })
            .collect();
        groups.push(PtpGroup {
            site: b.site.clone(),
            season: b.season.clone(),
            mix: b.mix.clone(),
            by_policy,
            battery_upper: b.upper_ptp / b.lower_ptp,
        });
    }

    let mut means: Vec<(String, f64)> = GRID_POLICIES
        .iter()
        .map(|&p| (p.label().to_string(), grid.mean_normalized_ptp(p)))
        .collect();
    means.push((
        "Battery-U".to_string(),
        grid.mean_normalized_battery_upper(),
    ));
    Fig21 { groups, means }
}

/// Runs the experiment.
pub fn run(grid: &PolicyGrid, out_dir: &Path) -> Fig21 {
    let fig = compute(grid);
    println!("Figure 21 — normalized PTP (baseline: Battery-L = 1.0)");
    let mut table = TextTable::new(["site", "season", "mix", "IC", "RR", "Opt", "Battery-U"]);
    for g in &fig.groups {
        let mut row = vec![g.site.clone(), g.season.clone(), g.mix.clone()];
        row.extend(g.by_policy.iter().map(|(_, v)| format!("{v:.2}")));
        row.push(format!("{:.2}", g.battery_upper));
        table.row(row);
    }
    println!("{table}");
    println!("Grand means (paper: IC 0.82, RR 1.02, Opt 1.13, Battery-U 1.14):");
    for (label, v) in &fig.means {
        println!("  {label}: {v:.3}");
    }
    write_json(out_dir, "fig21_ptp_policies", &fig.to_json()).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PolicyGrid;

    #[test]
    fn policy_ordering_and_battery_bracketing() {
        let grid = PolicyGrid::quick();
        let fig = compute(grid);
        assert_eq!(fig.groups.len(), 12); // 2×2×3 cells
        let mean = |label: &str| -> f64 { fig.means.iter().find(|(l, _)| l == label).unwrap().1 };
        let ic = mean("MPPT&IC");
        let rr = mean("MPPT&RR");
        let opt = mean("MPPT&Opt");
        let bu = mean("Battery-U");
        // The paper's ordering.
        assert!(ic < rr, "IC {ic:.3} < RR {rr:.3}");
        assert!(rr <= opt, "RR {rr:.3} <= Opt {opt:.3}");
        // Battery-U ≈ 0.92/0.81 by construction.
        assert!((bu - 1.136).abs() < 0.03, "Battery-U {bu:.3}");
        // Opt is competitive with the best battery system (within ~10 %).
        assert!((opt - bu).abs() < 0.12, "Opt {opt:.3} vs BU {bu:.3}");
        // Everything beats Battery-L by construction of the ordering above
        // except possibly IC on bad cells; grand means are near/above 1.
        assert!(ic > 0.7);
    }
}
