//! Figure 20: average solar energy utilization vs effective SolarCore
//! operation duration, per load-adaptation method.

use std::path::Path;

use solarcore::metrics::mean;

use crate::grid::{PolicyGrid, GRID_POLICIES};
use crate::output::{write_json, Json, TextTable};

/// The duration buckets of the figure's x-axis (fraction of daytime).
pub const BUCKETS: [(f64, f64, &str); 5] = [
    (0.90, 1.01, "> 90"),
    (0.80, 0.90, "80~90"),
    (0.70, 0.80, "70~80"),
    (0.60, 0.70, "60~70"),
    (0.50, 0.60, "50~60"),
];

/// One bucket of the figure.
#[derive(Debug, Clone)]
pub struct UtilBucket {
    /// Bucket label (e.g. `"80~90"`).
    pub label: String,
    /// Mean utilization per policy (IC, RR, Opt) of the runs that landed in
    /// this duration bucket (`None` if no run did).
    pub by_policy: Vec<(String, Option<f64>)>,
    /// How many runs landed here (per policy summed).
    pub count: usize,
}

impl UtilBucket {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        let by_policy = self.by_policy.iter().map(|(policy, util)| {
            Json::Arr(vec![Json::str(policy), util.map_or(Json::Null, Json::Num)])
        });
        Json::obj(vec![
            ("label", Json::str(&self.label)),
            ("by_policy", Json::Arr(by_policy.collect())),
            ("count", Json::int(self.count)),
        ])
    }
}

/// The computed figure.
#[derive(Debug, Clone)]
pub struct Fig20 {
    /// Buckets, longest duration first.
    pub buckets: Vec<UtilBucket>,
}

impl Fig20 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "buckets",
            Json::Arr(self.buckets.iter().map(UtilBucket::to_json).collect()),
        )])
    }
}

/// Computes the figure from a policy grid.
pub fn compute(grid: &PolicyGrid) -> Fig20 {
    let buckets = BUCKETS
        .iter()
        .map(|&(lo, hi, label)| {
            let mut count = 0;
            let by_policy = GRID_POLICIES
                .iter()
                .map(|&p| {
                    let vals: Vec<f64> = grid
                        .for_policy(p)
                        .filter(|s| s.effective_fraction >= lo && s.effective_fraction < hi)
                        .map(|s| s.utilization)
                        .collect();
                    count += vals.len();
                    let m = (!vals.is_empty()).then(|| mean(&vals));
                    (p.label().to_string(), m)
                })
                .collect();
            UtilBucket {
                label: label.to_string(),
                by_policy,
                count,
            }
        })
        .collect();
    Fig20 { buckets }
}

/// Runs the experiment.
pub fn run(grid: &PolicyGrid, out_dir: &Path) -> Fig20 {
    let fig = compute(grid);
    println!("Figure 20 — avg energy utilization vs effective operation duration");
    let mut table = TextTable::new(["duration %", "MPPT&IC", "MPPT&RR", "MPPT&Opt", "runs"]);
    for b in &fig.buckets {
        let mut row = vec![b.label.clone()];
        for (_, v) in &b.by_policy {
            row.push(match v {
                Some(u) => format!("{:.1} %", 100.0 * u),
                None => "—".to_string(),
            });
        }
        row.push(b.count.to_string());
        table.row(row);
    }
    println!("{table}");
    write_json(out_dir, "fig20_util_vs_duration", &fig.to_json()).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PolicyGrid;

    #[test]
    fn utilization_fallss_with_shorter_effective_duration() {
        let grid = PolicyGrid::quick();
        let fig = compute(grid);
        assert_eq!(fig.buckets.len(), 5);
        // Collect the populated bucket means for MPPT&Opt, longest first;
        // the trend must be non-increasing overall (first populated ≥ last
        // populated).
        let opt: Vec<f64> = fig
            .buckets
            .iter()
            .filter_map(|b| b.by_policy.iter().find(|(p, _)| p == "MPPT&Opt"))
            .filter_map(|(_, v)| *v)
            .collect();
        if opt.len() >= 2 {
            assert!(
                opt.first().unwrap() >= opt.last().unwrap(),
                "utilization should fall with duration: {opt:?}"
            );
        }
    }
}
