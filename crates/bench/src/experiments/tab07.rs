//! Table 7: mean relative MPP-tracking error per site × season × workload.

use std::path::Path;

use solarcore::metrics::geometric_mean;
use solarcore::Policy;

use crate::grid::PolicyGrid;
use crate::output::{write_json, Json, TextTable};

/// The computed table.
#[derive(Debug, Clone)]
pub struct Tab07 {
    /// Mix names, in the paper's column order.
    pub mixes: Vec<String>,
    /// Rows: `(site, season, [error per mix])`.
    pub rows: Vec<(String, String, Vec<f64>)>,
}

impl Tab07 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|(site, season, errors)| {
            Json::Arr(vec![Json::str(site), Json::str(season), Json::nums(errors)])
        });
        Json::obj(vec![
            (
                "mixes",
                Json::Arr(self.mixes.iter().map(Json::str).collect()),
            ),
            ("rows", Json::Arr(rows.collect())),
        ])
    }
}

/// Computes the table from a policy grid (uses the MPPT&Opt runs; each
/// cell's rows are combined with the paper's geometric mean).
pub fn compute(grid: &PolicyGrid) -> Tab07 {
    let mut mixes: Vec<String> = Vec::new();
    for s in grid.for_policy(Policy::MpptOpt) {
        if !mixes.contains(&s.mix) {
            mixes.push(s.mix.clone());
        }
    }
    let mut rows: Vec<(String, String, Vec<f64>)> = Vec::new();
    for s in grid.for_policy(Policy::MpptOpt) {
        if !rows
            .iter()
            .any(|(site, season, _)| *site == s.site && *season == s.month)
        {
            rows.push((s.site.clone(), s.month.clone(), Vec::new()));
        }
    }
    for (site, season, errors) in &mut rows {
        for mix in &mixes {
            let cell: Vec<f64> = grid
                .for_policy(Policy::MpptOpt)
                .filter(|s| s.site == *site && s.month == *season && s.mix == *mix)
                .map(|s| s.tracking_error)
                .collect();
            errors.push(geometric_mean(&cell));
        }
    }
    Tab07 { mixes, rows }
}

/// Runs the experiment.
pub fn run(grid: &PolicyGrid, out_dir: &Path) -> Tab07 {
    let tab = compute(grid);
    let mut header = vec!["site".to_string(), "season".to_string()];
    header.extend(tab.mixes.iter().cloned());
    let mut table = TextTable::new(header);
    for (site, season, errors) in &tab.rows {
        let mut row = vec![site.clone(), season.clone()];
        row.extend(errors.iter().map(|e| format!("{:.1}%", 100.0 * e)));
        table.row(row);
    }
    println!("Table 7 — average relative tracking error (MPPT&Opt)");
    println!("{table}");
    write_json(out_dir, "tab07_tracking_error", &tab.to_json()).expect("results dir is writable");
    tab
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PolicyGrid;

    #[test]
    fn errors_are_single_to_low_double_digit_percent() {
        let grid = PolicyGrid::quick();
        let tab = compute(grid);
        assert_eq!(tab.mixes.len(), 3);
        assert_eq!(tab.rows.len(), 4); // 2 sites × 2 seasons
        for (site, season, errors) in &tab.rows {
            for e in errors {
                assert!(
                    (0.005..0.30).contains(e),
                    "{site} {season}: error {e:.3} outside Table 7's range"
                );
            }
        }
    }
}
