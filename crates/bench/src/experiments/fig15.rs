//! Figure 15: effective operation duration vs power-transfer threshold.
//!
//! For a direct-coupled system with a fixed power budget, the load only
//! operates while the available MPP power exceeds the transfer threshold.
//! The paper groups site-seasons by how their duration declines as the
//! threshold rises from 25 W to 125 W: slowly, linearly, or rapidly.

use std::path::Path;

use pv::CellEnv;
use pv::PvArray;
use solarenv::{EnvTrace, Season, Site};

use crate::output::{write_json, Json, TextTable};

/// The fixed power budgets the paper sweeps (watts).
pub const THRESHOLDS_W: [f64; 5] = [25.0, 50.0, 75.0, 100.0, 125.0];

/// Decline classes from the figure's three panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineShape {
    /// Duration stays near 1.0 until high thresholds (panel a).
    Slow,
    /// Roughly proportional decline (panel b).
    Linear,
    /// Collapses early (panel c).
    Rapid,
}

/// One site-season curve.
#[derive(Debug, Clone)]
pub struct DurationCurve {
    /// Site code.
    pub site: String,
    /// Season label.
    pub season: String,
    /// Effective duration (fraction of daytime) per threshold, normalized
    /// to the 25 W value as in the paper.
    pub normalized: Vec<f64>,
    /// Raw (unnormalized) fractions.
    pub raw: Vec<f64>,
    /// The classified decline shape.
    pub shape: DeclineShape,
}

impl DurationCurve {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::str(&self.site)),
            ("season", Json::str(&self.season)),
            ("normalized", Json::nums(&self.normalized)),
            ("raw", Json::nums(&self.raw)),
            ("shape", Json::str(format!("{:?}", self.shape))),
        ])
    }
}

/// The computed figure.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// All 16 site-season curves.
    pub curves: Vec<DurationCurve>,
}

impl Fig15 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "curves",
            Json::Arr(self.curves.iter().map(DurationCurve::to_json).collect()),
        )])
    }
}

/// Classifies by the normalized duration at the 75 W midpoint.
fn classify(normalized: &[f64]) -> DeclineShape {
    let mid = normalized[2];
    if mid > 0.75 {
        DeclineShape::Slow
    } else if mid > 0.53 {
        DeclineShape::Linear
    } else {
        DeclineShape::Rapid
    }
}

/// Computes the figure, averaging `days` weather realizations.
pub fn compute(days: u32) -> Fig15 {
    let array = PvArray::solarcore_default();
    let mut curves = Vec::new();
    for site in Site::all() {
        for &season in &Season::ALL {
            let mut fractions = [0.0f64; THRESHOLDS_W.len()];
            let mut total = 0usize;
            for day in 0..days {
                let trace = EnvTrace::generate(&site, season, day);
                let envs: Vec<CellEnv> = trace.samples().iter().map(|s| s.cell_env()).collect();
                for point in array.mpp_column(&envs) {
                    let mpp = point.power.get();
                    for (slot, &threshold) in fractions.iter_mut().zip(&THRESHOLDS_W) {
                        if mpp >= threshold {
                            *slot += 1.0;
                        }
                    }
                }
                total += trace.samples().len();
            }
            let raw: Vec<f64> = fractions.iter().map(|f| f / total as f64).collect();
            let base = raw[0].max(1e-9);
            let normalized: Vec<f64> = raw.iter().map(|r| r / base).collect();
            let shape = classify(&normalized);
            curves.push(DurationCurve {
                site: site.code().to_string(),
                season: season.to_string(),
                normalized,
                raw,
                shape,
            });
        }
    }
    Fig15 { curves }
}

/// Runs the experiment.
pub fn run(out_dir: &Path) -> Fig15 {
    let fig = compute(3);
    println!("Figure 15 — effective operation duration vs power-transfer threshold");
    let mut table = TextTable::new([
        "site", "season", "25W", "50W", "75W", "100W", "125W", "shape",
    ]);
    for c in &fig.curves {
        let mut row = vec![c.site.clone(), c.season.clone()];
        row.extend(c.normalized.iter().map(|v| format!("{v:.2}")));
        row.push(format!("{:?}", c.shape));
        table.row(row);
    }
    println!("{table}");
    write_json(out_dir, "fig15_duration_threshold", &fig.to_json())
        .expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_decline_monotonically_with_threshold() {
        let fig = compute(1);
        assert_eq!(fig.curves.len(), 16);
        for c in &fig.curves {
            for w in c.normalized.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "{} {}", c.site, c.season);
            }
            assert!((c.normalized[0] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sunny_sites_decline_slower_than_cloudy_ones() {
        let fig = compute(2);
        let mid = |site: &str, season: &str| -> f64 {
            fig.curves
                .iter()
                .find(|c| c.site == site && c.season == season)
                .map(|c| c.normalized[2])
                .unwrap()
        };
        // Phoenix summer holds duration far better than Oak Ridge autumn.
        assert!(mid("AZ", "Jul") > mid("TN", "Oct"));
    }

    #[test]
    fn all_three_shapes_appear() {
        let fig = compute(3);
        let shapes: Vec<DeclineShape> = fig.curves.iter().map(|c| c.shape).collect();
        assert!(shapes.contains(&DeclineShape::Slow));
        assert!(shapes.contains(&DeclineShape::Rapid));
    }
}
