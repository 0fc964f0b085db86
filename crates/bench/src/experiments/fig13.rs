//! Figures 13 & 14: MPP tracking traces — maximal power budget vs actual
//! power consumption, minute by minute, for H1 / HM2 / L1 at Phoenix.
//!
//! Figure 13 uses the "regular" January weather pattern, Figure 14 the
//! "irregular" July (monsoon) pattern.

use std::path::Path;

use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

use crate::output::{write_json, Json, TextTable};

/// One workload's tracked day.
#[derive(Debug, Clone)]
pub struct TrackedDay {
    /// Mix name.
    pub mix: String,
    /// Per-minute `(minute, budget W, actual W)` series.
    pub series: Vec<(u32, f64, f64)>,
    /// Mean relative tracking error.
    pub tracking_error: f64,
    /// Std-dev of `(budget − actual)` over solar minutes — the "ripple".
    pub ripple_w: f64,
}

impl TrackedDay {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        let series = self.series.iter().map(|&(minute, budget, actual)| {
            Json::Arr(vec![
                Json::uint(u64::from(minute)),
                Json::Num(budget),
                Json::Num(actual),
            ])
        });
        Json::obj(vec![
            ("mix", Json::str(&self.mix)),
            ("series", Json::Arr(series.collect())),
            ("tracking_error", Json::Num(self.tracking_error)),
            ("ripple_w", Json::Num(self.ripple_w)),
        ])
    }
}

/// The computed figure: one tracked day per workload.
#[derive(Debug, Clone)]
pub struct TrackingFigure {
    /// Season the traces were generated in.
    pub season: String,
    /// Site code.
    pub site: String,
    /// Per-workload traces (H1, HM2, L1 — as in the paper's panels).
    pub days: Vec<TrackedDay>,
}

impl TrackingFigure {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("season", Json::str(&self.season)),
            ("site", Json::str(&self.site)),
            (
                "days",
                Json::Arr(self.days.iter().map(TrackedDay::to_json).collect()),
            ),
        ])
    }
}

/// Computes the figure for one season at Phoenix.
pub fn compute(season: Season) -> TrackingFigure {
    let site = Site::phoenix_az();
    let days = [Mix::h1(), Mix::hm2(), Mix::l1()]
        .into_iter()
        .map(|mix| {
            let result = DaySimulation::builder()
                .site(site.clone())
                .season(season)
                .mix(mix.clone())
                .policy(Policy::MpptOpt)
                .build()
                .expect("valid config")
                .run()
                .expect("day runs");
            let series: Vec<(u32, f64, f64)> = result
                .records()
                .iter()
                .map(|r| (r.minute, r.budget.get(), r.drawn.get()))
                .collect();
            let gaps: Vec<f64> = result
                .records()
                .iter()
                .filter(|r| r.drawn.get() > 0.0)
                .map(|r| r.budget.get() - r.drawn.get())
                .collect();
            let mean_gap = solarcore::metrics::mean(&gaps);
            let ripple_w = (gaps.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>()
                / gaps.len().max(1) as f64)
                .sqrt();
            TrackedDay {
                mix: mix.name().to_string(),
                series,
                tracking_error: result.mean_tracking_error(),
                ripple_w,
            }
        })
        .collect();
    TrackingFigure {
        season: season.to_string(),
        site: site.code().to_string(),
        days,
    }
}

/// Runs the experiment for one season ("Jan" ⇒ Figure 13, "Jul" ⇒ 14).
pub fn run(season: Season, out_dir: &Path) -> TrackingFigure {
    let fig = compute(season);
    let figure_no = if season == Season::Jan { 13 } else { 14 };
    println!(
        "Figure {figure_no} — MPP tracking accuracy ({} @ {})",
        fig.season, fig.site
    );
    let mut table = TextTable::new(["mix", "mean budget W", "mean actual W", "error", "ripple W"]);
    for d in &fig.days {
        let budgets: Vec<f64> = d.series.iter().map(|(_, b, _)| *b).collect();
        let actuals: Vec<f64> = d.series.iter().map(|(_, _, a)| *a).collect();
        table.row([
            d.mix.clone(),
            format!("{:.1}", solarcore::metrics::mean(&budgets)),
            format!("{:.1}", solarcore::metrics::mean(&actuals)),
            format!("{:.1} %", 100.0 * d.tracking_error),
            format!("{:.2}", d.ripple_w),
        ]);
    }
    println!("{table}");
    let name = format!("fig{figure_no}_tracking_{}", fig.season.to_lowercase());
    write_json(out_dir, &name, &fig.to_json()).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actual_follows_budget_with_bigger_ripple_for_h1() {
        let fig = compute(Season::Jan);
        assert_eq!(fig.days.len(), 3);
        let h1 = &fig.days[0];
        let l1 = &fig.days[2];
        assert_eq!(h1.mix, "H1");
        assert_eq!(l1.mix, "L1");
        // The paper: high-EPI homogeneous workloads show large power
        // ripples; low-EPI ones are smooth.
        assert!(
            h1.ripple_w > l1.ripple_w,
            "H1 ripple {:.2} vs L1 {:.2}",
            h1.ripple_w,
            l1.ripple_w
        );
        // Tracking holds: both errors below ~20 % on regular weather.
        assert!(h1.tracking_error < 0.2);
        assert!(l1.tracking_error < 0.15);
    }

    #[test]
    fn irregular_july_tracks_worse_than_regular_january() {
        let jan = compute(Season::Jan);
        let jul = compute(Season::Jul);
        let mean_err = |f: &TrackingFigure| {
            f.days.iter().map(|d| d.tracking_error).sum::<f64>() / f.days.len() as f64
        };
        assert!(
            mean_err(&jul) > mean_err(&jan),
            "jul {:.3} vs jan {:.3}",
            mean_err(&jul),
            mean_err(&jan)
        );
    }
}
