//! Ablation studies of SolarCore's design choices (beyond the paper's own
//! figures): the robustness power margin, the tracking trigger period, the
//! event-driven re-track band, the converter ratio step, sensor noise, and
//! per-core vs chip-wide DVFS granularity.
//!
//! Each knob is swept on two contrasting weather patterns — regular
//! (Jul @ AZ is the paper's irregular case; we also use stormy Apr @ NC) —
//! running the heterogeneous HM2 mix.

use std::path::Path;

use powertrain::IvSensor;
use solarcore::{ControllerConfig, DayResult, DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

use crate::output::{write_json, Json, TextTable};

/// Aggregates of one ablation cell (mean of the two weather patterns).
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// Knob value description, e.g. `"margin=2"`.
    pub setting: String,
    /// Mean green-energy utilization.
    pub utilization: f64,
    /// Mean relative tracking error.
    pub tracking_error: f64,
    /// Mean solar instructions (PTP), normalized to the suite's default
    /// configuration.
    pub normalized_ptp: f64,
    /// Minutes with the bus sagging below 90 % of nominal (robustness).
    pub undervolt_minutes: f64,
}

impl AblationCell {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("setting", Json::str(&self.setting)),
            ("utilization", Json::Num(self.utilization)),
            ("tracking_error", Json::Num(self.tracking_error)),
            ("normalized_ptp", Json::Num(self.normalized_ptp)),
            ("undervolt_minutes", Json::Num(self.undervolt_minutes)),
        ])
    }
}

/// One swept knob.
#[derive(Debug, Clone)]
pub struct AblationSweep {
    /// Knob name.
    pub knob: String,
    /// Swept cells in order.
    pub cells: Vec<AblationCell>,
}

impl AblationSweep {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("knob", Json::str(&self.knob)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(AblationCell::to_json).collect()),
            ),
        ])
    }
}

/// The full ablation suite.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// All sweeps.
    pub sweeps: Vec<AblationSweep>,
}

impl Ablation {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "sweeps",
            Json::Arr(self.sweeps.iter().map(AblationSweep::to_json).collect()),
        )])
    }
}

fn scenarios() -> Vec<(Site, Season)> {
    vec![
        (Site::phoenix_az(), Season::Jul),
        (Site::elizabeth_city_nc(), Season::Apr),
    ]
}

fn summarize(results: &[DayResult], baseline_ptp: f64) -> (f64, f64, f64, f64) {
    let n = results.len() as f64;
    let util = results.iter().map(DayResult::utilization).sum::<f64>() / n;
    let err = results
        .iter()
        .map(DayResult::mean_tracking_error)
        .sum::<f64>()
        / n;
    let ptp = results
        .iter()
        .map(DayResult::solar_instructions)
        .sum::<f64>()
        / n;
    let undervolt = results
        .iter()
        .map(|r| {
            r.records()
                .iter()
                .filter(|m| m.drawn.get() > 0.0 && m.bus_voltage.get() < 0.9 * 12.0)
                .count() as f64
        })
        .sum::<f64>()
        / n;
    (util, err, ptp / baseline_ptp.max(1e-9), undervolt)
}

fn run_with(config: ControllerConfig, policy: Policy, sensor: Option<IvSensor>) -> Vec<DayResult> {
    scenarios()
        .into_iter()
        .map(|(site, season)| {
            let mut builder = DaySimulation::builder()
                .site(site)
                .season(season)
                .mix(Mix::hm2())
                .policy(policy)
                .config(config.clone());
            if let Some(s) = &sensor {
                builder = builder.sensor(s.clone());
            }
            builder
                .build()
                .expect("valid config")
                .run()
                .expect("day runs")
        })
        .collect()
}

/// Computes the full ablation suite.
pub fn compute() -> Ablation {
    let defaults = ControllerConfig::paper_defaults();
    let baseline = run_with(defaults.clone(), Policy::MpptOpt, None);
    let baseline_ptp = baseline
        .iter()
        .map(DayResult::solar_instructions)
        .sum::<f64>()
        / baseline.len() as f64;

    let mut sweeps = Vec::new();

    // 1. Robustness power margin (Section 4.3 argues one step is needed).
    let mut cells = Vec::new();
    for margin in [0u32, 1, 2, 3] {
        let mut cfg = defaults.clone();
        cfg.margin_steps = margin;
        let results = run_with(cfg, Policy::MpptOpt, None);
        let (u, e, p, uv) = summarize(&results, baseline_ptp);
        cells.push(AblationCell {
            setting: format!("margin={margin}"),
            utilization: u,
            tracking_error: e,
            normalized_ptp: p,
            undervolt_minutes: uv,
        });
    }
    sweeps.push(AblationSweep {
        knob: "power margin (load-decrease steps)".to_string(),
        cells,
    });

    // 2. Tracking trigger period (the paper uses 10 minutes).
    let mut cells = Vec::new();
    for minutes in [5u32, 10, 20, 30] {
        let mut cfg = defaults.clone();
        cfg.tracking_interval_minutes = minutes;
        let results = run_with(cfg, Policy::MpptOpt, None);
        let (u, e, p, uv) = summarize(&results, baseline_ptp);
        cells.push(AblationCell {
            setting: format!("interval={minutes}min"),
            utilization: u,
            tracking_error: e,
            normalized_ptp: p,
            undervolt_minutes: uv,
        });
    }
    sweeps.push(AblationSweep {
        knob: "periodic tracking interval".to_string(),
        cells,
    });

    // 3. Event-driven re-track band (0.5 effectively disables it).
    let mut cells = Vec::new();
    for band in [0.05, 0.08, 0.16, 0.45] {
        let mut cfg = defaults.clone();
        cfg.retrack_voltage_band = band;
        let results = run_with(cfg, Policy::MpptOpt, None);
        let (u, e, p, uv) = summarize(&results, baseline_ptp);
        cells.push(AblationCell {
            setting: format!("band={band:.2}"),
            utilization: u,
            tracking_error: e,
            normalized_ptp: p,
            undervolt_minutes: uv,
        });
    }
    sweeps.push(AblationSweep {
        knob: "event re-track voltage band".to_string(),
        cells,
    });

    // 4. Sensor noise (the controller only sees measured I/V).
    let mut cells = Vec::new();
    for sigma in [0.0, 0.01, 0.02, 0.05] {
        let sensor = if sigma == 0.0 {
            IvSensor::ideal()
        } else {
            IvSensor::noisy(sigma, 1234)
        };
        let results = run_with(defaults.clone(), Policy::MpptOpt, Some(sensor));
        let (u, e, p, uv) = summarize(&results, baseline_ptp);
        cells.push(AblationCell {
            setting: format!("noise={:.0}%", 100.0 * sigma),
            utilization: u,
            tracking_error: e,
            normalized_ptp: p,
            undervolt_minutes: uv,
        });
    }
    sweeps.push(AblationSweep {
        knob: "I/V sensor noise".to_string(),
        cells,
    });

    // 5. DVFS granularity: per-core TPR vs round-robin vs chip-wide.
    let mut cells = Vec::new();
    for policy in [Policy::MpptOpt, Policy::MpptRr, Policy::MpptChipWide] {
        let results = run_with(defaults.clone(), policy, None);
        let (u, e, p, uv) = summarize(&results, baseline_ptp);
        cells.push(AblationCell {
            setting: policy.label().to_string(),
            utilization: u,
            tracking_error: e,
            normalized_ptp: p,
            undervolt_minutes: uv,
        });
    }
    sweeps.push(AblationSweep {
        knob: "DVFS granularity".to_string(),
        cells,
    });

    Ablation { sweeps }
}

/// Runs the ablation suite.
pub fn run(out_dir: &Path) -> Ablation {
    let ablation = compute();
    println!("Ablation — design-choice sensitivity (HM2, Jul@AZ + Apr@NC)");
    for sweep in &ablation.sweeps {
        println!("\n{}:", sweep.knob);
        let mut table = TextTable::new(["setting", "util", "error", "PTP (norm)", "undervolt min"]);
        for c in &sweep.cells {
            table.row([
                c.setting.clone(),
                format!("{:.1} %", 100.0 * c.utilization),
                format!("{:.1} %", 100.0 * c.tracking_error),
                format!("{:.3}", c.normalized_ptp),
                format!("{:.1}", c.undervolt_minutes),
            ]);
        }
        println!("{table}");
    }
    write_json(out_dir, "ablation", &ablation.to_json()).expect("results dir is writable");
    ablation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_directions_are_sane() {
        let ablation = compute();
        assert_eq!(ablation.sweeps.len(), 5);

        // Chip-wide granularity must not beat per-core TPR.
        let gran = &ablation.sweeps[4];
        let ptp = |setting: &str| {
            gran.cells
                .iter()
                .find(|c| c.setting == setting)
                .unwrap()
                .normalized_ptp
        };
        assert!(ptp("MPPT&Opt") >= ptp("MPPT&Chip"));

        // Moderate sensor noise degrades gracefully (within 15 % PTP).
        let noise = &ablation.sweeps[3];
        let clean = noise.cells[0].normalized_ptp;
        let noisy = noise.cells[2].normalized_ptp; // 2 %
        assert!(noisy > 0.85 * clean, "2 % noise collapsed PTP: {noisy:.3}");

        // All utilizations in a plausible band.
        for sweep in &ablation.sweeps {
            for c in &sweep.cells {
                assert!(
                    (0.4..=1.0).contains(&c.utilization),
                    "{} / {}: utilization {:.2}",
                    sweep.knob,
                    c.setting,
                    c.utilization
                );
            }
        }
    }
}
