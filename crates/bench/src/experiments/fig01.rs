//! Figure 1: solar energy utilization of a **fixed** load under varying
//! irradiance.
//!
//! A resistive load matched to the MPP at 1000 W/m² is left connected as
//! the irradiance falls to 400 W/m². The paper's point: without MPP
//! tracking, more than half the available energy is lost at low irradiance.

use std::path::Path;

use serde::Serialize;

use powertrain::{solve_operating_point, DcDcConverter, LoadModel};
use pv::units::{Celsius, Irradiance};
use pv::{CellEnv, PvModule};

use crate::output::{write_json, TextTable};

/// One bar of Figure 1.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct UtilizationPoint {
    /// Irradiance in W/m².
    pub irradiance: f64,
    /// Power delivered into the fixed load, W.
    pub fixed_load_power: f64,
    /// Maximum available power at this irradiance, W.
    pub mpp_power: f64,
    /// `fixed_load_power / mpp_power`.
    pub utilization: f64,
}

/// The computed figure.
#[derive(Debug, Clone, Serialize)]
pub struct Fig01 {
    /// The swept irradiance points, brightest first (as in the paper).
    pub points: Vec<UtilizationPoint>,
}

/// Computes the figure.
pub fn compute() -> Fig01 {
    let module = PvModule::bp3180n();
    let stc = CellEnv::stc();
    let mpp_stc = module.mpp(stc);
    // The fixed load: matched exactly at STC, wired straight to the panel
    // (a lossless unity-ratio converter reflects it unchanged).
    let load = mpp_stc.voltage / mpp_stc.current;
    let direct = DcDcConverter::new(1.0, 1.0, 1.0, 0.05, 1.0).expect("unity converter is valid");

    let points = [1000.0, 800.0, 600.0, 400.0]
        .into_iter()
        .map(|g| {
            let env = CellEnv::new(Irradiance::new(g), Celsius::new(25.0));
            let v = solve_operating_point(&module, env, &direct, &LoadModel::Resistance(load))
                .expect("BP3180N evaluates on [0, Voc]")
                .panel_voltage;
            let power = v * (v / load);
            let mpp = module.mpp(env);
            UtilizationPoint {
                irradiance: g,
                fixed_load_power: power.get(),
                mpp_power: mpp.power.get(),
                utilization: power.get() / mpp.power.get(),
            }
        })
        .collect();
    Fig01 { points }
}

/// Runs the experiment: computes, prints and persists.
pub fn run(out_dir: &Path) -> Fig01 {
    let fig = compute();
    let mut table = TextTable::new(["G (W/m²)", "fixed-load W", "MPP W", "utilization"]);
    for p in &fig.points {
        table.row([
            format!("{:.0}", p.irradiance),
            format!("{:.1}", p.fixed_load_power),
            format!("{:.1}", p.mpp_power),
            format!("{:.1} %", 100.0 * p.utilization),
        ]);
    }
    println!("Figure 1 — fixed-load energy utilization vs irradiance");
    println!("{table}");
    write_json(out_dir, "fig01_fixed_load", &fig).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_collapses_at_low_irradiance() {
        let fig = compute();
        assert_eq!(fig.points.len(), 4);
        // Matched at STC: near-perfect utilization there.
        assert!(fig.points[0].utilization > 0.98);
        // Paper: > 50 % energy loss at 400 W/m².
        let dim = fig.points.last().unwrap();
        assert_eq!(dim.irradiance, 400.0);
        assert!(dim.utilization < 0.72, "utilization {:.2}", dim.utilization);
        // Monotone decline.
        for w in fig.points.windows(2) {
            assert!(w[1].utilization < w[0].utilization);
        }
    }
}
