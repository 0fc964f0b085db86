//! Figure 6: module I-V and P-V characteristics for irradiances
//! G ∈ {400, 600, 800, 1000} W/m² at 25 °C.

use std::path::Path;

use serde::Serialize;

use pv::units::{Celsius, Irradiance};
use pv::{CellEnv, IvCurve, PvModule};

use crate::output::{write_json, TextTable};

/// Sample density of the exported curves.
const CURVE_SEGMENTS: usize = 120;

/// One exported characteristic curve with its cardinal points.
#[derive(Debug, Clone, Serialize)]
pub struct CharacteristicCurve {
    /// The swept parameter value (irradiance in W/m² or temperature in °C).
    pub parameter: f64,
    /// Short-circuit current, A.
    pub isc: f64,
    /// Open-circuit voltage, V.
    pub voc: f64,
    /// MPP voltage, V.
    pub vmp: f64,
    /// MPP current, A.
    pub imp: f64,
    /// MPP power, W.
    pub pmax: f64,
    /// Sampled `(V, I)` points.
    pub points: Vec<(f64, f64)>,
}

/// The computed figure.
#[derive(Debug, Clone, Serialize)]
pub struct CurveFamily {
    /// Which parameter is swept (`"irradiance"` or `"temperature"`).
    pub swept: &'static str,
    /// The family of curves.
    pub curves: Vec<CharacteristicCurve>,
}

/// Extracts one labeled curve under `env`.
pub fn characteristic(module: &PvModule, env: CellEnv, parameter: f64) -> CharacteristicCurve {
    let mpp = module.mpp(env);
    let curve =
        IvCurve::sample(module, env, CURVE_SEGMENTS).expect("BP3180N evaluates on [0, Voc]");
    CharacteristicCurve {
        parameter,
        isc: module.short_circuit_current(env).get(),
        voc: module.open_circuit_voltage(env).get(),
        vmp: mpp.voltage.get(),
        imp: mpp.current.get(),
        pmax: mpp.power.get(),
        points: curve
            .points()
            .iter()
            .map(|p| (p.voltage.get(), p.current.get()))
            .collect(),
    }
}

/// Computes the irradiance family.
pub fn compute() -> CurveFamily {
    let module = PvModule::bp3180n();
    let curves = [400.0, 600.0, 800.0, 1000.0]
        .into_iter()
        .map(|g| {
            characteristic(
                &module,
                CellEnv::new(Irradiance::new(g), Celsius::new(25.0)),
                g,
            )
        })
        .collect();
    CurveFamily {
        swept: "irradiance",
        curves,
    }
}

/// Prints a curve family's cardinal points.
pub fn print_family(title: &str, unit: &str, family: &CurveFamily) {
    let mut table = TextTable::new([unit, "Isc (A)", "Voc (V)", "Vmp (V)", "Imp (A)", "Pmax (W)"]);
    for c in &family.curves {
        table.row([
            format!("{:.0}", c.parameter),
            format!("{:.2}", c.isc),
            format!("{:.1}", c.voc),
            format!("{:.1}", c.vmp),
            format!("{:.2}", c.imp),
            format!("{:.1}", c.pmax),
        ]);
    }
    println!("{title}");
    println!("{table}");
}

/// Runs the experiment.
pub fn run(out_dir: &Path) -> CurveFamily {
    let fig = compute();
    print_family(
        "Figure 6 — I-V / P-V curves vs irradiance (T = 25 °C)",
        "G (W/m²)",
        &fig,
    );
    write_json(out_dir, "fig06_iv_irradiance", &fig).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpp_moves_upward_with_irradiance() {
        let fig = compute();
        assert_eq!(fig.curves.len(), 4);
        for w in fig.curves.windows(2) {
            assert!(w[1].pmax > w[0].pmax);
            assert!(w[1].isc > w[0].isc);
        }
        // Voc varies only mildly with G (logarithmic).
        let voc_span = fig.curves.last().unwrap().voc - fig.curves.first().unwrap().voc;
        assert!(voc_span > 0.0 && voc_span < 3.0);
    }

    #[test]
    fn curves_are_dense_enough_to_plot() {
        let fig = compute();
        for c in &fig.curves {
            assert_eq!(c.points.len(), CURVE_SEGMENTS + 1);
        }
    }
}
