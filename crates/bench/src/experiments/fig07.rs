//! Figure 7: module I-V and P-V characteristics for temperatures
//! T ∈ {0, 25, 50, 75} °C at 1000 W/m².

use std::path::Path;

use pv::units::{Celsius, Irradiance};
use pv::{CellEnv, PvModule};

use crate::experiments::fig06::{characteristic, print_family, CurveFamily};
use crate::output::write_json;

/// Computes the temperature family.
pub fn compute() -> CurveFamily {
    let module = PvModule::bp3180n();
    let curves = [0.0, 25.0, 50.0, 75.0]
        .into_iter()
        .map(|t| {
            characteristic(
                &module,
                CellEnv::new(Irradiance::new(1000.0), Celsius::new(t)),
                t,
            )
        })
        .collect();
    CurveFamily {
        swept: "temperature",
        curves,
    }
}

/// Runs the experiment.
pub fn run(out_dir: &Path) -> CurveFamily {
    let fig = compute();
    print_family(
        "Figure 7 — I-V / P-V curves vs temperature (G = 1000 W/m²)",
        "T (°C)",
        &fig,
    );
    write_json(out_dir, "fig07_iv_temperature", &fig.to_json()).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_shifts_mpp_left_and_down() {
        let fig = compute();
        assert_eq!(fig.curves.len(), 4);
        for w in fig.curves.windows(2) {
            // Hotter: lower Voc, lower Pmax, lower Vmp, slightly higher Isc.
            assert!(w[1].voc < w[0].voc);
            assert!(w[1].pmax < w[0].pmax);
            assert!(w[1].vmp < w[0].vmp);
            assert!(w[1].isc > w[0].isc);
        }
    }
}
