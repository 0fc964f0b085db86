//! PV module explorer: print the BP3180N I-V / P-V characteristic and MPP
//! for a chosen irradiance and cell temperature.
//!
//! ```text
//! cargo run -p examples --bin pv_explorer -- 800 45
//! #                                          G    T(°C)
//! ```

use std::env;

use pv::units::{Celsius, Irradiance};
use pv::{CellEnv, IvCurve, PvError, PvModule};

fn main() -> Result<(), PvError> {
    let mut args = env::args().skip(1);
    let irradiance: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000.0);
    let temperature: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(25.0);

    if !(0.0..=1500.0).contains(&irradiance) || !(-60.0..=120.0).contains(&temperature) {
        eprintln!("note: ({irradiance} W/m², {temperature} °C) is outside the physical range the model is calibrated for");
    }
    let module = PvModule::bp3180n();
    let env = CellEnv::new(Irradiance::new(irradiance), Celsius::new(temperature));
    let mpp = module.mpp(env);

    println!("BP3180N at G = {irradiance:.0} W/m², T_cell = {temperature:.0} °C");
    // `max(0)` hides the solver's tiny negative residual at zero irradiance
    // (it would print as "-0.00 A").
    println!(
        "  Isc  = {:.2}",
        module.short_circuit_current(env).max(pv::units::Amps::ZERO)
    );
    println!("  Voc  = {:.2}", module.open_circuit_voltage(env));
    println!(
        "  MPP  = {:.2} at {:.2} / {:.2}",
        mpp.power, mpp.voltage, mpp.current
    );

    // A terminal sketch of the P-V curve, 48 columns × 16 rows.
    let curve = IvCurve::sample(&module, env, 48)?;
    let powers: Vec<f64> = curve.points().iter().map(|p| p.power().get()).collect();
    let peak = powers.iter().cloned().fold(0.0, f64::max).max(1.0);
    println!("\n  P-V curve (columns: 0 → Voc; rows: power up to {peak:.0} W)");
    for row in (1..=16).rev() {
        let threshold = peak * row as f64 / 16.0;
        let line: String = powers
            .iter()
            .map(|&p| if p >= threshold { '█' } else { ' ' })
            .collect();
        println!("  |{line}");
    }
    println!("  +{}", "-".repeat(49));
    Ok(())
}
