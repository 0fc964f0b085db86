//! Table 2: the four evaluated sites and their measured solar potential.

use std::path::Path;

use solarenv::{stats, Site, SolarPotential};

use crate::output::{write_json, Json, TextTable};

/// Weather realizations averaged per season for the potential estimate.
const DAYS_PER_SEASON: u32 = 5;

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct SiteRow {
    /// Site code.
    pub code: String,
    /// Full site name.
    pub name: String,
    /// Measured average insolation, kWh/m²/day.
    pub kwh_per_day: f64,
    /// Band the measurement falls in.
    pub measured_band: String,
    /// Band the paper assigns (the calibration target).
    pub target_band: String,
}

impl SiteRow {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::str(&self.code)),
            ("name", Json::str(&self.name)),
            ("kwh_per_day", Json::Num(self.kwh_per_day)),
            ("measured_band", Json::str(&self.measured_band)),
            ("target_band", Json::str(&self.target_band)),
        ])
    }
}

/// The computed table.
#[derive(Debug, Clone)]
pub struct Tab02 {
    /// One row per site, paper order.
    pub rows: Vec<SiteRow>,
}

impl Tab02 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "rows",
            Json::Arr(self.rows.iter().map(SiteRow::to_json).collect()),
        )])
    }
}

/// Computes the table.
pub fn compute() -> Tab02 {
    let rows = Site::all()
        .into_iter()
        .map(|site| {
            let kwh = stats::average_daily_insolation(&site, DAYS_PER_SEASON);
            SiteRow {
                code: site.code().to_string(),
                name: site.name().to_string(),
                kwh_per_day: kwh,
                measured_band: SolarPotential::classify(kwh).to_string(),
                target_band: site.potential().to_string(),
            }
        })
        .collect();
    Tab02 { rows }
}

/// Runs the experiment.
pub fn run(out_dir: &Path) -> Tab02 {
    let tab = compute();
    let mut table = TextTable::new(["Station", "Location", "kWh/m²/day", "Measured", "Paper"]);
    for r in &tab.rows {
        table.row([
            r.code.clone(),
            r.name.clone(),
            format!("{:.2}", r.kwh_per_day),
            r.measured_band.clone(),
            r.target_band.clone(),
        ]);
    }
    println!("Table 2 — evaluated geographic locations");
    println!("{table}");
    write_json(out_dir, "tab02_sites", &tab.to_json()).expect("results dir is writable");
    tab
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_bands_match_the_paper() {
        let tab = compute();
        assert_eq!(tab.rows.len(), 4);
        for r in &tab.rows {
            assert_eq!(r.measured_band, r.target_band, "{}", r.code);
        }
    }
}
