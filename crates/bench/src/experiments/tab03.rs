//! Table 3: performance levels of battery-based PV systems.

use std::path::Path;

use solarcore::BatteryTier;

use crate::output::{write_json, Json, TextTable};

/// One column of Table 3.
#[derive(Debug, Clone)]
pub struct TierRow {
    /// Tier label.
    pub level: String,
    /// MPP-tracking efficiency.
    pub mppt_efficiency: f64,
    /// Battery round-trip efficiency.
    pub battery_efficiency: f64,
    /// Overall de-rating factor.
    pub derating: f64,
}

impl TierRow {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("level", Json::str(&self.level)),
            ("mppt_efficiency", Json::Num(self.mppt_efficiency)),
            ("battery_efficiency", Json::Num(self.battery_efficiency)),
            ("derating", Json::Num(self.derating)),
        ])
    }
}

/// The computed table.
#[derive(Debug, Clone)]
pub struct Tab03 {
    /// High / Moderate / Low tiers.
    pub rows: Vec<TierRow>,
}

impl Tab03 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "rows",
            Json::Arr(self.rows.iter().map(TierRow::to_json).collect()),
        )])
    }
}

/// Computes the table.
pub fn compute() -> Tab03 {
    let rows = [
        ("High", BatteryTier::High),
        ("Moderate (typical)", BatteryTier::Typical),
        ("Low", BatteryTier::Low),
    ]
    .into_iter()
    .map(|(label, tier)| TierRow {
        level: label.to_string(),
        mppt_efficiency: tier.mppt_efficiency(),
        battery_efficiency: tier.battery_efficiency(),
        derating: tier.derating(),
    })
    .collect();
    Tab03 { rows }
}

/// Runs the experiment.
pub fn run(out_dir: &Path) -> Tab03 {
    let tab = compute();
    let mut table = TextTable::new(["Level", "MPPT eff.", "Battery eff.", "Overall"]);
    for r in &tab.rows {
        table.row([
            r.level.clone(),
            format!("{:.0} %", 100.0 * r.mppt_efficiency),
            format!("{:.0} %", 100.0 * r.battery_efficiency),
            format!("{:.0} %", 100.0 * r.derating),
        ]);
    }
    println!("Table 3 — battery-based PV system performance levels");
    println!("{table}");
    write_json(out_dir, "tab03_battery", &tab.to_json()).expect("results dir is writable");
    tab
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deratings_match_table3() {
        let tab = compute();
        let overall: Vec<f64> = tab.rows.iter().map(|r| r.derating).collect();
        assert!((overall[0] - 0.92).abs() < 0.005);
        assert!((overall[1] - 0.81).abs() < 0.005);
        assert!((overall[2] - 0.70).abs() < 0.005);
    }
}
