//! Figures 16 & 17: solar energy usage and performance (PTP) under fixed
//! power budgets, normalized to SolarCore.
//!
//! The paper's conclusion: no single fixed budget exists that recovers
//! SolarCore's harvest or performance — the best fixed configuration stays
//! below ~0.7 of SolarCore on both metrics (hence the ≥43 % headline win).

use std::path::Path;

use pv::units::Watts;
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

use crate::experiments::fig15::THRESHOLDS_W;
use crate::output::{write_json, Json, TextTable};
use crate::parallel::{default_threads, parallel_map};

/// One site-season row of both figures.
#[derive(Debug, Clone)]
pub struct FixedBudgetRow {
    /// Site code.
    pub site: String,
    /// Season label.
    pub season: String,
    /// Normalized energy drawn per budget (vs SolarCore = 1.0).
    pub normalized_energy: Vec<f64>,
    /// Normalized PTP per budget (vs SolarCore = 1.0).
    pub normalized_ptp: Vec<f64>,
}

impl FixedBudgetRow {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("site", Json::str(&self.site)),
            ("season", Json::str(&self.season)),
            ("normalized_energy", Json::nums(&self.normalized_energy)),
            ("normalized_ptp", Json::nums(&self.normalized_ptp)),
        ])
    }
}

/// The computed figures.
#[derive(Debug, Clone)]
pub struct Fig16And17 {
    /// The swept budgets, watts.
    pub budgets: Vec<f64>,
    /// Workload mixes averaged over.
    pub mixes: Vec<String>,
    /// One row per site-season.
    pub rows: Vec<FixedBudgetRow>,
}

impl Fig16And17 {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("budgets", Json::nums(&self.budgets)),
            (
                "mixes",
                Json::Arr(self.mixes.iter().map(Json::str).collect()),
            ),
            (
                "rows",
                Json::Arr(self.rows.iter().map(FixedBudgetRow::to_json).collect()),
            ),
        ])
    }
}

impl Fig16And17 {
    /// The best (budget-maximized) normalized energy and PTP over the whole
    /// sweep — the paper's "less than 70 %" observation.
    pub fn best_fixed(&self) -> (f64, f64) {
        let mut best_energy = 0.0_f64;
        let mut best_ptp = 0.0_f64;
        for row in &self.rows {
            for (e, p) in row.normalized_energy.iter().zip(&row.normalized_ptp) {
                best_energy = best_energy.max(*e);
                best_ptp = best_ptp.max(*p);
            }
        }
        (best_energy, best_ptp)
    }
}

/// Computes both figures over the given mixes (the paper averages across
/// all benchmarks; pass a subset for quicker runs).
pub fn compute(mixes: &[Mix]) -> Fig16And17 {
    let mut cells = Vec::new();
    for site in Site::all() {
        for &season in &Season::ALL {
            cells.push((site.clone(), season));
        }
    }

    let rows = parallel_map(cells, default_threads(), |(site, season)| {
        // SolarCore baseline, averaged over mixes.
        let mut base_energy = 0.0;
        let mut base_ptp = 0.0;
        for mix in mixes {
            let r = DaySimulation::builder()
                .site(site.clone())
                .season(*season)
                .mix(mix.clone())
                .policy(Policy::MpptOpt)
                .build()
                .expect("valid config")
                .run()
                .expect("day runs");
            base_energy += r.energy_drawn().get();
            base_ptp += r.solar_instructions();
        }

        let mut normalized_energy = Vec::new();
        let mut normalized_ptp = Vec::new();
        for &budget in &THRESHOLDS_W {
            let mut energy = 0.0;
            let mut ptp = 0.0;
            for mix in mixes {
                let r = DaySimulation::builder()
                    .site(site.clone())
                    .season(*season)
                    .mix(mix.clone())
                    .policy(Policy::FixedPower(Watts::new(budget)))
                    .build()
                    .expect("valid config")
                    .run()
                    .expect("day runs");
                energy += r.energy_drawn().get();
                ptp += r.solar_instructions();
            }
            normalized_energy.push(energy / base_energy.max(1e-9));
            normalized_ptp.push(ptp / base_ptp.max(1e-9));
        }
        FixedBudgetRow {
            site: site.code().to_string(),
            season: season.to_string(),
            normalized_energy,
            normalized_ptp,
        }
    });

    Fig16And17 {
        budgets: THRESHOLDS_W.to_vec(),
        mixes: mixes.iter().map(|m| m.name().to_string()).collect(),
        rows,
    }
}

/// Runs the experiment (averaging over a representative mix subset).
pub fn run(out_dir: &Path) -> Fig16And17 {
    let mixes = [Mix::h1(), Mix::m2(), Mix::hm2(), Mix::l1()];
    let fig = compute(&mixes);

    for (title, pick) in [
        ("Figure 16 — normalized solar energy under fixed budgets", 0),
        ("Figure 17 — normalized PTP under fixed budgets", 1),
    ] {
        println!("{title}");
        let mut table = TextTable::new(["site", "season", "25W", "50W", "75W", "100W", "125W"]);
        for row in &fig.rows {
            let series = if pick == 0 {
                &row.normalized_energy
            } else {
                &row.normalized_ptp
            };
            let mut cells = vec![row.site.clone(), row.season.clone()];
            cells.extend(series.iter().map(|v| format!("{v:.2}")));
            table.row(cells);
        }
        println!("{table}");
    }
    let (best_energy, best_ptp) = fig.best_fixed();
    println!(
        "Best fixed budget anywhere: {:.0} % energy, {:.0} % PTP of SolarCore \
         (SolarCore wins by ≥ {:.0} %)",
        100.0 * best_energy,
        100.0 * best_ptp,
        100.0 * (1.0 / best_ptp.max(1e-9) - 1.0)
    );
    write_json(out_dir, "fig16_17_fixed_budget", &fig.to_json()).expect("results dir is writable");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fixed_budget_reaches_solarcore() {
        // Cut the sweep down for test time: representative mixes only.
        let fig = compute(&[Mix::hm2()]);
        assert_eq!(fig.rows.len(), 16);
        let (best_energy, best_ptp) = fig.best_fixed();
        assert!(
            best_energy < 0.85,
            "a fixed budget recovered {best_energy:.2} of SolarCore energy"
        );
        assert!(
            best_ptp < 0.85,
            "a fixed budget recovered {best_ptp:.2} of SolarCore PTP"
        );
        // And all entries are genuine fractions.
        for row in &fig.rows {
            for v in row.normalized_energy.iter().chain(&row.normalized_ptp) {
                assert!((0.0..1.05).contains(v), "{} {}: {v}", row.site, row.season);
            }
        }
    }
}
