//! The paper's headline claims, recomputed from the policy grid and the
//! fixed-budget sweep:
//!
//! * ~82 % average green-energy utilization without storage;
//! * MPPT&Opt beats round-robin adaptation by ~10.8 %;
//! * MPPT&Opt beats the best fixed-power budget by ≥ 43 %;
//! * MPPT&Opt is within ~1 % of the best battery-equipped system
//!   (Battery-U) while using no battery at all;
//! * MPPT&Opt beats individual-core tuning by ~37.8 %.

use std::path::Path;

use solarcore::Policy;

use crate::experiments::fig16::Fig16And17;
use crate::grid::PolicyGrid;
use crate::output::{write_json, Json, TextTable};

/// One reproduced claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is measured.
    pub name: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
}

impl Claim {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("paper", Json::Num(self.paper)),
            ("measured", Json::Num(self.measured)),
        ])
    }
}

/// The computed claim set.
#[derive(Debug, Clone)]
pub struct Headline {
    /// All reproduced claims.
    pub claims: Vec<Claim>,
}

impl Headline {
    /// The value as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "claims",
            Json::Arr(self.claims.iter().map(Claim::to_json).collect()),
        )])
    }
}

/// Computes the claims from the shared grid and the fixed-budget sweep.
pub fn compute(grid: &PolicyGrid, fixed: &Fig16And17) -> Headline {
    let opt = grid.mean_normalized_ptp(Policy::MpptOpt);
    let rr = grid.mean_normalized_ptp(Policy::MpptRr);
    let ic = grid.mean_normalized_ptp(Policy::MpptIc);
    let bu = grid.mean_normalized_battery_upper();
    let (_, best_fixed_ptp) = fixed.best_fixed();

    let claims = vec![
        Claim {
            name: "average green energy utilization".to_string(),
            paper: 0.82,
            measured: grid.mean_utilization(Policy::MpptOpt),
        },
        Claim {
            name: "MPPT&Opt gain over MPPT&RR (%)".to_string(),
            paper: 10.8,
            measured: 100.0 * (opt / rr - 1.0),
        },
        Claim {
            name: "MPPT&Opt gain over MPPT&IC (%)".to_string(),
            paper: 37.8,
            measured: 100.0 * (opt / ic - 1.0),
        },
        Claim {
            name: "MPPT&Opt gain over best fixed budget (%)".to_string(),
            paper: 43.0,
            measured: 100.0 * (1.0 / best_fixed_ptp.max(1e-9) - 1.0),
        },
        Claim {
            name: "performance vs Battery-U (ratio)".to_string(),
            paper: 0.99,
            measured: opt / bu,
        },
        Claim {
            name: "normalized PTP of MPPT&IC".to_string(),
            paper: 0.82,
            measured: ic,
        },
        Claim {
            name: "normalized PTP of MPPT&RR".to_string(),
            paper: 1.02,
            measured: rr,
        },
        Claim {
            name: "normalized PTP of MPPT&Opt".to_string(),
            paper: 1.13,
            measured: opt,
        },
        Claim {
            name: "normalized PTP of Battery-U".to_string(),
            paper: 1.14,
            measured: bu,
        },
    ];
    Headline { claims }
}

/// Runs the experiment.
pub fn run(grid: &PolicyGrid, fixed: &Fig16And17, out_dir: &Path) -> Headline {
    let headline = compute(grid, fixed);
    println!("Headline claims — paper vs this reproduction");
    let mut table = TextTable::new(["claim", "paper", "measured"]);
    for c in &headline.claims {
        table.row([
            c.name.clone(),
            format!("{:.2}", c.paper),
            format!("{:.2}", c.measured),
        ]);
    }
    println!("{table}");
    write_json(out_dir, "headline", &headline.to_json()).expect("results dir is writable");
    headline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig16;
    use crate::grid::PolicyGrid;
    use workloads::Mix;

    #[test]
    fn claims_have_the_papers_directions() {
        let grid = PolicyGrid::quick();
        let fixed = fig16::compute(&[Mix::hm2()]);
        let headline = compute(grid, &fixed);
        let get = |name: &str| -> f64 {
            headline
                .claims
                .iter()
                .find(|c| c.name.contains(name))
                .unwrap()
                .measured
        };
        assert!(get("utilization") > 0.7);
        assert!(get("over MPPT&RR") >= 0.0);
        assert!(get("over MPPT&IC") > get("over MPPT&RR"));
        assert!(get("best fixed budget") > 20.0);
        assert!((get("vs Battery-U") - 1.0).abs() < 0.15);
    }
}
