//! The shared policy-sweep grid: every `(site, season, mix, policy)` cell
//! on the season's anchor day (day 0), plus the battery baselines — the
//! raw material for Table 7 and Figures 18–21 and the headline claims.
//!
//! Each cell runs through the campaign's day loop (the one behind
//! [`crate::campaign::run_shard`]), so a grid row is a [`ShardRow`] whose
//! `month` column holds the season label (`"Jan"`, `"Apr"`, `"Jul"`,
//! `"Oct"`).

use pv::PvArray;
use solarcore::engine::phase_seed;
use solarcore::{BatterySystem, Policy};
use solarenv::{EnvTrace, Season, Site};
use workloads::Mix;

use crate::campaign::{run_cell, Cell, ShardRow};
use crate::parallel::{default_threads, parallel_map};

/// The three MPPT load-scheduling policies the grid sweeps.
pub const GRID_POLICIES: [Policy; 3] = [Policy::MpptIc, Policy::MpptRr, Policy::MpptOpt];

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Sites to sweep (defaults to all four).
    pub sites: Vec<Site>,
    /// Seasons to sweep (defaults to all four).
    pub seasons: Vec<Season>,
    /// Mixes to sweep (defaults to all ten).
    pub mixes: Vec<Mix>,
    /// Worker threads.
    pub threads: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            sites: Site::all(),
            seasons: Season::ALL.to_vec(),
            mixes: Mix::all(),
            threads: default_threads(),
        }
    }
}

impl GridConfig {
    /// A reduced grid for quick runs and tests: two sites (AZ, TN), two
    /// seasons (Jan, Jul), three mixes (H1, HM2, L1).
    pub fn quick() -> Self {
        Self {
            sites: vec![Site::phoenix_az(), Site::oak_ridge_tn()],
            seasons: vec![Season::Jan, Season::Jul],
            mixes: vec![Mix::h1(), Mix::hm2(), Mix::l1()],
            threads: default_threads(),
        }
    }
}

/// Battery baselines for one `(site, season, mix)` anchor day.
#[derive(Debug, Clone, PartialEq)]
pub struct BatterySummary {
    /// Site code.
    pub site: String,
    /// Season label.
    pub season: String,
    /// Mix name.
    pub mix: String,
    /// Battery-U (92 % derating) instructions.
    pub upper_ptp: f64,
    /// Battery-L (81 % derating) instructions.
    pub lower_ptp: f64,
}

/// The computed sweep.
#[derive(Debug, Clone)]
pub struct PolicyGrid {
    /// One row per MPPT policy run, sorted by (site, season, mix, policy);
    /// `month` holds the season label and `index` the row's position.
    pub rows: Vec<ShardRow>,
    /// One battery baseline pair per (site, season, mix), in the same order.
    pub battery: Vec<BatterySummary>,
}

impl PolicyGrid {
    /// Runs the sweep, parallel across `(site, season, mix)` cells, and
    /// assembles it in canonical order, so the output is bit-identical
    /// regardless of thread count and configuration order.
    pub fn compute(config: &GridConfig) -> Self {
        let mut cells = Vec::new();
        for site in &config.sites {
            for &season in &config.seasons {
                for mix in &config.mixes {
                    cells.push((site.clone(), season, mix.clone()));
                }
            }
        }
        let results = parallel_map(cells, config.threads, |(site, season, mix)| {
            let period = season.to_string();
            let rows: Vec<ShardRow> = GRID_POLICIES
                .iter()
                .map(|&policy| {
                    let cell = Cell {
                        index: 0,
                        site,
                        mix,
                        policy,
                        scenario: "none",
                        plan: None,
                        season: *season,
                        days: &[0],
                        period: &period,
                    };
                    run_cell(&cell, false).expect("day runs").0
                })
                .collect();

            // The disarmed day's MPP column and phase seed, exactly as the
            // policy runs prepared them; both baselines read one column.
            let trace = EnvTrace::generate(site, *season, 0);
            let envs: Vec<_> = trace.samples().iter().map(|s| s.cell_env()).collect();
            let mpp = PvArray::solarcore_default().mpp_column(&envs);
            let seed = phase_seed(site, *season, 0);
            let upper = BatterySystem::upper_bound()
                .simulate_day(&mpp, mix, seed)
                .expect("battery day runs");
            let lower = BatterySystem::lower_bound()
                .simulate_day(&mpp, mix, seed)
                .expect("battery day runs");
            let battery = BatterySummary {
                site: site.code().to_string(),
                season: period,
                mix: mix.name().to_string(),
                upper_ptp: upper.instructions,
                lower_ptp: lower.instructions,
            };
            (rows, battery)
        });

        let mut rows = Vec::new();
        let mut battery = Vec::new();
        for (r, b) in results {
            rows.extend(r);
            battery.push(b);
        }
        // Canonical emission order: results arrive in configuration order,
        // so sorting makes the output independent of it.
        rows.sort_by(|a, b| {
            (&a.site, &a.month, &a.mix, &a.policy).cmp(&(&b.site, &b.month, &b.mix, &b.policy))
        });
        for (index, row) in rows.iter_mut().enumerate() {
            row.index = index;
        }
        battery.sort_by(|a, b| (&a.site, &a.season, &a.mix).cmp(&(&b.site, &b.season, &b.mix)));
        PolicyGrid { rows, battery }
    }

    /// Rows for one policy label.
    pub fn for_policy(&self, policy: Policy) -> impl Iterator<Item = &ShardRow> {
        let label = policy.label();
        self.rows.iter().filter(move |s| s.policy == label)
    }

    /// The battery baseline matching a row's (site, season, mix).
    pub fn battery_for(&self, s: &ShardRow) -> Option<&BatterySummary> {
        self.battery
            .iter()
            .find(|b| b.site == s.site && b.season == s.month && b.mix == s.mix)
    }

    /// Mean PTP of a policy normalized to the Battery-L baseline, averaged
    /// over every grid cell (the Figure 21 headline aggregation).
    pub fn mean_normalized_ptp(&self, policy: Policy) -> f64 {
        let values: Vec<f64> = self
            .for_policy(policy)
            .filter_map(|s| {
                self.battery_for(s)
                    .filter(|b| b.lower_ptp > 0.0)
                    .map(|b| s.ptp / b.lower_ptp)
            })
            .collect();
        solarcore::metrics::mean(&values)
    }

    /// Mean Battery-U PTP normalized to Battery-L.
    pub fn mean_normalized_battery_upper(&self) -> f64 {
        let values: Vec<f64> = self
            .battery
            .iter()
            .filter(|b| b.lower_ptp > 0.0)
            .map(|b| b.upper_ptp / b.lower_ptp)
            .collect();
        solarcore::metrics::mean(&values)
    }

    /// Mean utilization of a policy across the grid.
    pub fn mean_utilization(&self, policy: Policy) -> f64 {
        let values: Vec<f64> = self.for_policy(policy).map(|s| s.utilization).collect();
        solarcore::metrics::mean(&values)
    }

    /// The [`GridConfig::quick`] grid, computed once per test binary and
    /// shared by every experiment test that reduces it.
    #[cfg(test)]
    pub(crate) fn quick() -> &'static PolicyGrid {
        static QUICK: std::sync::OnceLock<PolicyGrid> = std::sync::OnceLock::new();
        QUICK.get_or_init(|| PolicyGrid::compute(&GridConfig::quick()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> PolicyGrid {
        PolicyGrid::compute(&GridConfig {
            sites: vec![Site::phoenix_az()],
            seasons: vec![Season::Jan],
            mixes: vec![Mix::hm2()],
            threads: 2,
        })
    }

    #[test]
    fn grid_has_one_summary_per_policy_cell() {
        let grid = tiny_grid();
        assert_eq!(grid.rows.len(), 3);
        assert_eq!(grid.battery.len(), 1);
        let labels: Vec<&str> = grid.rows.iter().map(|s| s.policy.as_str()).collect();
        assert!(labels.contains(&"MPPT&Opt"));
        assert!(labels.contains(&"MPPT&RR"));
        assert!(labels.contains(&"MPPT&IC"));
    }

    #[test]
    fn normalized_ptp_ordering_holds_on_tiny_grid() {
        let grid = tiny_grid();
        let opt = grid.mean_normalized_ptp(Policy::MpptOpt);
        let ic = grid.mean_normalized_ptp(Policy::MpptIc);
        assert!(opt >= ic, "opt {opt:.3} vs ic {ic:.3}");
        assert!(opt > 0.5 && opt < 2.0);
        let bu = grid.mean_normalized_battery_upper();
        assert!((bu - 0.92 / 0.81).abs() < 0.05, "battery-U/L {bu:.3}");
    }

    #[test]
    fn battery_lookup_matches_cells() {
        let grid = tiny_grid();
        for s in &grid.rows {
            assert!(grid.battery_for(s).is_some());
        }
    }

    /// The paper's qualitative evaluation results on the quick grid
    /// (AZ/TN × Jan/Jul × H1/HM2/L1, day 0, no faults): policy ordering,
    /// battery bracketing, utilization scale and tracking-error range. PTPs
    /// are normalized to Battery-L, so Battery-L itself averages 1.
    #[test]
    fn policy_ordering_battery_bracketing_and_utilization() {
        let grid = PolicyGrid::quick();
        let ic = grid.mean_normalized_ptp(Policy::MpptIc);
        let rr = grid.mean_normalized_ptp(Policy::MpptRr);
        let opt = grid.mean_normalized_ptp(Policy::MpptOpt);
        let bu = grid.mean_normalized_battery_upper();
        let bl = 1.0;

        // Section 6.4's ordering: IC < RR ≤ Opt, Battery-U ≈ Opt, everything
        // above Battery-L.
        assert!(ic < rr, "IC {ic:.3} < RR {rr:.3}");
        assert!(rr <= opt + 1e-9, "RR {rr:.3} <= Opt {opt:.3}");
        assert!(opt > bl, "Opt {opt:.3} must beat Battery-L");
        assert!(
            (opt - bu).abs() / bu < 0.10,
            "Opt {opt:.3} within 10 % of Battery-U {bu:.3} (paper: <1 %)"
        );
        assert!(
            (bu - 1.136).abs() < 0.02,
            "Battery-U/L ratio fixed by Table 3"
        );

        // Section 6.3: average utilization at the ~82 % scale.
        let util = grid.mean_utilization(Policy::MpptOpt);
        assert!(
            (0.72..=0.95).contains(&util),
            "mean utilization {util:.3} out of the paper's band"
        );

        // Table 7: tracking errors are single-digit to low-double-digit percent.
        for s in grid.for_policy(Policy::MpptOpt) {
            assert!(
                (0.005..0.30).contains(&s.tracking_error),
                "tracking error {:.3} outside Table 7 range",
                s.tracking_error
            );
        }
    }
}
