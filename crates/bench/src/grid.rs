//! The shared policy-sweep grid: every `(site, season, mix, policy, day)`
//! day simulation, plus the battery baselines — the raw material for
//! Table 7 and Figures 18–21 and the headline claims.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use serde::Serialize;

use pv::PvArray;
use solarcore::engine::phase_seed;
use solarcore::{BatterySystem, DaySimulation, Policy};
use solarenv::{Season, Site};
use telemetry::{JsonlSink, Telemetry};
use workloads::Mix;

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
    /// Weather realizations per (site, season).
    pub days: u32,
    /// Worker threads.
    pub threads: usize,
    /// When set, every sweep cell writes its telemetry stream — one JSONL
    /// file per `(site, season, mix, day)`, shared by the cell's three
    /// policy runs in run order — into this directory.
    pub telemetry_dir: Option<PathBuf>,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            sites: Site::all(),
            seasons: Season::ALL.to_vec(),
            mixes: Mix::all(),
            days: 1,
            threads: default_threads(),
            telemetry_dir: None,
        }
    }
}

impl GridConfig {
    /// A reduced grid for quick runs and tests: two sites (AZ, TN), two
    /// seasons (Jan, Jul), three mixes (H1, HM2, L1), one day.
    pub fn quick() -> Self {
        Self {
            sites: vec![Site::phoenix_az(), Site::oak_ridge_tn()],
            seasons: vec![Season::Jan, Season::Jul],
            mixes: vec![Mix::h1(), Mix::hm2(), Mix::l1()],
            days: 1,
            threads: default_threads(),
            telemetry_dir: None,
        }
    }
}

/// Aggregates of one `(site, season, mix, policy, day)` simulation.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct DaySummary {
    /// Site code (`"AZ"` …).
    pub site: String,
    /// Season label (`"Jan"` …).
    pub season: String,
    /// Mix name (`"H1"` …).
    pub mix: String,
    /// Policy label (`"MPPT&Opt"` …).
    pub policy: String,
    /// Weather-realization index.
    pub day: u32,
    /// Green-energy utilization (drawn / available).
    pub utilization: f64,
    /// Fraction of the daytime window spent solar-powered.
    pub effective_fraction: f64,
    /// Performance-time product: instructions committed on solar power.
    pub ptp: f64,
    /// Mean relative tracking error.
    pub tracking_error: f64,
    /// Solar energy drawn, Wh.
    pub energy_drawn_wh: f64,
    /// Ideal MPP energy available, Wh.
    pub energy_available_wh: f64,
}

/// Battery baselines for one `(site, season, mix, day)`.
#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct BatterySummary {
    /// Site code.
    pub site: String,
    /// Season label.
    pub season: String,
    /// Mix name.
    pub mix: String,
    /// Weather-realization index.
    pub day: u32,
    /// Battery-U (92 % derating) instructions.
    pub upper_ptp: f64,
    /// Battery-L (81 % derating) instructions.
    pub lower_ptp: f64,
}

/// The computed sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyGrid {
    /// One summary per MPPT policy run.
    pub summaries: Vec<DaySummary>,
    /// One battery baseline pair per (site, season, mix, day).
    pub battery: Vec<BatterySummary>,
}

/// One `(site, season, mix, day)` sweep cell.
type GridCell = (Site, Season, Mix, u32);

impl PolicyGrid {
    /// Runs the sweep (parallel across day simulations).
    pub fn compute(config: &GridConfig) -> Self {
        Self::from_cells(
            Self::cells(config),
            config.threads,
            config.telemetry_dir.as_deref(),
        )
    }

    /// Runs the sweep with the cell order permuted by a seeded shuffle.
    ///
    /// Because the cell assembly emits canonically sorted output,
    /// the result must be bit-identical to [`PolicyGrid::compute`] — the
    /// determinism harness verifies exactly that.
    pub fn compute_shuffled(config: &GridConfig, seed: u64) -> Self {
        let mut cells = Self::cells(config);
        crate::determinism::shuffle(&mut cells, seed);
        Self::from_cells(cells, config.threads, config.telemetry_dir.as_deref())
    }

    /// Enumerates the sweep cells in configuration order.
    fn cells(config: &GridConfig) -> Vec<GridCell> {
        let mut cells = Vec::new();
        for site in &config.sites {
            for &season in &config.seasons {
                for mix in &config.mixes {
                    for day in 0..config.days {
                        cells.push((site.clone(), season, mix.clone(), day));
                    }
                }
            }
        }
        cells
    }

    /// Simulates the given cells in parallel and assembles the grid in
    /// canonical order (sorted by site, season, mix, day, policy), so the
    /// serialized output is byte-stable regardless of thread scheduling
    /// and input order.
    fn from_cells(
        cells: Vec<GridCell>,
        threads: usize,
        telemetry_dir: Option<&std::path::Path>,
    ) -> Self {
        if let Some(dir) = telemetry_dir {
            std::fs::create_dir_all(dir).expect("telemetry directory is creatable");
        }
        let results = parallel_map(cells, threads, |(site, season, mix, day)| {
            let array = PvArray::solarcore_default();
            let seed = phase_seed(site, *season, *day);

            // One JSONL stream per cell, shared by the batch's policies.
            // The sink is created inside the worker (it is thread-local by
            // construction); distinct cells write distinct files, so the
            // output set is identical regardless of thread count.
            let sink = telemetry_dir.map(|_| Rc::new(RefCell::new(JsonlSink::new())));
            let telemetry = sink
                .as_ref()
                .map_or_else(Telemetry::disabled, |s| Telemetry::attached(s.clone()));

            // One batch per cell: the weather trace is synthesized once and
            // the PV solver memo is shared, so the second and third policy
            // hit the per-minute MPP solves the first one warmed.
            let batch = DaySimulation::builder()
                .site(site.clone())
                .season(*season)
                .day(*day)
                .mix(mix.clone())
                .telemetry(telemetry)
                .build_batch(&GRID_POLICIES)
                .expect("valid config");
            let results = batch.run_all().expect("day runs");

            if let (Some(dir), Some(sink)) = (telemetry_dir, sink) {
                let name = format!("{}_{}_{}_day{}.jsonl", site.code(), season, mix.name(), day);
                std::fs::write(dir.join(name), sink.borrow().buffer())
                    .expect("telemetry stream is writable");
            }

            let summaries: Vec<DaySummary> = results
                .iter()
                .map(|result| DaySummary {
                    site: site.code().to_string(),
                    season: season.to_string(),
                    mix: mix.name().to_string(),
                    policy: result.policy().label().to_string(),
                    day: *day,
                    utilization: result.utilization(),
                    effective_fraction: result.effective_fraction(),
                    ptp: result.solar_instructions(),
                    tracking_error: result.mean_tracking_error(),
                    energy_drawn_wh: result.energy_drawn().get(),
                    energy_available_wh: result.energy_available().get(),
                })
                .collect();

            let trace = batch.setup().trace();
            let upper = BatterySystem::upper_bound()
                .simulate_day(&array, trace, mix, seed)
                .expect("battery day runs");
            let lower = BatterySystem::lower_bound()
                .simulate_day(&array, trace, mix, seed)
                .expect("battery day runs");
            let battery = BatterySummary {
                site: site.code().to_string(),
                season: season.to_string(),
                mix: mix.name().to_string(),
                day: *day,
                upper_ptp: upper.instructions,
                lower_ptp: lower.instructions,
            };
            (summaries, battery)
        });

        let mut summaries = Vec::new();
        let mut battery = Vec::new();
        for (s, b) in results {
            summaries.extend(s);
            battery.push(b);
        }
        // Canonical emission order: results arrive in cell order, which a
        // shuffled run permutes — sorting makes the output independent of
        // both input order and thread count.
        summaries.sort_by(|a, b| {
            (&a.site, &a.season, &a.mix, a.day, &a.policy)
                .cmp(&(&b.site, &b.season, &b.mix, b.day, &b.policy))
        });
        battery.sort_by(|a, b| {
            (&a.site, &a.season, &a.mix, a.day).cmp(&(&b.site, &b.season, &b.mix, b.day))
        });
        PolicyGrid { summaries, battery }
    }

    /// Summaries for one policy label.
    pub fn for_policy(&self, policy: Policy) -> impl Iterator<Item = &DaySummary> {
        let label = policy.label();
        self.summaries.iter().filter(move |s| s.policy == label)
    }

    /// The battery baseline matching a summary's (site, season, mix, day).
    pub fn battery_for(&self, s: &DaySummary) -> Option<&BatterySummary> {
        self.battery
            .iter()
            .find(|b| b.site == s.site && b.season == s.season && b.mix == s.mix && b.day == s.day)
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
            days: 1,
            threads: 2,
            telemetry_dir: None,
        })
    }

    #[test]
    fn grid_has_one_summary_per_policy_cell() {
        let grid = tiny_grid();
        assert_eq!(grid.summaries.len(), 3);
        assert_eq!(grid.battery.len(), 1);
        let labels: Vec<&str> = grid.summaries.iter().map(|s| s.policy.as_str()).collect();
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
    fn telemetry_dir_writes_one_stream_per_cell() {
        let dir = std::env::temp_dir().join("solarcore_grid_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        let grid = PolicyGrid::compute(&GridConfig {
            sites: vec![Site::phoenix_az()],
            seasons: vec![Season::Jan],
            mixes: vec![Mix::hm2()],
            days: 1,
            threads: 2,
            telemetry_dir: Some(dir.clone()),
        });
        assert_eq!(grid.summaries.len(), 3);
        let stream = std::fs::read_to_string(dir.join("AZ_Jan_HM2_day0.jsonl")).unwrap();
        // The cell's three policy runs share one stream in run order.
        assert_eq!(stream.matches("\"day_start\"").count(), 3);
        assert_eq!(stream.matches("\"day_summary\"").count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn battery_lookup_matches_cells() {
        let grid = tiny_grid();
        for s in &grid.summaries {
            assert!(grid.battery_for(s).is_some());
        }
    }
}
