//! Experiment harness for the SolarCore reproduction.
//!
//! One experiment module per table/figure of the paper's evaluation
//! (Section 6), each with a `run(...)` entry point that computes the
//! table/series, prints it in the paper's layout, and returns a result
//! whose `to_json` the `expt_*` binaries render to `results/*.json`
//! through [`output::Json`], the workspace's one JSON codec.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Figure 1 (fixed-load utilization) | [`experiments::fig01`] | `expt_fig01_fixed_load` |
//! | Figure 6 (I-V/P-V vs irradiance) | [`experiments::fig06`] | `expt_fig06_iv_irradiance` |
//! | Figure 7 (I-V/P-V vs temperature) | [`experiments::fig07`] | `expt_fig07_iv_temperature` |
//! | Table 2 (site potentials) | [`experiments::tab02`] | `expt_tab02_sites` |
//! | Table 3 (battery tiers) | [`experiments::tab03`] | `expt_tab03_battery` |
//! | Figures 13/14 (tracking traces) | [`experiments::fig13`] | `expt_fig13_tracking`, `expt_fig14_tracking` |
//! | Table 7 (tracking error) | [`experiments::tab07`] | `expt_tab07_tracking_error` |
//! | Figure 15 (duration vs threshold) | [`experiments::fig15`] | `expt_fig15_duration_threshold` |
//! | Figures 16/17 (fixed-budget energy/PTP) | [`experiments::fig16`] | `expt_fig16_17_fixed_budget` |
//! | Figure 18 (energy utilization) | [`experiments::fig18`] | `expt_fig18_energy_util` |
//! | Figure 19 (effective duration) | [`experiments::fig19`] | `expt_fig19_effective_duration` |
//! | Figure 20 (utilization vs duration) | [`experiments::fig20`] | `expt_fig20_util_vs_duration` |
//! | Figure 21 (normalized PTP) | [`experiments::fig21`] | `expt_fig21_ptp_policies` |
//! | Headline claims | [`experiments::headline`] | `expt_headline` |
//! | Telemetry golden day | [`trace_report`] | `trace_report` (`cargo xtask trace`) |
//!
//! `expt_all` regenerates everything (sharing the policy-grid sweep).
//!
//! Every sweep cell — a policy-grid cell on its season's anchor day, or a
//! campaign shard over a month's days — runs through one day loop in
//! [`campaign`] and folds into one row type, [`campaign::ShardRow`].
//!
//! # Quick start
//!
//! The figure sweeps all start from a [`grid::GridConfig`]; `quick()` is
//! the reduced grid the tests run:
//!
//! ```
//! use bench::grid::GridConfig;
//!
//! let quick = GridConfig::quick();
//! let full = GridConfig::default();
//! assert!(quick.sites.len() < full.sites.len());
//! assert_eq!(full.seasons.len(), 4); // the paper's four anchor days
//! ```

#![cfg_attr(test, allow(clippy::float_cmp))] // unit tests assert exact constructed values
pub mod campaign;
pub mod chaos;
pub mod determinism;
pub mod experiments;
pub mod grid;
pub mod output;
pub mod parallel;
pub mod pins;
pub mod tdiff;
pub mod trace_report;

pub use grid::{GridConfig, PolicyGrid};
pub use output::{write_json, TextTable};
