//! SolarCore: solar-energy-driven multi-core power management (HPCA 2011).
//!
//! This crate is the paper's contribution: a controller that couples a
//! direct (battery-less) PV array to a multi-core processor and jointly
//!
//! 1. tracks the array's **maximum power point** by co-tuning the DC/DC
//!    converter transfer ratio `k` and the multi-core load `w` (the
//!    three-step algorithm of Section 4.2 / Figure 9), and
//! 2. allocates the time-varying solar budget across cores by
//!    **throughput-power ratio** (TPR), giving V/F steps to the cores that
//!    buy the most instructions per watt (Section 4.3 / Figures 10–12).
//!
//! The crate also implements the paper's comparison points: `Fixed-Power`
//! (constant budget, LP-equivalent greedy allocation), `MPPT&IC`
//! (individual-core-first), `MPPT&RR` (round-robin), and the analytic
//! battery-equipped bounds of Table 3.
//!
//! # Quick start
//!
//! ```
//! use solarcore::{DaySimulation, Policy};
//! use solarenv::{Site, Season};
//! use workloads::Mix;
//!
//! let result = DaySimulation::builder()
//!     .site(Site::phoenix_az())
//!     .season(Season::Jan)
//!     .mix(Mix::hm2())
//!     .policy(Policy::MpptOpt)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(result.utilization() > 0.5);
//! ```
//!
//! ## Panic policy
//!
//! Non-test code in this crate must not panic on recoverable conditions:
//! `unwrap`/`expect`/`panic!` are denied by the gate below; a justified
//! site carries `#[expect(clippy::…, reason = "…")]`, which fails the
//! build once the waiver is no longer needed. Silently dropped `Result`s
//! (`let _ =`, `.ok()` as a statement) are denied too.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
// Every match on an enum names each variant, so adding a state or a
// policy forces every match site to be revisited.
#![deny(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::float_cmp))] // unit tests assert exact constructed values

pub mod adapter;
pub mod battery;
pub mod config;
pub mod controller;
pub mod degrade;
pub mod engine;
pub mod error;
pub mod invariants;
pub mod metrics;
pub mod policy;
pub mod telemetry;
pub mod tpr;

pub use adapter::LoadTuner;
pub use battery::{BatteryDayResult, BatterySystem, BatteryTier};
pub use config::ControllerConfig;
pub use controller::{SolarCoreController, TrackingRig};
pub use degrade::{DegradationFsm, DegradeConfig, FaultDetector, FsmTransition, ProbeFault};
pub use engine::{DayResult, DaySimulation, MinuteRecord, SimSetup};
pub use error::CoreError;
pub use policy::{LoadScheduler, Policy};
pub use telemetry::{schema, CountingArray, DayInstruments};
pub use tpr::{tpr_table, TprEntry};
