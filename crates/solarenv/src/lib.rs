//! Solar-environment substrate for the SolarCore reproduction.
//!
//! The paper drives its experiments with real meteorological traces from
//! NREL's Measurement and Instrumentation Data Center (MIDC): daytime
//! (07:30–17:30) irradiance and temperature for four U.S. sites with
//! different solar potentials (Table 2) across four seasons (mid-January,
//! April, July and October 2009).
//!
//! We have no network access to NREL, so this crate synthesizes equivalent
//! traces: a clear-sky irradiance envelope from solar geometry (declination,
//! hour angle, elevation, Haurwitz clear-sky model), modulated by a seeded
//! regime-switching cloud process calibrated so that each site lands in its
//! Table 2 kWh/m²/day band and reproduces the paper's "regular" (Jan @ AZ)
//! vs "irregular" (Jul @ AZ) weather patterns. All generation is
//! deterministic given `(site, season, day)`.
//!
//! # Quick start
//!
//! ```
//! use solarenv::{Site, Season, EnvTrace};
//!
//! let trace = EnvTrace::generate(&Site::phoenix_az(), Season::Jan, 0);
//! assert_eq!(trace.samples().len(), 601); // 07:30..=17:30, minute steps
//! assert!(trace.insolation_kwh_m2() > 1.5);
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
#![cfg_attr(test, allow(clippy::float_cmp))] // unit tests assert exact constructed values

pub mod calendar;
pub mod error;
pub mod geometry;
pub mod season;
pub mod site;
pub mod stats;
pub mod thermal;
pub mod trace;
pub mod weather;

pub use calendar::{DayRange, Month};
pub use error::EnvError;
pub use season::Season;
pub use site::{Site, SolarPotential};
pub use trace::{EnvSample, EnvTrace, DAY_END_MINUTE, DAY_START_MINUTE};
pub use weather::{CloudRegime, WeatherProfile};
