//! Power-delivery chain for the SolarCore reproduction (Figure 8).
//!
//! The paper's direct-coupled PV system places a tunable DC/DC converter
//! (a PWM "power-conservative matching network") between the solar panel and
//! the multi-core load, an automatic transfer switch (ATS) that falls back
//! to grid utility when solar output is insufficient, and I/V sensors that
//! feed the SolarCore controller.
//!
//! This crate implements all of those pieces plus the electrical
//! operating-point solver: the intersection of the panel's I-V curve with
//! the load line reflected through the converter. The converter follows the
//! paper's ideal-transformer model (`V_out = V_in / k`, `I_out = k · I_in`),
//! extended with an optional conversion efficiency.
//!
//! # Quick start
//!
//! ```
//! use powertrain::{DcDcConverter, LoadModel, solve_operating_point};
//! use pv::{PvArray, CellEnv};
//! use pv::units::Ohms;
//!
//! let array = PvArray::solarcore_default();
//! let dcdc = DcDcConverter::solarcore_default();
//! let load = LoadModel::Resistance(Ohms::new(1.2)); // 12 V / 10 A class load
//! let op = solve_operating_point(&array, CellEnv::stc(), &dcdc, &load)?;
//! assert!(op.output_power().get() > 0.0);
//! # Ok::<(), powertrain::PowerError>(())
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

pub mod ats;
pub mod converter;
pub mod error;
pub mod opsolve;
pub mod sensors;

pub use ats::{AutomaticTransferSwitch, PowerSource};
pub use converter::DcDcConverter;
pub use error::PowerError;
pub use opsolve::{solve_operating_point, LoadModel, OperatingPoint};
pub use sensors::{FaultedIvSensor, IvSensor};
