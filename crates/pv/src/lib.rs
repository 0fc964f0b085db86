//! Photovoltaic (PV) electrical models for the SolarCore reproduction.
//!
//! This crate implements the single-diode equivalent-circuit model of a
//! photovoltaic cell described in Section 2 of the SolarCore paper (HPCA
//! 2011), together with series/parallel composition into modules and arrays,
//! a robust current–voltage solver, and maximum-power-point (MPP) search.
//!
//! The paper builds its PV power model with SPICE equivalent-circuit
//! simulations of the BP3180N 180 W polycrystalline module; this crate is a
//! native-Rust replacement solving the same governing equation:
//!
//! ```text
//! I = Iph(G, T) − I0(T) · (exp(q · (Vcell + I·Rs) / (n·k·T)) − 1)
//! ```
//!
//! where `Iph` is the photocurrent (proportional to irradiance `G` with a
//! linear temperature coefficient), `I0` the diode reverse-saturation
//! current, `Rs` the lumped series resistance, and `n` the diode ideality
//! factor. Shunt (parallel) resistance is neglected, exactly as in the paper
//! ("Our model only considers the series resistance since the impact of
//! shunt resistance is negligible").
//!
//! # Quick start
//!
//! ```
//! use pv::{PvModule, CellEnv, units::{Irradiance, Celsius}};
//!
//! let module = PvModule::bp3180n();
//! let env = CellEnv::new(Irradiance::new(1000.0), Celsius::new(25.0));
//! let mpp = module.mpp(env);
//! assert!((mpp.power.get() - 180.0).abs() < 6.0); // ~180 W at STC
//! ```
//!
//! ## Panic policy
//!
//! Non-test code in this crate must not panic on recoverable conditions:
//! `unwrap`/`expect`/`panic!` are denied by the gate below; a justified
//! site carries `#[expect(clippy::…, reason = "…")]`, which fails the
//! build once the waiver is no longer needed. Silently dropped `Result`s
//! (`let _ =`, `.ok()` as a statement) are denied too.
#![warn(missing_docs)]
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

pub mod array;
pub mod cell;
pub mod constants;
pub mod curve;
pub mod datasheet;
pub mod error;
pub mod generator;
pub mod module;
pub mod mpp;
pub mod solve;
pub mod units;

pub use array::PvArray;
pub use cell::{CellCoeffs, CellEnv, CellParams};
pub use curve::{resistive_operating_point, IvCurve, IvPoint};
pub use datasheet::Datasheet;
pub use error::PvError;
pub use generator::PvGenerator;
pub use module::PvModule;
pub use mpp::MppPoint;
pub use solve::{ArrayCache, CacheStats, CachedArray, ModuleSolver};
