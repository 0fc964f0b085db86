//! Multi-core architecture performance/power substrate for SolarCore.
//!
//! The paper simulates an 8-core machine of Alpha-21264-class cores
//! (Table 4) with Wattch/CACTI power models, per-core DVFS in six V/F steps
//! (2.5 GHz/1.45 V down to 1.0 GHz/0.95 V, Intel SpeedStep style) and
//! per-core power gating (PCPG).
//!
//! A full cycle-accurate out-of-order pipeline cannot be driven here (no
//! SPEC2000 binaries or reference inputs are available), and the SolarCore
//! control algorithms only consume interval-level observables — per-core
//! instructions-per-second and watts. This crate therefore implements an
//! interval model with exactly those observables: dynamic power
//! `P = EPI·(V/V₀)²·IPC_eff(f)·f` (the paper's `P ∝ c·V³` under its linear
//! V–f assumption), temperature-dependent leakage, frequency-dependent
//! effective IPC with a memory-boundedness correction, and program-phase
//! multipliers from the [`workloads`] crate.
//!
//! # Quick start
//!
//! ```
//! use archsim::{MultiCoreChip, VfLevel};
//! use workloads::Mix;
//!
//! let mut chip = MultiCoreChip::new(&Mix::hm2());
//! chip.set_level(archsim::CoreId(0), VfLevel::lowest())?;
//! let phases = [1.0; 8];
//! chip.step(&phases, 60.0)?; // one minute
//! assert!(chip.total_power().get() > 0.0);
//! # Ok::<(), archsim::ArchError>(())
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

pub mod availability;
pub mod chip;
pub mod core;
pub mod dvfs;
pub mod error;
pub mod power;

pub use crate::core::{Core, CoreId, CoreTelemetry};
pub use availability::AvailabilityMask;
pub use chip::MultiCoreChip;
pub use dvfs::VfLevel;
pub use error::ArchError;
