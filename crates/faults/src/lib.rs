//! Deterministic fault injection for the SolarCore simulation stack.
//!
//! SolarCore (HPCA 2011) rides a battery-less, volatile supply; a deployed
//! controller therefore has to survive the power train misbehaving, not
//! just the weather. This crate provides the scenario model for exercising
//! exactly that: a [`FaultPlan`] schedules typed [`FaultKind`]s on the
//! sim-time axis, a hand-rolled parser ([`parse_scenario`]) loads the
//! TOML-ish files under `scenarios/`, and a [`SensorInjector`] corrupts
//! I/V readings statefully (stuck-value latching, seeded noise bursts).
//!
//! # Design rules
//!
//! - **Dependency-free.** Like `xtask`, this crate links nothing — it works
//!   on plain scalars and carries its own [`SplitMix64`] stream — so every
//!   simulation crate can depend on it without cycles.
//! - **Deterministic.** Every query is a pure function of `(plan, minute)`;
//!   the only state (stuck latch, noise stream) is seeded from the plan.
//!   Identical plans produce bit-identical corruption on every run, thread
//!   count and input order.
//! - **Transparent when disarmed.** An empty or un-armed plan must leave
//!   the simulation bit-identical to the un-wrapped stack;
//!   `bench/tests/determinism.rs` pins this against the canonical day hash.
//!
//! The graceful-degradation logic that *survives* these faults lives in
//! `solarcore` (detection, hold-last-good, MPPT→fixed-budget fallback);
//! the campaign runner that measures retention lives in `bench`.

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
#![cfg_attr(test, allow(clippy::float_cmp))]

mod inject;
mod kind;
mod parser;
mod plan;
mod rng;

pub use inject::SensorInjector;
pub use kind::{FaultKind, SensorChannel};
pub use parser::parse_scenario;
pub use plan::{
    AtsOverride, CoreConstraint, FaultError, FaultPlan, ScheduledFault, SensorDisturbance,
};
pub use rng::SplitMix64;
