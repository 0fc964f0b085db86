//! Workload models for the SolarCore reproduction.
//!
//! The paper evaluates SolarCore with SPEC CPU2000 multi-programmed mixes on
//! an 8-core machine (Table 5), with benchmarks classified by average
//! energy-per-instruction (EPI): High (≥ 15 nJ), Moderate (8–15 nJ) and Low
//! (≤ 8 nJ). SPEC2000 binaries and reference inputs are not redistributable,
//! so this crate substitutes *statistical* models of the twelve benchmarks
//! the paper uses: per-benchmark nominal IPC, EPI, memory-boundedness and
//! phase volatility, plus seeded phase traces that reproduce the
//! load-variation structure the paper reports (large power ripple for
//! homogeneous high-EPI mixes, smooth power for heterogeneous/low-EPI ones).
//!
//! # Quick start
//!
//! ```
//! use workloads::{Mix, EpiClass};
//!
//! let h1 = Mix::h1();
//! assert_eq!(h1.benchmarks().len(), 8);
//! assert_eq!(h1.benchmarks()[0].epi_class(), EpiClass::High);
//! assert_eq!(Mix::all().len(), 10);
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

pub mod benchmark;
pub mod mix;
pub mod phases;
pub mod spec2000;

pub use benchmark::{BenchmarkSpec, EpiClass};
pub use mix::Mix;
pub use phases::PhaseTrace;
