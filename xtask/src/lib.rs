//! Repo automation library for the SolarCore workspace.
//!
//! The `cargo xtask` binary is a thin dispatcher over this crate; the
//! passes live here so the fixture-based ui tests under `xtask/tests/`
//! can drive them directly against small seeded inputs.
//!
//! Module map:
//!
//! * [`syntax`] — the shared dependency-free source model: comment/string
//!   masking, waiver markers, the token lexer and the workspace walker.
//! * [`lint`] — the finding type and the waiver machinery every source
//!   pass reuses.
//! * [`analyze`] — token-level dimensional analysis of unit arithmetic.
//! * [`flow`] — interval/range analysis of physical quantities over a
//!   per-function abstract interpreter.
//! * [`graph`] — interprocedural passes over the workspace call graph:
//!   bottom-up function summaries (SCC fixpoint), the seeds cross-check
//!   and the reachability report.
//! * [`docs`] — documentation cross-reference pass: DESIGN.md §-anchors,
//!   the EXPERIMENTS.md artifact catalog and the README crate map.
//! * [`jsonout`] — the canonical sorted-key JSON renderer every committed
//!   report artifact serializes through.
//! * [`bench`](mod@bench) — the criterion harness driver and
//!   `BENCH_pr3.json` collector.
//!
//! Determinism hazards, panics in library code, unchecked casts,
//! wildcard matches on state enums and dropped `Result`s are not checked
//! here: clippy carries them, through the root `clippy.toml` and the crate
//! lint attributes (DESIGN.md §11).

pub mod analyze;
pub mod bench;
pub mod docs;
pub mod flow;
pub mod graph;
pub mod jsonout;
pub mod lint;
pub mod syntax;
