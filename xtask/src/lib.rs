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
//! * [`lint`] — the finding type and the waiver machinery of the source
//!   pass.
//! * [`flow`] — interval/range analysis of physical quantities over a
//!   per-function abstract interpreter, held to a proof ratchet.
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

pub mod bench;
pub mod docs;
pub mod flow;
pub mod jsonout;
pub mod lint;
pub mod syntax;
