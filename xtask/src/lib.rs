//! Repo automation library for the SolarCore workspace.
//!
//! The `cargo xtask` binary is a thin dispatcher; the one check it runs
//! in-process lives here.
//!
//! Module map:
//!
//! * [`docs`] — documentation cross-reference pass: DESIGN.md §-anchors,
//!   the EXPERIMENTS.md artifact catalog and the README crate map.
//! * [`syntax`] — a dependency-free model of the workspace's Rust
//!   sources: comment/string masking, waiver markers, the token lexer
//!   and the workspace walker.
//! * [`jsonout`] — a canonical sorted-key JSON renderer.
//!
//! No command reads `syntax` or `jsonout` any more. They are left over
//! from the deleted source passes, and ROADMAP item 3 tracks deleting
//! them and folding `docs` into the binary.
//!
//! Determinism hazards, panics in library code, unchecked casts,
//! wildcard matches on state enums and dropped `Result`s are not checked
//! here: clippy carries them, through the root `clippy.toml` and the crate
//! lint attributes (DESIGN.md §11).

pub mod docs;
pub mod jsonout;
pub mod syntax;
