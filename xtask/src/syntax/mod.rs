//! Shared lexical infrastructure for every static-analysis command.
//!
//! `cargo xtask analyze`, `flow` and `graph` are three clients of the same
//! dependency-free source model: [`source::SourceFile`] (comment/string
//! masking, `#[cfg(test)]` regions, waiver markers), the token
//! [`lexer`], and the [`files`] workspace walker. They lived inside
//! `lint`/`analyze` historically; `flow` made a third copy untenable, so
//! the shared layer now has one home.

pub mod files;
pub mod lexer;
pub mod source;

pub use lexer::{lex, matching_close, Tok, Token};
pub use source::{SourceFile, WaiverMarker};
