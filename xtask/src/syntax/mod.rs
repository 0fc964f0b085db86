//! Lexical infrastructure for the static-analysis command.
//!
//! `cargo xtask flow` reads the workspace through a dependency-free
//! source model: [`source::SourceFile`] (comment/string masking,
//! `#[cfg(test)]` regions, waiver markers), the token [`lexer`], and the
//! [`files`] workspace walker.

pub mod files;
pub mod lexer;
pub mod source;

pub use lexer::{lex, matching_close, Tok, Token};
pub use source::{SourceFile, WaiverMarker};
