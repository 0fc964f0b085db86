//! Dependency-free lexical model of the workspace's Rust sources:
//! [`source::SourceFile`] (comment/string masking, `#[cfg(test)]`
//! regions, waiver markers), the token [`lexer`], and the [`files`]
//! workspace walker. No command reads it at present (see the crate docs).

pub mod files;
pub mod lexer;
pub mod source;

pub use lexer::{lex, matching_close, Tok, Token};
pub use source::{SourceFile, WaiverMarker};
