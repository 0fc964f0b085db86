//! Workspace source discovery.
//!
//! The walk covers `crates/*/src`, experiment binaries under `src/bin/`
//! included. `vendor/` and `target/` are never scanned.

use std::fs;
use std::path::{Path, PathBuf};

/// Collects every `.rs` file under `crates/*/src`, sorted for
/// deterministic reports.
pub fn collect_crate_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let crates = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
    for entry in crates.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` into `out`.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative path of `path` with forward slashes, as used in
/// every diagnostic.
pub fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
