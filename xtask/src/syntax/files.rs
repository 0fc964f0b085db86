//! Workspace source discovery shared by the analysis commands.
//!
//! `flow` walks `crates/*/src`, experiment binaries under
//! `src/bin/` included; `graph` widens that to every workspace source.
//! `vendor/` and `target/` are never scanned.

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

/// Collects every `.rs` file of the whole workspace — crate sources plus
/// integration tests, benches, examples and the `tests/` harness crate —
/// sorted for deterministic reports. The call-graph pass uses this wider
/// set: test and bench files are *roots* for reachability and their call
/// sites count toward closed-world parameter derivation. `vendor/` and
/// `target/` stay out of scope.
pub fn collect_workspace_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = collect_crate_sources(root)?;
    let crates_dir = root.join("crates");
    let crates = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
    for entry in crates.flatten() {
        for sub in ["tests", "benches"] {
            let dir = entry.path().join(sub);
            if dir.is_dir() {
                walk_rs(&dir, &mut out)?;
            }
        }
    }
    for dir in ["examples/src", "tests/src", "tests/tests"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk_rs(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` into `out`.
pub fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
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
