//! `cargo xtask analyze`: token-level static analysis the compiler cannot
//! do for us.
//!
//! One pass runs over every crate source, experiment binaries included:
//!
//! * [`dims`] — dimensional analysis: learns the unit algebra from
//!   `crates/pv/src/units.rs` and shadows it through arithmetic, catching
//!   cross-unit `+`/`-` and undeclared product dimensions even after
//!   values pass through raw `f64` locals.
//!
//! Determinism hazards and wildcard enum matches are not checked here:
//! `clippy.toml`'s disallowed types and methods and
//! `clippy::wildcard_enum_match_arm` carry them (DESIGN.md §11).
//!
//! Findings use the shared waiver machinery in [`crate::lint`]: inline
//! `// lint:allow(<pass>): <reason>` markers — and an unused waiver is
//! itself an error.

pub mod dims;
pub mod units;

use std::fs;
use std::path::Path;

use crate::lint::{self, Report};
use crate::syntax::files;
use crate::syntax::source::SourceFile;

/// The passes `cargo xtask analyze` runs; scopes unused-waiver accounting.
pub const PASSES: &[&str] = &[dims::PASS];

/// Runs the analysis passes over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let algebra = units::UnitAlgebra::learn(root)?;
    if algebra.unit_count() == 0 {
        return Err(
            "no unit newtypes learned from crates/pv/src/units.rs — dimensional \
                    analysis would be vacuous"
                .to_owned(),
        );
    }
    let mut report = Report::default();

    // The experiment binaries are included: they do unit arithmetic too.
    let files = files::collect_crate_sources(root)?;
    report.files_scanned = files.len();

    for path in &files {
        let rel = files::relative(root, path);
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let src = SourceFile::parse(&rel, &text);
        let findings = if dims::applies_to(&rel) {
            dims::check(&src, &algebra)
        } else {
            Vec::new()
        };
        lint::apply_file_waivers(&src, findings, PASSES, &mut report);
    }

    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: the analyzer must run clean on the real workspace —
    /// this is the same gate `ci.sh` enforces.
    #[test]
    fn workspace_analyzes_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let report = run(root).unwrap();
        assert!(
            report.violations.is_empty(),
            "analyze found {} violation(s):\n{}",
            report.violations.len(),
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.files_scanned > 0);
    }
}
