//! The shared finding and waiver machinery of the source passes
//! (`cargo xtask analyze`, `flow` and `graph`).
//!
//! Panic-free library code and unchecked casts are not checked here:
//! clippy carries them through the crate lint attributes (DESIGN.md §11).
//!
//! A justified exception carries an inline marker on (or directly above)
//! the offending line: `// lint:allow(<pass>): <reason>`. A marker
//! without a reason, or one that no longer suppresses anything, is itself
//! a violation.

use std::fmt;

use crate::syntax::source::SourceFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which pass produced the finding (`dim`, `range`, `summary`, ...).
    pub pass: &'static str,
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.message
        )
    }
}

/// Outcome of one source-pass run.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving (non-waived) violations.
    pub violations: Vec<Violation>,
    /// Number of files scanned by at least one pass.
    pub files_scanned: usize,
    /// Findings suppressed by inline markers.
    pub waivers_used: usize,
}

/// Applies the inline markers to one file's findings, feeding `report`;
/// also flags reason-less and unused markers belonging to `passes`.
pub fn apply_file_waivers(
    src: &SourceFile,
    findings: Vec<Violation>,
    passes: &[&str],
    report: &mut Report,
) {
    let mut inline_hits: Vec<(usize, &'static str)> = Vec::new();
    for v in findings {
        if src.has_waiver(v.line, v.pass) {
            report.waivers_used += 1;
            inline_hits.push((v.line, v.pass));
        } else {
            report.violations.push(v);
        }
    }
    for m in src.waiver_markers() {
        if !passes.contains(&m.pass.as_str()) {
            continue;
        }
        if !m.has_reason {
            report.violations.push(Violation {
                pass: "waiver",
                path: src.path.clone(),
                line: m.line,
                message: format!(
                    "waiver `lint:allow({})` has no reason — write \
                     `// lint:allow({}): <why>`",
                    m.pass, m.pass
                ),
            });
            continue;
        }
        // A marker covers its own line and, as a comment-only line, the
        // line below (matching `SourceFile::has_waiver`).
        let used = inline_hits
            .iter()
            .any(|(l, p)| *p == m.pass && (*l == m.line || *l == m.line + 1));
        if !used {
            report.violations.push(Violation {
                pass: "waiver",
                path: src.path.clone(),
                line: m.line,
                message: format!(
                    "unused waiver `lint:allow({})`: the finding it suppressed no \
                     longer fires — remove the marker",
                    m.pass
                ),
            });
        }
    }
}
