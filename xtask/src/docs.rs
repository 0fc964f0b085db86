//! Documentation cross-reference pass (`cargo xtask docs`).
//!
//! The repo's prose is part of its contract: README.md routes readers
//! into DESIGN.md by section number, EXPERIMENTS.md catalogs every
//! committed `results/*.json` artifact, and the crate map names every
//! workspace crate. All three decay silently as the code grows — a
//! renumbered DESIGN section, a new results artifact, a new crate —
//! so this pass re-checks them on every CI run:
//!
//! 1. **anchors** — every `§N` reference in README.md, DESIGN.md itself,
//!    EXPERIMENTS.md and `docs/*.md` resolves to a `## N.` heading in
//!    DESIGN.md;
//! 2. **catalog** — every committed `results/*.json` file is mentioned
//!    in EXPERIMENTS.md;
//! 3. **crate-map** — every directory under `crates/` has a
//!    `crates/<name>` row in README.md's workspace table, and README
//!    links the operator's handbook (`docs/HANDBOOK.md`).

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// One broken cross-reference.
#[derive(Debug)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [docs] {}", self.path, self.line, self.message)
    }
}

/// Outcome of one docs-pass run.
#[derive(Debug)]
pub struct Report {
    /// Every broken reference found.
    pub violations: Vec<Violation>,
    /// Number of documents and artifacts checked.
    pub files_scanned: usize,
}

/// Runs the documentation cross-reference pass over the workspace.
///
/// # Errors
///
/// Returns a message when a required file (README.md, DESIGN.md,
/// EXPERIMENTS.md) cannot be read; missing *references* are violations,
/// missing *documents* are errors.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;

    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(root.join(name)).map_err(|e| format!("{name}: {e}"))
    };
    let readme = read("README.md")?;
    let design = read("DESIGN.md")?;
    let experiments = read("EXPERIMENTS.md")?;
    files_scanned += 3;

    let sections = design_sections(&design);
    if sections.is_empty() {
        return Err("DESIGN.md: no `## N.` section headings found".to_owned());
    }

    // Pass 1: §N anchors. Check README, DESIGN's own cross-references,
    // EXPERIMENTS and everything under docs/ against DESIGN.md's actual
    // heading numbers.
    let mut anchored: Vec<(String, String)> = vec![
        ("README.md".to_owned(), readme.clone()),
        ("DESIGN.md".to_owned(), design.clone()),
        ("EXPERIMENTS.md".to_owned(), experiments.clone()),
    ];
    if let Ok(entries) = std::fs::read_dir(root.join("docs")) {
        let mut names: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        names.sort();
        for path in names {
            let rel = format!(
                "docs/{}",
                path.file_name()
                    .map(|n| n.to_string_lossy())
                    .unwrap_or_default()
            );
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
            files_scanned += 1;
            anchored.push((rel, text));
        }
    }
    for (rel, text) in &anchored {
        check_anchors(rel, text, &sections, &mut violations);
    }

    // Pass 2: every committed results/*.json is catalogued.
    let results = root.join("results");
    if let Ok(entries) = std::fs::read_dir(&results) {
        let mut names: Vec<String> = entries
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names {
            files_scanned += 1;
            if !experiments.contains(&name) {
                violations.push(Violation {
                    path: format!("results/{name}"),
                    line: 1,
                    message: "committed results artifact is not catalogued in EXPERIMENTS.md"
                        .to_owned(),
                });
            }
        }
    }

    // Pass 3: the crate map covers every workspace crate, and README
    // routes operators to the handbook.
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut names: Vec<String> = entries
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            if !readme.contains(&format!("crates/{name}")) {
                violations.push(Violation {
                    path: "README.md".to_owned(),
                    line: 1,
                    message: format!("workspace crate `crates/{name}` has no crate-map row"),
                });
            }
        }
    }
    if !readme.contains("docs/HANDBOOK.md") {
        violations.push(Violation {
            path: "README.md".to_owned(),
            line: 1,
            message: "README does not link the operator's handbook (docs/HANDBOOK.md)".to_owned(),
        });
    }

    Ok(Report {
        violations,
        files_scanned,
    })
}

/// The set of `N` with a `## N.` heading in DESIGN.md.
fn design_sections(design: &str) -> BTreeSet<u32> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            (!digits.is_empty() && rest[digits.len()..].starts_with('.'))
                .then(|| digits.parse().ok())
                .flatten()
        })
        .collect()
}

/// Flags every `§N` whose `N` is not a DESIGN.md heading. Ranges (`§9–10`)
/// check both endpoints.
fn check_anchors(rel: &str, text: &str, sections: &BTreeSet<u32>, out: &mut Vec<Violation>) {
    for (idx, line) in text.lines().enumerate() {
        for piece in line.split('§').skip(1) {
            let digits: String = piece.chars().take_while(char::is_ascii_digit).collect();
            let Ok(first) = digits.parse::<u32>() else {
                continue;
            };
            let mut referenced = vec![first];
            // A range like `§9–10` (en dash or hyphen) names two anchors.
            let rest = &piece[digits.len()..];
            if let Some(tail) = rest.strip_prefix('–').or_else(|| rest.strip_prefix('-')) {
                let tail_digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
                if let Ok(second) = tail_digits.parse::<u32>() {
                    referenced.push(second);
                }
            }
            for n in referenced {
                if !sections.contains(&n) {
                    out.push(Violation {
                        path: rel.to_owned(),
                        line: idx + 1,
                        message: format!("§{n} does not resolve to a `## {n}.` DESIGN.md heading"),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_headings_parse() {
        let design = "## 1. Intro\ntext\n## 12. Harness\n### 2.1 not a section\n## X. no\n";
        let s = design_sections(design);
        assert!(s.contains(&1) && s.contains(&12));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dangling_anchor_is_flagged_with_its_line() {
        let sections: BTreeSet<u32> = [1, 2].into_iter().collect();
        let mut out = Vec::new();
        check_anchors("README.md", "ok §1\nbad §7 here\n", &sections, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("§7"));
    }

    #[test]
    fn ranges_check_both_endpoints() {
        let sections: BTreeSet<u32> = [9].into_iter().collect();
        let mut out = Vec::new();
        check_anchors("README.md", "§9–10\n", &sections, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("§10"));
    }

    #[test]
    fn design_is_checked_against_its_own_headings() {
        let root = std::env::temp_dir().join(format!("xtask-docs-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let files = [
            ("README.md", "see §1; handbook: docs/HANDBOOK.md\n"),
            ("DESIGN.md", "## 1. Intro\nback to §1\n\nas §15 showed\n"),
            ("EXPERIMENTS.md", "§1\n"),
        ];
        for (name, text) in files {
            std::fs::write(root.join(name), text).unwrap();
        }
        let report = run(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let violations = report.unwrap().violations;
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].path, "DESIGN.md");
        assert_eq!(violations[0].line, 4);
        assert!(violations[0].message.contains("§15"));
    }
}
