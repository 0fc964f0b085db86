//! `cargo xtask flow`: dataflow analysis over per-function abstract
//! interpretation.
//!
//! `flow` evaluates *values*: it
//! parses each function into a lightweight AST ([`ast`]), runs a
//! big-step abstract interpreter over the interval domain ([`interval`],
//! [`range`]) seeded with the workspace's physical contracts ([`seeds`]),
//! and reports one kind of finding:
//!
//! * [`range`] — interval/range analysis of physical quantities. Every
//!   `invariants::assert_*` sanitizer call is decomposed into elementary
//!   checks, each classified **proven** (the runtime check can never
//!   fire), **runtime** (kept, it guards something real) or **violated**
//!   (statically refuted — a diagnostic). Out-of-range flows into
//!   `Converter::set_ratio` and `VfLevel::from_index` are flagged too.
//!
//! Telemetry schema conformance and dropped `Result`s are not checked
//! here: the `bench/tests/telemetry_schema.rs` golden-stream test and
//! rustc's `unused_must_use` plus `clippy::{let_underscore_must_use,
//! unused_result_ok}` carry them (DESIGN.md §11).
//!
//! All findings use the shared diagnostic format and waiver machinery of
//! [`crate::lint`] (inline `// lint:allow(<pass>): <reason>` markers, with
//! unused waivers failing the run).
//!
//! The range pass is *intra-procedural*: a call the seeds do not cover
//! evaluates to ⊤, so such a check stays a runtime check.
//!
//! `cargo xtask flow` additionally enforces a *proof-coverage ratchet*:
//! the proven fraction of sanitizer checks is compared against the
//! baseline recorded in the committed `results/flow_report.json` — it may
//! rise but never drop. With no committed report the fixed floor
//! [`PROVEN_RATIO_FLOOR`] applies. [`bless`] moves the baseline to the
//! current ratio by rewriting the report in canonical sorted-key JSON
//! ([`crate::jsonout`]), so the artifact is byte-diffable, and
//! [`report_is_fresh`] tells a plain run whether the committed bytes
//! still match.

pub mod ast;
// The domain and interpreter compare exact f64 interval endpoints (bounds
// are propagated bit-exactly, never computed approximately), so equality
// on them is meaningful.
#[allow(clippy::float_cmp)]
pub mod interval;
#[allow(clippy::float_cmp)]
pub mod range;
pub mod seeds;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::jsonout::Json;
use crate::lint::{self, Report};
use crate::syntax::files;
use crate::syntax::source::SourceFile;

/// The passes `cargo xtask flow` runs; scopes unused-waiver accounting.
pub const PASSES: &[&str] = &[range::PASS];

/// Fallback proof-coverage floor, used only when no committed
/// `results/flow_report.json` exists to ratchet against.
pub const PROVEN_RATIO_FLOOR: f64 = 0.70;

/// The baseline proven ratio the current run must not drop below: the
/// `proven_ratio` recorded in the committed `results/flow_report.json`,
/// clamped to at least [`PROVEN_RATIO_FLOOR`] (the ratchet never winds
/// backwards past the original gate).
pub fn baseline_ratio(root: &Path) -> f64 {
    fs::read_to_string(report_path(root))
        .ok()
        .and_then(|text| parse_ratio(&text))
        .map_or(PROVEN_RATIO_FLOOR, |r| r.max(PROVEN_RATIO_FLOOR))
}

/// Extracts the `"proven_ratio": <number>` field from a report without a
/// JSON parser (xtask is dependency-free; the field is written by
/// [`bless`] in a known canonical shape).
fn parse_ratio(text: &str) -> Option<f64> {
    let key = "\"proven_ratio\":";
    let rest = text[text.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Per-crate proven/unproven/violated check counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrateStats {
    /// Checks proven statically dischargeable.
    pub proven: usize,
    /// Checks left to the runtime sanitizer.
    pub unproven: usize,
    /// Checks statically refuted.
    pub violated: usize,
}

/// Everything a `cargo xtask flow` run produced.
#[derive(Debug)]
pub struct FlowOutcome {
    /// Violations (post-waiver) in the shared diagnostic format.
    pub report: Report,
    /// Every sanitizer site the range pass classified.
    pub sites: Vec<range::SiteRecord>,
    /// Range-check counts per crate.
    pub per_crate: BTreeMap<String, CrateStats>,
    /// Fraction of elementary sanitizer checks proven statically.
    pub proven_ratio: f64,
    /// The ratchet baseline this run was held to ([`baseline_ratio`]).
    pub baseline: f64,
    /// `proven_ratio >= baseline` (the ratchet: coverage never drops).
    pub proof_gate_passed: bool,
}

impl FlowOutcome {
    /// Total elementary checks across all sites.
    pub fn checks(&self) -> usize {
        self.sites.iter().map(|s| s.checks.len()).sum()
    }

    fn count(&self, status: range::CheckStatus) -> usize {
        self.sites
            .iter()
            .flat_map(|s| &s.checks)
            .filter(|c| c.status == status)
            .count()
    }

    /// Human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "xtask flow [range]: {} sanitizer sites, {} elementary checks — \
             {} proven, {} runtime, {} violated ({:.1}% proven, ratchet {:.1}%)",
            self.sites.len(),
            self.checks(),
            self.count(range::CheckStatus::Proven),
            self.count(range::CheckStatus::Runtime),
            self.count(range::CheckStatus::Violated),
            self.proven_ratio * 100.0,
            self.baseline * 100.0,
        )
    }
}

/// Runs the range pass over the workspace rooted at `root`.
///
/// Side-effect free: writing `results/flow_report.json` is a separate,
/// explicit step ([`bless`]) so tests can run the analysis without
/// touching the filesystem.
pub fn run(root: &Path) -> Result<FlowOutcome, String> {
    let seeds = seeds::Seeds::learn(root)?;
    let paths = files::collect_crate_sources(root)?;
    let mut report = Report {
        files_scanned: paths.len(),
        ..Report::default()
    };
    let mut sites = Vec::new();
    for path in &paths {
        let rel = files::relative(root, path);
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let src = SourceFile::parse(&rel, &text);
        let mut findings = Vec::new();
        if range::applies_to(&src.path) {
            let (file_sites, file_violations) = range::check(&src, &seeds);
            sites.extend(file_sites);
            findings.extend(file_violations);
        }
        lint::apply_file_waivers(&src, findings, PASSES, &mut report);
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    let mut per_crate: BTreeMap<String, CrateStats> = BTreeMap::new();
    for site in &sites {
        let stats = per_crate.entry(crate_of(&site.path)).or_default();
        for check in &site.checks {
            match check.status {
                range::CheckStatus::Proven => stats.proven += 1,
                range::CheckStatus::Runtime => stats.unproven += 1,
                range::CheckStatus::Violated => stats.violated += 1,
            }
        }
    }

    let checks: usize = sites.iter().map(|s| s.checks.len()).sum();
    let proven = sites
        .iter()
        .flat_map(|s| &s.checks)
        .filter(|c| c.status == range::CheckStatus::Proven)
        .count();
    // With no sanitizer sites there is nothing to prove; the gate is
    // vacuously satisfied.
    #[allow(clippy::cast_precision_loss)] // check counts are tiny
    let proven_ratio = if checks == 0 {
        1.0
    } else {
        proven as f64 / checks as f64
    };
    let baseline = baseline_ratio(root);

    Ok(FlowOutcome {
        report,
        sites,
        per_crate,
        proven_ratio,
        baseline,
        proof_gate_passed: proven_ratio >= baseline,
    })
}

/// The canonical report document: sorted keys, shortest-roundtrip floats
/// ([`crate::jsonout`]), so two runs over the same tree render to
/// identical bytes and the committed artifact diffs cleanly.
pub fn report_json(outcome: &FlowOutcome) -> Json {
    let per_crate = outcome
        .per_crate
        .iter()
        .map(|(name, s)| {
            (
                name.as_str(),
                Json::obj(vec![
                    ("proven", Json::int(s.proven)),
                    ("unproven", Json::int(s.unproven)),
                    ("violated", Json::int(s.violated)),
                ]),
            )
        })
        .collect();
    let sites = outcome
        .sites
        .iter()
        .map(|site| {
            let count = |st| site.checks.iter().filter(|c| c.status == st).count();
            Json::obj(vec![
                ("kind", Json::str(site.kind.to_string())),
                ("line", Json::int(site.line)),
                ("path", Json::str(&site.path)),
                ("proven", Json::int(count(range::CheckStatus::Proven))),
                ("unproven", Json::int(count(range::CheckStatus::Runtime))),
                ("violated", Json::int(count(range::CheckStatus::Violated))),
            ])
        })
        .collect();
    Json::obj(vec![
        ("baseline", Json::Num(outcome.baseline)),
        ("gate_passed", Json::Bool(outcome.proof_gate_passed)),
        ("generated_by", Json::str("cargo xtask flow")),
        ("per_crate", Json::obj(per_crate)),
        ("proven_ratio", Json::Num(outcome.proven_ratio)),
        ("sites", Json::Arr(sites)),
        (
            "totals",
            Json::obj(vec![
                ("checks", Json::int(outcome.checks())),
                (
                    "proven",
                    Json::int(outcome.count(range::CheckStatus::Proven)),
                ),
                ("sites", Json::int(outcome.sites.len())),
                (
                    "unproven",
                    Json::int(outcome.count(range::CheckStatus::Runtime)),
                ),
                (
                    "violated",
                    Json::int(outcome.count(range::CheckStatus::Violated)),
                ),
            ]),
        ),
    ])
}

/// The committed report [`baseline_ratio`] ratchets against.
pub fn report_path(root: &Path) -> PathBuf {
    root.join("results").join("flow_report.json")
}

/// Moves the ratchet to this run's ratio and writes the report. The
/// blessed `baseline` is the ratio being blessed, so the next plain run
/// reads it back, renders the same bytes and finds the report fresh.
/// Returns the path written.
pub fn bless(root: &Path, outcome: &mut FlowOutcome) -> Result<PathBuf, String> {
    outcome.baseline = outcome.proven_ratio;
    outcome.proof_gate_passed = true;
    let path = report_path(root);
    fs::create_dir_all(root.join("results"))
        .and_then(|()| fs::write(&path, report_json(outcome).render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `true` when the committed report is byte-identical to this run's.
pub fn report_is_fresh(root: &Path, outcome: &FlowOutcome) -> bool {
    fs::read_to_string(report_path(root)).ok() == Some(report_json(outcome).render())
}

/// The crate name component of a `crates/<name>/…` path.
fn crate_of(path: &str) -> String {
    path.split('/').nth(1).unwrap_or("?").to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask has a parent")
            .to_path_buf()
    }

    /// The flow gate over the real workspace: clean, and the proof ratio
    /// meets the ratchet baseline read from the committed report.
    #[test]
    fn workspace_is_flow_clean_and_meets_the_proof_ratchet() {
        let outcome = run(&workspace_root()).expect("flow runs");
        assert!(
            outcome.report.violations.is_empty(),
            "workspace must be flow-clean:\n{}",
            outcome
                .report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            !outcome.sites.is_empty(),
            "the engine's sanitizer sites must be visible to the range pass"
        );
        assert!(
            outcome.proof_gate_passed,
            "proven ratio {:.4} below ratchet baseline {:.4} — sites: {:#?}",
            outcome.proven_ratio, outcome.baseline, outcome.sites
        );
    }

    /// Satellite (b): the report is canonical — two runs over the same
    /// tree render byte-identical JSON.
    #[test]
    fn report_is_byte_stable_across_runs() {
        let root = workspace_root();
        let a = report_json(&run(&root).expect("first run")).render();
        let b = report_json(&run(&root).expect("second run")).render();
        assert_eq!(a, b, "flow report must be byte-stable");
    }

    #[test]
    fn ratio_parses_out_of_a_committed_report() {
        assert_eq!(parse_ratio("{\"proven_ratio\": 0.7407,"), Some(0.7407));
        assert_eq!(parse_ratio("{\"proven_ratio\":0.8148}"), Some(0.8148));
        assert_eq!(parse_ratio("{\"gate\": 0.7}"), None);
        // A malformed value falls back rather than panicking.
        assert_eq!(parse_ratio("{\"proven_ratio\": oops,"), None);
    }

    /// The ratchet clamps to the floor: a missing or low committed
    /// baseline never relaxes the original 70% gate.
    // The values round-trip through decimal text unchanged, so exact
    // comparison is the point of the test.
    #[allow(clippy::float_cmp)]
    #[test]
    fn baseline_never_drops_below_the_floor() {
        let dir = std::env::temp_dir().join("xtask-flow-ratchet-test");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(baseline_ratio(&dir), PROVEN_RATIO_FLOOR);
        fs::create_dir_all(dir.join("results")).expect("mkdir");
        fs::write(
            dir.join("results").join("flow_report.json"),
            "{\"proven_ratio\": 0.5}\n",
        )
        .expect("write");
        assert_eq!(baseline_ratio(&dir), PROVEN_RATIO_FLOOR);
        fs::write(
            dir.join("results").join("flow_report.json"),
            "{\"proven_ratio\": 0.8}\n",
        )
        .expect("write");
        assert_eq!(baseline_ratio(&dir), 0.8);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One `--bless` reaches a fixed point: the blessed report records the
    /// blessed ratio as its baseline, so the next plain run renders the
    /// same bytes instead of calling the fresh report stale.
    #[allow(clippy::float_cmp)] // exact round-trip through the report text
    #[test]
    fn one_bless_leaves_a_fresh_report() {
        let dir = std::env::temp_dir().join("xtask-flow-bless-test");
        let _ = fs::remove_dir_all(&dir);
        let real = workspace_root();
        for seeded in [
            "crates/solarcore/src/invariants.rs",
            "crates/archsim/src/dvfs.rs",
        ] {
            let to = dir.join(seeded);
            fs::create_dir_all(to.parent().expect("file has a parent")).expect("mkdir");
            fs::copy(real.join(seeded), to).expect("copy seed source");
        }
        // Three literal sites prove both checks, one unknown proves none:
        // 6/8 = 0.75 clears the 0.70 floor without equalling it.
        fs::create_dir_all(dir.join("crates/x/src")).expect("mkdir");
        fs::write(
            dir.join("crates/x/src/lib.rs"),
            "fn f(p: Watts) {\n\
             invariants::assert_power(\"a\", Watts::new(1.0));\n\
             invariants::assert_power(\"b\", Watts::new(2.0));\n\
             invariants::assert_power(\"c\", Watts::new(3.0));\n\
             invariants::assert_power(\"d\", p);\n\
             }\n",
        )
        .expect("write");

        let mut first = run(&dir).expect("first run");
        assert!(first.proof_gate_passed, "0.75 clears the floor");
        bless(&dir, &mut first).expect("bless");
        let plain = run(&dir).expect("plain run");
        assert_eq!(plain.proven_ratio, 0.75);
        assert_eq!(
            plain.baseline, 0.75,
            "the blessed ratio is the new baseline"
        );
        assert!(plain.proof_gate_passed);
        assert!(
            report_is_fresh(&dir, &plain),
            "a just-blessed report is fresh"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
