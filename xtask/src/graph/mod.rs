//! `cargo xtask graph`: interprocedural call-graph analysis.
//!
//! Where `flow` interprets one function at a time, `graph` connects them:
//!
//! * [`resolve`] — the workspace model: every function with its module
//!   path, `impl` self type and per-file `use` map, plus a conservative
//!   call resolver (unique target or nothing — ambiguity never makes an
//!   edge that facts flow across).
//! * [`scc`] — Tarjan condensation; reverse topological order drives the
//!   bottom-up summary computation.
//! * [`summary`] — derived function summaries (return interval, panic and
//!   purity bits, fallibility) via an SCC fixpoint, the seeds cross-check
//!   (hand-written contracts are *checked, not trusted*), and closed-world
//!   parameter derivation feeding facts back into `cargo xtask flow`.
//! * [`reach`] — reachability from binary/test/bench roots and the
//!   dead-`pub` report.
//!
//! Race freedom of `parallel_map` workers is not checked here: the
//! pool's `F: Fn(&T) -> U + Sync` and `T: Send + Sync` bounds make the
//! compiler reject a racy worker (DESIGN.md §11).
//!
//! Findings use the shared diagnostic format and waiver machinery of
//! [`crate::lint`]; [`write_report`] serialises the run into
//! `results/graph_report.json` through [`crate::jsonout`], so the
//! committed artifact is byte-stable.

pub mod reach;
pub mod resolve;
pub mod scc;
#[allow(clippy::float_cmp)]
pub mod summary;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::flow::seeds::Seeds;
use crate::jsonout::Json;
use crate::lint::{self, Report, Violation};
use crate::syntax::files;
use crate::syntax::source::SourceFile;

use resolve::{Resolution, Workspace};

/// The passes `cargo xtask graph` runs; scopes unused-waiver accounting.
pub const PASSES: &[&str] = &["summary", "reach"];

/// The complete result of analyzing one set of sources (no I/O — the ui
/// fixtures drive this directly).
#[derive(Debug)]
pub struct Analysis {
    /// The parsed workspace.
    pub ws: Workspace,
    /// Summaries, seed checks, derived facts/params.
    pub summary: summary::SummaryResult,
    /// Reachability + dead-pub report.
    pub reach: reach::ReachReport,
    /// All pre-waiver findings of both passes, sorted.
    pub findings: Vec<Violation>,
}

/// Runs the graph passes over already-parsed sources.
pub fn analyze(sources: &[SourceFile], seeds: &Seeds) -> Analysis {
    let ws = Workspace::build(sources);
    let summary = summary::compute(&ws, seeds, sources);
    let (reach_report, reach_violations) = reach::check(&ws, &summary.resolutions);
    let mut findings = summary.violations.clone();
    findings.extend(reach_violations);
    findings.sort_by(|a, b| (&a.path, a.line, a.pass).cmp(&(&b.path, b.line, b.pass)));
    Analysis {
        ws,
        summary,
        reach: reach_report,
        findings,
    }
}

/// Everything a `cargo xtask graph` run produced.
#[derive(Debug)]
pub struct GraphOutcome {
    /// Post-waiver violations in the shared diagnostic format.
    pub report: Report,
    /// The full analysis (feeds the report artifact).
    pub analysis: Analysis,
    /// Distinct caller→callee edges over unique resolutions.
    pub edges: usize,
    /// Call events by resolution kind.
    pub unique_calls: usize,
    /// Events resolving to several candidates.
    pub candidate_calls: usize,
    /// Events left external/unresolved.
    pub external_calls: usize,
}

impl GraphOutcome {
    /// Human-readable per-pass summary lines.
    pub fn summary(&self) -> String {
        let a = &self.analysis;
        let (confirmed, trusted, mismatched) = seed_verdict_counts(a);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "xtask graph [summary]: {} functions, {} edges ({} unique / {} candidate / {} external calls), {} SCCs (largest {}), {} derived param envelopes",
            a.ws.fns.len(),
            self.edges,
            self.unique_calls,
            self.candidate_calls,
            self.external_calls,
            a.summary.sccs.len(),
            a.summary.sccs.iter().map(Vec::len).max().unwrap_or(0),
            a.summary.oracle.params.len(),
        );
        let _ = writeln!(
            out,
            "xtask graph [seeds]: {} contract checks — {confirmed} confirmed, {trusted} trusted, {mismatched} mismatched",
            a.summary.seed_checks.len(),
        );
        let _ = write!(
            out,
            "xtask graph [reach]: {} roots reach {}/{} functions, {} dead pub",
            a.reach.roots,
            a.reach.reachable,
            a.ws.fns.len(),
            a.reach.dead_pub.len(),
        );
        out
    }
}

fn seed_verdict_counts(a: &Analysis) -> (usize, usize, usize) {
    let count = |v: &str| {
        a.summary
            .seed_checks
            .iter()
            .filter(|c| c.verdict == v)
            .count()
    };
    (count("confirmed"), count("trusted"), count("mismatch"))
}

/// Reads every workspace source file (crate sources, tests, benches,
/// examples) relative to `root`.
pub fn load_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let paths = files::collect_workspace_sources(root)?;
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = files::relative(root, path);
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push(SourceFile::parse(&rel, &text));
    }
    Ok(sources)
}

/// Runs the graph passes over the workspace rooted at `root`, with the
/// shared waiver machinery applied.
pub fn run(root: &Path) -> Result<GraphOutcome, String> {
    let seeds = Seeds::learn(root)?;
    let sources = load_sources(root)?;
    let files_scanned = sources.len();
    let analysis = analyze(&sources, &seeds);

    let mut report = Report {
        files_scanned,
        ..Report::default()
    };
    let mut by_file: BTreeMap<&str, Vec<Violation>> = BTreeMap::new();
    for v in &analysis.findings {
        by_file.entry(v.path.as_str()).or_default().push(v.clone());
    }
    for src in &sources {
        let findings = by_file.remove(src.path.as_str()).unwrap_or_default();
        lint::apply_file_waivers(src, findings, PASSES, &mut report);
    }
    // Findings against paths outside the scanned set (e.g. seed drift
    // anchored at the seeds file) cannot be waived inline.
    for (_, findings) in by_file {
        report.violations.extend(findings);
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));

    let mut edge_set: Vec<(usize, usize)> = Vec::new();
    let (mut unique_calls, mut candidate_calls, mut external_calls) = (0, 0, 0);
    for (i, rs) in analysis.summary.resolutions.iter().enumerate() {
        for r in rs {
            match r {
                Resolution::Unique(j) => {
                    unique_calls += 1;
                    edge_set.push((i, *j));
                }
                Resolution::Candidates(_) => candidate_calls += 1,
                Resolution::External => external_calls += 1,
            }
        }
    }
    edge_set.sort_unstable();
    edge_set.dedup();

    Ok(GraphOutcome {
        report,
        analysis,
        edges: edge_set.len(),
        unique_calls,
        candidate_calls,
        external_calls,
    })
}

/// Renders the whole run as the canonical report document.
pub fn report_json(outcome: &GraphOutcome) -> Json {
    let a = &outcome.analysis;
    let iv = |i: &crate::flow::interval::Interval| Json::str(format!("{i}"));
    let opt_iv = |i: &Option<crate::flow::interval::Interval>| i.as_ref().map_or(Json::Null, iv);

    let mut summaries = Vec::new();
    let mut order: Vec<usize> = (0..a.ws.fns.len()).collect();
    order.sort_by(|&x, &y| {
        let fx = &a.ws.fns[x];
        let fy = &a.ws.fns[y];
        (&a.ws.files[fx.file].path, fx.def.line).cmp(&(&a.ws.files[fy.file].path, fy.def.line))
    });
    for i in order {
        let f = &a.ws.fns[i];
        let s = &a.summary.summaries[i];
        summaries.push(Json::obj(vec![
            ("fn", Json::str(f.qname())),
            ("path", Json::str(&a.ws.files[f.file].path)),
            ("line", Json::int(f.def.line)),
            ("ret", opt_iv(&s.ret)),
            ("may_panic", Json::Bool(s.may_panic)),
            ("pure", Json::Bool(!s.impure)),
            ("mutates", Json::Bool(s.mutates)),
            ("fallible", Json::Bool(s.fallible)),
        ]));
    }

    let seed_checks: Vec<Json> = a
        .summary
        .seed_checks
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("contract", Json::str(&c.contract)),
                ("subject", Json::str(&c.subject)),
                ("path", Json::str(&c.path)),
                ("line", Json::int(c.line)),
                ("verdict", Json::str(c.verdict)),
                ("derived", opt_iv(&c.derived)),
                ("seed", opt_iv(&c.seed)),
            ])
        })
        .collect();

    let derived_params: BTreeMap<String, Json> = a
        .summary
        .oracle
        .params
        .iter()
        .map(|((path, line), env)| {
            let obj: BTreeMap<String, Json> = env.iter().map(|(k, v)| (k.clone(), iv(v))).collect();
            (format!("{path}:{line}"), Json::Obj(obj))
        })
        .collect();

    Json::obj(vec![
        ("generated_by", Json::str("cargo xtask graph")),
        (
            "call_graph",
            Json::obj(vec![
                ("functions", Json::int(a.ws.fns.len())),
                ("files", Json::int(a.ws.files.len())),
                ("edges", Json::int(outcome.edges)),
                ("unique_calls", Json::int(outcome.unique_calls)),
                ("candidate_calls", Json::int(outcome.candidate_calls)),
                ("external_calls", Json::int(outcome.external_calls)),
                ("scc_count", Json::int(a.summary.sccs.len())),
                (
                    "largest_scc",
                    Json::int(a.summary.sccs.iter().map(Vec::len).max().unwrap_or(0)),
                ),
            ]),
        ),
        ("summaries", Json::Arr(summaries)),
        ("seed_checks", Json::Arr(seed_checks)),
        ("derived_params", Json::Obj(derived_params)),
        (
            "reach",
            Json::obj(vec![
                ("roots", Json::int(a.reach.roots)),
                ("reachable", Json::int(a.reach.reachable)),
                ("functions", Json::int(a.ws.fns.len())),
                (
                    "dead_pub",
                    Json::Arr(a.reach.dead_pub.iter().map(Json::str).collect()),
                ),
            ]),
        ),
        ("violations", Json::int(outcome.report.violations.len())),
    ])
}

/// Serialises `outcome` to `results/graph_report.json` (canonical sorted-
/// key JSON). Returns the path written.
pub fn write_report(root: &Path, outcome: &GraphOutcome) -> Result<PathBuf, String> {
    let dir = root.join("results");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join("graph_report.json");
    fs::write(&path, report_json(outcome).render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
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

    /// The graph gate over the real workspace: clean, every seed contract
    /// cross-checked without mismatch, no dead `pub`.
    #[test]
    fn workspace_is_graph_clean() {
        let outcome = run(&workspace_root()).expect("graph runs");
        assert!(
            outcome.report.violations.is_empty(),
            "workspace must be graph-clean:\n{}",
            outcome
                .report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        let a = &outcome.analysis;
        assert!(
            !a.summary.seed_checks.is_empty(),
            "seed contracts must be checked"
        );
        assert!(
            a.summary
                .seed_checks
                .iter()
                .all(|c| c.verdict != "mismatch"),
            "no seed contract may mismatch its derived summary"
        );
        assert!(
            a.reach.dead_pub.is_empty(),
            "dead pub: {:?}",
            a.reach.dead_pub
        );
    }

    /// Satellite (b): rendering the report twice over two fresh runs
    /// produces identical bytes.
    #[test]
    fn report_is_byte_stable_across_runs() {
        let a = run(&workspace_root()).expect("graph runs");
        let b = run(&workspace_root()).expect("graph runs again");
        assert_eq!(report_json(&a).render(), report_json(&b).render());
    }
}
