//! Artifact diff CLI (`cargo xtask tdiff <a> <b>`).
//!
//! Loads two JSON artifacts, detects their kind from shape (campaign
//! report or raw metric fold), and compares them schema-aware via
//! [`bench::tdiff::diff_artifacts`]: counters by relative delta,
//! histograms by their p50/p90/p99 quantile profile.
//!
//! Prints every finding as a table and exits non-zero when any finding
//! crossed a regression threshold, so a before/after comparison can gate
//! a re-bless. The tier-1 suite checks that the committed campaign report
//! diffs clean against itself (`campaign_golden.rs`).

use std::error::Error;
use std::process::ExitCode;

use bench::tdiff::{diff_artifacts, Finding};
use bench::TextTable;
use bench::output::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: tdiff <a.json> <b.json>");
        return ExitCode::FAILURE;
    };
    match drive(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tdiff: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Json, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "-".to_owned()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn drive(a_path: &str, b_path: &str) -> Result<bool, Box<dyn Error>> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let report = diff_artifacts(&a, &b)?;

    if report.findings.is_empty() {
        println!(
            "tdiff: {} artifacts identical across {} comparisons",
            report.kind, report.compared
        );
        return Ok(true);
    }

    let mut table = TextTable::new(["metric", "a", "b", "status", "note"]);
    for Finding { metric, a, b, regression, note } in &report.findings {
        table.row([
            metric.clone(),
            fmt_value(*a),
            fmt_value(*b),
            if *regression { "REGRESSION" } else { "drift" }.to_owned(),
            note.clone(),
        ]);
    }
    print!("{table}");
    let regressions = report.regressions();
    println!(
        "tdiff: {} artifacts — {} comparisons, {} findings, {} regressions",
        report.kind,
        report.compared,
        report.findings.len(),
        regressions
    );
    Ok(regressions == 0)
}
