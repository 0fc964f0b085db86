//! Golden pins for the committed chaos-campaign artifact
//! (`results/chaos_report.json`).
//!
//! The differential chaos harness is only useful if its scalars are
//! stable: a silent drift in PTP retention or detection latency means an
//! engine, controller or injection change altered fault behaviour without
//! anyone noticing. These tests pin the canonical Phoenix-AZ / MPPT&Opt
//! rows of three scenarios plus the clean control to the committed
//! artifact, and recompute one cell from scratch to prove the artifact
//! still matches the code.
//!
//! After an *intentional* behaviour change, regenerate with either
//! `BLESS=1 cargo test -p bench --test chaos_golden` or the faster
//! `cargo run --release -p bench --bin chaos_check`, then review the
//! diff like any golden update.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bench::chaos::{load_scenarios, run_campaign, run_cell, scenarios_dir};
use bench::output::Json;
use bench::write_json;
use solarcore::Policy;

/// Absolute scalar tolerance — the artifact stores full-precision f64s,
/// so anything beyond rounding noise is a real divergence.
const TOLERANCE: f64 = 1e-9;

/// Committed campaign rows this test pins, as
/// `(scenario, retention, latency, degrade_enters)` for Phoenix-AZ under
/// MPPT&Opt. Latency `None` means the detector (correctly) never fired.
const PINNED: [(&str, f64, Option<u64>, u64); 4] = [
    ("clean_control", 1.0, None, 0),
    ("stuck_noon", 0.982_896_491_602_303, Some(1), 1),
    ("converter_derate_ramp", 0.838_451_170_630_942_8, None, 0),
    ("monsoon_cliff", 0.827_393_298_268_750_3, None, 0),
];

fn report_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/chaos_report.json")
}

/// Loads the committed report, regenerating it first under `BLESS=1` —
/// once per test binary, so sibling tests never read a half-written file.
fn load_report() -> Json {
    static BLESSED: OnceLock<()> = OnceLock::new();
    if std::env::var_os("BLESS").is_some() {
        BLESSED.get_or_init(|| {
            let scenarios = load_scenarios(&scenarios_dir()).expect("scenarios load");
            let report = run_campaign(&scenarios, None).expect("campaign runs");
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
            write_json(&dir, "chaos_report", &report.to_json()).expect("report written");
        });
    }
    let raw = std::fs::read_to_string(report_path()).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}; run with BLESS=1 (or `cargo run --release -p bench \
             --bin chaos_check`) to create it",
            report_path().display()
        )
    });
    Json::parse(&raw).expect("report parses")
}

/// The AZ / MPPT&Opt row for `scenario`, or a panic naming what's absent.
fn canonical_row<'a>(report: &'a Json, scenario: &str) -> &'a Json {
    report["rows"]
        .as_array()
        .expect("rows is an array")
        .iter()
        .find(|r| {
            r["scenario"].as_str() == Some(scenario)
                && r["site"].as_str() == Some("AZ")
                && r["policy"].as_str() == Some("MPPT&Opt")
        })
        .unwrap_or_else(|| panic!("no AZ/MPPT&Opt row for scenario {scenario}"))
}

#[test]
fn canonical_rows_match_pinned_scalars() {
    let report = load_report();
    for (scenario, retention, latency, enters) in PINNED {
        let row = canonical_row(&report, scenario);
        let got = row["ptp_retention"]
            .as_f64()
            .expect("retention is a number");
        assert!(
            (got - retention).abs() < TOLERANCE,
            "{scenario}: retention {got} drifted from pinned {retention}"
        );
        assert_eq!(
            row["detection_latency_minutes"].as_u64(),
            latency,
            "{scenario}: detection latency drifted"
        );
        assert_eq!(
            row["degrade_enters"].as_u64(),
            Some(enters),
            "{scenario}: degrade-enter count drifted"
        );
    }

    // The campaign's soundness gates hold on every committed row: each
    // retention is a sane ratio and nothing false-tripped.
    for row in report["rows"].as_array().expect("rows is an array") {
        let field = |key: &str| row[key].as_str().unwrap_or("?").to_owned();
        let cell = format!(
            "{}/{}/{}",
            field("scenario"),
            field("site"),
            field("policy")
        );
        let retention = row["ptp_retention"]
            .as_f64()
            .expect("retention is a number");
        assert!(
            retention.is_finite() && retention >= 0.0,
            "{cell}: retention {retention} is not sane"
        );
        assert_eq!(
            row["false_trips"].as_u64(),
            Some(0),
            "{cell}: committed artifact records a false trip"
        );
    }
}

#[test]
fn control_rows_are_fully_transparent() {
    let report = load_report();
    let rows = report["rows"].as_array().expect("rows is an array");
    let controls: Vec<_> = rows
        .iter()
        .filter(|r| r["scenario"].as_str() == Some("clean_control"))
        .collect();
    assert!(!controls.is_empty(), "campaign lost its control rows");
    for row in controls {
        let retention = row["ptp_retention"]
            .as_f64()
            .expect("retention is a number");
        assert!(
            (retention - 1.0).abs() < TOLERANCE,
            "control retention {retention} is not exactly 1.0 — the armed-empty \
             plan is no longer bit-transparent"
        );
        assert_eq!(row["degrade_enters"].as_u64(), Some(0));
        assert_eq!(row["fault_rejects"].as_u64(), Some(0));
    }
}

#[test]
fn artifact_digest_is_pinned() {
    let report = load_report();
    assert_eq!(
        report["digest"].as_str(),
        Some("e1fd4595e9a2fb37"),
        "chaos report digest drifted — regenerate deliberately and re-pin"
    );
    assert_eq!(
        report["rows"].as_array().map(Vec::len),
        Some(24),
        "campaign cell count changed"
    );
}

/// Recomputes the stuck-sensor cell from the committed scenario file and
/// checks it against the committed artifact — proving the artifact still
/// matches the code, not just itself.
#[test]
fn recomputed_cell_matches_committed_artifact() {
    let scenarios = load_scenarios(&scenarios_dir()).expect("scenarios load");
    let stuck = scenarios
        .iter()
        .find(|s| s.plan.name() == "stuck_noon")
        .expect("canonical scenario present");
    let cell = run_cell(stuck, "AZ", Policy::MpptOpt).expect("cell runs");

    let report = load_report();
    let row = canonical_row(&report, "stuck_noon");
    let committed = row["ptp_retention"]
        .as_f64()
        .expect("retention is a number");
    assert!(
        (cell.ptp_retention - committed).abs() < TOLERANCE,
        "recomputed retention {} diverges from committed {committed}",
        cell.ptp_retention
    );
    assert_eq!(
        Some(cell.detection_latency_minutes),
        Some(row["detection_latency_minutes"].as_u64()),
        "recomputed detection latency diverges from committed"
    );
    assert_eq!(cell.false_trips, 0, "recomputed cell false-tripped");
}
