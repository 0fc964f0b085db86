//! Golden pins for the committed chaos-campaign artifact
//! (`results/chaos_report.json`).
//!
//! The differential chaos harness is only useful if its scalars are
//! stable: a silent drift in PTP retention or detection latency means an
//! engine, controller or injection change altered fault behaviour without
//! anyone noticing. These tests pin the report digest and the canonical
//! Phoenix-AZ / MPPT&Opt retentions in `results/pins.json`, hold every
//! committed row to the campaign's soundness gates, and rerun every cell
//! to prove the committed bytes are exactly what the code computes.
//!
//! After an *intentional* behaviour change, regenerate with
//! `BLESS=1 cargo test -p bench --test chaos_golden`, the report's only
//! writer, then review the diff like any golden update. Blessing asserts
//! the soundness gates on the fresh rows and writes nothing when one fails.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bench::chaos::{load_scenarios, run_campaign, scenarios_dir};
use bench::output::Json;
use bench::pins::{assert_pins, assert_regenerates, Pins};

/// Absolute tolerance of the control rows' retention around 1.0.
const TOLERANCE: f64 = 1e-9;

fn report_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/chaos_report.json")
}

/// A fresh run of the campaign over the committed scenarios, rendered.
fn fresh_report() -> String {
    let scenarios = load_scenarios(&scenarios_dir()).expect("scenarios load");
    run_campaign(&scenarios)
        .expect("campaign runs")
        .to_json()
        .render()
}

/// The committed report's text, regenerated first under `BLESS=1` — once
/// per test binary, so sibling tests never read a half-written file. A
/// fresh report that fails the soundness gates is never written.
fn committed_text() -> String {
    static BLESSED: OnceLock<()> = OnceLock::new();
    if std::env::var_os("BLESS").is_some() {
        BLESSED.get_or_init(|| {
            let fresh = fresh_report();
            let parsed = Json::parse(&fresh).expect("fresh report parses");
            assert_rows_sound(&parsed);
            assert_controls_transparent(&parsed);
            std::fs::write(report_path(), fresh).expect("report written");
        });
    }
    std::fs::read_to_string(report_path()).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}; run with BLESS=1 to create it",
            report_path().display()
        )
    })
}

/// `scenario/site/policy`, naming a row in a failure message.
fn cell_name(row: &Json) -> String {
    let field = |key: &str| row[key].as_str().unwrap_or("?").to_owned();
    format!(
        "{}/{}/{}",
        field("scenario"),
        field("site"),
        field("policy")
    )
}

fn retention(row: &Json) -> f64 {
    row["ptp_retention"]
        .as_f64()
        .expect("retention is a number")
}

fn rows(report: &Json) -> &[Json] {
    report["rows"].as_array().expect("rows is an array")
}

/// The campaign's soundness gates over every row of `report`: each
/// retention is a sane ratio and nothing false-tripped.
fn assert_rows_sound(report: &Json) {
    for row in rows(report) {
        let cell = cell_name(row);
        let retention = retention(row);
        assert!(
            retention.is_finite() && retention >= 0.0,
            "{cell}: retention {retention} is not sane"
        );
        assert_eq!(
            row["false_trips"].as_u64(),
            Some(0),
            "{cell}: the campaign records a false trip"
        );
    }
}

/// The clean-control rows (an armed but empty plan) retain exactly the
/// clean day's PTP with no trip or reject.
fn assert_controls_transparent(report: &Json) {
    let controls: Vec<&Json> = rows(report)
        .iter()
        .filter(|r| r["scenario"].as_str() == Some("clean_control"))
        .collect();
    assert!(!controls.is_empty(), "campaign lost its control rows");
    for row in controls {
        let cell = cell_name(row);
        let retention = retention(row);
        assert!(
            (retention - 1.0).abs() < TOLERANCE,
            "{cell}: control retention {retention} is not exactly 1.0 — the \
             armed-empty plan is no longer bit-transparent"
        );
        assert_eq!(
            row["degrade_enters"].as_u64(),
            Some(0),
            "{cell}: control tripped"
        );
        assert_eq!(
            row["fault_rejects"].as_u64(),
            Some(0),
            "{cell}: control rejected"
        );
    }
}

/// The canonical Phoenix-AZ / MPPT&Opt rows of the faulted scenarios
/// keep the retention pinned under `chaos.<scenario>.ptp_retention`, and
/// every committed row passes the soundness gates.
#[test]
fn canonical_rows_match_pinned_scalars() {
    let report = Json::parse(&committed_text()).expect("report parses");
    let pins = Pins::committed().unwrap();
    assert_pins(
        ["stuck_noon", "converter_derate_ramp", "monsoon_cliff"].map(|scenario| {
            let row = rows(&report)
                .iter()
                .find(|r| {
                    r["scenario"].as_str() == Some(scenario)
                        && r["site"].as_str() == Some("AZ")
                        && r["policy"].as_str() == Some("MPPT&Opt")
                })
                .unwrap_or_else(|| panic!("no AZ/MPPT&Opt row for scenario {scenario}"));
            let key = format!("chaos.{scenario}.ptp_retention");
            pins.check_scalar(&key, retention(row), TOLERANCE)
        }),
    );
    assert_rows_sound(&report);
}

#[test]
fn control_rows_are_fully_transparent() {
    assert_controls_transparent(&Json::parse(&committed_text()).expect("report parses"));
}

#[test]
fn artifact_digest_is_pinned() {
    let report = Json::parse(&committed_text()).expect("report parses");
    let digest = report["digest"].as_str().expect("report has a digest");
    let digest = u64::from_str_radix(digest, 16).expect("digest is hex");
    assert_pins([Pins::committed()
        .unwrap()
        .check_digest("chaos_digest", digest)]);
}

/// One run of the committed scenarios renders the committed report byte
/// for byte — every row and the digest, with no carve-out.
#[test]
fn committed_report_regenerates_byte_for_byte() {
    assert_regenerates(
        "results/chaos_report.json",
        &committed_text(),
        &fresh_report(),
    );
}
