//! Chaos campaign runner (`cargo xtask chaos`).
//!
//! Sweeps every scenario under `scenarios/` across the campaign's
//! `site × policy` grid, printing a retention/latency table and enforcing
//! the campaign's soundness gates:
//!
//! 1. the clean-control rows (armed-but-empty plan) must retain ≥ 99.9 %
//!    of the clean day's PTP — in practice exactly 100 %, since a plan
//!    with nothing scheduled is bit-transparent;
//! 2. no row anywhere may false-trip the degradation FSM before its
//!    scenario's first fault onset;
//! 3. every retention ratio must be finite and non-negative.
//!
//! When every gate holds, the run rewrites `results/chaos_report.json`
//! (canonical row order + digest), the artifact `bench/tests/chaos_golden.rs`
//! pins; a failing run leaves the committed artifact untouched.
//! That tier-1 test also asserts all three gates over the committed rows.
//!
//! The run reports per-cell progress (completed/total cells, elapsed,
//! ETA) on stderr.

use std::path::Path;
use std::process::ExitCode;

use bench::campaign::WaveProgress;
use bench::chaos::{load_scenarios, report_digest, run_campaign, scenarios_dir, ChaosCell};
use bench::{write_json, TextTable};

/// Minimum PTP retention for the clean-control rows.
const CONTROL_RETENTION_FLOOR: f64 = 0.999;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("chaos: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-cell progress line (stderr, so report pipes stay clean).
fn progress_line(p: &WaveProgress) {
    let eta = p.eta_secs.map_or_else(|| "--".to_owned(), |s| format!("{s:.0}s"));
    eprintln!(
        "chaos: {}/{} cells done — {:.1}s elapsed, eta {eta}",
        p.done, p.total, p.elapsed_secs
    );
}

fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let scenarios = load_scenarios(&scenarios_dir())?;
    if scenarios.is_empty() {
        return Err("no scenarios found under scenarios/".into());
    }

    let report = run_campaign(&scenarios, Some(progress_line))?;
    let rows = &report.rows;

    let mut table = TextTable::new([
        "scenario",
        "site",
        "policy",
        "retention",
        "latency",
        "enters",
        "rejects",
        "false",
    ]);
    for r in rows {
        table.row([
            r.scenario.clone(),
            r.site.clone(),
            r.policy.clone(),
            format!("{:.4}", r.ptp_retention),
            r.detection_latency_minutes
                .map_or_else(|| "-".to_owned(), |m| format!("{m}m")),
            r.degrade_enters.to_string(),
            r.fault_rejects.to_string(),
            r.false_trips.to_string(),
        ]);
    }
    print!("{table}");
    println!(
        "chaos: digest {:016x} ({} cells)",
        report_digest(rows),
        rows.len()
    );

    // A run that fails its gates must not overwrite the committed artifact.
    if !gates_hold(rows) {
        return Ok(false);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = write_json(&dir, "chaos_report", &report.to_json())?;
    println!("chaos: wrote {}", path.display());
    Ok(true)
}

/// Applies the campaign soundness gates; prints every violation.
fn gates_hold(rows: &[ChaosCell]) -> bool {
    let mut ok = true;
    let mut control_rows = 0;
    for r in rows {
        let cell = format!("{}/{}/{}", r.scenario, r.site, r.policy);
        if !(r.ptp_retention.is_finite() && r.ptp_retention >= 0.0) {
            eprintln!(
                "chaos: FAIL — {cell}: retention {} is not sane",
                r.ptp_retention
            );
            ok = false;
        }
        if r.false_trips > 0 {
            eprintln!(
                "chaos: FAIL — {cell}: {} false degradation trip(s)",
                r.false_trips
            );
            ok = false;
        }
        if r.scenario == "clean_control" {
            control_rows += 1;
            if r.ptp_retention < CONTROL_RETENTION_FLOOR {
                eprintln!(
                    "chaos: FAIL — {cell}: control retention {:.6} below {CONTROL_RETENTION_FLOOR}",
                    r.ptp_retention
                );
                ok = false;
            }
            if r.degrade_enters > 0 {
                eprintln!("chaos: FAIL — {cell}: control run tripped degradation");
                ok = false;
            }
        }
    }
    if control_rows == 0 {
        eprintln!("chaos: FAIL — no clean_control rows in the campaign");
        ok = false;
    }
    if ok {
        println!(
            "chaos: OK — control transparent, zero false trips across {} cells",
            rows.len()
        );
    }
    ok
}
