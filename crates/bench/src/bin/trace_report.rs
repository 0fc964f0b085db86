//! `cargo xtask trace`: golden-day telemetry report.
//!
//! Runs the Golden CO / Jan / HM2 / MPPT&Opt day with a JSONL sink
//! attached, renders the per-period tracking timeline, and cross-checks
//! the stream's recomputed tracking-error aggregate against the committed
//! Table 7 artifact (`results/tab07_tracking_error.json`) to within 1e-9.
//! Exit status is non-zero on any divergence, so CI can gate on it. The
//! committed stream, `results/telemetry_golden_co_jan_hm2.jsonl`, is
//! written only by `BLESS=1 cargo test -p bench --test telemetry_schema`.

use std::fs;
use std::process::ExitCode;

use bench::trace_report::{golden_tab07_cell, render, run_golden_day, GOLDEN_TOLERANCE};

fn main() -> ExitCode {
    let report = run_golden_day();
    print!("{}", render(&report));

    let mut ok = true;

    // The stream replay must agree with the engine's own aggregate and
    // with the day_summary record bit-for-bit.
    if report.stream_tracking_error.to_bits() != report.result_tracking_error.to_bits() {
        eprintln!(
            "trace: FAIL — stream replay {} != DayResult {}",
            report.stream_tracking_error, report.result_tracking_error
        );
        ok = false;
    }
    if report.summary_tracking_error.to_bits() != report.result_tracking_error.to_bits() {
        eprintln!(
            "trace: FAIL — day_summary {} != DayResult {}",
            report.summary_tracking_error, report.result_tracking_error
        );
        ok = false;
    }

    // Cross-check against the committed Table 7 artifact (geometric mean
    // over one day ⇒ agreement to float-transcendental noise, << 1e-9).
    match fs::read_to_string("results/tab07_tracking_error.json") {
        Ok(json) => {
            let golden = golden_tab07_cell(&json);
            let delta = (report.stream_tracking_error - golden).abs();
            if delta <= GOLDEN_TOLERANCE {
                println!(
                    "  tab07 cross-check: |{} - {golden}| = {delta:.3e} <= {GOLDEN_TOLERANCE:.0e}",
                    report.stream_tracking_error
                );
            } else {
                eprintln!(
                    "trace: FAIL — stream error {} vs tab07 {golden} (delta {delta:.3e})",
                    report.stream_tracking_error
                );
                ok = false;
            }
        }
        Err(err) => {
            eprintln!("trace: FAIL — cannot read results/tab07_tracking_error.json: {err}");
            ok = false;
        }
    }

    if ok {
        println!("trace: OK — stream reproduces the paper metric");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
