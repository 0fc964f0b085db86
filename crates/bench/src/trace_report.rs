//! The `cargo xtask trace` report: run the golden telemetry day, replay
//! the JSONL stream, and render a per-period MPPT tracking timeline.
//!
//! The golden day is **Golden CO, January, mix HM2, MPPT&Opt, day 0** —
//! the same cell Table 7 reports — so the stream's recomputed
//! tracking-error aggregate can be cross-checked against the committed
//! `results/tab07_tracking_error.json` artifact. The recomputation uses
//! *only* the JSONL minute events (never the in-process `DayResult`),
//! proving the stream alone carries enough to reproduce the paper metric:
//! JSONL floats are shortest-round-trip encoded, so the replayed values
//! are bit-identical to the simulated ones.

use std::cell::RefCell;
use std::rc::Rc;

use solarcore::{schema, DaySimulation, Policy};
use solarenv::{Season, Site};
use telemetry::{JsonlSink, Telemetry};
use workloads::Mix;

use crate::output::Json;

/// Budget floor below which minutes do not qualify for the tracking-error
/// aggregate; mirrors the engine's `ERROR_FLOOR_W`.
const ERROR_FLOOR_W: f64 = 5.0;

/// Timeline bucket width, simulation minutes.
pub const PERIOD_MINUTES: u32 = 30;

/// Tolerance for the stream-vs-artifact tracking-error cross-check.
pub const GOLDEN_TOLERANCE: f64 = 1e-9;

/// One minute event replayed from the stream.
#[derive(Debug, Clone, Copy)]
struct MinuteSample {
    minute: u32,
    budget_w: f64,
    drawn_w: f64,
    chip_capacity_w: f64,
    solar: bool,
}

/// Aggregates of one [`PERIOD_MINUTES`]-wide timeline bucket.
#[derive(Debug, Clone, Copy)]
pub struct PeriodSummary {
    /// First minute-of-day covered by the bucket.
    pub start_minute: u32,
    /// Minutes observed in the bucket.
    pub minutes: usize,
    /// Minutes spent on solar power.
    pub solar_minutes: usize,
    /// Mean solar budget over the bucket, watts.
    pub mean_budget_w: f64,
    /// Mean power drawn over the bucket, watts.
    pub mean_drawn_w: f64,
    /// Mean relative tracking error over qualifying minutes (0 if none).
    pub mean_error: f64,
    /// Minutes that qualified for the error aggregate.
    pub qualifying: usize,
}

/// Everything `cargo xtask trace` prints and checks.
#[derive(Debug)]
pub struct TraceReport {
    /// The raw JSONL stream of the golden day.
    pub stream: String,
    /// Timeline buckets in minute order.
    pub periods: Vec<PeriodSummary>,
    /// Day-level tracking error recomputed from minute events alone.
    pub stream_tracking_error: f64,
    /// The `day_summary` event's `tracking_error` field.
    pub summary_tracking_error: f64,
    /// Tracking error reported by the in-process [`solarcore::DayResult`].
    pub result_tracking_error: f64,
}

/// Runs the golden day with a JSONL sink attached and replays the stream.
///
/// # Panics
///
/// Panics if the simulation or the stream replay fails — this is harness
/// code whose only caller is the `trace_report` binary and the test suite.
pub fn run_golden_day() -> TraceReport {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let result = DaySimulation::builder()
        .site(Site::golden_co())
        .season(Season::Jan)
        .day(0)
        .mix(Mix::hm2())
        .policy(Policy::MpptOpt)
        .telemetry(Telemetry::attached(sink.clone()))
        .build()
        .expect("golden day config is valid")
        .run()
        .expect("golden day runs");
    let stream = sink.borrow().buffer().to_string();
    replay(stream, result.mean_tracking_error())
}

/// Builds a [`TraceReport`] from a stream (and the in-process error for
/// cross-checking).
fn replay(stream: String, result_tracking_error: f64) -> TraceReport {
    let mut samples = Vec::new();
    let mut summary_tracking_error = f64::NAN;
    for line in stream.lines() {
        let v = Json::parse(line).expect("stream line is valid JSON");
        let name = v["name"].as_str().unwrap_or_default();
        let is_event = v["t"].as_str() == Some("event");
        if is_event && name == schema::EVENT_MINUTE {
            let fields = &v["fields"];
            samples.push(MinuteSample {
                minute: u32::try_from(v["minute"].as_u64().expect("minute stamp"))
                    .expect("minute fits u32"),
                budget_w: fields[schema::BUDGET_W].as_f64().expect("budget_w"),
                drawn_w: fields[schema::DRAWN_W].as_f64().expect("drawn_w"),
                chip_capacity_w: fields[schema::CHIP_CAPACITY_W]
                    .as_f64()
                    .expect("chip_capacity_w"),
                solar: fields[schema::SOURCE].as_str() == Some("solar"),
            });
        } else if is_event && name == schema::EVENT_DAY_SUMMARY {
            summary_tracking_error = v["fields"][schema::TRACKING_ERROR]
                .as_f64()
                .expect("tracking_error");
        }
    }

    TraceReport {
        periods: periods(&samples),
        stream_tracking_error: tracking_error(&samples),
        summary_tracking_error,
        result_tracking_error,
        stream,
    }
}

/// The engine's tracking-error aggregate, recomputed from replayed minute
/// events with the same expression order as
/// [`solarcore::DayResult::mean_tracking_error`].
fn tracking_error(samples: &[MinuteSample]) -> f64 {
    let errors: Vec<f64> = samples
        .iter()
        .filter(|s| s.solar && s.budget_w > ERROR_FLOOR_W)
        .map(|s| {
            let achievable = s.budget_w.min(s.chip_capacity_w).max(ERROR_FLOOR_W);
            (achievable - s.drawn_w).abs() / achievable
        })
        .collect();
    solarcore::metrics::mean(&errors)
}

fn periods(samples: &[MinuteSample]) -> Vec<PeriodSummary> {
    let mut out: Vec<PeriodSummary> = Vec::new();
    for s in samples {
        let start = s.minute / PERIOD_MINUTES * PERIOD_MINUTES;
        if out.last().map(|p| p.start_minute) != Some(start) {
            out.push(PeriodSummary {
                start_minute: start,
                minutes: 0,
                solar_minutes: 0,
                mean_budget_w: 0.0,
                mean_drawn_w: 0.0,
                mean_error: 0.0,
                qualifying: 0,
            });
        }
        let p = out.last_mut().expect("just pushed");
        // Accumulate sums first; normalized to means below.
        p.minutes += 1;
        p.solar_minutes += usize::from(s.solar);
        p.mean_budget_w += s.budget_w;
        p.mean_drawn_w += s.drawn_w;
        if s.solar && s.budget_w > ERROR_FLOOR_W {
            let achievable = s.budget_w.min(s.chip_capacity_w).max(ERROR_FLOOR_W);
            p.mean_error += (achievable - s.drawn_w).abs() / achievable;
            p.qualifying += 1;
        }
    }
    for p in &mut out {
        let n = p.minutes as f64;
        p.mean_budget_w /= n;
        p.mean_drawn_w /= n;
        if p.qualifying > 0 {
            p.mean_error /= p.qualifying as f64;
        }
    }
    out
}

/// A period is anomalous when its tracking error is far off the day's
/// aggregate: > 3x the day mean and above an absolute floor of 5 %.
pub fn is_anomalous(period: &PeriodSummary, day_error: f64) -> bool {
    period.qualifying > 0 && period.mean_error > (3.0 * day_error).max(0.05)
}

/// Renders the human-readable timeline.
pub fn render(report: &TraceReport) -> String {
    use std::fmt::Write;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden telemetry day: Golden CO / Jan / HM2 / MPPT&Opt / day 0"
    );
    let _ = writeln!(
        out,
        "stream: {} records, {} minute events",
        report.stream.lines().count(),
        report.periods.iter().map(|p| p.minutes).sum::<usize>(),
    );
    let _ = writeln!(
        out,
        "\n  period       budget_w   drawn_w   track_err  timeline"
    );
    for p in &report.periods {
        let (h, m) = (p.start_minute / 60, p.start_minute % 60);
        let bar_len = (p.mean_error * 100.0).round().clamp(0.0, 40.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bar = "#".repeat(bar_len as usize);
        let flag = if is_anomalous(p, report.stream_tracking_error) {
            "  << ANOMALY"
        } else if p.solar_minutes == 0 {
            "  (utility)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  {h:02}:{m:02}       {:>8.2}  {:>8.2}   {:>8.4}  {bar}{flag}",
            p.mean_budget_w, p.mean_drawn_w, p.mean_error,
        );
    }
    let _ = writeln!(
        out,
        "\n  tracking error: stream replay {:.12}  day_summary {:.12}",
        report.stream_tracking_error, report.summary_tracking_error,
    );
    out
}

/// Reads the `(CO, Jan, HM2)` cell of the committed Table 7 artifact.
///
/// # Panics
///
/// Panics if the artifact is missing or malformed (harness code).
pub fn golden_tab07_cell(json: &str) -> f64 {
    let v = Json::parse(json).expect("tab07 artifact parses");
    let mixes = v["mixes"].as_array().expect("mixes array");
    let idx = mixes
        .iter()
        .position(|m| m.as_str() == Some("HM2"))
        .expect("HM2 in the mix list");
    let rows = v["rows"].as_array().expect("rows array");
    let row = rows
        .iter()
        .find(|r| r[0].as_str() == Some("CO") && r[1].as_str() == Some("Jan"))
        .expect("CO/Jan row");
    row[2][idx].as_f64().expect("tracking-error cell")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_day_stream_reproduces_the_day_result_error() {
        let report = run_golden_day();
        // The stream alone must reproduce the engine's aggregate exactly:
        // replayed floats are bit-identical and the fold order matches.
        assert_eq!(
            report.stream_tracking_error.to_bits(),
            report.result_tracking_error.to_bits(),
            "stream replay diverged from DayResult::mean_tracking_error"
        );
        assert_eq!(
            report.summary_tracking_error.to_bits(),
            report.result_tracking_error.to_bits(),
        );
        assert!(!report.periods.is_empty());
        let rendered = render(&report);
        assert!(rendered.contains("tracking error"));
    }

    #[test]
    fn tab07_cell_lookup_reads_the_hm2_column() {
        let json = r#"{
            "mixes": ["H1", "HM2"],
            "rows": [["AZ", "Jan", [0.5, 0.6]], ["CO", "Jan", [0.1, 0.2]]]
        }"#;
        assert_eq!(golden_tab07_cell(json), 0.2);
    }

    #[test]
    fn anomaly_flags_trip_on_large_period_errors() {
        let p = PeriodSummary {
            start_minute: 450,
            minutes: 30,
            solar_minutes: 30,
            mean_budget_w: 100.0,
            mean_drawn_w: 50.0,
            mean_error: 0.5,
            qualifying: 30,
        };
        assert!(is_anomalous(&p, 0.1));
        assert!(!is_anomalous(&p, 0.4));
    }
}
