//! Run-comparison engine (`cargo xtask tdiff <a> <b>`).
//!
//! Diffs two committed artifacts **schema-aware** instead of textually:
//! counters compare by relative delta, histograms by their quantile
//! profile ([`telemetry::quantile_from_buckets`] over the artifact's own
//! bucket edges). Two artifact kinds are recognized by shape:
//!
//! | kind | detected by | examples |
//! |---|---|---|
//! | `campaign` | top-level `aggregate` | `results/campaign_report.json` |
//! | `fold` | top-level `histograms` | a serialized [`MetricFold`](telemetry::MetricFold) |
//!
//! Artifacts hold no wall time, so nothing here compares it; perfbench
//! measures time (DESIGN.md §19).
//!
//! A **finding** is any observed difference; a finding is a **regression**
//! when it crosses the thresholds below in the worsening direction (more
//! work, fatter distribution tail). Diffing an artifact against
//! itself yields zero findings — `cargo xtask ci` runs exactly that
//! self-check against the committed campaign report.

use std::collections::BTreeMap;

use telemetry::quantile_from_buckets;

use crate::output::Json;

/// Relative counter/tally growth tolerated before a difference counts as
/// a regression (deterministic counters should not move at all; 1% allows
/// intentional small re-tunes to pass with a finding, not a failure).
pub const COUNTER_REL_TOLERANCE: f64 = 0.01;

/// Relative growth of a histogram quantile (p50/p90/p99), count or sum
/// tolerated before the distribution counts as regressed.
pub const QUANTILE_SHIFT_TOLERANCE: f64 = 0.10;

/// One observed difference between the two artifacts.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What differed, as a path (`counter/pv_evals`, `hist/newton_iters/p99`).
    pub metric: String,
    /// The value in artifact `a` (NaN when absent).
    pub a: f64,
    /// The value in artifact `b` (NaN when absent).
    pub b: f64,
    /// `true` when the difference crosses a regression threshold in the
    /// worsening direction.
    pub regression: bool,
    /// Human-readable qualifier (threshold crossed, side missing, …).
    pub note: String,
}

/// The result of one artifact comparison.
#[derive(Debug, Default)]
pub struct TdiffReport {
    /// Detected artifact kind (`campaign`, `fold`).
    pub kind: String,
    /// Number of individual metric comparisons performed.
    pub compared: usize,
    /// Every observed difference, in comparison order.
    pub findings: Vec<Finding>,
}

impl TdiffReport {
    /// Number of findings that crossed a regression threshold.
    pub fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| f.regression).count()
    }
}

/// Detects the artifact kind from its top-level shape.
fn detect_kind(v: &Json) -> Option<&'static str> {
    if v.get("aggregate").is_some() {
        Some("campaign")
    } else if v.get("histograms").is_some() {
        Some("fold")
    } else {
        None
    }
}

/// Diffs two parsed artifacts of the same kind.
///
/// # Errors
///
/// Unrecognized artifact shapes, or two artifacts of different kinds.
pub fn diff_artifacts(a: &Json, b: &Json) -> Result<TdiffReport, String> {
    let kind_a = detect_kind(a).ok_or_else(|| {
        "unrecognized artifact shape (expected a campaign report or metric fold)".to_owned()
    })?;
    let kind_b = detect_kind(b).ok_or_else(|| "unrecognized artifact shape in `b`".to_owned())?;
    if kind_a != kind_b {
        return Err(format!("artifact kinds differ: `{kind_a}` vs `{kind_b}`"));
    }
    let mut report = TdiffReport {
        kind: kind_a.to_owned(),
        ..TdiffReport::default()
    };
    if kind_a == "campaign" {
        diff_scalar_int(&mut report, "shards", a.get("shards"), b.get("shards"));
        diff_digest(&mut report, a.get("digest"), b.get("digest"));
        let empty = Json::Null;
        diff_fold(
            &mut report,
            a.get("aggregate").unwrap_or(&empty),
            b.get("aggregate").unwrap_or(&empty),
        );
    } else {
        diff_fold(&mut report, a, b);
    }
    Ok(report)
}

fn rel_delta(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

fn diff_scalar_int(report: &mut TdiffReport, name: &str, a: Option<&Json>, b: Option<&Json>) {
    report.compared += 1;
    let a = a.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let b = b.and_then(Json::as_f64).unwrap_or(f64::NAN);
    #[allow(clippy::float_cmp)] // exact equality is the "no finding" case
    if a != b && !(a.is_nan() && b.is_nan()) {
        report.findings.push(Finding {
            metric: name.to_owned(),
            a,
            b,
            regression: true,
            note: "scalar mismatch".to_owned(),
        });
    }
}

fn diff_digest(report: &mut TdiffReport, a: Option<&Json>, b: Option<&Json>) {
    report.compared += 1;
    let a = a.and_then(Json::as_str).unwrap_or("");
    let b = b.and_then(Json::as_str).unwrap_or("");
    if a != b {
        report.findings.push(Finding {
            metric: "digest".to_owned(),
            a: f64::NAN,
            b: f64::NAN,
            regression: false,
            note: format!("digests differ ({a} vs {b}) — different simulated results"),
        });
    }
}

/// Indexes a `[{"name": ..., ...}]` array by its `name` field.
fn by_name(v: Option<&Json>) -> BTreeMap<String, &Json> {
    v.and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|item| {
                    item.get("name")
                        .and_then(Json::as_str)
                        .map(|n| (n.to_owned(), item))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compares one numeric field across the union of two name-indexed maps.
fn diff_named_field(
    report: &mut TdiffReport,
    prefix: &str,
    field: &str,
    a: &BTreeMap<String, &Json>,
    b: &BTreeMap<String, &Json>,
    tolerance: f64,
) {
    let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        report.compared += 1;
        let metric = format!("{prefix}/{name}/{field}");
        match (a.get(name), b.get(name)) {
            (Some(av), Some(bv)) => {
                let av = av.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let bv = bv.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN);
                #[allow(clippy::float_cmp)] // exact equality is the "no finding" case
                if av != bv && !(av.is_nan() && bv.is_nan()) {
                    let delta = rel_delta(av, bv);
                    report.findings.push(Finding {
                        metric,
                        a: av,
                        b: bv,
                        regression: delta > tolerance,
                        note: format!("{:+.2}% (tolerance {:.0}%)", delta * 100.0, tolerance * 100.0),
                    });
                }
            }
            (Some(_), None) | (None, Some(_)) => {
                let missing = if a.contains_key(name) { "b" } else { "a" };
                report.findings.push(Finding {
                    metric,
                    a: f64::NAN,
                    b: f64::NAN,
                    regression: true,
                    note: format!("metric missing from `{missing}`"),
                });
            }
            (None, None) => {}
        }
    }
}

/// Extracts `(bounds, counts)` from a serialized histogram entry.
fn hist_buckets(v: &Json) -> Option<(Vec<u64>, Vec<u64>)> {
    let list = |key: &str| -> Option<Vec<u64>> {
        v.get(key)?
            .as_array()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<u64>>>()
    };
    Some((list("bounds")?, list("counts")?))
}

/// Compares two serialized folds: counters and tallies by relative delta,
/// histograms by count/sum and by their p50/p90/p99 quantile profile.
fn diff_fold(report: &mut TdiffReport, a: &Json, b: &Json) {
    let (ca, cb) = (by_name(a.get("counters")), by_name(b.get("counters")));
    diff_named_field(report, "counter", "value", &ca, &cb, COUNTER_REL_TOLERANCE);
    let (ta, tb) = (by_name(a.get("tallies")), by_name(b.get("tallies")));
    diff_named_field(report, "tally", "n", &ta, &tb, COUNTER_REL_TOLERANCE);

    let (ha, hb) = (by_name(a.get("histograms")), by_name(b.get("histograms")));
    for field in ["count", "sum"] {
        diff_named_field(report, "hist", field, &ha, &hb, QUANTILE_SHIFT_TOLERANCE);
    }
    let names: std::collections::BTreeSet<&String> = ha.keys().chain(hb.keys()).collect();
    for name in names {
        let (Some(av), Some(bv)) = (ha.get(name), hb.get(name)) else {
            // The missing side was already reported by the field passes.
            continue;
        };
        let (Some((bounds_a, counts_a)), Some((bounds_b, counts_b))) =
            (hist_buckets(av), hist_buckets(bv))
        else {
            continue;
        };
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            report.compared += 1;
            let qa = quantile_from_buckets(&bounds_a, &counts_a, q);
            let qb = quantile_from_buckets(&bounds_b, &counts_b, q);
            if qa != qb {
                #[allow(clippy::cast_precision_loss)] // bucket edges are small
                let (fa, fb) = (
                    qa.map_or(f64::NAN, |v| v as f64),
                    qb.map_or(f64::NAN, |v| v as f64),
                );
                let delta = rel_delta(fa, fb);
                report.findings.push(Finding {
                    metric: format!("hist/{name}/{label}"),
                    a: fa,
                    b: fb,
                    regression: delta > QUANTILE_SHIFT_TOLERANCE,
                    note: format!("quantile shifted {:+.1}%", delta * 100.0),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold_doc(pv_evals: u64, p99_bucket: u64) -> Json {
        Json::parse(&format!(
            r#"{{
              "histograms": [
                {{"name": "newton_iters", "bounds": [1, 2, 4, 8], "counts": [90, 5, 4, 0, 1],
                  "count": 100, "sum": 150, "max": {p99_bucket}}}
              ],
              "counters": [{{"name": "pv_evals", "value": {pv_evals}}}],
              "tallies": [{{"name": "minute", "n": 601}}]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn self_diff_is_clean() {
        let doc = fold_doc(1000, 9);
        let report = diff_artifacts(&doc, &doc).unwrap();
        assert_eq!(report.kind, "fold");
        assert!(report.compared > 0);
        assert!(report.findings.is_empty());
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn counter_growth_beyond_tolerance_regresses() {
        let a = fold_doc(1000, 9);
        let drift = diff_artifacts(&a, &fold_doc(1005, 9)).unwrap();
        assert_eq!(drift.regressions(), 0, "0.5% growth is a finding, not a regression");
        assert_eq!(drift.findings.len(), 1);
        let regress = diff_artifacts(&a, &fold_doc(1200, 9)).unwrap();
        assert_eq!(regress.regressions(), 1);
        let improve = diff_artifacts(&a, &fold_doc(800, 9)).unwrap();
        assert_eq!(improve.regressions(), 0, "shrinking counters never regress");
        assert_eq!(improve.findings.len(), 1);
    }

    #[test]
    fn quantile_shift_is_detected_from_buckets() {
        let a = Json::parse(
            r#"{"histograms": [{"name": "h", "bounds": [1, 2, 4, 8], "counts": [90, 9, 1, 0, 0],
                "count": 100, "sum": 120, "max": 4}], "counters": [], "tallies": []}"#,
        )
        .unwrap();
        // Same count/sum… but the tail fattened: p99 moves from 2 to 8.
        let b = Json::parse(
            r#"{"histograms": [{"name": "h", "bounds": [1, 2, 4, 8], "counts": [90, 8, 0, 2, 0],
                "count": 100, "sum": 120, "max": 8}], "counters": [], "tallies": []}"#,
        )
        .unwrap();
        let report = diff_artifacts(&a, &b).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.metric == "hist/h/p99" && f.regression));
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let a = fold_doc(1000, 9);
        let b = Json::parse(
            r#"{"histograms": [], "counters": [], "tallies": [{"name": "minute", "n": 601}]}"#,
        )
        .unwrap();
        let report = diff_artifacts(&a, &b).unwrap();
        assert!(report.regressions() >= 2, "counter and histogram both vanished");
    }

    #[test]
    fn kind_mismatch_and_unknown_shapes_error() {
        let fold = fold_doc(1, 1);
        let campaign = Json::parse(r#"{"aggregate": {}}"#).unwrap();
        assert!(diff_artifacts(&fold, &campaign).is_err());
        let junk = Json::parse(r#"{"x": 1}"#).unwrap();
        assert!(diff_artifacts(&junk, &junk).is_err());
    }
}
