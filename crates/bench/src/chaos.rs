//! Differential chaos campaign: every fault scenario under `scenarios/`
//! is run against a clean twin of the same day, and the report records how
//! much performance-time product (PTP) the hardened controller retained,
//! how fast the fault was detected, and whether anything false-tripped.
//!
//! The campaign sweeps `scenario × site × policy`. A scenario's `site`
//! hint pins it to that site (the monsoon cliff is an Arizona story);
//! unhinted scenarios run at every campaign site. Each cell runs the day
//! twice — once disarmed (clean) and once with the plan armed and a
//! telemetry sink attached — and derives its metrics from the
//! [`DayResult`] pair plus the `fault_*`/`degrade_*` event stream.
//!
//! `cargo xtask chaos` drives the `chaos_check` binary over this module;
//! the full campaign writes `results/chaos_report.json` (canonical row
//! order, digest included), which `bench/tests/chaos_golden.rs` pins.

use std::cell::RefCell;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use faults::{parse_scenario, FaultPlan};
use solarcore::engine::DayResult;
use solarcore::{DaySimulation, Policy};
use solarenv::Season;
use telemetry::{JsonlSink, Stopwatch, Telemetry};
use workloads::Mix;

use crate::campaign::{site_from_code, WaveProgress};
use crate::determinism::CanonicalHasher;
use crate::output::Json;

/// The policies the campaign exercises (the two MPPT allocators the paper
/// headlines; `Fixed-Power` has no sensing loop to harden).
pub const CAMPAIGN_POLICIES: [Policy; 2] = [Policy::MpptOpt, Policy::MpptRr];

/// The site codes the campaign sweeps when a scenario carries no hint:
/// the paper's best (Phoenix AZ) and worst (Oak Ridge TN) solar sites.
pub const CAMPAIGN_SITES: [&str; 2] = ["AZ", "TN"];

/// One loaded scenario file.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// File name the plan came from (campaign rows sort by it).
    pub file: String,
    /// The parsed, validated fault plan.
    pub plan: FaultPlan,
}

/// One `scenario × site × policy` campaign cell.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Scenario name (from the plan, not the file name).
    pub scenario: String,
    /// Site code the cell ran at.
    pub site: String,
    /// Season of the simulated day.
    pub season: String,
    /// Policy label.
    pub policy: String,
    /// Solar-powered instructions of the clean (disarmed) run.
    pub ptp_clean: f64,
    /// Solar-powered instructions of the chaos (armed) run.
    pub ptp_chaos: f64,
    /// `ptp_chaos / ptp_clean` (`1.0` when the clean day has no PTP).
    pub ptp_retention: f64,
    /// Minutes from the plan's first fault onset to the first detection
    /// event at/after onset (`null` when nothing was detected or the plan
    /// schedules no faults).
    pub detection_latency_minutes: Option<u64>,
    /// Times the controller tripped into the degraded fallback mode.
    pub degrade_enters: u64,
    /// `fault_reject` events over the day.
    pub fault_rejects: u64,
    /// Degradation trips before the first fault onset (every trip, for a
    /// plan with no scheduled faults) — must be zero on a sound detector.
    pub false_trips: u64,
}

/// The campaign report rendered to `results/chaos_report.json`.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One row per campaign cell, in canonical (file, site, policy) order.
    pub rows: Vec<ChaosCell>,
    /// Canonical FNV-1a digest over every row, hex-encoded — pins the
    /// committed artifact byte-for-byte against regeneration drift.
    pub digest: String,
}

impl ChaosCell {
    /// The row as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(&self.scenario)),
            ("site", Json::str(&self.site)),
            ("season", Json::str(&self.season)),
            ("policy", Json::str(&self.policy)),
            ("ptp_clean", Json::Num(self.ptp_clean)),
            ("ptp_chaos", Json::Num(self.ptp_chaos)),
            ("ptp_retention", Json::Num(self.ptp_retention)),
            (
                "detection_latency_minutes",
                self.detection_latency_minutes
                    .map_or(Json::Null, Json::uint),
            ),
            ("degrade_enters", Json::uint(self.degrade_enters)),
            ("fault_rejects", Json::uint(self.fault_rejects)),
            ("false_trips", Json::uint(self.false_trips)),
        ])
    }
}

impl ChaosReport {
    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "rows",
                Json::Arr(self.rows.iter().map(ChaosCell::to_json).collect()),
            ),
            ("digest", Json::str(&self.digest)),
        ])
    }
}

/// The repo's `scenarios/` directory (relative to this crate).
pub fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Loads and parses every `*.toml` scenario under `dir`, sorted by file
/// name so the campaign order is stable across filesystems.
///
/// # Errors
///
/// Propagates I/O errors and scenario parse/validation errors (annotated
/// with the offending file name).
pub fn load_scenarios(dir: &Path) -> Result<Vec<ChaosScenario>, Box<dyn Error>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    let mut scenarios = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let plan = parse_scenario(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        scenarios.push(ChaosScenario { file, plan });
    }
    Ok(scenarios)
}

/// Maps a scenario season hint to a [`Season`] (default July — the
/// paper's stress season for Phoenix).
fn season_from_hint(hint: Option<&str>) -> Result<Season, Box<dyn Error>> {
    match hint.unwrap_or("Jul") {
        "Jan" => Ok(Season::Jan),
        "Apr" => Ok(Season::Apr),
        "Jul" => Ok(Season::Jul),
        "Oct" => Ok(Season::Oct),
        other => Err(format!("unknown season hint `{other}`").into()),
    }
}

/// Detection events extracted from one chaos run's JSONL stream.
#[derive(Debug, Default, Clone, Copy)]
struct DetectionTrace {
    first_detection_at: Option<u64>,
    degrade_enters: u64,
    fault_rejects: u64,
    false_trips: u64,
}

/// Scans the telemetry stream for `fault_reject` / `degrade_enter`
/// events. `onset` is the plan's first scheduled fault minute.
///
/// # Errors
///
/// A line that is not JSON, and a `fault_reject` or `degrade_enter`
/// record without an integer `minute`, which would otherwise be read as
/// a trip or a detection at minute 0.
fn scan_stream(stream: &str, onset: Option<u32>) -> Result<DetectionTrace, Box<dyn Error>> {
    let mut trace = DetectionTrace::default();
    for (index, line) in stream.lines().enumerate() {
        let record = Json::parse(line).map_err(|e| format!("stream line {}: {e}", index + 1))?;
        let name = record["name"].as_str().unwrap_or_default();
        if name != "fault_reject" && name != "degrade_enter" {
            continue;
        }
        let minute = record["minute"].as_u64().ok_or_else(|| {
            format!(
                "stream line {}: `{name}` record has no integer `minute`: {line}",
                index + 1
            )
        })?;
        if name == "fault_reject" {
            trace.fault_rejects += 1;
        } else {
            trace.degrade_enters += 1;
        }
        match onset {
            Some(onset) => {
                let onset = u64::from(onset);
                if minute >= onset && trace.first_detection_at.is_none() {
                    trace.first_detection_at = Some(minute);
                }
                if name == "degrade_enter" && minute < onset {
                    trace.false_trips += 1;
                }
            }
            // No scheduled fault: every trip is a false trip and there is
            // no onset to measure latency from.
            None => {
                if name == "degrade_enter" {
                    trace.false_trips += 1;
                }
            }
        }
    }
    Ok(trace)
}

/// Runs one campaign cell: a clean day and its armed twin, plus the
/// telemetry-derived detection metrics.
///
/// # Errors
///
/// Propagates configuration, simulation and stream-parse errors, and an
/// unknown site code.
pub fn run_cell(
    scenario: &ChaosScenario,
    site_code: &str,
    policy: Policy,
) -> Result<ChaosCell, Box<dyn Error>> {
    let site = site_from_code(site_code).map_err(|_| format!("unknown site code `{site_code}`"))?;
    let season = season_from_hint(scenario.plan.season_hint())?;
    let day = scenario.plan.day_hint().unwrap_or(0);
    let builder = || {
        DaySimulation::builder()
            .site(site.clone())
            .season(season)
            .day(day)
            .mix(Mix::hm2())
            .policy(policy)
    };

    let clean: DayResult = builder().build()?.run()?;

    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let chaos: DayResult = builder()
        .fault_plan(scenario.plan.clone())
        .telemetry(Telemetry::attached(sink.clone()))
        .build()?
        .run()?;
    let stream = sink.borrow().buffer().to_string();

    let onset = scenario.plan.first_onset();
    let trace = scan_stream(&stream, onset)?;
    let ptp_clean = clean.solar_instructions();
    let ptp_chaos = chaos.solar_instructions();
    let ptp_retention = if ptp_clean > 0.0 {
        ptp_chaos / ptp_clean
    } else {
        1.0
    };
    let detection_latency_minutes = match (onset, trace.first_detection_at) {
        (Some(onset), Some(at)) => Some(at.saturating_sub(u64::from(onset))),
        _ => None,
    };
    Ok(ChaosCell {
        scenario: scenario.plan.name().to_owned(),
        site: site_code.to_owned(),
        season: season.to_string(),
        policy: policy.label().to_owned(),
        ptp_clean,
        ptp_chaos,
        ptp_retention,
        detection_latency_minutes,
        degrade_enters: trace.degrade_enters,
        fault_rejects: trace.fault_rejects,
        false_trips: trace.false_trips,
    })
}

/// The sites one scenario runs at: its `site` hint when present, the
/// full campaign sweep otherwise.
pub fn sites_for(scenario: &ChaosScenario) -> Vec<&str> {
    match scenario.plan.site_hint() {
        Some(hint) => vec![hint],
        None => CAMPAIGN_SITES.to_vec(),
    }
}

/// Runs the full campaign over `scenarios` and assembles the report with
/// its canonical digest, with optional per-cell progress reporting (a
/// chaos "wave" is one cell, so [`WaveProgress::executed`] always equals
/// [`WaveProgress::done`]).
///
/// # Errors
///
/// Propagates the first cell failure.
pub fn run_campaign(
    scenarios: &[ChaosScenario],
    progress: Option<fn(&WaveProgress)>,
) -> Result<ChaosReport, Box<dyn Error>> {
    let total: usize = scenarios
        .iter()
        .map(|s| sites_for(s).len() * CAMPAIGN_POLICIES.len())
        .sum();
    let watch = Stopwatch::new();
    let mut rows = Vec::new();
    for scenario in scenarios {
        for site in sites_for(scenario) {
            for policy in CAMPAIGN_POLICIES {
                rows.push(run_cell(scenario, site, policy)?);
                if let Some(report) = progress {
                    let done = rows.len();
                    let elapsed_secs = watch.elapsed_secs();
                    #[allow(clippy::cast_precision_loss)] // cell counts are tiny
                    let eta_secs =
                        (done > 0).then(|| elapsed_secs / done as f64 * (total - done) as f64);
                    report(&WaveProgress {
                        done,
                        total,
                        executed: done,
                        elapsed_secs,
                        eta_secs,
                    });
                }
            }
        }
    }
    let digest = format!("{:016x}", report_digest(&rows));
    Ok(ChaosReport { rows, digest })
}

/// Canonical FNV-1a digest over every report row, field by field.
pub fn report_digest(rows: &[ChaosCell]) -> u64 {
    let mut h = CanonicalHasher::default();
    h.u64(rows.len() as u64);
    for row in rows {
        h.str(&row.scenario);
        h.str(&row.site);
        h.str(&row.season);
        h.str(&row.policy);
        h.f64(row.ptp_clean);
        h.f64(row.ptp_chaos);
        h.f64(row.ptp_retention);
        h.u64(row.detection_latency_minutes.map_or(u64::MAX, |m| m));
        h.u64(row.degrade_enters);
        h.u64(row.fault_rejects);
        h.u64(row.false_trips);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_load_sorted_and_valid() {
        let scenarios = load_scenarios(&scenarios_dir()).unwrap();
        assert!(scenarios.len() >= 5, "campaign needs breadth");
        let files: Vec<&str> = scenarios.iter().map(|s| s.file.as_str()).collect();
        let mut sorted = files.clone();
        sorted.sort_unstable();
        assert_eq!(files, sorted);
        assert!(
            scenarios.iter().any(|s| s.plan.is_empty()),
            "control scenario present"
        );
        assert!(scenarios.iter().any(|s| s.plan.has_sensor_faults()));
        assert!(scenarios.iter().any(|s| s.plan.has_irradiance_faults()));
        assert!(scenarios.iter().any(|s| s.plan.has_core_faults()));
    }

    #[test]
    fn site_hints_pin_the_sweep() {
        let scenarios = load_scenarios(&scenarios_dir()).unwrap();
        let monsoon = scenarios
            .iter()
            .find(|s| s.plan.name() == "monsoon_cliff")
            .unwrap();
        assert_eq!(sites_for(monsoon), vec!["AZ"]);
        let control = scenarios
            .iter()
            .find(|s| s.plan.name() == "clean_control")
            .unwrap();
        assert_eq!(sites_for(control), CAMPAIGN_SITES.to_vec());
    }

    #[test]
    fn stream_scan_classifies_events() {
        let stream = concat!(
            "{\"t\":\"event\",\"name\":\"minute\",\"minute\":500,\"seq\":0,\"fields\":{}}\n",
            "{\"t\":\"event\",\"name\":\"degrade_enter\",\"minute\":600,\"seq\":1,\"fields\":{}}\n",
            "{\"t\":\"event\",\"name\":\"fault_reject\",\"minute\":700,\"seq\":2,\"fields\":{}}\n",
            "{\"t\":\"event\",\"name\":\"degrade_enter\",\"minute\":710,\"seq\":3,\"fields\":{}}\n",
        );
        let t = scan_stream(stream, Some(650)).unwrap();
        assert_eq!(t.fault_rejects, 1);
        assert_eq!(t.degrade_enters, 2);
        assert_eq!(t.false_trips, 1, "the minute-600 trip precedes onset");
        assert_eq!(t.first_detection_at, Some(700));
        let no_onset = scan_stream(stream, None).unwrap();
        assert_eq!(no_onset.false_trips, 2);
        assert_eq!(no_onset.first_detection_at, None);
    }

    #[test]
    fn stream_scan_rejects_a_detection_without_its_minute() {
        for (record, missing) in [
            ("{\"t\":\"event\",\"name\":\"degrade_enter\",\"seq\":1,\"fields\":{}}", "degrade_enter"),
            ("{\"t\":\"event\",\"name\":\"fault_reject\",\"minute\":\"7\",\"seq\":1,\"fields\":{}}", "fault_reject"),
            ("{\"t\":\"event\",\"name\":\"fault_reject\",\"minute\":-3,\"seq\":1,\"fields\":{}}", "fault_reject"),
        ] {
            let stream = format!(
                "{{\"t\":\"event\",\"name\":\"minute\",\"minute\":500,\"seq\":0,\"fields\":{{}}}}\n{record}\n"
            );
            for onset in [Some(650), None] {
                let err = scan_stream(&stream, onset).unwrap_err().to_string();
                assert!(err.contains("stream line 2"), "{err}");
                assert!(err.contains(&format!("`{missing}` record has no integer `minute`")), "{err}");
            }
        }
        // A record the scan does not read needs no minute.
        let other = "{\"t\":\"event\",\"name\":\"day_start\",\"seq\":0,\"fields\":{}}\n";
        assert_eq!(scan_stream(other, Some(650)).unwrap().fault_rejects, 0);
    }

    #[test]
    fn unknown_codes_are_rejected() {
        assert!(site_from_code("XX").is_err());
        assert!(season_from_hint(Some("Mar")).is_err());
        assert!(season_from_hint(None).is_ok());
    }
}
