//! Golden regression layer over the committed `results/` artifacts.
//!
//! Four guards:
//!
//! 1. *Reproduction*: selected Table 7 tracking-error cells are recomputed
//!    from scratch through the (now cached) engine and compared
//!    against the committed JSON within `1e-9`. The solver cache claims
//!    bitwise transparency, so a pre-cache artifact must still reproduce
//!    exactly; any drift here means the fast path changed the physics.
//! 2. *Snapshot*: headline scalars are pinned in `results/pins.json` so an
//!    accidental regeneration of `results/` with different numbers fails
//!    loudly instead of silently rewriting the paper comparison.
//! 3. *One codec*: every committed `results/*.json` is exactly what
//!    [`Json::render`] writes, so a second JSON writer cannot come back
//!    unnoticed.
//! 4. *No wall time*: `results/` holds only what the code determines, so
//!    no committed artifact carries a wall-clock key; perfbench is the
//!    one place time is measured.

use bench::output::Json;
use bench::pins::{assert_pins, Pins};
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

const TOLERANCE: f64 = 1e-9;

fn read_results(name: &str) -> Json {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed artifact {path}: {e}"));
    Json::parse(&raw).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"))
}

/// Looks up one committed Table 7 cell: `(site code, season, mix name)`.
fn tab07_cell(tab: &Json, site: &str, season: &str, mix: &str) -> f64 {
    let mixes = tab["mixes"].as_array().expect("tab07 has a mixes array");
    let col = mixes
        .iter()
        .position(|m| m.as_str() == Some(mix))
        .unwrap_or_else(|| panic!("mix {mix} not in tab07 columns"));
    let rows = tab["rows"].as_array().expect("tab07 has rows");
    let row = rows
        .iter()
        .find(|r| r[0].as_str() == Some(site) && r[1].as_str() == Some(season))
        .unwrap_or_else(|| panic!("row ({site}, {season}) not in tab07"));
    row[2][col].as_f64().expect("tab07 cell is a number")
}

/// Recomputes one Table 7 cell the way `experiments::tab07` does for the
/// committed single-day grid: one MPPT&Opt day simulation (day 0) and its
/// mean relative tracking error.
fn recompute_cell(site: Site, season: Season, mix: Mix) -> f64 {
    DaySimulation::builder()
        .site(site)
        .season(season)
        .day(0)
        .mix(mix)
        .policy(Policy::MpptOpt)
        .build()
        .expect("valid config")
        .run()
        .expect("day runs")
        .mean_tracking_error()
}

#[test]
fn engine_reproduces_committed_tracking_errors() {
    let tab = read_results("tab07_tracking_error.json");
    let cells = [
        ("AZ", Season::Jan, "H1", Mix::h1()),
        ("AZ", Season::Jan, "HM2", Mix::hm2()),
        ("AZ", Season::Jul, "H1", Mix::h1()),
    ];
    for (code, season, mix_name, mix) in cells {
        let committed = tab07_cell(&tab, code, &season.to_string(), mix_name);
        let site = Site::from_code(code).expect("a Table 2 site code");
        let recomputed = recompute_cell(site, season, mix);
        assert!(
            (recomputed - committed).abs() <= TOLERANCE,
            "{code}/{season}/{mix_name}: engine now yields {recomputed:.15}, \
             committed artifact says {committed:.15}"
        );
    }
}

#[test]
fn headline_scalars_match_snapshot() {
    let headline = read_results("headline.json");
    let claims = headline["claims"].as_array().expect("headline has claims");
    assert_eq!(claims.len(), 9, "headline claim count changed");
    for claim in claims {
        assert!(claim["name"].as_str().is_some_and(|n| !n.is_empty()));
        assert!(claim["paper"].as_f64().is_some_and(f64::is_finite));
        assert!(claim["measured"].as_f64().is_some_and(f64::is_finite));
    }

    // The scalars the README/paper comparison cites, by claim and pin.
    let pins = Pins::committed().unwrap();
    let snapshot = [
        (
            "average green energy utilization",
            "headline.green_energy_utilization",
        ),
        (
            "MPPT&Opt gain over best fixed budget (%)",
            "headline.mppt_opt_gain_over_fixed_pct",
        ),
        (
            "performance vs Battery-U (ratio)",
            "headline.battery_u_performance_ratio",
        ),
    ];
    assert_pins(snapshot.map(|(name, key)| {
        let measured = claims
            .iter()
            .find(|c| c["name"].as_str() == Some(name))
            .unwrap_or_else(|| panic!("headline claim `{name}` missing"))["measured"]
            .as_f64()
            .expect("measured is a number");
        pins.check_scalar(key, measured, TOLERANCE)
    }));
}

#[test]
fn committed_artifacts_are_canonical_json() {
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .map(|entry| entry.expect("results entry is readable").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 19, "results/ lost artifacts: {paths:?}");
    for path in paths {
        let raw = std::fs::read_to_string(&path).expect("artifact is readable");
        let doc = Json::parse(&raw).unwrap_or_else(|e| panic!("{}:{e}", path.display()));
        assert!(
            doc.render() == raw,
            "{} is not in canonical form; regenerate it through `bench::output::Json`",
            path.display()
        );
        if let Some(key) = wall_clock_key(&doc) {
            panic!(
                "{} carries the wall-clock key `{key}`; results/ holds only what the code determines",
                path.display()
            );
        }
    }
}

/// The first object key anywhere in `doc` that names a wall-clock
/// measurement.
fn wall_clock_key(doc: &Json) -> Option<&str> {
    match doc {
        Json::Obj(map) => map.iter().find_map(|(key, value)| {
            let wall = matches!(
                key.as_str(),
                "scaling" | "machine" | "seconds" | "shards_per_second"
            ) || key.ends_with("_ns")
                || key.starts_with("wall");
            if wall {
                Some(key.as_str())
            } else {
                wall_clock_key(value)
            }
        }),
        Json::Arr(items) => items.iter().find_map(wall_clock_key),
        _ => None,
    }
}
