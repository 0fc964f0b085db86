//! Golden pins for the committed campaign artifact
//! (`results/campaign_report.json`).
//!
//! The year-fleet campaign digest is the repo's broadest determinism
//! anchor: it folds 96 shards × every minute-level record of each
//! simulated day, so any engine, controller, weather or policy change
//! moves it. These tests pin the digest and shard count, and regenerate
//! the whole report to prove the committed bytes are exactly what the
//! code computes.
//!
//! After an *intentional* behaviour change, regenerate with
//! `BLESS=1 cargo test -p bench --test campaign_golden`, then review the
//! diff like any golden update. Blessing runs the campaign at 1 thread,
//! at N threads and killed mid-campaign then resumed, and writes the
//! report only when all three agree byte for byte.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bench::campaign::{run, CampaignOutcome, CampaignSpec, RunOptions};
use bench::output::Json;
use bench::parallel::default_threads;

/// The pinned campaign digest. Drift means a simulation-visible
/// behaviour change.
const PINNED_DIGEST: &str = "0058c774acafe8e7";

/// Shards in the committed year-fleet campaign: 4 sites × 12 months ×
/// 1 mix × 2 policies × 1 scenario.
const PINNED_SHARDS: usize = 96;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// The committed campaign spec.
fn committed_spec() -> CampaignSpec {
    let text = std::fs::read_to_string(repo_path("campaigns/year_fleet.toml"))
        .expect("campaigns/year_fleet.toml is committed");
    CampaignSpec::parse(&text).expect("committed spec parses")
}

fn run_committed(opts: &RunOptions) -> CampaignOutcome {
    run(&committed_spec(), &repo_path("scenarios"), opts).expect("campaign runs")
}

/// The committed report's text, regenerated first under `BLESS=1` — once
/// per test binary, so sibling tests never read a half-written file.
fn committed_text() -> String {
    static BLESSED: OnceLock<()> = OnceLock::new();
    let path = repo_path("results/campaign_report.json");
    if std::env::var_os("BLESS").is_some() {
        BLESSED.get_or_init(|| bless(&path));
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}; run with BLESS=1 to create it",
            path.display()
        )
    })
}

fn load_report() -> Json {
    Json::parse(&committed_text()).expect("report parses")
}

/// Runs the committed campaign three ways — at 1 thread, at N threads,
/// and killed at half then resumed from its checkpoint — asserts that all
/// three render the same report bytes and that the resume honoured the
/// checkpoint frontier, and only then writes the report to `path`.
fn bless(path: &Path) {
    let serial = run_committed(&RunOptions {
        threads: 1,
        ..RunOptions::default()
    });
    // Floor N at 2 so the wide run schedules concurrently even on one core.
    let threads = default_threads().max(2);
    let wide = run_committed(&RunOptions {
        threads,
        ..RunOptions::default()
    });
    let checkpoint = std::env::temp_dir()
        .join(format!("solarcore_campaign_bless_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);
    let killed = run_committed(&RunOptions {
        threads,
        checkpoint: Some(checkpoint.clone()),
        kill_after: Some(serial.rows.len() / 2),
        ..RunOptions::default()
    });
    let resumed = run_committed(&RunOptions {
        threads,
        checkpoint: Some(checkpoint.clone()),
        ..RunOptions::default()
    });
    let _ = std::fs::remove_file(&checkpoint);

    let report = serial.report_json().render();
    for (label, outcome) in [("N-thread", &wide), ("kill+resume", &resumed)] {
        assert!(
            outcome.report_json().render() == report,
            "{label} report differs from the 1-thread bytes"
        );
    }
    assert!(!killed.complete, "the kill switch did not abort the run");
    assert!(
        resumed.executed.iter().all(|&i| i >= killed.checkpointed),
        "resume re-executed a shard before the checkpoint frontier ({})",
        killed.checkpointed
    );
    assert_eq!(
        resumed.resumed_from, killed.checkpointed,
        "resume restored a different row count than the checkpoint held"
    );
    std::fs::write(path, report).expect("report written");
}

#[test]
fn artifact_digest_and_shape_are_pinned() {
    let report = load_report();
    assert_eq!(
        report["digest"].as_str(),
        Some(PINNED_DIGEST),
        "campaign digest drifted — regenerate deliberately and re-pin"
    );
    assert_eq!(
        report["rows"].as_array().map(Vec::len),
        Some(PINNED_SHARDS),
        "campaign shard count changed"
    );
    assert_eq!(report["campaign"].as_str(), Some("year_fleet"));
}

#[test]
fn artifact_is_bound_to_the_committed_spec() {
    let report = load_report();
    let expected = format!("{:016x}", committed_spec().digest());
    assert_eq!(
        report["spec_digest"].as_str(),
        Some(expected.as_str()),
        "campaigns/year_fleet.toml no longer matches the committed report"
    );
}

/// One run of the committed spec renders the committed report byte for
/// byte — every row, the aggregate and the digest, with no carve-out.
#[test]
fn committed_report_regenerates_byte_for_byte() {
    let committed = committed_text();
    let fresh = run_committed(&RunOptions::default()).report_json().render();
    if let Some((line, (want, got))) = committed
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "results/campaign_report.json line {} differs from a fresh run:\n\
             committed: {want}\n\
             computed:  {got}",
            line + 1
        );
    }
    assert!(
        fresh == committed,
        "results/campaign_report.json differs from a fresh run in length or line endings"
    );
}
