//! Wall-clock profile runner (`cargo xtask profile`).
//!
//! Executes `campaigns/year_fleet.toml` once, profiled, at N
//! threads, and writes `results/profile_report.json` — two strictly
//! separated sections:
//!
//! - `structural`: the merged span tree's *shape* (names, call counts,
//!   simulated minutes). Deterministic: byte-identical at any thread
//!   count, so the artifact diffs cleanly across commits.
//! - `machine`: everything wall-clock — per-span nanoseconds, per-wave
//!   pool analysis (utilization, critical path), collapsed flamegraph
//!   stacks. Machine-dependent by nature; `tdiff` compares it with
//!   thresholds instead of bytes.
//!
//! The run's campaign digest must equal the pinned golden digest — the
//! profiler is bit-transparent or the run fails. The run also writes
//! two render-only artifacts under `target/`: `profile.folded`
//! (collapsed stacks for any flamegraph tool) and `profile_trace.json`
//! (Chrome `about:tracing` / Perfetto trace of one instrumented day).
//!
//! `bench/tests/profile.rs` checks the structural section's byte-stability
//! across thread counts and the profiler's transparency in the tier-1
//! suite.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::campaign::{run, CampaignSpec, RunOptions};
use bench::output::Json;
use bench::parallel::default_threads;
use bench::profile::{chrome_trace, collapse_lines, stack_of, structural_json};
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use telemetry::Profiler;
use workloads::Mix;

/// The campaign digest `bench/tests/campaign_golden.rs` pins; the
/// profiled full run must reproduce it exactly.
const PINNED_CAMPAIGN_DIGEST: u64 = 0x0058_c774_acaf_e8e7;

fn main() -> ExitCode {
    match drive() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("profile: error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

fn drive() -> Result<bool, Box<dyn Error>> {
    let path = repo_path("campaigns/year_fleet.toml");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = CampaignSpec::parse(&text)?;
    let scenarios = repo_path("scenarios");
    let threads = default_threads().max(2);
    println!("profile: {} — profiled at {threads} threads", path.display());

    let outcome = run(&spec, &scenarios, &RunOptions {
        threads,
        profile: true,
        ..RunOptions::default()
    })?;
    let Some(profile) = &outcome.profile else {
        eprintln!("profile: FAIL — profiled run carried no profile");
        return Ok(false);
    };

    let mut ok = true;
    let digest = outcome.digest();
    println!("profile: campaign digest {digest:016x}");
    if digest != PINNED_CAMPAIGN_DIGEST {
        eprintln!(
            "profile: FAIL — profiled digest {digest:016x} != pinned {PINNED_CAMPAIGN_DIGEST:016x} \
             (the profiler must be bit-transparent)"
        );
        ok = false;
    }
    let structural = structural_json(&profile.tree);
    if structural.render() != structural_json(&profile.tree).render() {
        eprintln!("profile: FAIL — structural section renders unstably");
        ok = false;
    }
    if !ok {
        return Ok(false);
    }

    let doc = Json::obj(vec![
        ("campaign", Json::str(&outcome.name)),
        ("digest", Json::hex(digest)),
        ("structural", structural),
        ("machine", profile.machine_json()),
    ]);
    let dir = repo_path("results");
    std::fs::create_dir_all(&dir)?;
    let report_path = dir.join("profile_report.json");
    std::fs::write(&report_path, doc.render())?;
    println!("profile: wrote {}", report_path.display());
    #[allow(clippy::cast_precision_loss)] // display only
    let critical_secs = profile.critical_path_ns() as f64 / 1e9;
    println!(
        "profile: pool utilization {:.3}, critical path {critical_secs:.1}s over {} waves",
        profile.pool_utilization(),
        profile.waves.len()
    );

    // Render-only artifacts (machine-dependent, never committed).
    let target = repo_path("target");
    std::fs::create_dir_all(&target)?;
    let folded: Vec<String> = collapse_lines(&stack_of(&profile.tree));
    std::fs::write(target.join("profile.folded"), folded.join("\n") + "\n")?;
    println!("profile: wrote {}", target.join("profile.folded").display());

    // One instrumented day with the bounded trace log on, for Chrome's
    // about:tracing / Perfetto.
    let prof = Profiler::with_trace_log(4096);
    DaySimulation::builder()
        .site(Site::phoenix_az())
        .season(Season::Jul)
        .day(0)
        .mix(Mix::hm2())
        .policy(Policy::MpptOpt)
        .profiler(prof.clone())
        .build()?
        .run()?;
    let trace = chrome_trace(&prof.take_events());
    std::fs::write(target.join("profile_trace.json"), trace.render())?;
    println!(
        "profile: wrote {}",
        target.join("profile_trace.json").display()
    );
    Ok(true)
}
