//! Campaign engine runner (`cargo xtask campaign`).
//!
//! Executes `campaigns/year_fleet.toml` — the 4-site × 12-month
//! fleet sweep — three ways and proves they agree bit-for-bit:
//!
//! 1. uninterrupted at 1 thread;
//! 2. uninterrupted at N threads;
//! 3. killed mid-campaign (checkpoint frontier mid-wave) and resumed.
//!
//! The deterministic report documents (rows + aggregate + digest) must be
//! **byte-identical** across all three; the run then writes
//! `results/campaign_report.json` — the deterministic document plus a
//! `determinism` section recording the three digests and a `scaling`
//! section recording shard throughput per thread count (wall-clock, the
//! one machine-dependent part of the artifact; the golden test pins the
//! digest, never the timings).
//!
//! The run reports per-wave progress (completed/total shards, elapsed,
//! ETA) on stderr after every checkpoint wave.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::campaign::{
    compose_report, run, CampaignOutcome, CampaignSpec, RunOptions, WaveProgress,
};
use bench::parallel::default_threads;
use bench::TextTable;

fn main() -> ExitCode {
    match drive() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("campaign: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The repo's `campaigns/` directory (relative to this crate).
fn campaigns_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../campaigns")
}

/// The repo's `scenarios/` directory (relative to this crate).
fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// A scratch checkpoint path unique to this process.
fn scratch_checkpoint() -> PathBuf {
    std::env::temp_dir().join(format!("solarcore_campaign_{}.json", std::process::id()))
}

/// Wall-clock seconds of `f` — scaling measurement only; every
/// deterministic artifact byte is independent of this.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock scaling measurement, never folded into deterministic output"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Per-wave progress line (stderr, so report pipes stay clean).
fn progress_line(p: &WaveProgress) {
    let eta = p.eta_secs.map_or_else(|| "--".to_owned(), |s| format!("{s:.0}s"));
    eprintln!(
        "campaign: {}/{} shards done ({} this run) — {:.1}s elapsed, eta {eta}",
        p.done, p.total, p.executed, p.elapsed_secs
    );
}

fn drive() -> Result<bool, Box<dyn Error>> {
    let progress: Option<fn(&WaveProgress)> = Some(progress_line);
    let path = campaigns_dir().join("year_fleet.toml");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = CampaignSpec::parse(&text)?;
    let scenarios = scenarios_dir();
    let shards = spec.shards(&scenarios)?.len();
    println!(
        "campaign: {} — {shards} shards, checkpoint every {}",
        path.display(),
        spec.checkpoint_every
    );

    // Uninterrupted reference runs at 1 and N threads. Floor N at 2 so
    // the wide run exercises concurrent scheduling even on one core.
    let threads = default_threads().max(2);
    let (serial, serial_s) = timed(|| {
        run(&spec, &scenarios, &RunOptions {
            threads: 1,
            progress,
            ..RunOptions::default()
        })
    });
    let serial = serial?;
    let (wide, wide_s) = timed(|| {
        run(&spec, &scenarios, &RunOptions {
            threads,
            progress,
            ..RunOptions::default()
        })
    });
    let wide = wide?;

    // Kill mid-campaign (mid-wave frontier), then resume from the
    // checkpoint. `kill_after` one past a wave boundary guarantees the
    // in-flight wave is lost and must re-execute.
    let checkpoint = scratch_checkpoint();
    let _ = std::fs::remove_file(&checkpoint);
    let kill_at = (shards / 2).max(1);
    let killed = run(&spec, &scenarios, &RunOptions {
        threads,
        checkpoint: Some(checkpoint.clone()),
        kill_after: Some(kill_at),
        progress,
        ..RunOptions::default()
    })?;
    let resumed = run(&spec, &scenarios, &RunOptions {
        threads,
        checkpoint: Some(checkpoint.clone()),
        kill_after: None,
        progress,
        ..RunOptions::default()
    })?;
    let _ = std::fs::remove_file(&checkpoint);

    let ok = gates_hold(&serial, &wide, &killed, &resumed, shards);
    print_rows(&serial);
    println!(
        "campaign: digest {:016x} | 1-thread {serial_s:.2}s, {threads}-thread {wide_s:.2}s",
        serial.digest()
    );

    if ok {
        let report = compose_report(&serial, &resumed, &[(1, serial_s), (threads, wide_s)], shards);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("campaign_report.json");
        std::fs::write(&path, report.render())?;
        println!("campaign: wrote {}", path.display());
    }
    Ok(ok)
}

/// The agreement gates: every execution schedule must produce the same
/// bytes, and the resumed run must not have re-executed checkpointed work.
fn gates_hold(
    serial: &CampaignOutcome,
    wide: &CampaignOutcome,
    killed: &CampaignOutcome,
    resumed: &CampaignOutcome,
    shards: usize,
) -> bool {
    let mut ok = true;
    let reference = serial.report_json().render();
    for (label, outcome) in [("N-thread", wide), ("kill+resume", resumed)] {
        if outcome.report_json().render() != reference {
            eprintln!("campaign: FAIL — {label} report differs from the 1-thread bytes");
            ok = false;
        }
    }
    if serial.rows.len() != shards || resumed.rows.len() != shards {
        eprintln!("campaign: FAIL — incomplete campaign (expected {shards} rows)");
        ok = false;
    }
    if killed.complete {
        eprintln!("campaign: FAIL — kill switch did not abort the run");
        ok = false;
    }
    // Frontier discipline: the resumed invocation may only have executed
    // shards at/after the killed run's checkpoint frontier.
    if resumed.executed.iter().any(|&i| i < killed.checkpointed) {
        eprintln!(
            "campaign: FAIL — resume re-executed a shard before the frontier ({})",
            killed.checkpointed
        );
        ok = false;
    }
    if resumed.resumed_from != killed.checkpointed {
        eprintln!(
            "campaign: FAIL — resume restored {} rows, checkpoint held {}",
            resumed.resumed_from, killed.checkpointed
        );
        ok = false;
    }
    if ok {
        println!(
            "campaign: OK — byte-identical at 1/{} threads and across kill@{}+resume",
            default_threads().max(2),
            killed.checkpointed
        );
    }
    ok
}

/// Prints a per-(site, month) summary table (mean over the cell's rows).
fn print_rows(outcome: &CampaignOutcome) {
    let mut table = TextTable::new(["site", "month", "mix", "policy", "scenario", "ptp", "util"]);
    for row in outcome.rows.iter().take(24) {
        table.row([
            row.site.clone(),
            row.month.clone(),
            row.mix.clone(),
            row.policy.clone(),
            row.scenario.clone(),
            format!("{:.3e}", row.ptp),
            format!("{:.4}", row.utilization),
        ]);
    }
    print!("{table}");
    if outcome.rows.len() > 24 {
        println!("… {} more rows", outcome.rows.len() - 24);
    }
}

