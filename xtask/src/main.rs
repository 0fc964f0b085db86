//! Repo automation for the SolarCore workspace (`cargo xtask <command>`).
//!
//! Commands:
//!
//! * `trace` — runs the golden telemetry day (Golden CO / Jan / HM2 /
//!   MPPT&Opt), writes its JSONL stream under `results/`, renders the
//!   per-period tracking timeline and cross-checks the stream's
//!   tracking-error aggregate against the committed Table 7 artifact.
//! * `chaos` — runs the differential fault-injection campaign over every
//!   scenario under `scenarios/`, enforcing the soundness gates (control
//!   rows bit-transparent, zero false degradation trips) and rewriting
//!   `results/chaos_report.json`.
//! * `tdiff` — schema-aware diff of two campaign reports or metric
//!   folds: counters by relative delta, histograms by quantile profile;
//!   non-zero exit on any regression. The committed campaign report is
//!   regenerated by `BLESS=1 cargo test -p bench --test campaign_golden`.
//! * `docs` — documentation cross-reference pass: every `§N` pointer,
//!   DESIGN.md's own included, resolves to a DESIGN.md heading, every
//!   committed `results/*.json` is catalogued in EXPERIMENTS.md, and the
//!   README crate map covers every workspace crate.
//! * `ci` — the one-command verification gate, in the order of
//!   [`CI_GATES`]. Determinism hazards, panics, casts, wildcard matches
//!   and dropped `Result`s are carried by `clippy -D warnings` with the
//!   root `clippy.toml` and the crate lint attributes (DESIGN.md §11).
//!   Bitwise reproducibility is carried by the tier-1 tests (DESIGN.md
//!   §12).
//!
//! Exit status is non-zero when any command fails, so all of them can
//! gate CI directly. The simulation harnesses are `bench` binaries, so
//! xtask itself links nothing; the docs pass is the one check it runs
//! in-process.

mod docs;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The `cargo xtask ci` gates, in order: the cheap static gates first so
/// they fail fast, then the build and the tests. Each entry is either a
/// `cargo` command line or an `xtask` command dispatched in-process.
const CI_GATES: [&[&str]; 8] = [
    &["xtask", "docs"],
    &[
        "cargo",
        "clippy",
        "--workspace",
        "--all-targets",
        "--",
        "-D",
        "warnings",
    ],
    // Rustdoc runs with RUSTDOCFLAGS=-D warnings: the telemetry schema in
    // `solarcore::schema` is rustdoc, so doc rot fails CI.
    &["cargo", "doc", "--no-deps", "--workspace"],
    &["cargo", "build", "--release", "--workspace"],
    // The tier-1 suite, including the bitwise-reproducibility tests.
    &["cargo", "test", "-q", "--workspace"],
    // The benchmark is a workspace of its own that builds against the
    // simulator's public API: building and self-testing it here makes an
    // API change that breaks it fail locally.
    &[
        "cargo",
        "test",
        "--release",
        "--offline",
        "-q",
        "--manifest-path",
        "perfbench/Cargo.toml",
    ],
    // The self-test runs shrunken workloads, so it never meets the
    // full-size pins. The traced seed-0 `year_fleet` run checks them all:
    // the campaign digest at 1 thread and at nproc, the profiled day
    // hashes and the pinned evaluation, MPP-query and tracking counts.
    // It exits non-zero when any of them moves.
    &[
        "cargo",
        "run",
        "--release",
        "--offline",
        "-q",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
        "--workload",
        "year_fleet",
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        "1",
    ],
    // The committed campaign report diffed against itself must report
    // zero findings: the comparison engine parses the real artifact.
    &[
        "xtask",
        "tdiff",
        "results/campaign_report.json",
        "results/campaign_report.json",
    ],
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    dispatch(&args)
}

fn dispatch(args: &[&str]) -> ExitCode {
    match args.first().copied() {
        Some("trace") => bench_bin("trace_report", &[], "golden-day cross-check failed"),
        Some("chaos") => bench_bin("chaos_check", &[], "campaign gate failed"),
        Some("tdiff") => match args.get(1..3) {
            Some(pair) => bench_bin("tdiff", pair, "regressions found"),
            None => {
                eprintln!("usage: cargo xtask tdiff <a.json> <b.json>");
                ExitCode::FAILURE
            }
        },
        Some("docs") => run_docs(),
        Some("ci") => run_ci(),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
        None => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask <docs | trace | chaos | tdiff <a> <b> | ci>");
    eprintln!("  docs      check DESIGN.md anchors, the EXPERIMENTS.md catalog, the crate map");
    eprintln!("  trace     run the golden telemetry day and render its timeline");
    eprintln!("  chaos     run the fault-injection campaign and write results/chaos_report.json");
    eprintln!("  tdiff     schema-aware diff of two campaign reports or metric folds");
    eprintln!(
        "  ci        docs, clippy, doc, build, test, perfbench test, traced year_fleet, tdiff"
    );
}

/// Locates the workspace root (the directory holding the top Cargo.toml).
fn workspace_root() -> PathBuf {
    // cargo sets CARGO_MANIFEST_DIR to <root>/xtask when running this bin.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_owned());
    let dir = PathBuf::from(manifest);
    dir.parent().map(PathBuf::from).unwrap_or(dir)
}

/// Runs the docs pass, prints its findings and converts them to an exit
/// code.
fn run_docs() -> ExitCode {
    match docs::run(&workspace_root()) {
        Ok(report) if report.violations.is_empty() => {
            println!("xtask docs: clean ({} files scanned)", report.files_scanned);
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("{v}");
            }
            eprintln!(
                "xtask docs: {} violation(s) in {} file(s) scanned",
                report.violations.len(),
                report.files_scanned
            );
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask docs: error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one `bench` binary in release mode with `args` after `--`;
/// `what_failed` names the gate a non-zero exit means failed.
fn bench_bin(name: &str, args: &[&str], what_failed: &str) -> ExitCode {
    println!(
        "xtask: running {} (release)",
        [&[name], args].concat().join(" ")
    );
    let mut cmd = Command::new("cargo");
    cmd.args(["run", "--release", "-q", "-p", "bench", "--bin", name, "--"])
        .args(args);
    if run(cmd, name) {
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {name}: {what_failed} (see output above)");
        ExitCode::FAILURE
    }
}

/// Spawns `cmd` in the workspace root; `true` on a zero exit.
fn run(mut cmd: Command, name: &str) -> bool {
    match cmd.current_dir(workspace_root()).status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask: `{name}` exited with {s}");
            false
        }
        Err(err) => {
            eprintln!("xtask: could not spawn cargo for `{name}`: {err}");
            false
        }
    }
}

fn run_ci() -> ExitCode {
    for gate in CI_GATES {
        println!("xtask ci: running {}", gate.join(" "));
        let passed = match gate.split_first() {
            Some((&"cargo", args)) => {
                let mut cmd = Command::new("cargo");
                cmd.args(args);
                if args.first() == Some(&"doc") {
                    cmd.env("RUSTDOCFLAGS", "-D warnings");
                }
                run(cmd, &gate.join(" "))
            }
            Some((_, args)) => dispatch(args) == ExitCode::SUCCESS,
            None => true,
        };
        if !passed {
            eprintln!("xtask ci: gate `{}` failed", gate.join(" "));
            return ExitCode::FAILURE;
        }
    }
    println!("xtask ci: all {} gates passed", CI_GATES.len());
    ExitCode::SUCCESS
}
