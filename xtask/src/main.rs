//! Repo automation for the SolarCore workspace (`cargo xtask <command>`).
//!
//! Commands:
//!
//! * `determinism` — dynamic bitwise-reproducibility harness: runs the
//!   policy-grid day simulations at 1 thread, N threads, and with shuffled
//!   input order and compares canonical `f64::to_bits` hashes.
//! * `trace` — runs the golden telemetry day (Golden CO / Jan / HM2 /
//!   MPPT&Opt), writes its JSONL stream under `results/`, renders the
//!   per-period tracking timeline and cross-checks the stream's
//!   tracking-error aggregate against the committed Table 7 artifact.
//! * `chaos` — runs the differential fault-injection campaign over every
//!   scenario under `scenarios/`, enforcing the soundness gates (control
//!   rows bit-transparent, zero false degradation trips) and rewriting
//!   `results/chaos_report.json`; `--smoke` runs a two-scenario subset
//!   with the same gates and writes nothing.
//! * `campaign` — runs the year-scale sharded campaign engine on the
//!   committed `campaigns/year_fleet.toml` spec, proves the report is
//!   byte-identical across thread counts and across a kill/resume cycle,
//!   and rewrites `results/campaign_report.json`; `--smoke` runs a
//!   four-shard inline spec through the same gates and writes nothing.
//! * `profile` — runs the year-scale campaign under the hierarchical
//!   wall-clock profiler and writes `results/profile_report.json`
//!   (deterministic structural section + machine-dependent wall section)
//!   plus flamegraph/Chrome-trace renders under `target/`; `--smoke`
//!   proves structural byte-stability and bit-transparency on the
//!   four-shard spec and writes nothing.
//! * `tdiff` — schema-aware diff of two telemetry/profile/campaign
//!   artifacts: counters by relative delta, histograms by quantile
//!   profile, span trees structurally and by wall-time thresholds;
//!   non-zero exit on any regression.
//! * `docs` — documentation cross-reference pass: every `§N` pointer,
//!   DESIGN.md's own included, resolves to a DESIGN.md heading, every
//!   committed `results/*.json` is catalogued in EXPERIMENTS.md, and the
//!   README crate map covers every workspace crate.
//! * `ci` — the one-command verification gate, in the order of
//!   [`CI_GATES`]. Determinism hazards, panics, casts, wildcard matches
//!   and dropped `Result`s are carried by `clippy -D warnings` with the
//!   root `clippy.toml` and the crate lint attributes (DESIGN.md §11).
//!
//! Exit status is non-zero when any command fails, so all of them can
//! gate CI directly. The simulation harnesses are `bench` binaries, so
//! xtask itself links nothing; the docs pass is the one check it runs
//! in-process, from the `xtask` library crate (see `src/lib.rs`).

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use xtask::docs;

/// The `cargo xtask ci` gates, in order: the cheap static gates first so
/// they fail fast, then the build, the tests and the end-to-end harness
/// smokes. Each entry is either a `cargo` command line or an `xtask`
/// command dispatched in-process.
const CI_GATES: [&[&str]; 11] = [
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
    &["xtask", "determinism"],
    // Fault-injection soundness gates on a two-scenario subset.
    &["xtask", "chaos", "--smoke"],
    // Campaign determinism and kill/resume gates on a four-shard spec.
    &["xtask", "campaign", "--smoke"],
    // Profiler byte-stability across thread counts and bit-transparency.
    &["xtask", "profile", "--smoke"],
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
    let smoke: &[&str] = if args.contains(&"--smoke") {
        &["--smoke"]
    } else {
        &[]
    };
    match args.first().copied() {
        Some("determinism") => bench_bin("determinism_check", &[], "divergence detected"),
        Some("trace") => bench_bin("trace_report", &[], "golden-day cross-check failed"),
        Some("chaos") => bench_bin("chaos_check", smoke, "campaign gate failed"),
        Some("campaign") => bench_bin("campaign", smoke, "determinism/resume gate failed"),
        Some("profile") => bench_bin(
            "profile_report",
            smoke,
            "transparency/stability gate failed",
        ),
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
    eprintln!(
        "usage: cargo xtask <docs | determinism | trace | chaos [--smoke] | \
         campaign [--smoke] | profile [--smoke] | tdiff <a> <b> | ci>"
    );
    eprintln!("  docs         check DESIGN.md anchors, the EXPERIMENTS.md catalog, the crate map");
    eprintln!("  determinism  verify bit-identical day-sim output across thread counts");
    eprintln!("  trace        run the golden telemetry day and render its timeline");
    eprintln!(
        "  chaos        run the fault-injection campaign and write results/chaos_report.json"
    );
    eprintln!("               (--smoke runs a two-scenario subset and writes nothing)");
    eprintln!(
        "  campaign     run the year-scale sharded campaign and write \
         results/campaign_report.json"
    );
    eprintln!("               (--smoke runs a four-shard inline spec and writes nothing)");
    eprintln!(
        "  profile      run the year-scale campaign profiled and write \
         results/profile_report.json"
    );
    eprintln!("               (--smoke proves byte-stability/transparency and writes nothing)");
    eprintln!("  tdiff        schema-aware diff of two telemetry/profile/campaign artifacts");
    eprintln!(
        "  ci           docs, clippy, doc, build, test, perfbench test, determinism, \
         chaos smoke, campaign smoke, profile smoke, tdiff self-check"
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
