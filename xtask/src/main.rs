//! Repo automation for the SolarCore workspace (`cargo xtask <command>`).
//!
//! Commands:
//!
//! * `flow` — interval/range analysis of physical quantities over a
//!   per-function abstract interpreter, proving runtime sanitizer checks
//!   statically dischargeable. The proven fraction is held to a ratchet:
//!   it may never drop below the baseline in the committed
//!   `results/flow_report.json`; `--bless` rewrites the report to move the
//!   baseline to the current ratio.
//! * `determinism` — dynamic bitwise-reproducibility harness: runs the
//!   policy-grid day simulations at 1 thread, N threads, and with shuffled
//!   input order and compares canonical `f64::to_bits` hashes.
//! * `bench` — runs the criterion suite and collects median ns/iter per
//!   benchmark into `BENCH_pr3.json`; `--smoke` shrinks sample counts so
//!   CI can verify the harness without a full measurement run.
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
//! * `docs` — documentation cross-reference pass: every `§N` pointer
//!   resolves to a DESIGN.md heading, every committed `results/*.json`
//!   is catalogued in EXPERIMENTS.md, and the README crate map covers
//!   every workspace crate.
//! * `ci` — the one-command verification gate, in the order of
//!   [`CI_GATES`]. Determinism hazards, panics, casts, wildcard matches
//!   and dropped `Result`s are carried by `clippy -D warnings` with the
//!   root `clippy.toml` and the crate lint attributes (DESIGN.md §11).
//!
//! Exit status is non-zero when any command fails, so all of them can
//! gate CI directly. The simulation harnesses are `bench` binaries, so
//! xtask itself links nothing. The source passes live in the `xtask`
//! library crate (see `src/lib.rs`) so the fixture ui tests can drive
//! them directly.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use xtask::{bench, docs, flow, lint};

/// The `cargo xtask ci` gates, in order: the cheap static gates first so
/// they fail fast, then the build, the tests and the end-to-end harness
/// smokes. Each entry is either a `cargo` command line or an `xtask`
/// command dispatched in-process.
const CI_GATES: [&[&str]; 13] = [
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
    &["xtask", "flow"],
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
    // Every bench target runs and emits a well-formed BENCH_pr3.json;
    // timing is not asserted.
    &["xtask", "bench", "--smoke"],
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
        Some("bench") => bench::run(&workspace_root(), !smoke.is_empty()),
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
        Some("docs") => finish("docs", docs::run(&workspace_root())),
        Some("flow") => run_flow(args.contains(&"--bless")),
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
        "usage: cargo xtask <docs | flow [--bless] | determinism | \
         bench [--smoke] | trace | chaos [--smoke] | campaign [--smoke] | profile [--smoke] | \
         tdiff <a> <b> | ci>"
    );
    eprintln!("  docs         check DESIGN.md anchors, the EXPERIMENTS.md catalog, the crate map");
    eprintln!("  flow         run interval/range analysis of the sanitizer checks");
    eprintln!("               (--bless rewrites results/flow_report.json, moving the ratchet)");
    eprintln!("  determinism  verify bit-identical day-sim output across thread counts");
    eprintln!("  bench        run the criterion suite and write BENCH_pr3.json");
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
        "  ci           docs, clippy, flow, doc, build, test, perfbench test, \
         determinism, chaos smoke, campaign smoke, profile smoke, tdiff self-check, bench smoke"
    );
}

/// Locates the workspace root (the directory holding the top Cargo.toml).
fn workspace_root() -> PathBuf {
    // cargo sets CARGO_MANIFEST_DIR to <root>/xtask when running this bin.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_owned());
    let dir = PathBuf::from(manifest);
    dir.parent().map(PathBuf::from).unwrap_or(dir)
}

/// Prints a pass report and converts it to an exit code, shared by the
/// static-analysis commands.
fn finish(command: &str, result: Result<lint::Report, String>) -> ExitCode {
    match result {
        Ok(report) if report.violations.is_empty() => {
            println!(
                "xtask {command}: clean ({} files scanned, {} waivers in effect)",
                report.files_scanned, report.waivers_used
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("{v}");
            }
            eprintln!(
                "xtask {command}: {} violation(s) in {} file(s) scanned",
                report.violations.len(),
                report.files_scanned
            );
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask {command}: error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_flow(bless: bool) -> ExitCode {
    let root = workspace_root();
    let mut outcome = match flow::run(&root) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("xtask flow: error: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", outcome.summary());
    // Gate order: findings, then the ratchet, then artifact freshness —
    // so the most actionable failure prints first.
    let code = finish("flow", Ok(std::mem::take(&mut outcome.report)));
    if code != ExitCode::SUCCESS {
        return code;
    }
    if !outcome.proof_gate_passed {
        eprintln!(
            "xtask flow: proven-invariant ratio {:.2}% dropped below the ratchet \
             baseline {:.2}% (results/flow_report.json); prove more, don't regress",
            outcome.proven_ratio * 100.0,
            outcome.baseline * 100.0
        );
        return ExitCode::FAILURE;
    }
    if bless {
        match flow::bless(&root, &mut outcome) {
            Ok(path) => println!(
                "xtask flow: report blessed at {} (ratchet now {:.2}%)",
                path.display(),
                outcome.proven_ratio * 100.0
            ),
            Err(err) => {
                eprintln!("xtask flow: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else if !flow::report_is_fresh(&root, &outcome) {
        eprintln!(
            "xtask flow: {} is stale (the analysis moved); run `cargo xtask flow \
             --bless` and commit the report",
            flow::report_path(&root).display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
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
