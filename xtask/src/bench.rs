//! `cargo xtask bench [--smoke]`: run the criterion suite and collect the
//! per-benchmark medians into a machine-readable `BENCH_pr3.json`.
//!
//! The vendored criterion stub appends one JSON line per benchmark to the
//! path named by `SOLARCORE_BENCH_JSON`; this command points that at a
//! scratch file, runs `cargo bench -p bench`, validates the lines, and
//! writes the aggregate report (sorted by name, plus the derived
//! cold-vs-warm day-simulation speedup) to the repository root. A
//! `--smoke` run writes its report to `target/BENCH_smoke.json` instead,
//! so checking the harness never overwrites the committed full-mode file.
//!
//! Failure modes — a panicking benchmark, no output, malformed lines,
//! non-finite medians, or a missing cold/warm or telemetry comparison
//! pair — exit non-zero so CI can gate on `--smoke` runs. The measured
//! ratios themselves (cache speedup, telemetry overhead) are *reported*,
//! not gated: smoke runs on loaded CI machines are too noisy to assert a
//! ratio. The full-mode `BENCH_pr3.json` is where the <3% null-sink
//! telemetry overhead acceptance figure is recorded.

use std::path::Path;
use std::process::{Command, ExitCode};

/// One parsed benchmark record from the stub's JSONL stream.
#[derive(Debug, Clone)]
struct BenchRecord {
    name: String,
    median_ns: f64,
    iters: u64,
    samples: u64,
}

/// The benchmark pair whose ratio seeds the perf trajectory.
const RATIO_BASELINE: &str = "day_sim_cache/uncached";
const RATIO_FAST: &str = "day_sim_cache/warm";

/// The telemetry-overhead pair: the same day simulated with a disabled
/// handle vs. fully instrumented into a `telemetry::NullSink`. Their ratio
/// is the cost of the instrumentation itself (field assembly, dispatch)
/// with encoding excluded — the figure the <3% acceptance bound is about.
const TELEMETRY_BASELINE: &str = "day_sim_telemetry/disabled";
const TELEMETRY_NULL: &str = "day_sim_telemetry/null_sink";

/// Minimum number of named benchmarks a healthy run must emit.
const MIN_BENCHMARKS: usize = 5;

/// Runs the suite and writes `BENCH_pr3.json` (`target/BENCH_smoke.json`
/// in smoke mode); non-zero on any failure.
pub fn run(root: &Path, smoke: bool) -> ExitCode {
    let scratch = root.join("target").join("bench-report.jsonl");
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::remove_file(&scratch);

    let mode = if smoke { "smoke" } else { "full" };
    println!("xtask bench: running cargo bench -p bench ({mode} mode)");
    let mut cmd = Command::new("cargo");
    cmd.args(["bench", "-p", "bench"])
        .current_dir(root)
        .env("SOLARCORE_BENCH_JSON", &scratch);
    if smoke {
        cmd.env("SOLARCORE_BENCH_SMOKE", "1");
    }
    match cmd.status() {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask bench: cargo bench failed with {s}");
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("xtask bench: could not spawn cargo: {err}");
            return ExitCode::FAILURE;
        }
    }

    let raw = match std::fs::read_to_string(&scratch) {
        Ok(raw) => raw,
        Err(err) => {
            eprintln!("xtask bench: no benchmark output at {scratch:?}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let records = match parse_records(&raw) {
        Ok(records) => records,
        Err(err) => {
            eprintln!("xtask bench: malformed benchmark output: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = validate(&records) {
        eprintln!("xtask bench: {err}");
        return ExitCode::FAILURE;
    }

    let report = render_report(&records, mode);
    let out = if smoke {
        root.join("target").join("BENCH_smoke.json")
    } else {
        root.join("BENCH_pr3.json")
    };
    if let Err(err) = std::fs::write(&out, report) {
        eprintln!("xtask bench: cannot write {out:?}: {err}");
        return ExitCode::FAILURE;
    }
    let fmt = |r: Option<f64>, suffix: &str| {
        r.map_or_else(|| "n/a".to_owned(), |r| format!("{r:.2}{suffix}"))
    };
    println!(
        "xtask bench: {} benchmarks -> {} (day-sim uncached/warm = {}, telemetry null/disabled = {})",
        records.len(),
        out.display(),
        fmt(speedup(&records), "x"),
        fmt(telemetry_overhead(&records), "x"),
    );
    ExitCode::SUCCESS
}

/// Parses the stub's JSONL stream. Each line is one flat object emitted by
/// a process we control, so a targeted field scanner is sufficient — xtask
/// deliberately has no dependencies.
fn parse_records(raw: &str) -> Result<Vec<BenchRecord>, String> {
    let mut records = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = parse_line(line)
            .ok_or_else(|| format!("line {}: unparseable record `{line}`", lineno + 1))?;
        records.push(record);
    }
    Ok(records)
}

fn parse_line(line: &str) -> Option<BenchRecord> {
    let name = string_field(line, "name")?;
    let median_ns = number_field(line, "median_ns")?;
    // Counts are written as plain integers; reject fractional or absurd
    // values instead of truncating.
    let count = |key: &str| {
        let n = number_field(line, key)?;
        if n.fract() == 0.0 && (0.0..9e15).contains(&n) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(n as u64)
        } else {
            None
        }
    };
    Some(BenchRecord {
        name,
        median_ns,
        iters: count("iters")?,
        samples: count("samples")?,
    })
}

/// Extracts `"key":"value"` (with `\"`/`\\` unescaping).
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
}

/// Extracts a bare numeric `"key":123.4` field.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn validate(records: &[BenchRecord]) -> Result<(), String> {
    if records.len() < MIN_BENCHMARKS {
        return Err(format!(
            "only {} benchmark(s) emitted; expected at least {MIN_BENCHMARKS}",
            records.len()
        ));
    }
    for r in records {
        if !r.median_ns.is_finite() || r.median_ns <= 0.0 {
            return Err(format!(
                "benchmark `{}` has bad median {}",
                r.name, r.median_ns
            ));
        }
        if r.iters == 0 || r.samples == 0 {
            return Err(format!("benchmark `{}` ran zero iterations", r.name));
        }
    }
    for required in [
        RATIO_BASELINE,
        RATIO_FAST,
        TELEMETRY_BASELINE,
        TELEMETRY_NULL,
    ] {
        if !records.iter().any(|r| r.name == required) {
            return Err(format!(
                "required benchmark `{required}` missing from output"
            ));
        }
    }
    Ok(())
}

/// Looks up one benchmark's median by exact name.
fn median_of(records: &[BenchRecord], name: &str) -> Option<f64> {
    records.iter().find(|r| r.name == name).map(|r| r.median_ns)
}

/// The headline cold-vs-warm full-day-sim speedup, when both ends ran.
fn speedup(records: &[BenchRecord]) -> Option<f64> {
    let baseline = median_of(records, RATIO_BASELINE)?;
    let fast = median_of(records, RATIO_FAST)?;
    (fast > 0.0).then(|| baseline / fast)
}

/// Instrumented-over-disabled day-sim cost ratio (1.0 = free; the
/// acceptance bound for the null sink is < 1.03).
fn telemetry_overhead(records: &[BenchRecord]) -> Option<f64> {
    let disabled = median_of(records, TELEMETRY_BASELINE)?;
    let null = median_of(records, TELEMETRY_NULL)?;
    (disabled > 0.0).then(|| null / disabled)
}

fn escape_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the aggregate report (stable order: sorted by benchmark name).
fn render_report(records: &[BenchRecord], mode: &str) -> String {
    let mut sorted: Vec<&BenchRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"unit\": \"ns/iter (median)\",\n");
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in sorted.iter().enumerate() {
        let comma = if i + 1 == sorted.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {:.3}, \"iters\": {}, \"samples\": {}}}{comma}\n",
            escape_json(&r.name),
            r.median_ns,
            r.iters,
            r.samples
        ));
    }
    out.push_str("  ],\n");
    let render = |r: Option<f64>| r.map_or_else(|| "null".to_owned(), |r| format!("{r:.3}"));
    out.push_str("  \"derived\": {\n");
    out.push_str(&format!(
        "    \"day_sim_uncached_over_warm\": {},\n",
        render(speedup(records))
    ));
    out.push_str(&format!(
        "    \"day_sim_telemetry_null_over_disabled\": {}\n",
        render(telemetry_overhead(records))
    ));
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, median: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_owned(),
            median_ns: median,
            iters: 10,
            samples: 3,
        }
    }

    #[test]
    fn parses_stub_lines() {
        let raw =
            "{\"name\":\"day_sim_cache/warm\",\"median_ns\":123.456,\"iters\":10,\"samples\":7}\n";
        let records = parse_records(raw).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "day_sim_cache/warm");
        assert!((records[0].median_ns - 123.456).abs() < 1e-9);
        assert_eq!(records[0].iters, 10);
        assert_eq!(records[0].samples, 7);
    }

    #[test]
    fn unescapes_names() {
        let raw = "{\"name\":\"a\\\"b\",\"median_ns\":1,\"iters\":1,\"samples\":1}\n";
        assert_eq!(parse_records(raw).unwrap()[0].name, "a\"b");
    }

    #[test]
    fn rejects_garbage_lines() {
        assert!(parse_records("not json\n").is_err());
        assert!(parse_records("{\"name\":\"x\"}\n").is_err());
    }

    /// The four benchmarks validation insists on, with healthy medians.
    fn required_records() -> Vec<BenchRecord> {
        vec![
            record(RATIO_BASELINE, 300.0),
            record(RATIO_FAST, 100.0),
            record(TELEMETRY_BASELINE, 200.0),
            record(TELEMETRY_NULL, 204.0),
        ]
    }

    #[test]
    fn validate_requires_count_and_ratio_pairs() {
        let mut records: Vec<BenchRecord> =
            (0..5).map(|i| record(&format!("b{i}"), 10.0)).collect();
        assert!(validate(&records).unwrap_err().contains("required"));
        records.extend(required_records());
        assert!(validate(&records).is_ok());
        assert!(validate(&records[..4])
            .unwrap_err()
            .contains("expected at least"));

        // Dropping either telemetry end breaks validation: the overhead
        // figure must stay in every future BENCH report.
        let missing: Vec<BenchRecord> = records
            .iter()
            .filter(|r| r.name != TELEMETRY_NULL)
            .cloned()
            .collect();
        assert!(validate(&missing).unwrap_err().contains(TELEMETRY_NULL));
    }

    #[test]
    fn validate_rejects_bad_medians() {
        let mut records: Vec<BenchRecord> =
            (0..4).map(|i| record(&format!("b{i}"), 10.0)).collect();
        records.extend(required_records());
        records.push(record("bad", f64::NAN));
        assert!(validate(&records).unwrap_err().contains("bad median"));
    }

    #[test]
    fn speedup_is_baseline_over_fast() {
        let records = vec![record(RATIO_BASELINE, 300.0), record(RATIO_FAST, 100.0)];
        assert!((speedup(&records).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn telemetry_overhead_is_instrumented_over_disabled() {
        let records = vec![
            record(TELEMETRY_BASELINE, 200.0),
            record(TELEMETRY_NULL, 204.0),
        ];
        assert!((telemetry_overhead(&records).unwrap() - 1.02).abs() < 1e-12);
    }

    #[test]
    fn report_is_sorted_and_carries_ratios() {
        let mut records = required_records();
        records.push(record("z/last", 5.0));
        let report = render_report(&records, "smoke");
        let a = report.find(RATIO_BASELINE).unwrap();
        let z = report.find("z/last").unwrap();
        assert!(a < z, "benchmarks must be name-sorted");
        assert!(report.contains("\"day_sim_uncached_over_warm\": 3.000"));
        assert!(report.contains("\"day_sim_telemetry_null_over_disabled\": 1.020"));
        assert!(report.contains("\"mode\": \"smoke\""));
    }
}
