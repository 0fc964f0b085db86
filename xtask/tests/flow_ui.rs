//! Fixture-driven ui tests for the `cargo xtask flow` range pass.
//!
//! Each `tests/fixtures/flow/<name>.rs` file is a Rust snippet with a
//! directive header:
//!
//! * `//@ pass: range` — which pass to run (required);
//! * `//@ path: crates/.../file.rs` — the virtual workspace path the
//!   fixture is checked under (default `crates/fixture/src/lib.rs`);
//! * `//@ checks: <P> proven, <R> runtime, <V> violated` — the exact
//!   classification tally across the fixture's sanitizer sites.
//!
//! The companion `<name>.expected` file holds the exact structured
//! diagnostics (`{path}:{line}: [{pass}] {message}`), one per line, in
//! emission order; an empty file asserts the pass stays silent. The
//! clean fixtures double as the zero-false-positive guard. Run with
//! `BLESS=1` to rewrite the `.expected` files from actual output after an
//! intentional diagnostic change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use xtask::flow;
use xtask::flow::range::{self, CheckStatus};
use xtask::flow::seeds::Seeds;
use xtask::syntax::source::SourceFile;

struct Fixture {
    name: String,
    pass: String,
    path: String,
    checks: Option<(usize, usize, usize)>,
    body: String,
    expected_file: PathBuf,
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow")
}

fn load_fixtures() -> Vec<Fixture> {
    let dir = fixtures_dir();
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let p = entry.expect("dir entry").path();
        if p.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = p.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&p).expect("fixture readable");
        let mut pass = None;
        let mut path = "crates/fixture/src/lib.rs".to_owned();
        let mut checks = None;
        for line in text.lines() {
            let Some(directive) = line.strip_prefix("//@") else {
                continue;
            };
            if let Some(v) = directive.trim().strip_prefix("pass:") {
                pass = Some(v.trim().to_owned());
            } else if let Some(v) = directive.trim().strip_prefix("path:") {
                path = v.trim().to_owned();
            } else if let Some(v) = directive.trim().strip_prefix("checks:") {
                checks = Some(parse_checks(v, &name));
            } else {
                panic!("{name}: unknown directive `//@{directive}`");
            }
        }
        out.push(Fixture {
            pass: pass.unwrap_or_else(|| panic!("{name}: missing `//@ pass:` directive")),
            path,
            checks,
            body: text,
            expected_file: p.with_extension("expected"),
            name,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Parses `<P> proven, <R> runtime, <V> violated`.
fn parse_checks(v: &str, name: &str) -> (usize, usize, usize) {
    let mut counts = [None; 3];
    for part in v.split(',') {
        let mut it = part.split_whitespace();
        let (Some(n), Some(label)) = (it.next(), it.next()) else {
            panic!("{name}: malformed checks directive part `{part}`");
        };
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| panic!("{name}: bad count `{n}`"));
        let slot = match label {
            "proven" => 0,
            "runtime" => 1,
            "violated" => 2,
            other => panic!("{name}: unknown checks label `{other}`"),
        };
        counts[slot] = Some(n);
    }
    (
        counts[0].expect("proven count"),
        counts[1].expect("runtime count"),
        counts[2].expect("violated count"),
    )
}

/// Runs the fixture's pass; returns the rendered diagnostics and the
/// (proven, runtime, violated) tally.
fn run_fixture(f: &Fixture) -> (Vec<String>, Option<(usize, usize, usize)>) {
    let src = SourceFile::parse(&f.path, &f.body);
    match f.pass.as_str() {
        "range" => {
            assert!(
                range::applies_to(&f.path),
                "{}: path {} is outside the range pass's scope",
                f.name,
                f.path
            );
            let (sites, violations) = range::check(&src, &Seeds::for_tests());
            let tally =
                sites
                    .iter()
                    .flat_map(|s| s.checks.iter())
                    .fold((0, 0, 0), |(p, r, v), c| match c.status {
                        CheckStatus::Proven => (p + 1, r, v),
                        CheckStatus::Runtime => (p, r + 1, v),
                        CheckStatus::Violated => (p, r, v + 1),
                    });
            (
                violations.iter().map(ToString::to_string).collect(),
                Some(tally),
            )
        }
        other => panic!("{}: unknown pass `{other}`", f.name),
    }
}

#[test]
fn fixtures_produce_exactly_their_expected_diagnostics() {
    let fixtures = load_fixtures();
    assert!(
        fixtures.len() >= 4,
        "expected the full fixture suite, found {}",
        fixtures.len()
    );
    let bless = std::env::var_os("BLESS").is_some();
    let mut failures = String::new();
    for f in &fixtures {
        let (diags, tally) = run_fixture(f);
        let actual = if diags.is_empty() {
            String::new()
        } else {
            diags.join("\n") + "\n"
        };
        if bless {
            std::fs::write(&f.expected_file, &actual).expect("write .expected");
            continue;
        }
        let expected = std::fs::read_to_string(&f.expected_file).unwrap_or_else(|e| {
            panic!(
                "{}: cannot read {} (run with BLESS=1 to create it): {e}",
                f.name,
                f.expected_file.display()
            )
        });
        if actual != expected {
            let _ = writeln!(
                failures,
                "== {} ==\n--- expected ---\n{expected}--- actual ---\n{actual}",
                f.name
            );
        }
        if let (Some(want), Some(got)) = (f.checks, tally) {
            if want != got {
                let _ = writeln!(
                    failures,
                    "== {} == check tally mismatch: expected {want:?} \
                     (proven, runtime, violated), got {got:?}",
                    f.name
                );
            }
        }
    }
    assert!(failures.is_empty(), "\n{failures}");
}

/// Every pass must appear in the suite with at least one violating and one
/// clean fixture, so pass regressions in either direction are caught.
#[test]
fn suite_covers_every_pass_in_both_directions() {
    let fixtures = load_fixtures();
    for pass in flow::PASSES {
        let of_pass: Vec<&Fixture> = fixtures.iter().filter(|f| f.pass == *pass).collect();
        assert!(
            of_pass.iter().any(|f| {
                std::fs::read_to_string(&f.expected_file).is_ok_and(|e| !e.is_empty())
            }),
            "no violating fixture for pass `{pass}`"
        );
        assert!(
            of_pass
                .iter()
                .any(|f| { std::fs::read_to_string(&f.expected_file).is_ok_and(|e| e.is_empty()) }),
            "no clean fixture for pass `{pass}`"
        );
    }
}
