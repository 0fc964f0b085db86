//! Fixture-driven ui tests for the `cargo xtask graph` passes.
//!
//! Each `tests/fixtures/graph/<name>.rs` file is a Rust snippet with a
//! directive header:
//!
//! * `//@ pass: summary | reach` — whose diagnostics the fixture
//!   asserts (required; the other passes still run, their findings are
//!   ignored);
//! * `//@ path: crates/.../file.rs` — the virtual workspace path the
//!   fixture is checked under (default `crates/fixture/src/lib.rs`);
//! * `//@ largest-scc: <N>` — optional: the size of the largest SCC the
//!   call graph must condense to (the recursion fixtures pin this).
//!
//! The companion `<name>.expected` file holds the exact structured
//! diagnostics (`{path}:{line}: [{pass}] {message}`) *anchored at the
//! fixture's own path*, one per line, in emission order; an empty file
//! asserts the pass stays silent. Whole-workspace findings anchored
//! elsewhere (seed drift at the invariants file, unit-type checks at the
//! units file) are out of scope here — the fixture is not the workspace.
//! Run with `BLESS=1` to rewrite the `.expected` files from actual
//! output after an intentional diagnostic change.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use xtask::flow::seeds::Seeds;
use xtask::graph;
use xtask::syntax::source::SourceFile;

struct Fixture {
    name: String,
    pass: String,
    path: String,
    largest_scc: Option<usize>,
    body: String,
    expected_file: PathBuf,
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph")
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
        let mut largest_scc = None;
        for line in text.lines() {
            let Some(directive) = line.strip_prefix("//@") else {
                continue;
            };
            if let Some(v) = directive.trim().strip_prefix("pass:") {
                pass = Some(v.trim().to_owned());
            } else if let Some(v) = directive.trim().strip_prefix("path:") {
                path = v.trim().to_owned();
            } else if let Some(v) = directive.trim().strip_prefix("largest-scc:") {
                let n = v
                    .trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name}: bad largest-scc `{v}`"));
                largest_scc = Some(n);
            } else {
                panic!("{name}: unknown directive `//@{directive}`");
            }
        }
        let pass = pass.unwrap_or_else(|| panic!("{name}: missing `//@ pass:` directive"));
        assert!(
            graph::PASSES.contains(&pass.as_str()),
            "{name}: unknown graph pass `{pass}`"
        );
        out.push(Fixture {
            pass,
            path,
            largest_scc,
            body: text,
            expected_file: p.with_extension("expected"),
            name,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Runs the full graph analysis over the single-file fixture; returns the
/// rendered diagnostics for the fixture's pass anchored at its own path,
/// plus the largest SCC size the call graph condensed to.
fn run_fixture(f: &Fixture) -> (Vec<String>, usize) {
    let src = SourceFile::parse(&f.path, &f.body);
    let analysis = graph::analyze(std::slice::from_ref(&src), &Seeds::for_tests());
    let diags = analysis
        .findings
        .iter()
        .filter(|v| v.pass == f.pass && v.path == f.path)
        .map(ToString::to_string)
        .collect();
    let largest = analysis
        .summary
        .sccs
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    (diags, largest)
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
        let (diags, largest) = run_fixture(f);
        let actual = if diags.is_empty() {
            String::new()
        } else {
            diags.join("\n") + "\n"
        };
        if bless {
            std::fs::write(&f.expected_file, &actual).expect("write .expected");
        } else {
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
        }
        if let Some(want) = f.largest_scc {
            if want != largest {
                let _ = writeln!(
                    failures,
                    "== {} == largest SCC mismatch: expected {want}, got {largest}",
                    f.name
                );
            }
        }
    }
    assert!(failures.is_empty(), "\n{failures}");
}

/// Every graph pass must appear in the suite with at least one violating
/// and one clean fixture, so pass regressions in either direction are
/// caught.
#[test]
fn suite_covers_every_pass_in_both_directions() {
    let fixtures = load_fixtures();
    for pass in graph::PASSES {
        let of_pass: Vec<&Fixture> = fixtures.iter().filter(|f| f.pass == *pass).collect();
        assert!(
            of_pass
                .iter()
                .any(|f| std::fs::read_to_string(&f.expected_file).is_ok_and(|e| !e.is_empty())),
            "no violating fixture for pass `{pass}`"
        );
        assert!(
            of_pass
                .iter()
                .any(|f| std::fs::read_to_string(&f.expected_file).is_ok_and(|e| e.is_empty())),
            "no clean fixture for pass `{pass}`"
        );
    }
}
