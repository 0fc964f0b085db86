//! Fuzzes the one spec reader through both of its formats.
//!
//! Random byte inserts, deletes and replacements are applied to every
//! committed `scenarios/*.toml` file and to `campaigns/year_fleet.toml`.
//! Each result goes through `parse_scenario`, or through
//! `CampaignSpec::parse` and then `shards()` when it parses. Nothing may
//! panic, and every parse error must name a line of the edited text.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bench::campaign::{CampaignError, CampaignSpec};
use faults::{parse_scenario, FaultError};
use proptest::prelude::*;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// The committed spec texts: the scenarios in name order, then the
/// campaign last.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_path("scenarios"))
            .expect("scenarios/ is committed")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 7, "committed scenario count");
        paths.push(repo_path("campaigns/year_fleet.toml"));
        paths
            .iter()
            .map(|p| std::fs::read_to_string(p).expect("committed spec reads"))
            .collect()
    })
}

/// Bytes the grammar gives meaning to, so most edits hit structure
/// rather than comments.
const SIGNIFICANT: &[u8] = b"\"#=[],-\n 0123456789azAZ_.\r\t";

/// Applies `(op, position, byte)` edits in turn: op 0 inserts, 1
/// deletes, 2 replaces. A byte below 128 picks from [`SIGNIFICANT`];
/// the rest go in raw, so invalid UTF-8 reaches the reader as U+FFFD.
fn edit(text: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(op, pos, raw) in edits {
        let byte = if raw < 128 {
            SIGNIFICANT[usize::from(raw) % SIGNIFICANT.len()]
        } else {
            raw
        };
        match op {
            0 => bytes.insert(pos % (bytes.len() + 1), byte),
            _ if bytes.is_empty() => {}
            1 => {
                bytes.remove(pos % bytes.len());
            }
            _ => {
                let i = pos % bytes.len();
                bytes[i] = byte;
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The reader's line for a parse error, if the result is one.
fn parse_line(text: &str, campaign: bool) -> Option<usize> {
    if campaign {
        match CampaignSpec::parse(text) {
            Ok(spec) => {
                // A scenario name the edit bent is a missing file, which
                // `shards` reports without a line.
                if let Ok(shards) = spec.shards(&repo_path("scenarios")) {
                    assert!(!shards.is_empty(), "a parsed spec has shards");
                }
                None
            }
            Err(CampaignError::Parse { line, .. }) => Some(line),
            Err(e @ CampaignError::Invalid { .. }) => panic!("spec parse raised {e:?}"),
        }
    } else {
        match parse_scenario(text) {
            Err(FaultError::Parse { line, .. }) => Some(line),
            Ok(_) | Err(FaultError::InvalidFault { .. }) => None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Edited specs never panic the reader, and a parse error always
    /// names a line the edited text has (line 1 of an empty text).
    #[test]
    fn edited_specs_fail_at_a_line_they_have(
        file in 0usize..8,
        edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..8),
    ) {
        let corpus = corpus();
        let text = edit(&corpus[file], &edits);
        let campaign = file == corpus.len() - 1;
        if let Some(line) = parse_line(&text, campaign) {
            let lines = text.lines().count().max(1);
            prop_assert!(
                (1..=lines).contains(&line),
                "line {line} outside 1..={lines} in:\n{text}"
            );
        }
    }
}

#[test]
fn the_unedited_corpus_parses() {
    let corpus = corpus();
    for (file, text) in corpus.iter().enumerate() {
        assert_eq!(parse_line(text, file == corpus.len() - 1), None, "{text}");
    }
}
