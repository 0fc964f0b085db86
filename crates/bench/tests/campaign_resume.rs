//! Checkpoint/resume correctness properties of the campaign engine.
//!
//! The engine's contract (DESIGN.md §18): killing a campaign after any
//! number of completed shards and resuming from its checkpoint yields a
//! final report **byte-identical** to an uninterrupted run, re-executes
//! nothing before the durable checkpoint frontier, and restores
//! checkpointed rows verbatim rather than recomputing them. The last
//! property is proven the strong way — by *tampering* with a
//! checkpointed row and observing the tampered value survive resume.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bench::campaign::{run, CampaignSpec, RunOptions, ShardRow};
use bench::output::Json;
use proptest::prelude::*;

/// A four-shard spec with single-shard waves, so every kill point
/// `1..=3` exercises a distinct frontier. Every other shard is armed with
/// a fault scenario, so checkpoints from kill point 2 on carry the
/// fault and degradation event tallies through resume.
const SPEC: &str = r#"
[campaign]
name = "resume-props"
sites = "AZ,NC"
months = "Apr"
mixes = "HM2"
policies = "MPPT&Opt"
scenarios = "none,10_stuck_noon.toml"
checkpoint_every = 1
"#;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// What the tests read of the uninterrupted run of [`SPEC`]: its rendered
/// report, its rows and its digest. (A `CampaignOutcome` holds a
/// `MetricFold`, which is not `Sync`, so it cannot sit in a static.)
struct Reference {
    report: String,
    rows: Vec<ShardRow>,
    digest: u64,
}

/// The uninterrupted run of [`SPEC`], computed once per test binary and
/// shared by every test that compares against it.
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let spec = CampaignSpec::parse(SPEC).expect("spec parses");
        let outcome =
            run(&spec, &scenarios_dir(), &RunOptions::default()).expect("uninterrupted run");
        Reference {
            report: outcome.report_json().render(),
            digest: outcome.digest(),
            rows: outcome.rows,
        }
    })
}

/// A checkpoint path unique to this process and `tag` (proptest cases
/// run sequentially per process, so a per-case tag keeps them disjoint).
fn scratch(tag: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "solarcore_resume_props_{}_{tag}.json",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Kill after `k` shards, resume, and compare against an
    /// uninterrupted run: the reports must render byte-identically, the
    /// resume must restore exactly the killed run's durable frontier,
    /// and no shard before that frontier may re-execute.
    #[test]
    fn killed_and_resumed_campaign_is_byte_identical(k in 1usize..=3) {
        let spec = CampaignSpec::parse(SPEC).expect("spec parses");
        let scenarios = scenarios_dir();
        let reference = reference();

        let checkpoint = scratch(k);
        let _ = std::fs::remove_file(&checkpoint);
        let killed = run(&spec, &scenarios, &RunOptions {
            threads: 1,
            checkpoint: Some(checkpoint.clone()),
            kill_after: Some(k),
            ..RunOptions::default()
        })
        .expect("killed run returns");
        let resumed = run(&spec, &scenarios, &RunOptions {
            threads: 1,
            checkpoint: Some(checkpoint.clone()),
            kill_after: None,
            ..RunOptions::default()
        })
        .expect("resume runs");
        let _ = std::fs::remove_file(&checkpoint);

        prop_assert!(!killed.complete, "kill_after={k} did not abort");
        prop_assert!(resumed.complete);
        prop_assert_eq!(
            resumed.report_json().render(),
            reference.report.clone(),
            "kill@{}+resume diverged from the uninterrupted bytes", k
        );
        prop_assert_eq!(resumed.resumed_from, killed.checkpointed);
        prop_assert!(
            resumed.executed.iter().all(|&i| i >= killed.checkpointed),
            "resume re-executed a shard before the frontier {}", killed.checkpointed
        );
        prop_assert_eq!(
            resumed.resumed_from + resumed.executed.len(),
            reference.rows.len(),
            "restored + executed shards must cover the campaign exactly"
        );
    }
}

/// Restored rows are trusted verbatim, never recomputed: corrupt a
/// checkpointed row's `ptp` and the corruption must survive resume (and
/// surface as a digest change). If resume recomputed restored shards the
/// tampering would be silently healed — and the no-re-execution guarantee
/// would be a lie.
#[test]
fn tampered_checkpoint_rows_survive_resume_verbatim() {
    let spec = CampaignSpec::parse(SPEC).expect("spec parses");
    let scenarios = scenarios_dir();
    let checkpoint = scratch(99);
    let _ = std::fs::remove_file(&checkpoint);
    run(&spec, &scenarios, &RunOptions {
        threads: 1,
        checkpoint: Some(checkpoint.clone()),
        kill_after: Some(2),
        ..RunOptions::default()
    })
    .expect("killed run returns");

    // Tamper: overwrite the first row's ptp with a sentinel value.
    let text = std::fs::read_to_string(&checkpoint).expect("checkpoint exists");
    let doc = Json::parse(&text).expect("checkpoint parses");
    let rows = doc["rows"].as_array().expect("rows present");
    assert!(!rows.is_empty(), "kill_after=2 checkpointed no rows");
    let original = format!("{}", rows[0]["ptp"].as_f64().expect("ptp present"));
    let tampered = text.replacen(&original, "123456789", 1);
    assert_ne!(tampered, text, "tampering failed to change the checkpoint");
    std::fs::write(&checkpoint, &tampered).expect("tampered checkpoint written");

    let resumed = run(&spec, &scenarios, &RunOptions {
        threads: 1,
        checkpoint: Some(checkpoint.clone()),
        kill_after: None,
        ..RunOptions::default()
    })
    .expect("resume runs");
    let _ = std::fs::remove_file(&checkpoint);

    let reference = reference();
    assert_eq!(
        resumed.rows[0].ptp.to_bits(),
        123_456_789.0f64.to_bits(),
        "restored row was recomputed instead of trusted verbatim"
    );
    assert_ne!(
        resumed.digest(),
        reference.digest,
        "tampering must surface in the campaign digest"
    );
    // Only the tampered field differs: every shard at/after the frontier
    // matches the clean run bit-for-bit.
    for (r, c) in resumed.rows.iter().zip(&reference.rows).skip(1) {
        assert_eq!(r.digest, c.digest, "untampered shard {} drifted", r.index);
    }
}

/// A checkpoint that lost its `aggregate`, or whose `completed` count
/// disagrees with its rows, is truncated or hand-edited: resume must
/// refuse it rather than restore the rows with an empty or wrong fold.
#[test]
fn incomplete_checkpoints_are_rejected_on_resume() {
    let spec = CampaignSpec::parse(SPEC).expect("spec parses");
    let scenarios = scenarios_dir();
    let checkpoint = scratch(98);
    let _ = std::fs::remove_file(&checkpoint);
    run(&spec, &scenarios, &RunOptions {
        threads: 1,
        checkpoint: Some(checkpoint.clone()),
        kill_after: Some(2),
        ..RunOptions::default()
    })
    .expect("killed run returns");
    let text = std::fs::read_to_string(&checkpoint).expect("checkpoint exists");
    let Json::Obj(entries) = Json::parse(&text).expect("checkpoint parses") else {
        panic!("checkpoint is not a JSON object");
    };

    let stripped: BTreeMap<_, _> = entries
        .iter()
        .filter(|(k, _)| *k != "aggregate")
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let bumped: BTreeMap<_, _> = entries
        .iter()
        .map(|(k, v)| match (k.as_str(), v.as_u64()) {
            ("completed", Some(n)) => (k.clone(), Json::uint(n + 1)),
            _ => (k.clone(), v.clone()),
        })
        .collect();
    assert_ne!(bumped, entries, "checkpoint has no `completed` count to bump");

    for (edited, expected) in [(stripped, "aggregate"), (bumped, "completed")] {
        let edited = Json::Obj(edited).render();
        std::fs::write(&checkpoint, edited).expect("edited checkpoint written");
        let err = run(&spec, &scenarios, &RunOptions {
            threads: 1,
            checkpoint: Some(checkpoint.clone()),
            kill_after: None,
            ..RunOptions::default()
        })
        .expect_err("resume from an edited checkpoint must fail");
        assert!(err.to_string().contains(expected), "{expected}: {err}");
    }
    let _ = std::fs::remove_file(&checkpoint);
}
