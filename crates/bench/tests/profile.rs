//! Profiler contract tests (DESIGN.md §19).
//!
//! Three properties the profiling layer must hold:
//!
//! 1. **Flamegraph round-trip** — any forest reachable from collapsed
//!    stack lines survives `parse → collapse → parse` unchanged
//!    (property-tested over random path/value multisets, duplicates
//!    included).
//! 2. **Null cost** — a disabled profiler's `scope()` must stay under a
//!    pinned per-call bound, so always-on instrumentation seams are free
//!    when nobody is measuring.
//! 3. **Structural determinism** — the profile's structural section
//!    renders byte-identically at 1 and 2 worker threads, twice over,
//!    while the report bytes match the unprofiled run's, the pool
//!    analysis is sane and the emitted flamegraph lines round-trip.

use bench::campaign::{run, CampaignSpec, RunOptions};
use bench::profile::{collapse_lines, parse_collapsed, stack_of, structural_json};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use telemetry::{Profiler, Stopwatch};

/// Frame-name alphabet for generated stacks.
const NAMES: [&str; 6] = ["prepare", "run_day", "tpr", "mppt", "shard", "io"];

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse → collapse → parse` is the identity on parsed forests —
    /// including duplicate paths (which accumulate on first parse) and
    /// zero-valued interior frames.
    #[test]
    fn collapsed_stack_lines_round_trip(
        paths in pvec((pvec(0usize..6, 1..5), 0u64..10_000), 1..24)
    ) {
        let lines: Vec<String> = paths
            .iter()
            .map(|(path, value)| {
                let names: Vec<&str> = path.iter().map(|&i| NAMES[i]).collect();
                format!("{} {value}", names.join(";"))
            })
            .collect();
        let forest = parse_collapsed(&lines).expect("generated lines parse");
        let relines = collapse_lines(&forest);
        let reforest = parse_collapsed(&relines).expect("round-tripped lines parse");
        prop_assert_eq!(forest, reforest);
    }
}

/// The stated null-cost bound: a disabled `scope()` must average under
/// 500 ns per call over 100 000 calls (it is one `Option` check and a
/// no-drop guard; 500 ns leaves two orders of magnitude of headroom for
/// loaded CI machines).
#[test]
fn disabled_profiler_scope_is_free() {
    const CALLS: u32 = 100_000;
    const MAX_NS_PER_CALL: u64 = 500;

    let prof = Profiler::disabled();
    let watch = Stopwatch::new();
    for _ in 0..CALLS {
        let _guard = prof.scope("null");
    }
    let per_call = watch.elapsed_ns() / u64::from(CALLS);
    assert!(!prof.is_enabled());
    assert_eq!(prof.tree().node_count(), 0, "disabled profiler recorded spans");
    assert!(
        per_call < MAX_NS_PER_CALL,
        "disabled scope() costs {per_call} ns/call, bound is {MAX_NS_PER_CALL}"
    );
}

/// The structural section is deterministic: byte-identical across worker
/// thread counts and across repeated renders, while the profiled runs'
/// report bytes match the unprofiled run's. The spec arms one fault
/// scenario, so an armed shard is covered too.
#[test]
fn structural_section_is_byte_stable_across_thread_counts() {
    let spec = CampaignSpec::parse(
        "[campaign]\nname = \"profile-test\"\nsites = \"AZ,TN\"\nmonths = \"Jan\"\n\
         mixes = \"HM2\"\npolicies = \"MPPT&Opt\"\nscenarios = \"none,10_stuck_noon.toml\"\n\
         checkpoint_every = 1\n",
    )
    .expect("spec parses");
    let scenarios = scenarios_dir();

    let profiled = |threads: usize| {
        run(&spec, &scenarios, &RunOptions {
            threads,
            profile: true,
            ..RunOptions::default()
        })
        .expect("profiled run")
    };
    let narrow = profiled(1);
    let wide = profiled(2);
    let plain = run(&spec, &scenarios, &RunOptions {
        threads: 2,
        ..RunOptions::default()
    })
    .expect("unprofiled run");

    let wide_prof = wide.profile.as_ref().expect("wide profile");
    let narrow_tree = &narrow.profile.as_ref().expect("narrow profile").tree;
    let wide_tree = &wide_prof.tree;
    assert!(narrow_tree.node_count() > 0, "profiled campaign recorded nothing");

    let narrow_doc = structural_json(narrow_tree).render();
    let wide_doc = structural_json(wide_tree).render();
    assert_eq!(narrow_doc, wide_doc, "structure depends on thread count");
    assert_eq!(
        wide_doc,
        structural_json(wide_tree).render(),
        "structural render is unstable"
    );

    assert_eq!(wide.digest(), plain.digest(), "profiling moved the campaign digest");
    for (threads, outcome) in [(1, &narrow), (2, &wide)] {
        assert_eq!(
            outcome.report_json().render(),
            plain.report_json().render(),
            "profiling at {threads} thread(s) changed the report bytes"
        );
    }
    assert!(plain.profile.is_none(), "unprofiled run carried a profile");

    let util = wide_prof.pool_utilization();
    assert!(util > 0.0 && util <= 1.0, "pool utilization {util} out of (0, 1]");
    let lines = collapse_lines(&stack_of(wide_tree));
    let parsed = parse_collapsed(&lines).expect("emitted flamegraph lines parse");
    assert_eq!(collapse_lines(&parsed), lines, "flamegraph lines do not round-trip");
}
