//! Profiler contract tests (DESIGN.md §19).
//!
//! Two properties the profiling layer must hold:
//!
//! 1. **Null cost** — a disabled profiler's `scope()` must stay under a
//!    pinned per-call bound, so always-on instrumentation seams are free
//!    when nobody is measuring.
//! 2. **Transparency** — a profiled campaign renders the same report
//!    bytes as an unprofiled one at 1 and 2 worker threads, while its
//!    wall record is complete: each executed shard timed exactly once,
//!    every shard in exactly one wave, and a pool utilization in (0, 1].
//!    perfbench's `shard.*`, `campaign.*` and `ledger.campaign` rows read
//!    that record.

use bench::campaign::{run, CampaignOutcome, CampaignSpec, RunOptions};
use std::path::{Path, PathBuf};
use telemetry::{Profiler, Stopwatch};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
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

/// Profiled runs at 1 and 2 threads render the unprofiled report bytes,
/// and each carries a complete wall record. The spec arms one fault
/// scenario, so an armed shard is covered too.
#[test]
fn profiled_runs_render_the_unprofiled_report() {
    let spec = CampaignSpec::parse(
        "[campaign]\nname = \"profile-test\"\nsites = \"AZ,TN\"\nmonths = \"Jan\"\n\
         mixes = \"HM2\"\npolicies = \"MPPT&Opt\"\nscenarios = \"none,10_stuck_noon.toml\"\n\
         checkpoint_every = 1\n",
    )
    .expect("spec parses");
    let scenarios = scenarios_dir();
    let shards = spec.shards(&scenarios).expect("shards enumerate").len();
    assert_eq!(shards, 4);

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

    assert_eq!(wide.digest(), plain.digest(), "profiling moved the campaign digest");
    for (threads, outcome) in [(1, &narrow), (2, &wide)] {
        assert_eq!(
            outcome.report_json().render(),
            plain.report_json().render(),
            "profiling at {threads} thread(s) changed the report bytes"
        );
        assert_wall_record_is_complete(outcome, shards, threads);
    }
    assert!(plain.profile.is_none(), "unprofiled run carried a profile");
}

/// The invariants perfbench's wall rows rest on: `shard_walls` holds each
/// shard index exactly once, the waves together executed every shard, and
/// the pool utilization is a ratio in (0, 1].
fn assert_wall_record_is_complete(outcome: &CampaignOutcome, shards: usize, threads: usize) {
    let profile = outcome.profile.as_ref().expect("profiled run carries a profile");
    assert_eq!(profile.threads, threads);
    let mut indices: Vec<usize> = profile.shard_walls.iter().map(|&(i, _)| i).collect();
    indices.sort_unstable();
    assert_eq!(
        indices,
        (0..shards).collect::<Vec<_>>(),
        "shard_walls must time each shard exactly once"
    );
    let waved: usize = profile.waves.iter().map(|w| w.shards).sum();
    assert_eq!(waved, shards, "the waves' shard counts must sum to the shard count");
    let util = profile.pool_utilization();
    assert!(util > 0.0 && util <= 1.0, "pool utilization {util} out of (0, 1]");
}
