//! The bitwise-reproducibility gate (DESIGN.md §12): the policy-grid
//! sweep must produce byte-identical output at 1 thread, 8 threads, and
//! with its sites given in the other order, and the canonical day must
//! hash to its pin whether it runs plain, traced, armed with an empty fault
//! plan or profiled.

use std::cell::RefCell;
use std::rc::Rc;

use bench::campaign::ShardRow;
use bench::determinism::{day_hash, grid_hash};
use bench::grid::{GridConfig, PolicyGrid};
use bench::output::Json;
use bench::pins::{assert_pins, Pins};
use faults::FaultPlan;
use solarcore::engine::DaySimulationBuilder;
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use telemetry::{JsonlSink, Profiler, Telemetry};
use workloads::Mix;

/// A small grid (2 cells) so the debug-mode runtime stays reasonable while
/// still giving `parallel_map` cross-thread work to reorder.
fn config(sites: Vec<Site>, threads: usize) -> GridConfig {
    GridConfig {
        sites,
        seasons: vec![Season::Jul],
        mixes: vec![Mix::hm2()],
        threads,
    }
}

/// The grid's rows as canonical JSON text.
fn rendered_rows(grid: &PolicyGrid) -> String {
    Json::Arr(grid.rows.iter().map(ShardRow::to_json).collect()).render()
}

/// One test computes the three grid variants once and checks both the
/// canonical hashes and the rendered rows, so the (expensive, debug-mode)
/// day simulations are not repeated per assertion.
#[test]
fn grid_is_bit_identical_across_threads_and_input_order() {
    let az_tn = || vec![Site::phoenix_az(), Site::oak_ridge_tn()];
    let serial = PolicyGrid::compute(&config(az_tn(), 1));
    let parallel = PolicyGrid::compute(&config(az_tn(), 8));
    let reordered = PolicyGrid::compute(&config(vec![Site::oak_ridge_tn(), Site::phoenix_az()], 8));

    assert_eq!(
        grid_hash(&serial),
        grid_hash(&parallel),
        "1-thread vs 8-thread grid output diverged"
    );
    assert_eq!(
        grid_hash(&serial),
        grid_hash(&reordered),
        "reordered sites changed the grid output"
    );

    assert_eq!(
        rendered_rows(&serial),
        rendered_rows(&reordered),
        "rendered grid rows are not byte-stable"
    );
}

/// The canonical AZ/Jul/day 0/HM2/MPPT&Opt day, plain: a fresh run of it
/// must hash to the `day_hash` pin, and so must every instrumented variant,
/// because telemetry, the fault seams and the profiler are bitwise
/// transparent. Any engine change that moves the pin moved *every*
/// disarmed simulation. Two traced runs must also emit the same non-empty
/// JSONL, byte for byte.
#[test]
fn repeated_day_simulation_hashes_identically() {
    let canonical = || {
        DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .day(0)
            .mix(Mix::hm2())
            .policy(Policy::MpptOpt)
    };
    let hash = |builder: DaySimulationBuilder| {
        day_hash(
            &builder
                .build()
                .expect("valid config")
                .run()
                .expect("day runs"),
        )
    };
    let plain = hash(canonical());
    assert_pins([Pins::committed().unwrap().check_digest("day_hash", plain)]);
    let same_as_plain = |what: &str, h: u64| {
        assert_eq!(
            h, plain,
            "{what} day hash {h:#018x} differs from the plain day's {plain:#018x}"
        );
    };

    let traced = || {
        let sink = Rc::new(RefCell::new(JsonlSink::new()));
        let h = hash(canonical().telemetry(Telemetry::attached(sink.clone())));
        let stream = sink.borrow().buffer().to_string();
        (h, stream)
    };
    let (first, stream) = traced();
    let (second, again) = traced();
    same_as_plain("traced", first);
    same_as_plain("second traced", second);
    assert!(!stream.is_empty(), "traced run emitted an empty stream");
    // `assert!`, not `assert_eq!`: a diverging pair would dump both
    // multi-thousand-line streams.
    assert!(stream == again, "traced runs emit diverging JSONL streams");

    same_as_plain(
        "armed-empty",
        hash(canonical().fault_plan(FaultPlan::empty("control"))),
    );

    let prof = Profiler::enabled();
    same_as_plain("profiled", hash(canonical().profiler(prof.clone())));
    assert!(
        prof.tree().node_count() > 0,
        "armed profiler recorded no spans"
    );
}

/// The solver cache is bit-transparent end to end: a day simulated with
/// the memo enabled, with it disabled, and replayed over an already-warm
/// [`solarcore::SimSetup`] all hash to the same canonical digest.
#[test]
fn solver_cache_does_not_change_day_hash() {
    let builder = || {
        DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .day(0)
            .mix(Mix::hm2())
            .policy(Policy::MpptOpt)
    };
    let cached = builder().build().expect("valid config");
    let uncached = builder().solver_cache(false).build().expect("valid config");

    let reference = day_hash(&uncached.run().expect("day runs"));
    assert_eq!(
        reference,
        day_hash(&cached.run().expect("day runs")),
        "enabling the solver cache changed the day digest"
    );

    // Re-running over the same prepared setup keeps the memo warm from the
    // first pass; the second pass is ~all hits and must not drift.
    let setup = cached.prepare();
    let first = day_hash(&cached.run_prepared(&setup).expect("day runs"));
    let second = day_hash(&cached.run_prepared(&setup).expect("day runs"));
    assert_eq!(reference, first, "cold-memo prepared run diverged");
    assert_eq!(reference, second, "warm-memo prepared run diverged");
    assert!(
        setup.cache_stats().hits > 0,
        "warm replay should actually hit the memo"
    );
}

/// The Fixed-Power days of the Fig. 16/17 sweep at one anchor cell (AZ,
/// January, day 0; mixes H1, M2, HM2 and L1 at 25–125 W), folded in that
/// order and pinned as `fixed_power_digest`. Fixed-Power never tracks or
/// op-solves, so this is the only tier-1 check on the bits of the TPR
/// budget fill and of the chip's per-core power queries; `paper_claims`
/// compares such days only within tolerances.
#[test]
fn fixed_power_days_match_their_pinned_digest() {
    let mut fold = bench::determinism::CanonicalHasher::default();
    for budget_w in [25.0, 50.0, 75.0, 100.0, 125.0] {
        for mix in [Mix::h1(), Mix::m2(), Mix::hm2(), Mix::l1()] {
            let result = DaySimulation::builder()
                .site(Site::phoenix_az())
                .season(Season::Jan)
                .day(0)
                .mix(mix)
                .policy(Policy::FixedPower(pv::units::Watts::new(budget_w)))
                .build()
                .expect("valid config")
                .run()
                .expect("day runs");
            fold.u64(day_hash(&result));
        }
    }
    assert_pins([Pins::committed()
        .unwrap()
        .check_digest("fixed_power_digest", fold.finish())]);
}
