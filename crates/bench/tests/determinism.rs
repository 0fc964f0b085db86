//! Golden bitwise-determinism test: the policy-grid sweep must produce
//! byte-identical output at 1 thread, 8 threads, and with shuffled input
//! order. This is the in-tree twin of `cargo xtask determinism` (which
//! runs a larger sweep in release mode).

use bench::determinism::{day_hash, grid_hash};
use bench::grid::{GridConfig, PolicyGrid};
use solarcore::{DaySimulation, Policy};
use solarenv::{Season, Site};
use workloads::Mix;

/// A small grid (2 cells) so the debug-mode runtime stays reasonable while
/// still giving the shuffle a permutation to apply and `parallel_map`
/// cross-thread work to reorder.
fn config(threads: usize) -> GridConfig {
    GridConfig {
        sites: vec![Site::phoenix_az(), Site::oak_ridge_tn()],
        seasons: vec![Season::Jul],
        mixes: vec![Mix::hm2()],
        days: 1,
        threads,
        telemetry_dir: None,
    }
}

/// One test computes the three grid variants once and checks both the
/// canonical hashes and the serialized JSON, so the (expensive, debug-mode)
/// day simulations are not repeated per assertion.
#[test]
fn grid_is_bit_identical_across_threads_and_input_order() {
    let serial = PolicyGrid::compute(&config(1));
    let parallel = PolicyGrid::compute(&config(8));
    // Seed chosen so the 2-cell Fisher-Yates draw actually swaps the cells
    // (a seed whose first splitmix64 output is even would be the identity).
    let shuffled = PolicyGrid::compute_shuffled(&config(8), 0x5eed);

    assert_eq!(
        grid_hash(&serial),
        grid_hash(&parallel),
        "1-thread vs 8-thread grid output diverged"
    );
    assert_eq!(
        grid_hash(&serial),
        grid_hash(&shuffled),
        "shuffled input order changed the grid output"
    );

    let a = serde_json::to_string(&serial).expect("serializes");
    let b = serde_json::to_string(&shuffled).expect("serializes");
    assert_eq!(a, b, "serialized grid JSON is not byte-stable");
}

#[test]
fn repeated_day_simulation_hashes_identically() {
    let run = || {
        DaySimulation::builder()
            .site(Site::phoenix_az())
            .season(Season::Jul)
            .day(0)
            .mix(Mix::hm2())
            .policy(Policy::MpptOpt)
            .build()
            .expect("valid config")
            .run()
            .expect("day runs")
    };
    assert_eq!(day_hash(&run()), day_hash(&run()));
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
/// order and pinned. Fixed-Power never tracks or op-solves, so this is the
/// only tier-1 check on the bits of the TPR budget fill and of the chip's
/// per-core power queries; `paper_claims` compares such days only within
/// tolerances.
#[test]
fn fixed_power_days_match_their_pinned_digest() {
    const PINNED: u64 = 0xeac9_746e_5f37_b539;
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
    assert_eq!(
        fold.finish(),
        PINNED,
        "Fixed-Power digest {:#018x} moved",
        fold.finish()
    );
}
