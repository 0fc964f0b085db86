//! Property-based invariants of the TPR table (Section 4.3) and the greedy
//! budget fill built on it, over randomized chip states: arbitrary mixes,
//! arbitrary per-core V/F levels, and arbitrary gating patterns.

use proptest::prelude::*;

use archsim::{CoreId, MultiCoreChip, VfLevel};
use pv::units::Watts;
use solarcore::engine::allocate_budget;
use solarcore::tpr::{best_decrease, best_increase, tpr_table};
use workloads::Mix;

/// Builds a chip in a seed-derived random state: each core gets an
/// arbitrary V/F level and may be gated (but never all cores, so the TPR
/// table keeps at least one live entry).
fn random_chip(mix_idx: usize, seed: u64) -> MultiCoreChip {
    let mix = Mix::all().swap_remove(mix_idx);
    let mut chip = MultiCoreChip::new(&mix);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for id in 0..chip.core_count() {
        #[allow(clippy::cast_possible_truncation)] // reduced mod COUNT (= 6)
        let level_idx = next() as usize % VfLevel::COUNT;
        let level = VfLevel::from_index(level_idx).expect("index in range");
        chip.set_level(CoreId(id), level).expect("valid core id");
        let gate = next() % 4 == 0 && id + 1 != chip.core_count();
        chip.gate(CoreId(id), gate).expect("valid core id");
    }
    chip
}

/// Independent recomputation of one core's discrete step-up TPR straight
/// from the substrate's what-if queries, bypassing `tpr_table`.
fn step_up_ratio(chip: &MultiCoreChip, id: usize) -> Option<f64> {
    let core = chip.core(CoreId(id)).expect("valid core id");
    if core.is_gated() {
        return None;
    }
    let from = core.level();
    let to = from.faster()?;
    let phase = core.phase();
    let dt = core.ips_at(to, phase) - core.ips_at(from, phase);
    let dp = core.power_at(to, phase).get() - core.power_at(from, phase).get();
    (dp.abs() > f64::EPSILON).then(|| dt / dp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ordering invariant: the table is sorted by descending `tpr_up`, so
    /// the core buying the most throughput per watt (highest IPC at the
    /// lowest V², in the paper's analytic form) is offered the step first,
    /// and every entry agrees with an independent what-if recomputation.
    #[test]
    fn tpr_table_is_sorted_and_consistent(
        mix_idx in 0usize..10,
        seed in 1u64..u64::MAX,
    ) {
        let chip = random_chip(mix_idx, seed);
        let table = tpr_table(&chip);
        prop_assert_eq!(table.len(), chip.core_count());

        for pair in table.windows(2) {
            let a = pair[0].tpr_up.unwrap_or(f64::NEG_INFINITY);
            let b = pair[1].tpr_up.unwrap_or(f64::NEG_INFINITY);
            prop_assert!(
                a >= b,
                "table out of order: {:?} before {:?}", pair[0], pair[1]
            );
        }
        for entry in &table {
            let expected = step_up_ratio(&chip, entry.core.0);
            match (entry.tpr_up, expected) {
                (Some(t), Some(e)) => prop_assert!(
                    (t - e).abs() <= 1e-12 * e.abs().max(1.0),
                    "core {}: table {t} vs recomputed {e}", entry.core.0
                ),
                (None, None) => {}
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "core {}: table {got:?} vs recomputed {want:?}",
                        entry.core.0
                    )));
                }
            }
        }
        // best_increase attains the maximum of the independent
        // recomputation (cores running the same benchmark at the same
        // level tie exactly, so compare the ratio, not the identity).
        let max_ratio = (0..chip.core_count())
            .filter_map(|id| step_up_ratio(&chip, id))
            .fold(None::<f64>, |acc, t| Some(acc.map_or(t, |a| a.max(t))));
        match (best_increase(&chip), max_ratio) {
            (Some(core), Some(max)) => {
                let best = step_up_ratio(&chip, core.0).expect("winner can step up");
                prop_assert!(
                    (best - max).abs() <= 1e-12 * max.abs().max(1.0),
                    "best_increase picked {best}, independent max is {max}"
                );
            }
            (None, None) => {}
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "best_increase {got:?} vs independent max {want:?}"
                )));
            }
        }
    }

    /// Budget conservation: from any starting state the greedy fill lands
    /// at or under the cap, is deterministic, and never gates a core while
    /// the all-cores floor configuration would still fit.
    #[test]
    fn budget_allocation_conserves_budget(
        mix_idx in 0usize..10,
        seed in 1u64..u64::MAX,
        budget_w in 10.0..160.0_f64,
    ) {
        let budget = Watts::new(budget_w);
        let mut chip = random_chip(mix_idx, seed);
        allocate_budget(&mut chip, budget).expect("allocation succeeds");
        prop_assert!(
            chip.total_power() <= budget,
            "fill used {:?} of a {:?} cap", chip.total_power(), budget
        );

        let digest = chip.vf_digest();
        // Re-running from the post-fill state must reproduce the result
        // exactly (the controller re-allocates every tracking period).
        allocate_budget(&mut chip, budget).expect("allocation succeeds");
        prop_assert_eq!(digest, chip.vf_digest());

        let mut floor = MultiCoreChip::new(&Mix::all().swap_remove(mix_idx));
        floor.set_all_levels(VfLevel::lowest());
        if floor.total_power() <= budget {
            prop_assert!(
                chip.cores().iter().all(|c| !c.is_gated()),
                "a core was gated although the floor fits the budget"
            );
        }
    }

    /// Monotonicity: a larger budget never yields less total allocated
    /// power — the greedy fill uses slack instead of leaving it.
    #[test]
    fn budget_allocation_is_monotone(
        mix_idx in 0usize..10,
        seed in 1u64..u64::MAX,
        budget_w in 10.0..150.0_f64,
        extra_w in 0.5..30.0_f64,
    ) {
        let mut small = random_chip(mix_idx, seed);
        let mut large = random_chip(mix_idx, seed);
        allocate_budget(&mut small, Watts::new(budget_w)).expect("allocation succeeds");
        allocate_budget(&mut large, Watts::new(budget_w + extra_w)).expect("allocation succeeds");
        prop_assert!(
            large.total_power() >= small.total_power(),
            "raising the cap from {budget_w} by {extra_w} W lowered the fill"
        );
    }
}

/// The Fig. 16/17 Fixed-Power budgets, watts.
const FIXED_BUDGETS_W: [f64; 5] = [25.0, 50.0, 75.0, 100.0, 125.0];

/// Reference pick: the first entry of the sorted table that can step up.
fn table_best_increase(chip: &MultiCoreChip) -> Option<CoreId> {
    tpr_table(chip)
        .into_iter()
        .find(|e| e.tpr_up.is_some())
        .map(|e| e.core)
}

/// Reference pick: the first lowest `tpr_down` in table order.
fn table_best_decrease(chip: &MultiCoreChip) -> Option<CoreId> {
    tpr_table(chip)
        .into_iter()
        .filter_map(|e| e.tpr_down.map(|t| (e.core, t)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(core, _)| core)
}

/// Reference fill: `allocate_budget` with a full table built and sorted
/// for every one-step move.
fn table_allocate(chip: &mut MultiCoreChip, budget: Watts) -> u32 {
    let mut moves = 0;
    for id in 0..chip.core_count() {
        chip.gate(CoreId(id), false).expect("valid core id");
    }
    chip.set_all_levels(VfLevel::lowest());
    let mut victim = chip.core_count();
    while chip.total_power() > budget && victim > 0 {
        victim -= 1;
        chip.gate(CoreId(victim), true).expect("valid core id");
        moves += 1;
    }
    let mut blocked = vec![false; chip.core_count()];
    while let Some(entry) = tpr_table(chip)
        .into_iter()
        .find(|e| e.tpr_up.is_some() && !blocked[e.core.0])
    {
        let next = entry.level.faster().expect("tpr_up implies a faster level");
        if chip.power_if(entry.core, next).expect("valid core id") <= budget {
            chip.set_level(entry.core, next).expect("valid core id");
            moves += 1;
        } else {
            blocked[entry.core.0] = true;
        }
    }
    moves
}

/// A chip of `mix` with every core at `level`. Variant 0 keeps the unit
/// phase and no gating, so cores running the same benchmark tie exactly.
/// Other variants draw per-core levels and gating from the seed, and
/// per-core phases too, except variant 1: it idles every core at phase 0,
/// where every ratio is 0 and only the tie-breaks decide.
fn chip_variant(mix: &Mix, level: VfLevel, variant: u64) -> MultiCoreChip {
    let mut chip = MultiCoreChip::new(mix);
    chip.set_all_levels(level);
    if variant == 0 {
        return chip;
    }
    let mut state = variant.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    #[allow(clippy::cast_precision_loss)] // < 2^31, exact in f64
    let phases: Vec<f64> = (0..chip.core_count())
        .map(|_| {
            let draw = 0.5 + (next() % 1000) as f64 / 1000.0;
            if variant == 1 {
                0.0
            } else {
                draw
            }
        })
        .collect();
    chip.step(&phases, 60.0).expect("one phase per core");
    for id in 0..chip.core_count() {
        if next() % 3 == 0 {
            #[allow(clippy::cast_possible_truncation)] // reduced mod COUNT (= 6)
            let other = VfLevel::from_index(next() as usize % VfLevel::COUNT).expect("in range");
            chip.set_level(CoreId(id), other).expect("valid core id");
        }
        chip.gate(CoreId(id), next() % 4 == 0)
            .expect("valid core id");
    }
    chip
}

/// The one-pass picks and fill make exactly the choices of the sorted
/// table they replace, ties included, over every mix, every start level,
/// unit and seeded phases, gated cores and every Fixed-Power budget.
#[test]
fn one_pass_picks_and_fill_match_the_sorted_table() {
    for mix in Mix::all() {
        for level in VfLevel::all() {
            for variant in 0..6 {
                let chip = chip_variant(&mix, level, variant);
                let at = format!("{} at {} variant {variant}", mix.name(), level.index());
                assert_eq!(best_increase(&chip), table_best_increase(&chip), "{at}");
                assert_eq!(best_decrease(&chip), table_best_decrease(&chip), "{at}");
                for budget_w in FIXED_BUDGETS_W {
                    let budget = Watts::new(budget_w);
                    let mut fast = chip.clone();
                    let mut slow = chip.clone();
                    let moves = allocate_budget(&mut fast, budget).expect("allocation succeeds");
                    assert_eq!(
                        moves,
                        table_allocate(&mut slow, budget),
                        "{at}, {budget_w} W"
                    );
                    for (a, b) in fast.cores().iter().zip(slow.cores()) {
                        assert_eq!(
                            (a.level(), a.is_gated()),
                            (b.level(), b.is_gated()),
                            "{at}, {budget_w} W, {}",
                            a.id()
                        );
                    }
                    assert_eq!(best_increase(&fast), table_best_increase(&fast), "{at}");
                    assert_eq!(best_decrease(&fast), table_best_decrease(&fast), "{at}");
                }
            }
        }
    }
}
