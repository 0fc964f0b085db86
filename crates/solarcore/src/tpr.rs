//! Throughput-power ratio (TPR) computation (Section 4.3).
//!
//! The paper defines `TPR = ΔT/ΔP`: the throughput gained per additional
//! watt when a core takes one V/F step. With the paper's analytic model
//! this is `IPC·b / (3·c·V²·ΔV)`; here we compute the *discrete* ratio
//! directly from the substrate's what-if queries, which degenerates to the
//! same expression under the paper's assumptions.

use archsim::{Core, CoreId, MultiCoreChip, VfLevel};

/// Per-core TPR entries — the table of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TprEntry {
    /// The core.
    pub core: CoreId,
    /// Its current operating point.
    pub level: VfLevel,
    /// Throughput gained per watt for one step *up* (`None` if the core is
    /// already at the top level or gated).
    pub tpr_up: Option<f64>,
    /// Throughput lost per watt for one step *down* (`None` if the core is
    /// already at the bottom level or gated).
    pub tpr_down: Option<f64>,
}

/// Throughput per watt of moving `core` between two levels at its current
/// phase (`None` if the core is gated or the move changes no power).
fn step_ratio(core: &Core, to: VfLevel, from: VfLevel) -> Option<f64> {
    if core.is_gated() {
        return None;
    }
    let phase = core.phase();
    let dt = core.ips_at(to, phase) - core.ips_at(from, phase);
    let dp = core.power_at(to, phase).get() - core.power_at(from, phase).get();
    (dp.abs() > f64::EPSILON).then(|| dt / dp)
}

fn tpr_up(core: &Core) -> Option<f64> {
    let level = core.level();
    level.faster().and_then(|f| step_ratio(core, f, level))
}

fn tpr_down(core: &Core) -> Option<f64> {
    let level = core.level();
    level.slower().and_then(|s| step_ratio(core, level, s))
}

/// The key of Figure 10's order: `tpr_up`, with `None` below every ratio.
fn up_key(tpr_up: Option<f64>) -> f64 {
    tpr_up.unwrap_or(f64::NEG_INFINITY)
}

/// Builds the TPR table for the whole chip, sorted by descending `tpr_up`
/// (cores most deserving of extra power first, as in Figure 10). The sort
/// is stable, so equal ratios keep core order.
pub fn tpr_table(chip: &MultiCoreChip) -> Vec<TprEntry> {
    let mut entries: Vec<TprEntry> = chip
        .cores()
        .iter()
        .map(|core| TprEntry {
            core: core.id(),
            level: core.level(),
            tpr_up: tpr_up(core),
            tpr_down: tpr_down(core),
        })
        .collect();
    entries.sort_by(|a, b| up_key(b.tpr_up).total_cmp(&up_key(a.tpr_up)));
    entries
}

/// The core with the highest `tpr_up` — who should receive the next watt.
/// A tie goes to the lowest core index, the core [`tpr_table`] lists first.
pub fn best_increase(chip: &MultiCoreChip) -> Option<CoreId> {
    best_increase_among(chip, |_| true)
}

/// [`best_increase`] over the cores `eligible` admits, in one pass over
/// the chip instead of a built and sorted table.
pub(crate) fn best_increase_among(
    chip: &MultiCoreChip,
    eligible: impl Fn(CoreId) -> bool,
) -> Option<CoreId> {
    chip.cores()
        .iter()
        .filter(|core| eligible(core.id()))
        .filter_map(|core| Some((core.id(), tpr_up(core)?)))
        // `min_by` keeps the first of equal elements, so the reversed order
        // picks the highest ratio at the lowest index.
        .min_by(|a, b| b.1.total_cmp(&a.1))
        .map(|(id, _)| id)
}

/// The core with the lowest `tpr_down` — who loses the least throughput per
/// watt freed when the budget shrinks. A tie goes to the core [`tpr_table`]
/// lists first: the higher `tpr_up`, then the lower core index.
pub fn best_decrease(chip: &MultiCoreChip) -> Option<CoreId> {
    chip.cores()
        .iter()
        .filter_map(|core| Some((core.id(), tpr_down(core)?, up_key(tpr_up(core)))))
        .min_by(|a, b| a.1.total_cmp(&b.1).then(b.2.total_cmp(&a.2)))
        .map(|(id, _, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Mix;

    #[test]
    fn table_has_an_entry_per_core() {
        let chip = MultiCoreChip::new(&Mix::hm2());
        let table = tpr_table(&chip);
        assert_eq!(table.len(), 8);
    }

    #[test]
    fn top_level_cores_cannot_step_up() {
        let chip = MultiCoreChip::new(&Mix::h1()); // all boot at top
        for e in tpr_table(&chip) {
            assert!(e.tpr_up.is_none());
            assert!(e.tpr_down.is_some());
        }
        assert!(best_increase(&chip).is_none());
        assert!(best_decrease(&chip).is_some());
    }

    #[test]
    fn bottom_level_cores_cannot_step_down() {
        let mut chip = MultiCoreChip::new(&Mix::h1());
        chip.set_all_levels(VfLevel::lowest());
        for e in tpr_table(&chip) {
            assert!(e.tpr_up.is_some());
            assert!(e.tpr_down.is_none());
        }
        assert!(best_decrease(&chip).is_none());
    }

    #[test]
    fn gated_cores_are_excluded() {
        let mut chip = MultiCoreChip::new(&Mix::m2());
        chip.set_all_levels(VfLevel::from_index(3).unwrap());
        chip.gate(CoreId(0), true).unwrap();
        let table = tpr_table(&chip);
        let gated = table.iter().find(|e| e.core == CoreId(0)).unwrap();
        assert!(gated.tpr_up.is_none() && gated.tpr_down.is_none());
    }

    #[test]
    fn efficient_core_wins_the_next_watt() {
        // mesa (low EPI, high IPC) buys far more throughput per watt than
        // art (high EPI, low IPC).
        let mut chip = MultiCoreChip::new(&Mix::hm2()); // includes art & gcc
        chip.set_all_levels(VfLevel::lowest());
        let table = tpr_table(&chip);
        let first = table.first().unwrap();
        let best_spec = chip.core(first.core).unwrap().spec();
        // The winner must not be one of the high-EPI codes.
        assert!(
            !["art", "apsi"].contains(&best_spec.name),
            "winner was {}",
            best_spec.name
        );
    }

    #[test]
    fn high_epi_core_sheds_power_first() {
        let mut chip = MultiCoreChip::new(&Mix::hm2());
        chip.set_all_levels(VfLevel::from_index(2).unwrap());
        let loser = best_decrease(&chip).unwrap();
        let spec = chip.core(loser).unwrap().spec();
        assert!(
            ["art", "apsi", "mcf"].contains(&spec.name),
            "loser was {}",
            spec.name
        );
    }

    #[test]
    fn tpr_up_decreases_with_level() {
        // Diminishing returns: for the same core, stepping up from a slow
        // level buys more throughput per watt than from a fast level (the
        // paper's argument for spreading power across cores).
        let mut chip = MultiCoreChip::new(&Mix::m1());
        chip.set_all_levels(VfLevel::lowest());
        let low = tpr_table(&chip)[0].tpr_up.unwrap();
        chip.set_all_levels(VfLevel::highest().slower().unwrap());
        let high = tpr_table(&chip)[0].tpr_up.unwrap();
        assert!(low > high, "low {low:.3e} vs high {high:.3e}");
    }
}
