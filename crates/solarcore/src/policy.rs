//! Load-scheduling policies (Table 6 of the paper).

use std::fmt;

use archsim::{CoreId, MultiCoreChip};
use pv::units::Watts;

use crate::tpr;

/// The evaluated power-management schemes (Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Non-tracking scheme with a constant power budget; load allocation is
    /// the LP-equivalent greedy TPR fill.
    ///
    /// Contract: the budget is a finite, non-negative power.
    /// [`DaySimulation::builder`](crate::DaySimulation::builder) rejects
    /// anything else at `build()` time, which is what lets the TPR fill
    /// and the drawn-power accounting downstream use the budget unchecked.
    FixedPower(Watts),
    /// MPPT with individual-core scheduling: keep tuning one core until it
    /// saturates, then move on.
    MpptIc,
    /// MPPT with round-robin scheduling: spread V/F steps evenly.
    MpptRr,
    /// MPPT with throughput-power-ratio optimization — SolarCore's default.
    MpptOpt,
    /// MPPT with chip-wide (global) DVFS: every running core shares one
    /// V/F setting, as a single-voltage-domain chip would (the paper notes
    /// chip-level DVFS as the fallback when per-core regulators are not
    /// available). Used as an ablation against per-core control.
    MpptChipWide,
}

impl Policy {
    /// Short label used in tables and figures (`Fixed`, `MPPT&IC`, …).
    pub fn label(&self) -> &'static str {
        match self {
            Policy::FixedPower(_) => "Fixed-Power",
            Policy::MpptIc => "MPPT&IC",
            Policy::MpptRr => "MPPT&RR",
            Policy::MpptOpt => "MPPT&Opt",
            Policy::MpptChipWide => "MPPT&Chip",
        }
    }

    /// Builds the scheduler implementing this policy's pick rules.
    /// (`FixedPower` uses the TPR scheduler for its budget fill, matching
    /// the paper's linear-programming optimization.)
    pub fn scheduler(&self) -> Box<dyn LoadScheduler> {
        match self {
            Policy::MpptIc => Box::new(IndividualCore),
            Policy::MpptRr | Policy::MpptChipWide => Box::new(RoundRobin::default()),
            Policy::MpptOpt | Policy::FixedPower(_) => Box::new(TprOptimized),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::FixedPower(w) => write!(f, "Fixed-Power({w:.0})"),
            Policy::MpptIc | Policy::MpptRr | Policy::MpptOpt | Policy::MpptChipWide => {
                f.write_str(self.label())
            }
        }
    }
}

/// Chooses which core receives (or surrenders) the next V/F step.
///
/// Implementations must only return cores that can actually take the step:
/// ungated and not already at the extreme level.
pub trait LoadScheduler: fmt::Debug + Send {
    /// The core to speed up next, or `None` if every core is saturated.
    fn pick_increase(&mut self, chip: &MultiCoreChip) -> Option<CoreId>;

    /// The core to slow down next, or `None` if every core is at the floor.
    fn pick_decrease(&mut self, chip: &MultiCoreChip) -> Option<CoreId>;

    /// Scheduler name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Eligibility helpers shared by the schedulers.
fn can_increase(chip: &MultiCoreChip, id: CoreId) -> bool {
    chip.core(id)
        .map(|c| !c.is_gated() && !c.level().is_highest())
        .unwrap_or(false)
}

fn can_decrease(chip: &MultiCoreChip, id: CoreId) -> bool {
    chip.core(id)
        .map(|c| !c.is_gated() && !c.level().is_lowest())
        .unwrap_or(false)
}

/// MPPT&IC: concentrate power. Speeds up the lowest-indexed tunable core to
/// the top before touching the next; sheds power from the highest-indexed
/// tunable core first.
#[derive(Debug, Default, Clone)]
pub struct IndividualCore;

impl LoadScheduler for IndividualCore {
    fn pick_increase(&mut self, chip: &MultiCoreChip) -> Option<CoreId> {
        (0..chip.core_count())
            .map(CoreId)
            .find(|&id| can_increase(chip, id))
    }

    fn pick_decrease(&mut self, chip: &MultiCoreChip) -> Option<CoreId> {
        (0..chip.core_count())
            .rev()
            .map(CoreId)
            .find(|&id| can_decrease(chip, id))
    }

    fn name(&self) -> &'static str {
        "individual-core"
    }
}

/// MPPT&RR: distribute steps evenly with a rotating cursor.
#[derive(Debug, Default, Clone)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    fn pick(
        &mut self,
        chip: &MultiCoreChip,
        ok: impl Fn(&MultiCoreChip, CoreId) -> bool,
    ) -> Option<CoreId> {
        let n = chip.core_count();
        for offset in 0..n {
            let id = CoreId((self.cursor + offset) % n);
            if ok(chip, id) {
                self.cursor = (id.0 + 1) % n;
                return Some(id);
            }
        }
        None
    }
}

impl LoadScheduler for RoundRobin {
    fn pick_increase(&mut self, chip: &MultiCoreChip) -> Option<CoreId> {
        self.pick(chip, can_increase)
    }

    fn pick_decrease(&mut self, chip: &MultiCoreChip) -> Option<CoreId> {
        self.pick(chip, can_decrease)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// MPPT&Opt: throughput-power-ratio optimization (the SolarCore scheduler).
#[derive(Debug, Default, Clone)]
pub struct TprOptimized;

impl LoadScheduler for TprOptimized {
    fn pick_increase(&mut self, chip: &MultiCoreChip) -> Option<CoreId> {
        tpr::best_increase(chip)
    }

    fn pick_decrease(&mut self, chip: &MultiCoreChip) -> Option<CoreId> {
        tpr::best_decrease(chip)
    }

    fn name(&self) -> &'static str {
        "tpr-optimized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::VfLevel;
    use workloads::Mix;

    #[test]
    fn labels_match_table6() {
        assert_eq!(Policy::FixedPower(Watts::new(75.0)).label(), "Fixed-Power");
        assert_eq!(Policy::MpptIc.label(), "MPPT&IC");
        assert_eq!(Policy::MpptRr.label(), "MPPT&RR");
        assert_eq!(Policy::MpptOpt.label(), "MPPT&Opt");
        assert_eq!(
            Policy::FixedPower(Watts::new(75.0)).to_string(),
            "Fixed-Power(75 W)"
        );
    }

    #[test]
    fn individual_core_concentrates() {
        let mut chip = MultiCoreChip::new(&Mix::m1());
        chip.set_all_levels(VfLevel::lowest());
        let mut sched = IndividualCore;
        // Five increases all hit core 0 (it has five steps to the top).
        for _ in 0..5 {
            let id = sched.pick_increase(&chip).unwrap();
            assert_eq!(id, CoreId(0));
            let next = chip.core(id).unwrap().level().faster().unwrap();
            chip.set_level(id, next).unwrap();
        }
        // Core 0 saturated: the sixth goes to core 1.
        assert_eq!(sched.pick_increase(&chip).unwrap(), CoreId(1));
        // Decrease comes from the other end.
        assert_eq!(sched.pick_decrease(&chip).unwrap(), CoreId(0));
    }

    #[test]
    fn round_robin_visits_everyone() {
        let mut chip = MultiCoreChip::new(&Mix::m1());
        chip.set_all_levels(VfLevel::lowest());
        let mut sched = RoundRobin::default();
        let mut seen = Vec::new();
        for _ in 0..8 {
            let id = sched.pick_increase(&chip).unwrap();
            seen.push(id.0);
            let next = chip.core(id).unwrap().level().faster().unwrap();
            chip.set_level(id, next).unwrap();
        }
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_skips_saturated_cores() {
        let mut chip = MultiCoreChip::new(&Mix::m1());
        chip.set_all_levels(VfLevel::lowest());
        chip.set_level(CoreId(0), VfLevel::highest()).unwrap();
        let mut sched = RoundRobin::default();
        assert_eq!(sched.pick_increase(&chip).unwrap(), CoreId(1));
    }

    #[test]
    fn tpr_scheduler_prefers_efficient_cores() {
        let mut chip = MultiCoreChip::new(&Mix::ml2()); // gcc..swim
        chip.set_all_levels(VfLevel::lowest());
        let mut sched = TprOptimized;
        let id = sched.pick_increase(&chip).unwrap();
        let name = chip.core(id).unwrap().spec().name;
        assert!(
            ["mesa", "lucas", "equake", "swim"].contains(&name),
            "picked {name}"
        );
    }

    #[test]
    fn schedulers_return_none_when_saturated() {
        let chip = MultiCoreChip::new(&Mix::h1()); // all at top
        assert!(IndividualCore.pick_increase(&chip).is_none());
        assert!(RoundRobin::default().pick_increase(&chip).is_none());
        assert!(TprOptimized.pick_increase(&chip).is_none());

        let mut chip = MultiCoreChip::new(&Mix::h1());
        chip.set_all_levels(VfLevel::lowest());
        assert!(IndividualCore.pick_decrease(&chip).is_none());
        assert!(RoundRobin::default().pick_decrease(&chip).is_none());
        assert!(TprOptimized.pick_decrease(&chip).is_none());
    }

    #[test]
    fn policy_builds_matching_scheduler() {
        assert_eq!(Policy::MpptIc.scheduler().name(), "individual-core");
        assert_eq!(Policy::MpptRr.scheduler().name(), "round-robin");
        assert_eq!(Policy::MpptOpt.scheduler().name(), "tpr-optimized");
        assert_eq!(
            Policy::FixedPower(Watts::new(50.0)).scheduler().name(),
            "tpr-optimized"
        );
    }
}
