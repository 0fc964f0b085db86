//! The multi-core chip: a vector of cores with chip-level aggregates.

use pv::units::{Joules, Watts};
use workloads::Mix;

use crate::core::{Core, CoreId, CoreTelemetry};
use crate::dvfs::VfLevel;
use crate::error::ArchError;

/// An N-core chip with per-core DVFS and power gating, one benchmark pinned
/// per core (the paper's multi-programmed setup).
///
/// # Examples
///
/// ```
/// use archsim::{MultiCoreChip, CoreId, VfLevel};
/// use workloads::Mix;
///
/// let mut chip = MultiCoreChip::new(&Mix::m2());
/// assert_eq!(chip.core_count(), 8);
/// chip.set_level(CoreId(2), VfLevel::lowest())?;
/// chip.gate(CoreId(7), true)?;
/// assert!(chip.total_power().get() > 0.0);
/// # Ok::<(), archsim::ArchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreChip {
    cores: Vec<Core>,
}

impl MultiCoreChip {
    /// Builds a chip from a workload mix (one core per program, all at the
    /// top V/F level).
    pub fn new(mix: &Mix) -> Self {
        let cores = mix
            .benchmarks()
            .iter()
            .enumerate()
            .map(|(i, spec)| Core::new(CoreId(i), *spec))
            .collect();
        Self { cores }
    }

    /// Number of cores on the chip.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to all cores.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Immutable access to one core.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidCore`] for an out-of-range id.
    pub fn core(&self, id: CoreId) -> Result<&Core, ArchError> {
        self.cores.get(id.0).ok_or(ArchError::InvalidCore {
            index: id.0,
            cores: self.cores.len(),
        })
    }

    /// Sets one core's V/F level.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidCore`] for an out-of-range id.
    pub fn set_level(&mut self, id: CoreId, level: VfLevel) -> Result<(), ArchError> {
        self.core_mut(id)?.set_level(level);
        Ok(())
    }

    /// Gates or ungates one core.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidCore`] for an out-of-range id.
    pub fn gate(&mut self, id: CoreId, gated: bool) -> Result<(), ArchError> {
        self.core_mut(id)?.set_gated(gated);
        Ok(())
    }

    /// Applies the same level to every core.
    pub fn set_all_levels(&mut self, level: VfLevel) {
        for core in &mut self.cores {
            core.set_level(level);
        }
    }

    /// Instantaneous chip power (sum over cores; gated cores contribute 0).
    pub fn total_power(&self) -> Watts {
        self.cores.iter().map(Core::current_power).sum()
    }

    /// The chip's power *capacity* under current phases: what it would draw
    /// with every core ungated at the top V/F level. This is the most load
    /// the adaptation can present to the panel.
    pub fn power_capacity(&self) -> Watts {
        self.cores
            .iter()
            .map(|c| c.potential_power_at(crate::dvfs::VfLevel::highest(), c.phase()))
            .sum()
    }

    /// A canonical digest of the per-core V/F state: FNV-1a over each
    /// core's level index and gate flag, in core order. Two chips with the
    /// same digest present the same operating point, so the determinism
    /// harness can compare per-core V/F across runs without serializing
    /// every core.
    pub fn vf_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for core in &self.cores {
            for byte in (core.level().index() as u64)
                .to_le_bytes()
                .into_iter()
                .chain([u8::from(core.is_gated())])
            {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        }
        hash
    }

    /// Instantaneous chip throughput in instructions/second.
    pub fn total_ips(&self) -> f64 {
        self.cores.iter().map(Core::current_ips).sum()
    }

    /// Total instructions retired since construction.
    pub fn total_instructions(&self) -> f64 {
        self.cores.iter().map(Core::retired_instructions).sum()
    }

    /// Total energy consumed since construction.
    pub fn total_energy(&self) -> Joules {
        self.cores.iter().map(Core::energy).sum()
    }

    /// Advances every core by `dt` seconds with per-core phase multipliers.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::PhaseCountMismatch`] if `phases.len()` differs
    /// from the core count, and [`ArchError::InvalidTimestep`] for a
    /// non-positive or non-finite `dt`.
    pub fn step(&mut self, phases: &[f64], dt: f64) -> Result<(), ArchError> {
        if phases.len() != self.cores.len() {
            return Err(ArchError::PhaseCountMismatch {
                got: phases.len(),
                expected: self.cores.len(),
            });
        }
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(ArchError::InvalidTimestep { dt });
        }
        for (core, &phase) in self.cores.iter_mut().zip(phases) {
            core.step(phase, dt);
        }
        Ok(())
    }

    /// Controller-visible snapshot of every core.
    pub fn telemetry(&self) -> Vec<CoreTelemetry> {
        self.cores.iter().map(Core::telemetry).collect()
    }

    /// Chip power if core `id` moved to `level` while everything else stayed
    /// put — the what-if the load-tuning heuristics rely on.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidCore`] for an out-of-range id.
    pub fn power_if(&self, id: CoreId, level: VfLevel) -> Result<Watts, ArchError> {
        let target = self.core(id)?;
        let others: Watts = self
            .cores
            .iter()
            .filter(|c| c.id() != id)
            .map(Core::current_power)
            .sum();
        Ok(others + target.power_at(level, target.phase()))
    }

    fn core_mut(&mut self, id: CoreId) -> Result<&mut Core, ArchError> {
        let cores = self.cores.len();
        self.cores
            .get_mut(id.0)
            .ok_or(ArchError::InvalidCore { index: id.0, cores })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_has_one_core_per_program() {
        let chip = MultiCoreChip::new(&Mix::hm2());
        assert_eq!(chip.core_count(), 8);
        assert_eq!(chip.cores()[2].spec().name, "art");
    }

    #[test]
    fn invalid_core_ids_error() {
        let mut chip = MultiCoreChip::new(&Mix::h1());
        assert!(chip.core(CoreId(8)).is_err());
        assert!(chip.set_level(CoreId(9), VfLevel::lowest()).is_err());
        assert!(chip.gate(CoreId(100), true).is_err());
        assert!(chip.power_if(CoreId(8), VfLevel::lowest()).is_err());
    }

    #[test]
    fn step_validations() {
        let mut chip = MultiCoreChip::new(&Mix::h1());
        assert!(matches!(
            chip.step(&[1.0; 4], 60.0),
            Err(ArchError::PhaseCountMismatch {
                got: 4,
                expected: 8
            })
        ));
        assert!(chip.step(&[1.0; 8], 0.0).is_err());
        assert!(chip.step(&[1.0; 8], f64::NAN).is_err());
        assert!(chip.step(&[1.0; 8], 60.0).is_ok());
    }

    #[test]
    fn aggregates_sum_over_cores() {
        let mut chip = MultiCoreChip::new(&Mix::l1());
        chip.step(&[1.0; 8], 60.0).unwrap();
        let per_core = chip.cores()[0].current_power().get();
        assert!((chip.total_power().get() - 8.0 * per_core).abs() < 1e-9);
        assert!(chip.total_instructions() > 0.0);
        assert!(chip.total_energy().get() > 0.0);
    }

    #[test]
    fn gating_reduces_power_and_throughput() {
        let mut chip = MultiCoreChip::new(&Mix::m1());
        let p_full = chip.total_power();
        let t_full = chip.total_ips();
        chip.gate(CoreId(0), true).unwrap();
        chip.gate(CoreId(1), true).unwrap();
        assert!((chip.total_power().get() - 0.75 * p_full.get()).abs() < 1e-9);
        assert!((chip.total_ips() - 0.75 * t_full).abs() < 1e-3);
    }

    #[test]
    fn capacity_ignores_gating_and_levels() {
        let mut chip = MultiCoreChip::new(&Mix::h2());
        let cap_full = chip.power_capacity();
        // Capacity equals demand when everything runs at top speed.
        assert!((cap_full.get() - chip.total_power().get()).abs() < 1e-9);
        chip.set_all_levels(VfLevel::lowest());
        chip.gate(CoreId(0), true).unwrap();
        // Slowing down or gating does not change what the chip *could* draw.
        assert!((chip.power_capacity().get() - cap_full.get()).abs() < 1e-9);
        assert!(chip.total_power() < cap_full);
    }

    #[test]
    fn power_if_predicts_actual_transition() {
        let mut chip = MultiCoreChip::new(&Mix::m2());
        let predicted = chip.power_if(CoreId(1), VfLevel::lowest()).unwrap();
        chip.set_level(CoreId(1), VfLevel::lowest()).unwrap();
        let actual = chip.total_power();
        assert!((predicted.get() - actual.get()).abs() < 1e-9);
    }

    /// A minute's power queries — what `total_power`, `power_if`,
    /// `power_capacity` and a TPR table ask, at every level — solve each
    /// (core, level) pair at most once.
    #[test]
    fn a_minute_solves_each_core_level_at_most_once() {
        let evals = || crate::power::CORE_POWER_EVALS.with(std::cell::Cell::get);
        let mut chip = MultiCoreChip::new(&Mix::hm2());
        let phases = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 0.7, 1.05];
        let start = evals();
        chip.step(&phases, 60.0).unwrap();
        for round in 0..100 {
            chip.set_all_levels(VfLevel::from_index(round % VfLevel::COUNT).unwrap());
            let _ = chip.total_power();
            let _ = chip.power_capacity();
            for core in chip.cores() {
                let (level, phase) = (core.level(), core.phase());
                let _ = chip.power_if(core.id(), level).unwrap();
                for step in [level.faster(), Some(level), level.slower()]
                    .into_iter()
                    .flatten()
                {
                    let _ = core.power_at(step, phase);
                }
            }
        }
        assert!(
            evals() - start <= (chip.core_count() * VfLevel::COUNT) as u64,
            "{} core_power evaluations",
            evals() - start
        );
    }

    #[test]
    fn set_all_levels_applies_uniformly() {
        let mut chip = MultiCoreChip::new(&Mix::h2());
        chip.set_all_levels(VfLevel::lowest());
        assert!(chip.cores().iter().all(|c| c.level() == VfLevel::lowest()));
    }

    #[test]
    fn telemetry_has_an_entry_per_core() {
        let chip = MultiCoreChip::new(&Mix::ml2());
        let t = chip.telemetry();
        assert_eq!(t.len(), 8);
        assert_eq!(t[5].id, CoreId(5));
    }
}
