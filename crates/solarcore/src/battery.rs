//! Battery-equipped standalone PV baselines (Table 3 / Section 5).
//!
//! The paper compares SolarCore against battery-buffered MPPT systems whose
//! harvest is derated by the MPPT-controller conversion efficiency and the
//! battery round-trip efficiency: 92 % / 81 % / 70 % overall for
//! high / typical / low-performance systems. The processor then "runs with
//! full speed using stable power supply" until a dynamic power monitor has
//! drained exactly the stored solar energy.

use archsim::MultiCoreChip;
use pv::mpp::MppPoint;
use pv::units::WattHours;
use workloads::{Mix, PhaseTrace};

use crate::error::CoreError;

/// Battery-system performance tiers from Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatteryTier {
    /// 97 % MPPT × 95 % battery ⇒ 92 % overall.
    High,
    /// 95 % MPPT × 85 % battery ⇒ ≈81 % overall.
    Typical,
    /// 93 % MPPT × 75 % battery ⇒ ≈70 % overall.
    Low,
}

impl BatteryTier {
    /// MPP-tracking controller conversion efficiency.
    pub fn mppt_efficiency(self) -> f64 {
        match self {
            BatteryTier::High => 0.97,
            BatteryTier::Typical => 0.95,
            BatteryTier::Low => 0.93,
        }
    }

    /// Battery round-trip efficiency.
    pub fn battery_efficiency(self) -> f64 {
        match self {
            BatteryTier::High => 0.95,
            BatteryTier::Typical => 0.85,
            BatteryTier::Low => 0.75,
        }
    }

    /// Overall de-rating factor (product of the two).
    pub fn derating(self) -> f64 {
        self.mppt_efficiency() * self.battery_efficiency()
    }
}

/// An analytically modeled battery-buffered PV system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySystem {
    derating: f64,
}

impl BatterySystem {
    /// A system at one of the Table 3 tiers.
    pub fn tier(tier: BatteryTier) -> Self {
        Self {
            derating: tier.derating(),
        }
    }

    /// `Battery-U`: the upper bound of a high-efficiency system (92 %).
    pub fn upper_bound() -> Self {
        Self { derating: 0.92 }
    }

    /// `Battery-L`: the lower bound of a high-efficiency system (81 %).
    pub fn lower_bound() -> Self {
        Self { derating: 0.81 }
    }

    /// A system with an explicit overall de-rating factor.
    ///
    /// # Panics
    ///
    /// Panics unless `derating ∈ (0, 1]`.
    pub fn with_derating(derating: f64) -> Self {
        assert!(
            derating > 0.0 && derating <= 1.0,
            "derating must be in (0, 1]"
        );
        Self { derating }
    }

    /// The overall de-rating factor.
    pub fn derating(&self) -> f64 {
        self.derating
    }

    /// Simulates one day: the battery banks `derating × ideal MPP energy`
    /// over the day; the chip runs at full speed on that stored energy
    /// until it is gone, accumulating instructions.
    ///
    /// `mpp` is the day's MPP column, one point per trace minute in order:
    /// [`pv::PvArray::mpp_column`] of the trace's cell environments, which
    /// one caller can compute once for several systems.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arch`] if the chip rejects a simulation step —
    /// an internal phase-trace/chip size mismatch.
    pub fn simulate_day(
        &self,
        mpp: &[MppPoint],
        mix: &Mix,
        phase_seed: u64,
    ) -> Result<BatteryDayResult, CoreError> {
        let minutes = mpp.len();
        let phases = PhaseTrace::for_mix(mix, phase_seed, minutes);

        // Harvest: optimal MPPT into the battery, derated.
        let ideal_wh: f64 = mpp.iter().map(|p| p.power.get() / 60.0).sum();
        let stored_wh = ideal_wh * self.derating;

        // Drain: full speed until the stored energy is gone.
        let mut chip = MultiCoreChip::new(mix); // boots at top V/F
        let mut remaining_j = stored_wh * 3600.0;
        let mut powered_minutes = 0.0;
        for t in 0..minutes {
            let mults: Vec<f64> = phases.iter().map(|p| p.at(t)).collect();
            // Probe the draw for this minute before committing.
            let instr_before = chip.total_instructions();
            let energy_before = chip.total_energy().get();
            chip.step(&mults, 60.0)?;
            let used = chip.total_energy().get() - energy_before;
            if used <= remaining_j {
                remaining_j -= used;
                powered_minutes += 1.0;
            } else {
                // Partial final minute: scale the last step's contribution.
                let frac = (remaining_j / used).clamp(0.0, 1.0);
                let instr_this = chip.total_instructions() - instr_before;
                let overcount = instr_this * (1.0 - frac);
                powered_minutes += frac;
                return Ok(BatteryDayResult {
                    stored: WattHours::new(stored_wh),
                    ideal: WattHours::new(ideal_wh),
                    instructions: chip.total_instructions() - overcount,
                    powered_minutes,
                });
            }
        }
        Ok(BatteryDayResult {
            stored: WattHours::new(stored_wh),
            ideal: WattHours::new(ideal_wh),
            instructions: chip.total_instructions(),
            powered_minutes,
        })
    }
}

/// Outcome of a battery-system day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryDayResult {
    /// Solar energy banked after de-rating.
    pub stored: WattHours,
    /// Ideal (un-derated) MPP energy over the window.
    pub ideal: WattHours,
    /// Instructions committed on stored solar energy (the PTP).
    pub instructions: f64,
    /// Minutes the chip ran on battery power.
    pub powered_minutes: f64,
}

impl BatteryDayResult {
    /// Fraction of the ideal solar energy delivered to the chip.
    pub fn utilization(&self) -> f64 {
        if self.ideal.get() <= 0.0 {
            0.0
        } else {
            self.stored / self.ideal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv::PvArray;
    use solarenv::{EnvTrace, Season, Site};

    /// The MPP column of one generated day.
    fn day_mpp(site: &Site, season: Season, day: u32) -> Vec<MppPoint> {
        let trace = EnvTrace::generate(site, season, day);
        let envs: Vec<_> = trace.samples().iter().map(|s| s.cell_env()).collect();
        PvArray::solarcore_default().mpp_column(&envs)
    }

    #[test]
    fn table3_derating_factors() {
        assert!((BatteryTier::High.derating() - 0.9215).abs() < 1e-9);
        assert!((BatteryTier::Typical.derating() - 0.8075).abs() < 1e-9);
        assert!((BatteryTier::Low.derating() - 0.6975).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "derating must be in (0, 1]")]
    fn bad_derating_panics() {
        let _ = BatterySystem::with_derating(1.5);
    }

    #[test]
    fn sunny_day_simulation_is_consistent() {
        let mpp = day_mpp(&Site::phoenix_az(), Season::Apr, 0);
        let result = BatterySystem::upper_bound()
            .simulate_day(&mpp, &Mix::h1(), 42)
            .unwrap();
        assert!((result.utilization() - 0.92).abs() < 1e-9);
        assert!(result.instructions > 0.0);
        assert!(result.powered_minutes > 0.0);
        assert!(result.powered_minutes <= mpp.len() as f64);
    }

    /// The harvest summed from the column has the bits of a per-minute MPP
    /// search summed in trace order.
    #[test]
    fn harvest_from_the_column_matches_a_per_minute_search() {
        use pv::generator::PvGenerator;
        let array = PvArray::solarcore_default();
        let trace = EnvTrace::generate(&Site::golden_co(), Season::Oct, 2);
        let searched: f64 = trace
            .samples()
            .iter()
            .map(|s| array.mpp(s.cell_env()).power.get() / 60.0)
            .sum();
        let result = BatterySystem::lower_bound()
            .simulate_day(&day_mpp(&Site::golden_co(), Season::Oct, 2), &Mix::l1(), 3)
            .unwrap();
        assert_eq!(result.ideal.get().to_bits(), searched.to_bits());
    }

    #[test]
    fn upper_bound_beats_lower_bound() {
        let mpp = day_mpp(&Site::golden_co(), Season::Jul, 1);
        let hi = BatterySystem::upper_bound()
            .simulate_day(&mpp, &Mix::hm2(), 7)
            .unwrap();
        let lo = BatterySystem::lower_bound()
            .simulate_day(&mpp, &Mix::hm2(), 7)
            .unwrap();
        assert!(hi.instructions > lo.instructions);
        assert!(hi.stored > lo.stored);
        // Roughly proportional to the energy ratio.
        let ratio = hi.instructions / lo.instructions;
        assert!((ratio - 0.92 / 0.81).abs() < 0.05, "ratio {ratio:.3}");
    }

    #[test]
    fn low_epi_mix_runs_longer_on_the_same_energy() {
        let mpp = day_mpp(&Site::oak_ridge_tn(), Season::Jan, 0);
        let sys = BatterySystem::tier(BatteryTier::Typical);
        let h1 = sys.simulate_day(&mpp, &Mix::h1(), 1).unwrap();
        let l1 = sys.simulate_day(&mpp, &Mix::l1(), 1).unwrap();
        assert!(l1.powered_minutes >= h1.powered_minutes);
    }
}
