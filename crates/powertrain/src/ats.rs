//! Automatic transfer switch (ATS) between solar and grid utility.
//!
//! "When the solar power supply drops below a certain threshold, a secondary
//! power supply (e.g. grid utilities) will be switched in and used as a
//! power supply until sufficient solar power is available" (paper §1). The
//! UPS in Figure 8 guarantees the handover is seamless; we model the switch
//! logic with hysteresis so marginal sunshine does not cause chattering.

use pv::units::Watts;

use crate::error::PowerError;

/// Which supply currently feeds the processor rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerSource {
    /// Direct-coupled PV array (SolarCore active).
    Solar,
    /// Grid utility backup (conventional CMP operation).
    Utility,
}

/// The automatic transfer switch with hysteresis.
#[derive(Debug, Clone, PartialEq)]
pub struct AutomaticTransferSwitch {
    threshold: Watts,
    hysteresis: Watts,
    source: PowerSource,
    transfers: u64,
}

impl AutomaticTransferSwitch {
    /// Builds a switch that selects solar while the available PV power stays
    /// at or above `threshold`, and returns to solar only once it recovers
    /// to `threshold + hysteresis`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidSwitch`] for negative or non-finite
    /// parameters.
    pub fn new(threshold: Watts, hysteresis: Watts) -> Result<Self, PowerError> {
        if !(threshold.get() >= 0.0 && threshold.is_finite()) {
            return Err(PowerError::InvalidSwitch {
                reason: "threshold must be non-negative and finite",
            });
        }
        if !(hysteresis.get() >= 0.0 && hysteresis.is_finite()) {
            return Err(PowerError::InvalidSwitch {
                reason: "hysteresis must be non-negative and finite",
            });
        }
        Ok(Self {
            threshold,
            hysteresis,
            source: PowerSource::Utility,
            transfers: 0,
        })
    }

    /// The SolarCore default: transfer at 25 W available solar power (the
    /// lowest fixed budget the paper sweeps) with 3 W hysteresis.
    #[expect(
        clippy::expect_used,
        reason = "compile-time-constant paper configuration, pinned by a unit test"
    )]
    pub fn solarcore_default() -> Self {
        Self::new(Watts::new(25.0), Watts::new(3.0)).expect("static configuration is valid")
    }

    /// The currently selected source.
    pub fn source(&self) -> PowerSource {
        self.source
    }

    /// The power-transfer threshold.
    pub fn threshold(&self) -> Watts {
        self.threshold
    }

    /// How many source transfers have occurred.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// Forces the switch onto `source` regardless of available power — the
    /// ATS-flapping fault seam (a failing changeover relay). Counts as a
    /// transfer when the source actually changes, exactly like
    /// [`update`](Self::update). Returns the selected source.
    pub fn force(&mut self, source: PowerSource) -> PowerSource {
        if source != self.source {
            self.transfers += 1;
            self.source = source;
        }
        source
    }

    /// Updates the switch with the currently available PV power (e.g. the
    /// tracked MPP estimate) and returns the newly selected source.
    pub fn update(&mut self, available_solar: Watts) -> PowerSource {
        let next = match self.source {
            PowerSource::Solar if available_solar < self.threshold => PowerSource::Utility,
            PowerSource::Utility if available_solar >= self.threshold + self.hysteresis => {
                PowerSource::Solar
            }
            current => current,
        };
        if next != self.source {
            self.transfers += 1;
            self.source = next;
        }
        next
    }
}

impl Default for AutomaticTransferSwitch {
    fn default() -> Self {
        Self::solarcore_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_on_utility() {
        let ats = AutomaticTransferSwitch::solarcore_default();
        assert_eq!(ats.source(), PowerSource::Utility);
        assert_eq!(ats.transfer_count(), 0);
    }

    #[test]
    fn switches_to_solar_above_threshold_plus_hysteresis() {
        let mut ats = AutomaticTransferSwitch::new(Watts::new(25.0), Watts::new(3.0)).unwrap();
        assert_eq!(ats.update(Watts::new(26.0)), PowerSource::Utility); // below 28
        assert_eq!(ats.update(Watts::new(28.0)), PowerSource::Solar);
        assert_eq!(ats.transfer_count(), 1);
    }

    #[test]
    fn falls_back_below_threshold_with_hysteresis_band() {
        let mut ats = AutomaticTransferSwitch::new(Watts::new(25.0), Watts::new(3.0)).unwrap();
        ats.update(Watts::new(100.0));
        assert_eq!(ats.source(), PowerSource::Solar);
        // Inside the band: stays on solar.
        assert_eq!(ats.update(Watts::new(26.0)), PowerSource::Solar);
        // Below threshold: falls back.
        assert_eq!(ats.update(Watts::new(24.9)), PowerSource::Utility);
        assert_eq!(ats.transfer_count(), 2);
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let mut ats = AutomaticTransferSwitch::new(Watts::new(25.0), Watts::new(3.0)).unwrap();
        // Oscillate right around the threshold: only one transfer happens
        // (up at 28), not one per sample.
        let mut transfers = 0;
        let mut last = ats.source();
        for p in [24.0, 26.0, 24.5, 26.5, 28.5, 27.0, 26.0, 27.5, 26.2] {
            let s = ats.update(Watts::new(p));
            if s != last {
                transfers += 1;
                last = s;
            }
        }
        assert_eq!(transfers, 1);
    }

    #[test]
    fn force_overrides_and_counts_real_changes() {
        let mut ats = AutomaticTransferSwitch::new(Watts::new(25.0), Watts::new(3.0)).unwrap();
        assert_eq!(ats.force(PowerSource::Solar), PowerSource::Solar);
        assert_eq!(ats.transfer_count(), 1);
        // Forcing the already-selected source is not a transfer.
        assert_eq!(ats.force(PowerSource::Solar), PowerSource::Solar);
        assert_eq!(ats.transfer_count(), 1);
        assert_eq!(ats.force(PowerSource::Utility), PowerSource::Utility);
        assert_eq!(ats.transfer_count(), 2);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(AutomaticTransferSwitch::new(Watts::new(-1.0), Watts::ZERO).is_err());
        assert!(AutomaticTransferSwitch::new(Watts::new(f64::NAN), Watts::ZERO).is_err());
        assert!(AutomaticTransferSwitch::new(Watts::ZERO, Watts::new(-2.0)).is_err());
    }
}
