//! Day-length environment traces: per-minute irradiance and temperature.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use pv::cell::CellEnv;
use pv::units::{Celsius, Irradiance};

use crate::error::EnvError;
use crate::geometry;
use crate::season::Season;
use crate::site::Site;
use crate::thermal;
use crate::weather::CloudProcess;

/// Start of the paper's daytime evaluation window: 07:30 (minute 450).
pub const DAY_START_MINUTE: u32 = 450;

/// End of the paper's daytime evaluation window: 17:30 (minute 1050).
pub const DAY_END_MINUTE: u32 = 1050;

/// One per-minute environment sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvSample {
    /// Minutes after local midnight.
    pub minute_of_day: u32,
    /// Global horizontal irradiance reaching the panel.
    pub irradiance: Irradiance,
    /// Ambient air temperature.
    pub ambient: Celsius,
    /// PV cell temperature (NOCT relation).
    pub cell_temperature: Celsius,
}

impl EnvSample {
    /// The [`CellEnv`] (irradiance + cell temperature) the PV model needs.
    pub fn cell_env(&self) -> CellEnv {
        CellEnv::new(self.irradiance, self.cell_temperature)
    }
}

/// A generated environment trace for one site, season and day.
///
/// # Examples
///
/// ```
/// use solarenv::{Site, Season, EnvTrace};
///
/// let t = EnvTrace::generate(&Site::oak_ridge_tn(), Season::Oct, 3);
/// // Traces are deterministic per (site, season, day).
/// let t2 = EnvTrace::generate(&Site::oak_ridge_tn(), Season::Oct, 3);
/// assert_eq!(t.samples()[0], t2.samples()[0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnvTrace {
    site_code: &'static str,
    season: Season,
    day: u32,
    samples: Vec<EnvSample>,
}

impl EnvTrace {
    /// Generates the paper's daytime window (07:30–17:30 inclusive) for one
    /// site, season and day index. Deterministic per input tuple.
    #[expect(clippy::expect_used, reason = "compile-time-constant window bounds")]
    pub fn generate(site: &Site, season: Season, day: u32) -> Self {
        Self::generate_window(site, season, day, DAY_START_MINUTE, DAY_END_MINUTE)
            .expect("static daytime window is valid")
    }

    /// Generates a full civil day (00:00–24:00), used for Table 2 daily
    /// insolation statistics.
    #[expect(clippy::expect_used, reason = "compile-time-constant window bounds")]
    pub fn generate_full_day(site: &Site, season: Season, day: u32) -> Self {
        Self::generate_window(site, season, day, 0, 1439).expect("full-day window is valid")
    }

    /// Generates an arbitrary `[start, end]` window (minutes after local
    /// midnight, inclusive, 1-minute steps).
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidWindow`] if `start > end` or `end > 1439`.
    pub fn generate_window(
        site: &Site,
        season: Season,
        day: u32,
        start: u32,
        end: u32,
    ) -> Result<Self, EnvError> {
        if start > end || end > 1439 {
            return Err(EnvError::InvalidWindow { start, end });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(site.trace_seed(season, day));
        let profile = site.weather_profile(season);
        let mut clouds = CloudProcess::new(profile, &mut rng);
        let day_of_year = season.day_of_year();
        let temp_range = site.temperature_range(season);

        // Warm the cloud process up from midnight so the window start is not
        // biased by the initial state (and so different windows of the same
        // day agree statistically).
        for _ in 0..start {
            clouds.step(&mut rng);
        }

        let samples = (start..=end)
            .map(|minute| {
                let kt = clouds.step(&mut rng);
                let clear =
                    geometry::clear_sky_poa(site.latitude_deg(), day_of_year, minute as f64 + 0.5);
                let irradiance = Irradiance::new(clear * kt);
                let ambient = thermal::ambient_temperature(temp_range, minute);
                let cell_temperature = thermal::cell_temperature(ambient, irradiance);
                EnvSample {
                    minute_of_day: minute,
                    irradiance,
                    ambient,
                    cell_temperature,
                }
            })
            .collect();

        Ok(Self {
            site_code: site.code(),
            season,
            day,
            samples,
        })
    }

    /// Site code this trace was generated for (e.g. `"AZ"`).
    pub fn site_code(&self) -> &'static str {
        self.site_code
    }

    /// Season this trace was generated for.
    pub fn season(&self) -> Season {
        self.season
    }

    /// Day index within the site-season (different indices ⇒ different
    /// weather realizations).
    pub fn day(&self) -> u32 {
        self.day
    }

    /// The per-minute samples, ordered by time.
    pub fn samples(&self) -> &[EnvSample] {
        &self.samples
    }

    /// Looks up the sample at an absolute minute-of-day, if in window.
    pub fn sample_at(&self, minute_of_day: u32) -> Option<&EnvSample> {
        let first = self.samples.first()?.minute_of_day;
        let idx = minute_of_day.checked_sub(first)? as usize;
        self.samples.get(idx)
    }

    /// Integrated insolation over the trace window in kWh/m².
    pub fn insolation_kwh_m2(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.irradiance.get() / 60.0)
            .sum::<f64>()
            / 1000.0
    }

    /// Peak irradiance over the window.
    pub fn peak_irradiance(&self) -> Irradiance {
        self.samples
            .iter()
            .map(|s| s.irradiance)
            .fold(Irradiance::ZERO, Irradiance::max)
    }

    /// Scales each sample's irradiance by `factor(minute_of_day)` and
    /// recomputes the cell temperature from the (unchanged) ambient via the
    /// NOCT relation — the environment-side fault seam for transients
    /// beyond the cloud model (e.g. an irradiance cliff).
    ///
    /// Factors are clamped to be non-negative and non-finite factors are
    /// treated as `1.0` (identity), so a buggy transform cannot produce an
    /// unphysical trace. A transform returning `1.0` everywhere leaves the
    /// trace bit-identical.
    #[allow(clippy::float_cmp)] // exact 1.0 check is the bit-transparency fast path
    pub fn scale_irradiance<F: Fn(u32) -> f64>(&mut self, factor: F) {
        for sample in &mut self.samples {
            let f = factor(sample.minute_of_day);
            let f = if f.is_finite() { f.max(0.0) } else { 1.0 };
            if f == 1.0 {
                continue;
            }
            sample.irradiance = sample.irradiance * f;
            sample.cell_temperature = thermal::cell_temperature(sample.ambient, sample.irradiance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_irradiance_identity_is_bit_transparent() {
        let base = EnvTrace::generate(&Site::phoenix_az(), Season::Jul, 0);
        let mut scaled = base.clone();
        scaled.scale_irradiance(|_| 1.0);
        assert_eq!(base, scaled);
        // Non-finite factors are treated as identity too.
        scaled.scale_irradiance(|_| f64::NAN);
        assert_eq!(base, scaled);
    }

    #[test]
    fn scale_irradiance_recomputes_cell_temperature() {
        let base = EnvTrace::generate(&Site::phoenix_az(), Season::Jul, 0);
        let mut cliff = base.clone();
        cliff.scale_irradiance(|m| if m >= 720 { 0.25 } else { 1.0 });
        let b = base.sample_at(800).unwrap();
        let c = cliff.sample_at(800).unwrap();
        assert!((c.irradiance.get() - 0.25 * b.irradiance.get()).abs() < 1e-12);
        assert_eq!(c.ambient, b.ambient);
        // Less irradiance heats the cell less.
        assert!(c.cell_temperature < b.cell_temperature);
        // Before the cliff, untouched.
        assert_eq!(base.sample_at(700).unwrap(), cliff.sample_at(700).unwrap());
    }

    #[test]
    fn daytime_window_has_601_minutes() {
        let t = EnvTrace::generate(&Site::phoenix_az(), Season::Jan, 0);
        assert_eq!(t.samples().len(), 601);
        assert_eq!(t.samples()[0].minute_of_day, 450);
        assert_eq!(t.samples().last().unwrap().minute_of_day, 1050);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = EnvTrace::generate(&Site::golden_co(), Season::Apr, 2);
        let b = EnvTrace::generate(&Site::golden_co(), Season::Apr, 2);
        assert_eq!(a, b);
        let c = EnvTrace::generate(&Site::golden_co(), Season::Apr, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_windows_are_rejected() {
        let site = Site::phoenix_az();
        assert!(EnvTrace::generate_window(&site, Season::Jan, 0, 900, 450).is_err());
        assert!(EnvTrace::generate_window(&site, Season::Jan, 0, 0, 2000).is_err());
    }

    #[test]
    fn irradiance_is_bounded_by_physics() {
        for site in Site::all() {
            for &season in &Season::ALL {
                let t = EnvTrace::generate(&site, season, 0);
                for s in t.samples() {
                    assert!(s.irradiance.get() >= 0.0);
                    assert!(s.irradiance.get() < 1250.0, "{} {}", site, season);
                }
            }
        }
    }

    #[test]
    fn cell_runs_hotter_than_ambient_in_daylight() {
        let t = EnvTrace::generate(&Site::phoenix_az(), Season::Jul, 0);
        for s in t.samples() {
            if s.irradiance.get() > 1.0 {
                assert!(s.cell_temperature > s.ambient);
            }
        }
    }

    #[test]
    fn sample_lookup_by_minute() {
        let t = EnvTrace::generate(&Site::phoenix_az(), Season::Jan, 0);
        assert_eq!(t.sample_at(450).unwrap().minute_of_day, 450);
        assert_eq!(t.sample_at(720).unwrap().minute_of_day, 720);
        assert!(t.sample_at(449).is_none());
        assert!(t.sample_at(1051).is_none());
    }

    #[test]
    fn phoenix_summer_outshines_oak_ridge_winter() {
        let az = EnvTrace::generate(&Site::phoenix_az(), Season::Jul, 0);
        let tn = EnvTrace::generate(&Site::oak_ridge_tn(), Season::Jan, 0);
        assert!(az.insolation_kwh_m2() > tn.insolation_kwh_m2());
    }

    #[test]
    fn full_day_contains_daytime_window_energy() {
        let site = Site::phoenix_az();
        let day = EnvTrace::generate_full_day(&site, Season::Apr, 0);
        let window = EnvTrace::generate(&site, Season::Apr, 0);
        assert!(day.insolation_kwh_m2() >= window.insolation_kwh_m2() * 0.95);
        assert_eq!(day.samples().len(), 1440);
    }

    #[test]
    fn peak_irradiance_reasonable_for_sunny_summer() {
        let t = EnvTrace::generate(&Site::phoenix_az(), Season::Jul, 0);
        let peak = t.peak_irradiance();
        assert!(peak.get() > 600.0, "peak {peak}");
    }
}
