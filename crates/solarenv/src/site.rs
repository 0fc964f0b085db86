//! The four evaluated geographic sites (Table 2 of the paper) and their
//! per-season weather characteristics.

use std::fmt;

use crate::season::Season;
use crate::weather::WeatherProfile;

/// Solar energy resource potential bands from Table 2 (NREL GIS maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolarPotential {
    /// > 6.0 kWh/m²/day on average (e.g. Phoenix, AZ).
    Excellent,
    /// 5.0–6.0 kWh/m²/day (e.g. Golden, CO).
    Good,
    /// 4.0–5.0 kWh/m²/day (e.g. Elizabeth City, NC).
    Moderate,
    /// < 4.0 kWh/m²/day (e.g. Oak Ridge, TN).
    Low,
}

impl SolarPotential {
    /// Classifies an average daily insolation into its Table 2 band.
    pub fn classify(kwh_per_m2_day: f64) -> Self {
        if kwh_per_m2_day > 6.0 {
            SolarPotential::Excellent
        } else if kwh_per_m2_day >= 5.0 {
            SolarPotential::Good
        } else if kwh_per_m2_day >= 4.0 {
            SolarPotential::Moderate
        } else {
            SolarPotential::Low
        }
    }
}

impl fmt::Display for SolarPotential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolarPotential::Excellent => "Excellent",
            SolarPotential::Good => "Good",
            SolarPotential::Moderate => "Moderate",
            SolarPotential::Low => "Low",
        };
        f.write_str(s)
    }
}

/// A measurement site: name, station code, latitude, target potential band,
/// and per-season weather statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    name: &'static str,
    station: &'static str,
    latitude_deg: f64,
    potential: SolarPotential,
}

impl Site {
    /// Phoenix, AZ (MIDC station "PFCI"): excellent potential, > 6 kWh/m²/day.
    pub fn phoenix_az() -> Self {
        Self {
            name: "Phoenix, AZ",
            station: "AZ",
            latitude_deg: 33.45,
            potential: SolarPotential::Excellent,
        }
    }

    /// Golden, CO (MIDC station "BMS"): good potential, 5–6 kWh/m²/day.
    pub fn golden_co() -> Self {
        Self {
            name: "Golden, CO",
            station: "CO",
            latitude_deg: 39.74,
            potential: SolarPotential::Good,
        }
    }

    /// Elizabeth City, NC (MIDC station "ECSU"): moderate potential,
    /// 4–5 kWh/m²/day.
    pub fn elizabeth_city_nc() -> Self {
        Self {
            name: "Elizabeth City, NC",
            station: "NC",
            latitude_deg: 36.30,
            potential: SolarPotential::Moderate,
        }
    }

    /// Oak Ridge, TN (MIDC station "ORNL"): low potential, < 4 kWh/m²/day.
    pub fn oak_ridge_tn() -> Self {
        Self {
            name: "Oak Ridge, TN",
            station: "TN",
            latitude_deg: 35.93,
            potential: SolarPotential::Low,
        }
    }

    /// All four evaluation sites, in the paper's order (AZ, CO, NC, TN).
    pub fn all() -> Vec<Site> {
        vec![
            Site::phoenix_az(),
            Site::golden_co(),
            Site::elizabeth_city_nc(),
            Site::oak_ridge_tn(),
        ]
    }

    /// Looks a site up by its [`code`](Site::code) (`"AZ"`, `"CO"`,
    /// `"NC"`, `"TN"`, case-sensitive).
    pub fn from_code(code: &str) -> Option<Site> {
        match code {
            "AZ" => Some(Site::phoenix_az()),
            "CO" => Some(Site::golden_co()),
            "NC" => Some(Site::elizabeth_city_nc()),
            "TN" => Some(Site::oak_ridge_tn()),
            _ => None,
        }
    }

    /// Full human-readable name, e.g. `"Phoenix, AZ"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Short code used in tables and experiment output, e.g. `"AZ"`.
    pub fn code(&self) -> &'static str {
        self.station
    }

    /// Site latitude in degrees north.
    pub fn latitude_deg(&self) -> f64 {
        self.latitude_deg
    }

    /// The Table 2 potential band this site is calibrated to.
    pub fn potential(&self) -> SolarPotential {
        self.potential
    }

    /// The cloud/weather statistics for one season at this site.
    ///
    /// Calibrated so seasonal averages land in the Table 2 kWh/m²/day band
    /// and so that Jan @ AZ is a "regular" pattern while Jul @ AZ (monsoon
    /// season) is "irregular" (Figures 13 vs 14 of the paper).
    pub fn weather_profile(&self, season: Season) -> WeatherProfile {
        use Season::*;
        // (clear, scattered, broken, overcast) stationary weights,
        // mean regime dwell in minutes, and clearness jitter scale.
        let (weights, dwell, jitter) = match (self.station, season) {
            // Phoenix: desert — high clearness; July monsoon brings short,
            // violent variability.
            ("AZ", Jan) => ([0.90, 0.07, 0.02, 0.01], 55.0, 0.6),
            ("AZ", Apr) => ([0.80, 0.13, 0.05, 0.02], 30.0, 0.9),
            ("AZ", Jul) => ([0.60, 0.23, 0.11, 0.06], 9.0, 1.4),
            ("AZ", Oct) => ([0.85, 0.09, 0.04, 0.02], 40.0, 0.8),
            // Golden: good but with frequent afternoon convection.
            ("CO", Jan) => ([0.62, 0.22, 0.10, 0.06], 28.0, 1.0),
            ("CO", Apr) => ([0.55, 0.25, 0.12, 0.08], 18.0, 1.1),
            ("CO", Jul) => ([0.62, 0.23, 0.10, 0.05], 14.0, 1.0),
            ("CO", Oct) => ([0.60, 0.22, 0.11, 0.07], 22.0, 1.0),
            // Elizabeth City: coastal moderate; April fronts are the paper's
            // worst tracking-error case (22 % in Table 7).
            ("NC", Jan) => ([0.42, 0.28, 0.18, 0.12], 16.0, 1.1),
            ("NC", Apr) => ([0.22, 0.26, 0.28, 0.24], 6.0, 1.6),
            ("NC", Jul) => ([0.48, 0.28, 0.15, 0.09], 20.0, 0.8),
            ("NC", Oct) => ([0.30, 0.27, 0.24, 0.19], 9.0, 1.3),
            // Oak Ridge: low potential, persistent cloud decks.
            ("TN", Jan) => ([0.24, 0.26, 0.27, 0.23], 18.0, 1.0),
            ("TN", Apr) => ([0.13, 0.21, 0.31, 0.35], 7.0, 1.5),
            ("TN", Jul) => ([0.24, 0.28, 0.27, 0.21], 12.0, 1.2),
            ("TN", Oct) => ([0.15, 0.23, 0.30, 0.32], 8.0, 1.4),
            _ => ([0.5, 0.25, 0.15, 0.10], 20.0, 1.0),
        };
        #[expect(
            clippy::expect_used,
            reason = "compile-time-constant site climatology, pinned by a unit test"
        )]
        WeatherProfile::new(weights, dwell, jitter).expect("static site profiles are valid")
    }

    /// Daily ambient temperature range `(min, max)` in °C for one season,
    /// approximating climate normals for the site.
    pub fn temperature_range(&self, season: Season) -> (f64, f64) {
        use Season::*;
        match (self.station, season) {
            ("AZ", Jan) => (5.0, 19.0),
            ("AZ", Apr) => (15.0, 30.0),
            ("AZ", Jul) => (28.0, 41.0),
            ("AZ", Oct) => (17.0, 31.0),
            ("CO", Jan) => (-8.0, 4.0),
            ("CO", Apr) => (2.0, 16.0),
            ("CO", Jul) => (15.0, 31.0),
            ("CO", Oct) => (3.0, 18.0),
            ("NC", Jan) => (0.0, 10.0),
            ("NC", Apr) => (9.0, 21.0),
            ("NC", Jul) => (22.0, 31.0),
            ("NC", Oct) => (10.0, 21.0),
            ("TN", Jan) => (-2.0, 8.0),
            ("TN", Apr) => (8.0, 21.0),
            ("TN", Jul) => (20.0, 31.0),
            ("TN", Oct) => (8.0, 21.0),
            _ => (10.0, 25.0),
        }
    }

    /// Deterministic RNG seed for `(site, season, day)` trace generation.
    #[allow(clippy::cast_possible_truncation)] // Season::index() < 12 fits u8
    pub fn trace_seed(&self, season: Season, day: u32) -> u64 {
        // FNV-1a over the identifying tuple; stable across runs/platforms.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self
            .station
            .bytes()
            .chain([season.index() as u8, 0x5a])
            .chain(day.to_le_bytes())
        {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_sites() {
        let sites = Site::all();
        assert_eq!(sites.len(), 4);
        let codes: Vec<&str> = sites.iter().map(|s| s.code()).collect();
        assert_eq!(codes, vec!["AZ", "CO", "NC", "TN"]);
        for site in &sites {
            assert_eq!(Site::from_code(site.code()).as_ref(), Some(site));
        }
        assert_eq!(Site::from_code("az"), None);
        assert_eq!(Site::from_code("XX"), None);
    }

    #[test]
    fn potential_classification_bands() {
        assert_eq!(SolarPotential::classify(6.5), SolarPotential::Excellent);
        assert_eq!(SolarPotential::classify(5.5), SolarPotential::Good);
        assert_eq!(SolarPotential::classify(4.5), SolarPotential::Moderate);
        assert_eq!(SolarPotential::classify(3.5), SolarPotential::Low);
        // Boundary behaviour matches Table 2's "5.0 ~ 6.0" style bands.
        assert_eq!(SolarPotential::classify(5.0), SolarPotential::Good);
        assert_eq!(SolarPotential::classify(4.0), SolarPotential::Moderate);
    }

    #[test]
    fn july_phoenix_is_most_irregular_at_that_site() {
        let az = Site::phoenix_az();
        let jan = az.weather_profile(Season::Jan);
        let jul = az.weather_profile(Season::Jul);
        assert!(jul.mean_dwell_minutes() < jan.mean_dwell_minutes());
        assert!(jul.expected_clearness() < jan.expected_clearness());
    }

    #[test]
    fn site_clearness_ordering_matches_potential() {
        // Average expected clearness across seasons must be ordered
        // AZ > CO > NC > TN, matching Table 2.
        let avg = |site: &Site| -> f64 {
            Season::ALL
                .iter()
                .map(|&s| site.weather_profile(s).expected_clearness())
                .sum::<f64>()
                / 4.0
        };
        let sites = Site::all();
        let vals: Vec<f64> = sites.iter().map(avg).collect();
        assert!(vals[0] > vals[1], "AZ > CO");
        assert!(vals[1] > vals[2], "CO > NC");
        assert!(vals[2] > vals[3], "NC > TN");
    }

    #[test]
    fn temperatures_are_sane() {
        for site in Site::all() {
            for &season in &Season::ALL {
                let (lo, hi) = site.temperature_range(season);
                assert!(lo < hi, "{site} {season}");
                assert!((-20.0..=50.0).contains(&lo));
                assert!((-10.0..=50.0).contains(&hi));
            }
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let az = Site::phoenix_az();
        let s1 = az.trace_seed(Season::Jan, 0);
        let s2 = az.trace_seed(Season::Jan, 0);
        assert_eq!(s1, s2);
        assert_ne!(s1, az.trace_seed(Season::Jan, 1));
        assert_ne!(s1, az.trace_seed(Season::Apr, 0));
        assert_ne!(s1, Site::golden_co().trace_seed(Season::Jan, 0));
    }
}
