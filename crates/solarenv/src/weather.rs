//! Regime-switching cloud model producing per-minute clearness indices.
//!
//! The sky alternates between four cloud regimes (clear → overcast). Regime
//! dwell times are exponentially distributed; within a regime the clearness
//! index follows an AR(1) process around the regime mean, and the emitted
//! series is first-order smoothed to produce realistic ramps rather than
//! square steps. Everything is driven by a caller-supplied RNG so traces are
//! reproducible.

// Conversion-heavy numeric kernel: every `as` cast here must be lossless.
// `cast_possible_truncation` is denied workspace-wide; these two close
// the remaining silent-conversion holes.
#![deny(clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use rand::Rng;

use crate::error::EnvError;

/// A sky condition regime with a characteristic clearness level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloudRegime {
    /// Cloudless sky; clearness ≈ 0.97.
    Clear,
    /// Scattered cumulus; clearness ≈ 0.78 with moderate jitter.
    Scattered,
    /// Broken cloud deck; clearness ≈ 0.45 with heavy jitter.
    Broken,
    /// Full overcast; clearness ≈ 0.12.
    Overcast,
}

impl CloudRegime {
    /// The four regimes from clearest to darkest.
    pub const ALL: [CloudRegime; 4] = [
        CloudRegime::Clear,
        CloudRegime::Scattered,
        CloudRegime::Broken,
        CloudRegime::Overcast,
    ];

    /// Mean clearness index (fraction of clear-sky GHI) of the regime.
    pub fn mean_clearness(self) -> f64 {
        match self {
            CloudRegime::Clear => 0.97,
            CloudRegime::Scattered => 0.78,
            CloudRegime::Broken => 0.45,
            CloudRegime::Overcast => 0.12,
        }
    }

    /// Standard deviation of the within-regime clearness jitter.
    pub fn clearness_sigma(self) -> f64 {
        match self {
            CloudRegime::Clear => 0.015,
            CloudRegime::Scattered => 0.10,
            CloudRegime::Broken => 0.14,
            CloudRegime::Overcast => 0.05,
        }
    }
}

/// Statistical description of a site-season's sky: stationary regime
/// weights, mean regime dwell time, and a jitter multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherProfile {
    weights: [f64; 4],
    mean_dwell_minutes: f64,
    jitter_scale: f64,
}

impl WeatherProfile {
    /// Builds a profile from regime weights (any positive values; they are
    /// normalized), a mean regime dwell in minutes, and a jitter scale.
    ///
    /// # Errors
    ///
    /// Returns [`EnvError::InvalidProfile`] if the weights do not sum to a
    /// positive value, any weight is negative, the dwell is not positive, or
    /// the jitter scale is negative.
    pub fn new(
        weights: [f64; 4],
        mean_dwell_minutes: f64,
        jitter_scale: f64,
    ) -> Result<Self, EnvError> {
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 || sum.is_nan() || weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(EnvError::InvalidProfile {
                reason: "regime weights must be non-negative and sum > 0",
            });
        }
        if mean_dwell_minutes <= 0.0 || mean_dwell_minutes.is_nan() {
            return Err(EnvError::InvalidProfile {
                reason: "mean dwell must be positive",
            });
        }
        if !(jitter_scale >= 0.0 && jitter_scale.is_finite()) {
            return Err(EnvError::InvalidProfile {
                reason: "jitter scale must be non-negative and finite",
            });
        }
        let mut normalized = weights;
        for w in &mut normalized {
            *w /= sum;
        }
        Ok(Self {
            weights: normalized,
            mean_dwell_minutes,
            jitter_scale,
        })
    }

    /// Normalized stationary regime weights (clear, scattered, broken,
    /// overcast).
    pub fn weights(&self) -> [f64; 4] {
        self.weights
    }

    /// Mean regime dwell time in minutes. Shorter dwell ⇒ more "irregular"
    /// weather (Figure 14 of the paper).
    pub fn mean_dwell_minutes(&self) -> f64 {
        self.mean_dwell_minutes
    }

    /// Jitter multiplier applied to the per-regime clearness sigma.
    pub fn jitter_scale(&self) -> f64 {
        self.jitter_scale
    }

    /// Expectation of the clearness index under the stationary regime
    /// distribution — the calibration knob for Table 2's insolation bands.
    pub fn expected_clearness(&self) -> f64 {
        self.weights
            .iter()
            .zip(CloudRegime::ALL)
            .map(|(w, r)| w * r.mean_clearness())
            .sum()
    }

    /// Samples a regime from the stationary distribution.
    fn sample_regime<R: Rng + ?Sized>(&self, rng: &mut R) -> CloudRegime {
        let mut u: f64 = rng.gen::<f64>();
        for (w, regime) in self.weights.iter().zip(CloudRegime::ALL) {
            if u < *w {
                return regime;
            }
            u -= w;
        }
        CloudRegime::Overcast
    }
}

/// Stateful per-minute clearness process. Create once per day trace and call
/// [`CloudProcess::step`] per simulated minute.
#[derive(Debug, Clone)]
pub struct CloudProcess {
    profile: WeatherProfile,
    regime: CloudRegime,
    minutes_left: f64,
    ar_state: f64,
    smoothed: f64,
}

/// AR(1) persistence of the within-regime jitter.
const AR_RHO: f64 = 0.92;

/// First-order smoothing factor of the emitted clearness (ramp realism).
const SMOOTH_ALPHA: f64 = 0.35;

impl CloudProcess {
    /// Initializes the process in a stationary-sampled regime.
    pub fn new<R: Rng + ?Sized>(profile: WeatherProfile, rng: &mut R) -> Self {
        let regime = profile.sample_regime(rng);
        let minutes_left = sample_dwell(profile.mean_dwell_minutes, rng);
        Self {
            profile,
            regime,
            minutes_left,
            ar_state: 0.0,
            smoothed: regime.mean_clearness(),
        }
    }

    /// The currently active regime.
    pub fn regime(&self) -> CloudRegime {
        self.regime
    }

    /// Advances one minute and returns the clearness index in `[0.02, 1.05]`.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.minutes_left -= 1.0;
        if self.minutes_left <= 0.0 {
            self.regime = self.profile.sample_regime(rng);
            self.minutes_left = sample_dwell(self.profile.mean_dwell_minutes, rng);
        }
        let sigma = self.regime.clearness_sigma() * self.profile.jitter_scale();
        let eps: f64 = standard_normal(rng);
        self.ar_state = AR_RHO * self.ar_state + (1.0 - AR_RHO * AR_RHO).sqrt() * sigma * eps;
        let target = (self.regime.mean_clearness() + self.ar_state).clamp(0.02, 1.05);
        self.smoothed += SMOOTH_ALPHA * (target - self.smoothed);
        self.smoothed.clamp(0.02, 1.05)
    }
}

/// Exponentially distributed dwell with the given mean, floored at 1 minute.
fn sample_dwell<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * mean).max(1.0)
}

/// Standard normal via Box–Muller (avoids a distribution-crate dependency).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn profile() -> WeatherProfile {
        WeatherProfile::new([0.5, 0.25, 0.15, 0.10], 20.0, 1.0).unwrap()
    }

    #[test]
    fn profile_normalizes_weights() {
        let p = WeatherProfile::new([2.0, 1.0, 1.0, 0.0], 10.0, 1.0).unwrap();
        let w = p.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profile_rejects_bad_inputs() {
        assert!(WeatherProfile::new([0.0; 4], 10.0, 1.0).is_err());
        assert!(WeatherProfile::new([1.0, -0.1, 0.0, 0.0], 10.0, 1.0).is_err());
        assert!(WeatherProfile::new([1.0; 4], 0.0, 1.0).is_err());
        assert!(WeatherProfile::new([1.0; 4], 10.0, -1.0).is_err());
        assert!(WeatherProfile::new([f64::NAN, 1.0, 1.0, 1.0], 10.0, 1.0).is_err());
    }

    #[test]
    fn expected_clearness_is_weighted_mean() {
        let p = WeatherProfile::new([1.0, 0.0, 0.0, 0.0], 10.0, 1.0).unwrap();
        assert!((p.expected_clearness() - 0.97).abs() < 1e-12);
        let p = WeatherProfile::new([0.0, 0.0, 0.0, 1.0], 10.0, 1.0).unwrap();
        assert!((p.expected_clearness() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn process_output_stays_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut proc = CloudProcess::new(profile(), &mut rng);
        for _ in 0..2000 {
            let kt = proc.step(&mut rng);
            assert!((0.02..=1.05).contains(&kt), "kt = {kt}");
        }
    }

    #[test]
    fn process_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<f64> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut proc = CloudProcess::new(profile(), &mut rng);
            (0..200).map(|_| proc.step(&mut rng)).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn long_run_mean_tracks_expected_clearness() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let p = profile();
        let mut proc = CloudProcess::new(p, &mut rng);
        let n = 120_000;
        let mean: f64 = (0..n).map(|_| proc.step(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - p.expected_clearness()).abs() < 0.06,
            "mean {mean} vs expected {}",
            p.expected_clearness()
        );
    }

    #[test]
    fn shorter_dwell_means_more_volatility() {
        let volatility = |dwell: f64| -> f64 {
            let p = WeatherProfile::new([0.4, 0.25, 0.2, 0.15], dwell, 1.0).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut proc = CloudProcess::new(p, &mut rng);
            let series: Vec<f64> = (0..20_000).map(|_| proc.step(&mut rng)).collect();
            series.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (series.len() - 1) as f64
        };
        assert!(volatility(5.0) > 1.5 * volatility(60.0));
    }

    #[test]
    fn dwell_sampling_has_roughly_correct_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| sample_dwell(20.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 1.0, "mean dwell {mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
