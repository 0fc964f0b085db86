//! Sampled I-V / P-V curves (Figures 6–7).

use crate::cell::CellEnv;
use crate::error::PvError;
use crate::generator::PvGenerator;
use crate::units::{Amps, Volts, Watts};

/// One sampled point of an I-V curve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IvPoint {
    /// Terminal voltage.
    pub voltage: Volts,
    /// Terminal current.
    pub current: Amps,
}

impl IvPoint {
    /// Output power at this point.
    pub fn power(&self) -> Watts {
        self.voltage * self.current
    }
}

/// A uniformly sampled current-voltage characteristic, from short circuit
/// (`V = 0`) to open circuit (`V = Voc`).
///
/// # Examples
///
/// ```
/// use pv::{PvModule, CellEnv, IvCurve};
///
/// let module = PvModule::bp3180n();
/// let curve = IvCurve::sample(&module, CellEnv::stc(), 100)?;
/// assert_eq!(curve.points().len(), 101);
/// assert!(curve.max_power().power().get() > 170.0);
/// # Ok::<(), pv::PvError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IvCurve {
    points: Vec<IvPoint>,
}

impl IvCurve {
    /// Samples `segments + 1` evenly spaced points of the generator's I-V
    /// characteristic on `[0, Voc]`.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::InvalidParameter`] if `segments == 0`, and the
    /// generator's error if any point fails to evaluate.
    pub fn sample<G: PvGenerator + ?Sized>(
        generator: &G,
        env: CellEnv,
        segments: usize,
    ) -> Result<Self, PvError> {
        if segments == 0 {
            return Err(PvError::InvalidParameter {
                name: "segments",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        let voc = generator.open_circuit_voltage(env);
        let points = (0..=segments)
            .map(|step| {
                let voltage = Volts::new(voc.get() * step as f64 / segments as f64);
                let current = generator.current_at(env, voltage)?;
                Ok(IvPoint { voltage, current })
            })
            .collect::<Result<_, PvError>>()?;
        Ok(Self { points })
    }

    /// The sampled points, ordered by increasing voltage.
    pub fn points(&self) -> &[IvPoint] {
        &self.points
    }

    /// Iterates over the sampled points.
    pub fn iter(&self) -> std::slice::Iter<'_, IvPoint> {
        self.points.iter()
    }

    /// The sampled point with the highest power (a coarse MPP; use
    /// [`crate::mpp::find_mpp`] for the refined oracle).
    pub fn max_power(&self) -> IvPoint {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.power().get().total_cmp(&b.power().get()))
            .unwrap_or_default()
    }
}

impl<'a> IntoIterator for &'a IvCurve {
    type Item = &'a IvPoint;
    type IntoIter = std::slice::Iter<'a, IvPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::PvModule;
    use crate::mpp::MppPoint;
    use crate::units::Celsius;

    #[test]
    fn curve_spans_short_to_open_circuit() {
        let m = PvModule::bp3180n();
        let env = CellEnv::stc();
        let curve = IvCurve::sample(&m, env, 50).unwrap();
        let first = curve.points().first().unwrap();
        let last = curve.points().last().unwrap();
        assert_eq!(first.voltage, Volts::ZERO);
        assert!((first.current.get() - 5.4).abs() < 0.1);
        assert!((last.voltage.get() - 44.8).abs() < 0.5);
        assert!(last.current.get().abs() < 0.01);
    }

    #[test]
    fn coarse_max_power_close_to_oracle() {
        let m = PvModule::bp3180n();
        let env = CellEnv::stc();
        let coarse = IvCurve::sample(&m, env, 400).unwrap().max_power();
        let oracle = m.mpp(env);
        assert!((coarse.power().get() - oracle.power.get()).abs() < 0.5);
    }

    #[test]
    fn zero_segments_is_an_error() {
        let m = PvModule::bp3180n();
        assert!(matches!(
            IvCurve::sample(&m, CellEnv::stc(), 0),
            Err(PvError::InvalidParameter {
                name: "segments",
                ..
            })
        ));
    }

    /// A module whose I-V evaluation fails above `fails_above`.
    struct FailsMidCurve {
        module: PvModule,
        fails_above: Volts,
    }

    impl PvGenerator for FailsMidCurve {
        fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
            self.module.open_circuit_voltage(env)
        }

        fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
            if voltage > self.fails_above {
                return Err(PvError::NoConvergence {
                    context: "module current at voltage",
                    iterations: 128,
                });
            }
            self.module.current_at_counted(env, voltage)
        }

        fn mpp(&self, env: CellEnv) -> MppPoint {
            self.module.mpp(env)
        }
    }

    #[test]
    fn a_point_that_fails_to_evaluate_fails_the_curve() {
        let failing = FailsMidCurve {
            module: PvModule::bp3180n(),
            fails_above: Volts::new(20.0),
        };
        assert_eq!(
            IvCurve::sample(&failing, CellEnv::stc(), 50),
            Err(PvError::NoConvergence {
                context: "module current at voltage",
                iterations: 128,
            })
        );
        // A curve that stays below the failing voltages still samples.
        let dark = CellEnv::dark(Celsius::new(25.0));
        assert!(IvCurve::sample(&failing, dark, 50).is_ok());
    }

    #[test]
    fn curve_is_iterable() {
        let m = PvModule::bp3180n();
        let curve = IvCurve::sample(&m, CellEnv::stc(), 10).unwrap();
        assert_eq!(curve.iter().count(), 11);
        assert_eq!((&curve).into_iter().count(), 11);
    }
}
