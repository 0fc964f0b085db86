//! A single core: V/F state, gating, and accumulated work/energy.

use std::cell::Cell;
use std::fmt;

use pv::units::{Celsius, Joules, Watts};
use workloads::BenchmarkSpec;

use crate::dvfs::VfLevel;
use crate::power;

/// Index of a core on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Interval observables the SolarCore controller reads from performance
/// counters and power sensors (paper Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTelemetry {
    /// Which core.
    pub id: CoreId,
    /// Current operating point.
    pub level: VfLevel,
    /// `true` if power-gated.
    pub gated: bool,
    /// Instantaneous instruction throughput (instructions/second).
    pub ips: f64,
    /// Instantaneous power draw.
    pub power: Watts,
    /// Effective IPC at the current frequency and phase.
    pub ipc: f64,
}

/// One simulated core running a pinned benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Core {
    id: CoreId,
    spec: BenchmarkSpec,
    level: VfLevel,
    gated: bool,
    phase: f64,
    retired_instructions: f64,
    energy: Joules,
    power_table: LevelPowerTable,
}

/// [`power::core_power`] at a core's current phase, one slot per V/F level,
/// filled on first use and emptied by [`Core::step`] when the phase's bits
/// change. The controller asks for the same few values many times a
/// minute, and each one is a leakage–temperature fixed point.
#[derive(Debug, Clone, Default)]
struct LevelPowerTable([Cell<Option<(Watts, Celsius)>>; VfLevel::COUNT]);

/// The table is a pure function of the core's `spec` and `phase`, which
/// `Core`'s equality already compares, so a warm core equals a cold one.
impl PartialEq for LevelPowerTable {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Core {
    /// Creates a core at the top V/F level, ungated, with unit phase.
    pub fn new(id: CoreId, spec: BenchmarkSpec) -> Self {
        Self {
            id,
            spec,
            level: VfLevel::highest(),
            gated: false,
            phase: 1.0,
            retired_instructions: 0.0,
            energy: Joules::ZERO,
            power_table: LevelPowerTable::default(),
        }
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The benchmark pinned to this core.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Current operating point.
    pub fn level(&self) -> VfLevel {
        self.level
    }

    /// Sets the operating point (the VRM VID write).
    pub fn set_level(&mut self, level: VfLevel) {
        self.level = level;
    }

    /// `true` if the core is power-gated (PCPG).
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Gates or ungates the core.
    pub fn set_gated(&mut self, gated: bool) {
        self.gated = gated;
    }

    /// The most recent phase multiplier applied by [`Core::step`].
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Total instructions retired since construction.
    pub fn retired_instructions(&self) -> f64 {
        self.retired_instructions
    }

    /// Total energy consumed since construction.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Instantaneous power at the current state (gated ⇒ zero), at the
    /// machine ambient temperature.
    pub fn current_power(&self) -> Watts {
        self.power_at(self.level, self.phase)
    }

    /// Instantaneous throughput at the current state (gated ⇒ zero).
    pub fn current_ips(&self) -> f64 {
        if self.gated {
            0.0
        } else {
            power::core_ips(&self.spec, self.level, self.phase)
        }
    }

    /// What-if power at another level with a phase multiplier — used by the
    /// load-tuning heuristics to predict the effect of a V/F step without
    /// committing it. Gating is ignored (the question is "if it ran").
    pub fn power_at(&self, level: VfLevel, phase: f64) -> Watts {
        if self.gated {
            return Watts::ZERO;
        }
        self.level_power(level, phase).0
    }

    /// What-if power at a level ignoring gating — the core's *capacity*
    /// contribution ("how much could this core absorb if it ran"). Used to
    /// compute the achievable chip budget.
    pub fn potential_power_at(&self, level: VfLevel, phase: f64) -> Watts {
        self.level_power(level, phase).0
    }

    /// [`power::core_power`] at the machine ambient, read from the table
    /// when `phase` is the core's own phase bit for bit.
    fn level_power(&self, level: VfLevel, phase: f64) -> (Watts, Celsius) {
        let solve = || power::core_power(&self.spec, level, phase, power::MACHINE_AMBIENT);
        if phase.to_bits() != self.phase.to_bits() {
            return solve();
        }
        let slot = &self.power_table.0[level.index()];
        slot.get().unwrap_or_else(|| {
            let fresh = solve();
            slot.set(Some(fresh));
            fresh
        })
    }

    /// What-if throughput at another level.
    pub fn ips_at(&self, level: VfLevel, phase: f64) -> f64 {
        if self.gated {
            return 0.0;
        }
        power::core_ips(&self.spec, level, phase)
    }

    /// Die temperature at the current operating state.
    pub fn die_temperature(&self) -> Celsius {
        if self.gated {
            power::MACHINE_AMBIENT
        } else {
            self.level_power(self.level, self.phase).1
        }
    }

    /// Advances the core by `dt` seconds under phase multiplier `phase`,
    /// accumulating retired instructions and energy.
    pub fn step(&mut self, phase: f64, dt: f64) {
        if phase.to_bits() != self.phase.to_bits() {
            self.power_table = LevelPowerTable::default();
        }
        self.phase = phase;
        if self.gated {
            return;
        }
        let ips = power::core_ips(&self.spec, self.level, phase);
        let p = self.power_at(self.level, phase);
        self.retired_instructions += ips * dt;
        self.energy += Joules::new(p.get() * dt);
    }

    /// Snapshot of the controller-visible observables.
    pub fn telemetry(&self) -> CoreTelemetry {
        let ips = self.current_ips();
        CoreTelemetry {
            id: self.id,
            level: self.level,
            gated: self.gated,
            ips,
            power: self.current_power(),
            ipc: ips / self.level.frequency().get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec2000;

    fn core() -> Core {
        Core::new(CoreId(3), spec2000::gcc())
    }

    #[test]
    fn new_core_boots_fast_and_ungated() {
        let c = core();
        assert_eq!(c.level(), VfLevel::highest());
        assert!(!c.is_gated());
        assert_eq!(c.retired_instructions(), 0.0);
        assert_eq!(c.energy(), Joules::ZERO);
    }

    #[test]
    fn step_accumulates_work_and_energy() {
        let mut c = core();
        c.step(1.0, 60.0);
        let instr_1min = c.retired_instructions();
        assert!(instr_1min > 1e10, "gcc at 2.5 GHz retires > 10 G instr/min");
        assert!(c.energy().get() > 100.0);
        c.step(1.0, 60.0);
        assert!((c.retired_instructions() - 2.0 * instr_1min).abs() < 1e-6 * instr_1min);
    }

    #[test]
    fn gated_core_is_dark_silicon() {
        let mut c = core();
        c.set_gated(true);
        c.step(1.0, 60.0);
        assert_eq!(c.retired_instructions(), 0.0);
        assert_eq!(c.energy(), Joules::ZERO);
        assert_eq!(c.current_power(), Watts::ZERO);
        assert_eq!(c.current_ips(), 0.0);
        assert_eq!(c.die_temperature(), power::MACHINE_AMBIENT);
    }

    #[test]
    fn slower_level_cuts_power_more_than_throughput() {
        let mut c = core();
        let p_hi = c.current_power().get();
        let t_hi = c.current_ips();
        c.set_level(VfLevel::lowest());
        let p_lo = c.current_power().get();
        let t_lo = c.current_ips();
        assert!(
            p_lo / p_hi < t_lo / t_hi,
            "DVFS must be super-linear in power"
        );
    }

    #[test]
    fn what_if_queries_do_not_mutate() {
        let c = core();
        let before = c.clone();
        let _ = c.power_at(VfLevel::lowest(), 1.2);
        let _ = c.ips_at(VfLevel::lowest(), 1.2);
        assert_eq!(c, before);
    }

    #[test]
    fn telemetry_reflects_state() {
        let mut c = core();
        c.set_level(VfLevel::from_index(2).unwrap());
        c.step(1.1, 1.0);
        let t = c.telemetry();
        assert_eq!(t.id, CoreId(3));
        assert_eq!(t.level.index(), 2);
        assert!(!t.gated);
        assert!(t.ips > 0.0);
        assert!(t.power.get() > 0.0);
        assert!((t.ipc - t.ips / t.level.frequency().get()).abs() < 1e-12);
    }

    /// Every power query answers with the bits of a direct
    /// [`power::core_power`] solve, across repeated and changing phases,
    /// signed zeros, gating toggles, a warm clone and a foreign phase.
    #[test]
    fn level_power_table_is_transparent() {
        let direct = |spec: &BenchmarkSpec, level, phase| {
            power::core_power(spec, level, phase, power::MACHINE_AMBIENT)
        };
        let bits = |w: Watts| w.get().to_bits();
        // (phase, gated) per step: a repeat, both zeros, gating on and off.
        let steps = [
            (1.0, false),
            (1.0, false),
            (0.7, false),
            (0.0, false),
            (-0.0, false),
            (-0.0, true),
            (1.3, true),
            (1.3, false),
            (0.7, false),
        ];
        let check = |c: &Core| {
            let (spec, phase) = (*c.spec(), c.phase());
            for level in VfLevel::all() {
                let foreign = direct(&spec, level, phase + 0.25).0;
                let expected = if c.is_gated() { Watts::ZERO } else { foreign };
                assert_eq!(bits(c.power_at(level, phase + 0.25)), bits(expected));
                let (p, _) = direct(&spec, level, phase);
                let expected = if c.is_gated() { Watts::ZERO } else { p };
                assert_eq!(bits(c.power_at(level, phase)), bits(expected));
                assert_eq!(bits(c.potential_power_at(level, phase)), bits(p));
            }
            let (p, die) = direct(&spec, c.level(), phase);
            let (p, die) = if c.is_gated() {
                (Watts::ZERO, power::MACHINE_AMBIENT)
            } else {
                (p, die)
            };
            assert_eq!(bits(c.current_power()), bits(p));
            assert_eq!(c.die_temperature().get().to_bits(), die.get().to_bits());
        };
        for spec in spec2000::all() {
            for start in VfLevel::all() {
                let mut core = Core::new(CoreId(0), spec);
                let mut twin = core.clone();
                for (i, &(phase, gated)) in steps.iter().enumerate() {
                    let level = VfLevel::from_index((start.index() + i) % VfLevel::COUNT).unwrap();
                    for c in [&mut core, &mut twin] {
                        c.set_level(level);
                        c.set_gated(gated);
                        c.step(phase, 60.0);
                    }
                    check(&core);
                    let warm = core.clone();
                    check(&warm);
                    assert_eq!(warm, twin, "a warm table must not affect equality");
                }
            }
            let cold = Core::new(CoreId(1), spec);
            let warm = cold.clone();
            check(&warm);
            assert_eq!(warm.clone(), cold);
        }
    }

    #[test]
    fn die_temperature_rises_with_load() {
        let mut hot = Core::new(CoreId(0), spec2000::art());
        hot.step(1.4, 1.0);
        let mut cool = Core::new(CoreId(1), spec2000::swim());
        cool.set_level(VfLevel::lowest());
        cool.step(0.8, 1.0);
        assert!(hot.die_temperature() > cool.die_temperature());
    }
}
