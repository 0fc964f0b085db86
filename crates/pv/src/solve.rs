//! Warm-started I-V solving and bitwise-transparent result caching.
//!
//! The SolarCore engine solves the module's implicit I-V equation hundreds
//! of thousands of times per simulated day — per tracking perturbation, per
//! golden-section MPP probe, per bisection step of the operating-point
//! solver. Two observations make that hot path fast without changing a
//! single output bit:
//!
//! 1. **Coefficient hoisting** ([`ModuleSolver`]): within one `(G, T)`
//!    environment the photocurrent `Iph`, saturation current `I0` and the
//!    slope scale `n·Vt` are constants, yet the naive solver recomputed
//!    them (two transcendental-heavy evaluations) on every Newton
//!    iteration. The solver resolves them once per environment and replays
//!    the *exact same arithmetic* against the resolved values, so every
//!    returned bit matches the cold path.
//! 2. **Exact-bits memoization** ([`ArrayCache`] / [`CachedArray`]): the
//!    controller's perturb-and-observe loop and the per-minute budget
//!    oracle re-evaluate *identical* `(G, T, V)` triples many times over.
//!    A bounded, deterministic, set-associative memo keyed on
//!    [`f64::to_bits`] returns the previously computed bits verbatim.
//!    Exact-key lookups can never substitute a "close enough" neighbour,
//!    which is what keeps the determinism harness hashes unchanged.
//!
//! Deliberately *not* implemented: seeding Newton from a neighbouring
//! operating point. A different starting iterate walks a different
//! iteration path and converges to a ULP-different root, which would break
//! the bitwise-reproducibility contract (see DESIGN.md §13).
//!
//! The memo structure is a fixed-capacity array of 4-way sets with
//! eldest-stamp replacement — no `HashMap` (an iteration-order hazard the
//! root `clippy.toml` disallows), no unbounded growth, no ambient state.

use core::cell::RefCell;

use crate::array::PvArray;
use crate::cell::{CellCoeffs, CellEnv};
use crate::error::PvError;
use crate::generator::PvGenerator;
use crate::module::PvModule;
use crate::mpp::{self, MppPoint};
use crate::units::{Amps, Volts, Watts};

/// A per-environment module solver: [`CellCoeffs`] resolved once, then
/// reused across every residual evaluation of every solve under the same
/// `(G, T)`.
///
/// All methods are bitwise identical to the corresponding [`PvModule`]
/// methods (which construct a throwaway solver per call); holding a solver
/// across calls only amortizes the coefficient resolution.
#[derive(Debug, Clone)]
pub struct ModuleSolver<'m> {
    module: &'m PvModule,
    env: CellEnv,
    coeffs: CellCoeffs,
}

/// Maximum iterations for the hybrid Newton/bisection current solver.
const MAX_SOLVER_ITERS: u32 = 128;

/// Convergence tolerance on the current residual, in amperes.
const CURRENT_TOLERANCE: f64 = 1e-10;

impl<'m> ModuleSolver<'m> {
    /// Resolves the `(G, T)` coefficients of `module` under `env`.
    pub fn new(module: &'m PvModule, env: CellEnv) -> Self {
        Self {
            module,
            env,
            coeffs: CellCoeffs::resolve(module.cell(), env),
        }
    }

    /// The module this solver was resolved for.
    pub fn module(&self) -> &'m PvModule {
        self.module
    }

    /// The environment this solver was resolved for.
    pub fn env(&self) -> CellEnv {
        self.env
    }

    /// Open-circuit voltage `Voc` (closed form); zero in darkness.
    pub fn open_circuit_voltage(&self) -> Volts {
        let v_cell = self.coeffs.open_circuit_cell_voltage();
        if v_cell <= Volts::ZERO {
            return Volts::ZERO;
        }
        Volts::new(v_cell.get() * self.module.cells_series() as f64)
    }

    /// Module output current at a prescribed terminal voltage — the
    /// bracketed Newton/bisection hybrid of [`PvModule::current_at`], run
    /// against the pre-resolved coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::NoConvergence`] if the solver exhausts its
    /// iteration budget (not expected for physical inputs) and
    /// [`PvError::InvalidParameter`] for non-finite voltage.
    pub fn current_at(&self, voltage: Volts) -> Result<Amps, PvError> {
        Ok(self.current_at_counted(voltage)?.0)
    }

    /// [`Self::current_at`] plus the number of Newton/bisection iterations
    /// the solve took — the telemetry subsystem's per-solve cost signal
    /// (DESIGN.md §14). The arithmetic is *identical* to `current_at`
    /// (which now delegates here), so counting is observationally free:
    /// every returned current bit is unchanged.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::current_at`].
    pub fn current_at_counted(&self, voltage: Volts) -> Result<(Amps, u32), PvError> {
        if !voltage.is_finite() {
            return Err(PvError::InvalidParameter {
                name: "voltage",
                value: voltage.get(),
                constraint: "must be finite",
            });
        }
        let v_cell = Volts::new(voltage.get() / self.module.cells_series() as f64);
        let iph = self.coeffs.photocurrent().get();

        // Bracket the root of the strictly-decreasing residual f(i):
        // f(iph) <= 0 always; expand the lower bound until f(lo) >= 0.
        let mut hi = iph;
        let mut lo = 0.0_f64.min(-0.01 * iph.max(1.0));
        let mut expand = 0;
        while self.coeffs.residual(v_cell, Amps::new(lo)).get() < 0.0 {
            lo = lo * 4.0 - 1.0;
            expand += 1;
            if expand > 64 {
                return Err(PvError::NoConvergence {
                    context: "bracketing module current",
                    iterations: expand,
                });
            }
        }
        debug_assert!(self.coeffs.residual(v_cell, Amps::new(hi)).get() <= 0.0);

        // Newton iterations, falling back to bisection whenever the step
        // would leave the bracket (guaranteed convergence).
        let strings = self.module.strings_parallel() as f64;
        let mut i = 0.5 * (lo + hi);
        for iter in 0..MAX_SOLVER_ITERS {
            let f = self.coeffs.residual(v_cell, Amps::new(i)).get();
            if f.abs() < CURRENT_TOLERANCE {
                return Ok((Amps::new(i * strings), iter + 1));
            }
            if f > 0.0 {
                lo = i;
            } else {
                hi = i;
            }
            let df = self.coeffs.residual_di(v_cell, Amps::new(i));
            let newton = i - f / df;
            i = if newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo).abs() < CURRENT_TOLERANCE {
                return Ok((Amps::new(i * strings), iter + 1));
            }
        }
        Err(PvError::NoConvergence {
            context: "module current at voltage",
            iterations: MAX_SOLVER_ITERS,
        })
    }

    /// Output power at a prescribed terminal voltage.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Self::current_at`].
    pub fn power_at(&self, voltage: Volts) -> Result<Watts, PvError> {
        Ok(voltage * self.current_at(voltage)?)
    }

    /// Locates the module's maximum power point; delegates to
    /// [`mpp::find_mpp_with`] so the whole golden-section search shares one
    /// coefficient resolution.
    pub fn mpp(&self) -> MppPoint {
        mpp::find_mpp_with(self)
    }
}

/// Exact-bits key of one cached quantity: the `to_bits` patterns of
/// irradiance and temperature, plus (for I-V solves) the terminal voltage.
type EnvKey = (u64, u64);

/// Key of one I-V solve: environment plus terminal-voltage bits.
type SolveKey = (u64, u64, u64);

/// Associativity of the memo sets: replacement candidates per index.
const WAYS: usize = 4;

/// Sets in the I-V solve memo (capacity = `SOLVE_SETS × WAYS` entries).
/// Sized to hold the working set of a few simulated minutes of controller
/// perturbation with room to spare; ~40 B/entry, so ≈160 KiB total.
const SOLVE_SETS: usize = 1024;

/// Sets in the per-environment memo (`Voc`, MPP). A simulated day has 601
/// distinct `(G, T)` samples; `512 × 4` entries keep a whole day resident
/// so every policy after the first in a batch hits.
const ENV_SETS: usize = 512;

/// One stored I-V solve.
#[derive(Debug, Clone, Copy)]
struct SolveEntry {
    key: SolveKey,
    /// `to_bits` of the solved current — stored and returned verbatim.
    current_bits: u64,
    /// Replacement stamp (monotonic per cache; eldest way is evicted).
    stamp: u64,
}

/// One stored per-environment record.
#[derive(Debug, Clone, Copy)]
struct EnvEntry {
    key: EnvKey,
    /// `to_bits` of the open-circuit voltage, when resolved.
    voc_bits: Option<u64>,
    /// The located maximum power point, when resolved.
    mpp: Option<MppPoint>,
    stamp: u64,
}

/// FNV-1a over the key bytes — deterministic, platform-independent set
/// indexing (the same construction the determinism harness hashes with).
fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// Set indices are `hash % set-count` with set-count ≤ 1024, so the cast
// cannot truncate.
#[allow(clippy::cast_possible_truncation)]
fn set_index(hash: u64, sets: usize) -> usize {
    (hash % sets as u64) as usize
}

/// Mutable interior of an [`ArrayCache`].
#[derive(Debug)]
struct CacheState {
    solves: Vec<[Option<SolveEntry>; WAYS]>,
    envs: Vec<[Option<EnvEntry>; WAYS]>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl CacheState {
    fn new() -> Self {
        Self {
            solves: vec![[None; WAYS]; SOLVE_SETS],
            envs: vec![[None; WAYS]; ENV_SETS],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.stamp = self.stamp.wrapping_add(1);
        self.stamp
    }

    fn lookup_solve(&mut self, key: SolveKey) -> Option<u64> {
        let idx = set_index(fnv(&[key.0, key.1, key.2]), self.solves.len());
        let stamp = self.tick();
        for entry in self.solves[idx].iter_mut().flatten() {
            if entry.key == key {
                entry.stamp = stamp;
                self.hits += 1;
                return Some(entry.current_bits);
            }
        }
        self.misses += 1;
        None
    }

    fn store_solve(&mut self, key: SolveKey, current_bits: u64) {
        let idx = set_index(fnv(&[key.0, key.1, key.2]), self.solves.len());
        let stamp = self.tick();
        let entry = SolveEntry {
            key,
            current_bits,
            stamp,
        };
        let set = &mut self.solves[idx];
        let slot = eldest_way(set.iter().map(|w| w.as_ref().map(|e| e.stamp)));
        set[slot] = Some(entry);
    }

    fn lookup_env(&mut self, key: EnvKey) -> Option<EnvEntry> {
        let idx = set_index(fnv(&[key.0, key.1]), self.envs.len());
        let stamp = self.tick();
        for entry in self.envs[idx].iter_mut().flatten() {
            if entry.key == key {
                entry.stamp = stamp;
                return Some(*entry);
            }
        }
        None
    }

    /// Merges one field of the per-environment record, creating or
    /// refreshing the entry.
    fn update_env(&mut self, key: EnvKey, voc_bits: Option<u64>, mpp: Option<MppPoint>) {
        let idx = set_index(fnv(&[key.0, key.1]), self.envs.len());
        let stamp = self.tick();
        let set = &mut self.envs[idx];
        for entry in set.iter_mut().flatten() {
            if entry.key == key {
                entry.voc_bits = voc_bits.or(entry.voc_bits);
                entry.mpp = mpp.or(entry.mpp);
                entry.stamp = stamp;
                return;
            }
        }
        let slot = eldest_way(set.iter().map(|w| w.as_ref().map(|e| e.stamp)));
        set[slot] = Some(EnvEntry {
            key,
            voc_bits,
            mpp,
            stamp,
        });
    }
}

/// Picks the replacement way: the first empty slot, else the eldest stamp.
/// Purely a function of cache history — no randomness, no ambient state —
/// so replacement (and therefore every hit/miss sequence) is deterministic.
fn eldest_way(stamps: impl Iterator<Item = Option<u64>>) -> usize {
    let mut slot = 0;
    let mut eldest = u64::MAX;
    for (i, stamp) in stamps.enumerate() {
        match stamp {
            None => return i,
            Some(s) if s < eldest => {
                eldest = s;
                slot = i;
            }
            Some(_) => {}
        }
    }
    slot
}

/// Hit/miss counters of an [`ArrayCache`], for tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key I-V solve lookups that returned stored bits.
    pub hits: u64,
    /// I-V solve lookups that fell through to the cold solver.
    pub misses: u64,
}

/// Bounded, deterministic memo for one [`PvArray`]'s solved quantities,
/// keyed on exact `f64` bit patterns.
///
/// Interior-mutable (`RefCell`) so it can sit behind the `&self` methods of
/// [`PvGenerator`]; consequently single-threaded by construction, which
/// matches how the engine uses it — one cache per day-simulation run, each
/// run confined to one worker thread of the deterministic `parallel_map`.
#[derive(Debug)]
pub struct ArrayCache {
    state: RefCell<CacheState>,
}

impl Default for ArrayCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArrayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            state: RefCell::new(CacheState::new()),
        }
    }

    /// Current hit/miss counters (I-V solve memo only).
    pub fn stats(&self) -> CacheStats {
        let state = self.state.borrow();
        CacheStats {
            hits: state.hits,
            misses: state.misses,
        }
    }
}

/// A [`PvArray`] view that consults an [`ArrayCache`] before solving.
///
/// Every miss delegates to the *plain* [`PvArray`] implementation and
/// stores the returned bits; every hit replays stored bits verbatim. The
/// wrapper therefore cannot produce a value the uncached array would not —
/// bit-transparency is structural, not numerical, and the differential
/// tests in `crates/pv/tests/cache_transparency.rs` verify it end to end.
#[derive(Debug)]
pub struct CachedArray<'a> {
    array: &'a PvArray,
    cache: &'a ArrayCache,
}

impl<'a> CachedArray<'a> {
    /// Attaches a cache to an array.
    pub fn new(array: &'a PvArray, cache: &'a ArrayCache) -> Self {
        Self { array, cache }
    }

    /// The wrapped array.
    pub fn array(&self) -> &'a PvArray {
        self.array
    }

    fn env_key(env: CellEnv) -> EnvKey {
        (
            env.irradiance.get().to_bits(),
            env.temperature.get().to_bits(),
        )
    }
}

impl PvGenerator for CachedArray<'_> {
    fn open_circuit_voltage(&self, env: CellEnv) -> Volts {
        let key = Self::env_key(env);
        let cached = self.cache.state.borrow_mut().lookup_env(key);
        if let Some(bits) = cached.and_then(|e| e.voc_bits) {
            return Volts::new(f64::from_bits(bits));
        }
        let voc = self.array.open_circuit_voltage(env);
        self.cache
            .state
            .borrow_mut()
            .update_env(key, Some(voc.get().to_bits()), None);
        voc
    }

    fn current_at(&self, env: CellEnv, voltage: Volts) -> Result<Amps, PvError> {
        Ok(self.current_at_counted(env, voltage)?.0)
    }

    fn current_at_counted(&self, env: CellEnv, voltage: Volts) -> Result<(Amps, u32), PvError> {
        if !voltage.is_finite() {
            // Error paths are not memoized; delegate for the exact error.
            return self.array.current_at_counted(env, voltage);
        }
        let (g, t) = Self::env_key(env);
        let key = (g, t, voltage.get().to_bits());
        let hit = self.cache.state.borrow_mut().lookup_solve(key);
        if let Some(bits) = hit {
            // A replayed memo entry costs zero solver iterations — exactly
            // what the telemetry histogram should show for a warm cache.
            return Ok((Amps::new(f64::from_bits(bits)), 0));
        }
        let (current, iters) = self.array.current_at_counted(env, voltage)?;
        self.cache
            .state
            .borrow_mut()
            .store_solve(key, current.get().to_bits());
        Ok((current, iters))
    }

    fn mpp(&self, env: CellEnv) -> MppPoint {
        let key = Self::env_key(env);
        let cached = self.cache.state.borrow_mut().lookup_env(key);
        if let Some(point) = cached.and_then(|e| e.mpp) {
            return point;
        }
        let point = self.array.mpp(env);
        self.cache
            .state
            .borrow_mut()
            .update_env(key, None, Some(point));
        point
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{Celsius, Irradiance};

    fn env(g: f64, t: f64) -> CellEnv {
        CellEnv::new(Irradiance::new(g), Celsius::new(t))
    }

    #[test]
    fn solver_matches_module_bit_for_bit() {
        let module = PvModule::bp3180n();
        for (g, t) in [(1000.0, 25.0), (450.0, 11.0), (80.0, -3.0), (0.0, 20.0)] {
            let e = env(g, t);
            let solver = ModuleSolver::new(&module, e);
            assert_eq!(
                solver.open_circuit_voltage().get().to_bits(),
                module.open_circuit_voltage(e).get().to_bits()
            );
            for step in 0..=45 {
                let v = Volts::new(step as f64);
                let a = solver.current_at(v).unwrap().get().to_bits();
                let b = module.current_at(e, v).unwrap().get().to_bits();
                assert_eq!(a, b, "G={g} T={t} V={step}");
            }
            let sm = solver.mpp();
            let mm = module.mpp(e);
            assert_eq!(sm.voltage.get().to_bits(), mm.voltage.get().to_bits());
            assert_eq!(sm.power.get().to_bits(), mm.power.get().to_bits());
        }
    }

    #[test]
    fn cached_array_replays_stored_bits() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        let e = env(700.0, 30.0);
        let v = Volts::new(33.5);

        let cold = array.current_at(e, v).unwrap();
        let first = cached.current_at(e, v).unwrap();
        let second = cached.current_at(e, v).unwrap();
        assert_eq!(cold.get().to_bits(), first.get().to_bits());
        assert_eq!(first.get().to_bits(), second.get().to_bits());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cached_mpp_and_voc_match_plain_array() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        let e = env(820.0, 18.5);
        // Twice each: miss then hit, identical bits both times.
        for _ in 0..2 {
            assert_eq!(
                cached.mpp(e).power.get().to_bits(),
                array.mpp(e).power.get().to_bits()
            );
            assert_eq!(
                cached.open_circuit_voltage(e).get().to_bits(),
                array.open_circuit_voltage(e).get().to_bits()
            );
        }
    }

    #[test]
    fn cache_capacity_is_bounded_under_churn() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        // Far more distinct keys than capacity: replacement must cycle
        // without panicking and later lookups must still be correct.
        for step in 0..6000 {
            let v = Volts::new(10.0 + (step % 300) as f64 * 0.1);
            let e = env(400.0 + (step / 300) as f64, 25.0);
            let a = cached.current_at(e, v).unwrap();
            let b = array.current_at(e, v).unwrap();
            assert_eq!(a.get().to_bits(), b.get().to_bits());
        }
    }

    #[test]
    fn error_paths_are_uncached_and_propagate() {
        let array = PvArray::solarcore_default();
        let cache = ArrayCache::new();
        let cached = CachedArray::new(&array, &cache);
        let e = env(1000.0, 25.0);
        assert!(cached.current_at(e, Volts::new(f64::NAN)).is_err());
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn eldest_way_prefers_empty_then_oldest() {
        assert_eq!(eldest_way([None, None].into_iter()), 0);
        assert_eq!(eldest_way([Some(5), None].into_iter()), 1);
        assert_eq!(eldest_way([Some(5), Some(2), Some(9)].into_iter()), 1);
    }
}
